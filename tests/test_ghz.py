import itertools

import numpy as np
import pytest

from qlhv.ghz import (
    PATTERNS,
    ParityCheckReport,
    classical_parity_check,
    condition_set,
    enumerate_assignments,
    export_assignments,
    full_intersection,
    ghz_intersection,
    xxx_product,
)
from qlhv.quaternions import Basis, Q8Element

I = Q8Element(Basis.I, 1)


def assignment(*sign_triples):
    """The int of three (x, y, z) sign triples, party 1 first: the k-th of
    the nine signs sets bit 8 - k when it is -1."""
    signs = [s for triple in sign_triples for s in triple]
    return sum(1 << (8 - k) for k, s in enumerate(signs) if s < 0)


def rotate_parties(a):
    """Cyclic shift party 1 -> 2 -> 3 -> 1."""
    return ((a & 0b111) << 6) | (a >> 3)


ALL_PLUS = assignment((1, 1, 1), (1, 1, 1), (1, 1, 1))
ALL_MINUS = assignment((-1, -1, -1), (-1, -1, -1), (-1, -1, -1))


def aligned_family_listing():
    """Independent construction of the four aligned families: every party
    carries matching x/y signs, an even number of parties carry the
    negative pair (patterns +++, +--, -+-, --+), and z signs are free."""
    xy_choices = ((1, 1), (1, 1), (1, 1)), \
        ((1, 1), (-1, -1), (-1, -1)), \
        ((-1, -1), (1, 1), (-1, -1)), \
        ((-1, -1), (-1, -1), (1, 1))
    out = set()
    for family in xy_choices:
        for z1, z2, z3 in itertools.product((1, -1), repeat=3):
            out.add(
                assignment(
                    (family[0][0], family[0][1], z1),
                    (family[1][0], family[1][1], z2),
                    (family[2][0], family[2][1], z3),
                )
            )
    return frozenset(out)


def test_enumeration_has_512_distinct_assignments():
    assignments = enumerate_assignments()
    assert len(assignments) == 512
    assert len(set(assignments)) == 512
    assert ALL_PLUS in assignments
    assert ALL_MINUS in assignments


def test_assignments_decode_each_axis_to_its_unit():
    # x -> i, y -> j, z -> k, each with the sign the assignment gives it
    for signs in itertools.product((1, -1), repeat=9):
        triples = (signs[0:3], signs[3:6], signs[6:9])
        labels = [[("+" if s > 0 else "-") + unit for s, unit in zip(t, "ijk")] for t in triples]
        assert export_assignments([assignment(*triples)]) == [labels]
    exported = export_assignments(enumerate_assignments())
    assert len({repr(labels) for labels in exported}) == 512


def test_condition_set_examples():
    assert ALL_PLUS in condition_set("xyy")
    # unselected components are irrelevant
    assert assignment((1, -1, 1), (1, 1, 1), (1, 1, 1)) in condition_set("xyy")
    # one flipped selected sign breaks the parity
    assert assignment((-1, 1, 1), (1, 1, 1), (1, 1, 1)) not in condition_set("xyy")
    with pytest.raises(ValueError, match="unknown condition pattern: 'xxy'"):
        condition_set("xxy")


@pytest.mark.parametrize("pattern, message", [
    pytest.param(["xyy"], "unknown condition pattern: \\['xyy'\\]", id="unhashable"),
    pytest.param({"xyy"}, "unknown condition pattern: \\{'xyy'\\}", id="set"),
    pytest.param(np.array(["xyy"]), "unknown condition pattern: array\\(\\['xyy'\\], dtype='<U3'\\)",
                 id="array"),
])
def test_condition_set_rejects_unknown_patterns(pattern, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        condition_set(pattern)


def test_condition_sets_have_size_256():
    for pattern in PATTERNS:
        assert len(condition_set(pattern)) == 256


def test_condition_set_contains_first_possibility_family():
    # all assignments with party1 sx=+i, party2 sy=+j, party3 sy=+j
    members = condition_set("xyy")
    for signs in itertools.product((1, -1), repeat=6):
        a = assignment(
            (1, signs[0], signs[1]),
            (signs[2], 1, signs[3]),
            (signs[4], 1, signs[5]),
        )
        assert a in members


def test_condition_sets_are_cyclic_relabels():
    rotated = frozenset(rotate_parties(a) for a in condition_set("xyy"))
    assert rotated == condition_set("yxy")
    rotated_twice = frozenset(rotate_parties(a) for a in condition_set("yxy"))
    assert rotated_twice == condition_set("yyx")


def test_condition_set_closed_under_unselected_sign_flips():
    members = condition_set("xyy")
    flip_mask = assignment((1, -1, -1), (-1, 1, -1), (-1, 1, 1))
    for a in members:
        assert a ^ flip_mask in members


def test_intersection_size_and_membership():
    inter = ghz_intersection()
    assert len(inter) == 32
    assert assignment((1, 1, 1), (1, 1, 1), (1, 1, -1)) in inter
    assert assignment((1, -1, 1), (1, 1, 1), (1, 1, 1)) not in inter


def test_intersection_equals_family_listing():
    assert ghz_intersection() == aligned_family_listing()


def test_intersection_invariant_under_party_rotation():
    inter = ghz_intersection()
    assert frozenset(rotate_parties(a) for a in inter) == inter
    joint = full_intersection()
    assert frozenset(rotate_parties(a) for a in joint) == joint


def test_full_intersection_is_larger_superset():
    joint = full_intersection()
    assert len(joint) == 64
    assert ghz_intersection() < joint
    for a in joint:
        for pattern in PATTERNS:
            assert a in condition_set(pattern)


def test_xxx_product_examples():
    assert xxx_product(ALL_PLUS) == -I
    assert xxx_product(assignment((1, 1, 1), (-1, 1, 1), (-1, 1, 1))) == -I
    assert xxx_product(assignment((-1, 1, 1), (1, 1, 1), (1, 1, 1))) == I


def test_xxx_product_constant_on_intersections():
    for a in ghz_intersection():
        assert xxx_product(a) == -I
    # the constancy extends to the whole joint solution set
    for a in full_intersection():
        assert xxx_product(a) == -I


def test_classical_parity_check():
    report = classical_parity_check()
    assert report.xxx_sign_products == frozenset({1})
    assert report.constant_product == 1
    # 2^6 sign assignments under three independent parity constraints
    assert report.satisfying_count == 8
    # the all-positive assignment satisfies every condition
    assert all(ALL_PLUS in condition_set(p) for p in PATTERNS)


def test_parity_report_is_a_plain_result():
    # a product that differs across the satisfying set has no constant
    assert ParityCheckReport(8, frozenset({1, -1})).constant_product is None
    assert ParityCheckReport(8, frozenset({-1})).constant_product == -1
    assert classical_parity_check() == (8, frozenset({1}))


@pytest.mark.parametrize("value, accepted", [
    (512, False), (-1, False), (True, False), (1.5, False), ("3", False), (None, False),
    (0, True), (511, True), (np.int64(7), True),
])
def test_assignment_boundary_takes_only_integers_in_0_to_511(value, accepted):
    for call in (xxx_product, lambda a: export_assignments([a])):
        if accepted:
            assert call(value) == call(int(value))
        else:
            with pytest.raises(ValueError, match="assignment outside 0..511"):
                call(value)


def test_export_format():
    exported = export_assignments([ALL_PLUS])
    assert exported == [[["+i", "+j", "+k"], ["+i", "+j", "+k"], ["+i", "+j", "+k"]]]
