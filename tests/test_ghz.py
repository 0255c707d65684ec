import itertools

import pytest

from qlhv.ghz import (
    GhzAssignment,
    PartyTriple,
    PATTERNS,
    classical_parity_check,
    condition_set,
    enumerate_assignments,
    export_assignments,
    full_intersection,
    ghz_intersection,
    satisfies,
    xxx_product,
)
from qlhv.quaternions import Basis, Q8Element, I


def triple(ex, ey, ez):
    return PartyTriple.from_signs(ex, ey, ez)


def assignment(*sign_triples):
    return GhzAssignment(parties=tuple(triple(*s) for s in sign_triples))


def rotate_parties(a):
    """Cyclic shift party 1 -> 2 -> 3 -> 1."""
    p1, p2, p3 = a.parties
    return GhzAssignment(parties=(p3, p1, p2))


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


def test_party_triple_validates_bases():
    with pytest.raises(ValueError):
        PartyTriple(Q8Element(Basis.J), Q8Element(Basis.J), Q8Element(Basis.K))


def test_satisfies_examples():
    assert satisfies(ALL_PLUS, "xyy")
    # unselected components are irrelevant
    assert satisfies(assignment((1, -1, 1), (1, 1, 1), (1, 1, 1)), "xyy")
    # one flipped selected sign breaks the parity
    assert not satisfies(assignment((-1, 1, 1), (1, 1, 1), (1, 1, 1)), "xyy")
    with pytest.raises(ValueError):
        satisfies(ALL_PLUS, "xxy")


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
    sample = list(members)[:64]
    for a in sample:
        p1, p2, p3 = a.parties
        flipped = GhzAssignment(
            parties=(
                PartyTriple(p1.sx, -p1.sy, -p1.sz),
                PartyTriple(-p2.sx, p2.sy, -p2.sz),
                PartyTriple(-p3.sx, p3.sy, p3.sz),
            )
        )
        assert flipped in members


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
            assert satisfies(a, pattern)


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
    assert satisfies(ALL_PLUS, "xyy") and satisfies(ALL_PLUS, "yxy") and satisfies(ALL_PLUS, "yyx")


def test_export_format():
    exported = export_assignments([ALL_PLUS])
    assert exported == [[["+i", "+j", "+k"], ["+i", "+j", "+k"], ["+i", "+j", "+k"]]]
