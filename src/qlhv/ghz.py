"""Exhaustive sign algebra for the three-party GHZ constraints.

Each party carries a triple (±i, ±j, ±k).  An assignment of the nine signs
is an int in range(512): bit 8 - (3*party + axis) is set when that party's
unit for that axis (x -> i, y -> j, z -> k) carries -1; labels such as
"+i" come only from export_assignments.  xxx_product and
export_assignments take an assignment only if it is an integer by the rule
of qlhv.tolerances and in range(512); any other value, 512, -1, True or
1.5 among them, raises ValueError("assignment outside 0..511: ...").
Each of the three product constraints (xyy, yxy, yyx) is the parity of
the assignment under a mask, and condition_set lists the assignments that
meet one, computed on each call; the punchline product over the three x
components is evaluated as an exact quaternion product.
classical_parity_check brute-forces the all-real counterpart and returns a
plain ParityCheckReport.

Two sets are cached, each built once per process: full_intersection, which
ghz-verify reads twice, once through ghz_intersection; and
ghz_intersection, whose first build the benchmark's cold-build probe times.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .quaternions import AXIS_BASIS, Q8Element, q8_product
from .tolerances import integer

PATTERNS = ("xyy", "yxy", "yyx")


def _bit(party: int, axis: str) -> int:
    return 1 << (8 - 3 * party - "xyz".index(axis))


def _mask(axes: str) -> int:
    """The bits of one axis per party, e.g. "xyy"."""
    return sum(_bit(party, axis) for party, axis in enumerate(axes))


def _unit(assignment: int, party: int, axis: str) -> Q8Element:
    """The signed unit that one party carries for one axis."""
    return Q8Element(AXIS_BASIS[axis], -1 if assignment & _bit(party, axis) else 1)


def enumerate_assignments() -> range:
    """All 8^3 = 512 assignments, as the ints 0..511."""
    return range(512)


def _checked(assignment) -> int:
    # integer() is None, which no range holds, for a non-integer
    if integer(assignment) not in range(512):
        raise ValueError(f"assignment outside 0..511: {assignment!r}")
    return integer(assignment)


def condition_set(pattern: str) -> frozenset[int]:
    """All assignments satisfying one sign-product condition; a single
    parity constraint, so exactly half the 512-element space."""
    # a str first: an array equal to a pattern is `in` PATTERNS
    if not isinstance(pattern, str) or pattern not in PATTERNS:
        raise ValueError(f"unknown condition pattern: {pattern!r}")
    return frozenset(a for a in enumerate_assignments() if (a & _mask(pattern)).bit_count() % 2 == 0)


@lru_cache(maxsize=None)
def full_intersection() -> frozenset[int]:
    """Assignments satisfying all three conditions simultaneously.

    Three independent parity constraints on nine signs leave 512/8 = 64
    assignments.  The quaternion product of the three x components is -i
    on every one of them.
    """
    return frozenset.intersection(*(condition_set(p) for p in PATTERNS))


@lru_cache(maxsize=None)
def ghz_intersection() -> frozenset[int]:
    """The aligned part of the joint solution set: assignments satisfying
    all three conditions in which each party's x and y components carry
    the same sign.

    Under the three conditions, per-party x/y alignment is equivalent to
    all three constraints being met through the same one of the four sign
    patterns (+++ / +-- / -+- / --+), which yields four families of 8
    assignments each (the z signs stay free): 32 assignments.
    """
    # each party's x bit sits one place above its y bit
    xs, ys = _mask("xxx"), _mask("yyy")
    return frozenset(a for a in full_intersection() if (a & xs) >> 1 == a & ys)


def xxx_product(assignment: int) -> Q8Element:
    """Quaternion product of the three x components, in party order."""
    assignment = _checked(assignment)
    return q8_product([_unit(assignment, party, "x") for party in range(3)])


class ParityCheckReport(NamedTuple):
    """Outcome of the all-real sign check, a plain result that only
    classical_parity_check builds: how many of the 2^6 sign assignments
    satisfy the three conditions, and the (constant) product of the three
    x signs over that satisfying set, as a frozenset of +1 and -1."""

    satisfying_count: int
    xxx_sign_products: frozenset[int]

    @property
    def constant_product(self) -> int | None:
        if len(self.xxx_sign_products) == 1:
            return next(iter(self.xxx_sign_products))
        return None


def classical_parity_check() -> ParityCheckReport:
    """Brute-force the real-valued counterpart: six independent signs
    S1x, S1y, S2x, S2y, S3x, S3y in {+1, -1}.  Whenever the three product
    conditions hold, the product S1x*S2x*S3x is forced to +1 -- the value
    the quantum eigenrelations contradict."""
    count = 0
    products: set[int] = set()
    for s1x, s1y, s2x, s2y, s3x, s3y in itertools.product((1, -1), repeat=6):
        if s1x * s2y * s3y == 1 and s1y * s2x * s3y == 1 and s1y * s2y * s3x == 1:
            count += 1
            products.add(s1x * s2x * s3x)
    return ParityCheckReport(satisfying_count=count, xxx_sign_products=frozenset(products))


def export_assignments(assignments) -> list[list[list[str]]]:
    """Label export, e.g. [["+i", "+j", "-k"], ...] per party.  Descending
    ints put -1 before +1, party by party and axis by axis."""
    try:
        checked = sorted(map(_checked, assignments), reverse=True)
    except TypeError:   # no iterable
        raise ValueError(f"assignments must be an iterable of assignments, got {assignments!r}") from None
    return [[[str(_unit(a, party, axis)) for axis in "xyz"] for party in range(3)] for a in checked]
