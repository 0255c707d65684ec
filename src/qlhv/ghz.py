"""Exhaustive sign algebra for the three-party GHZ constraints.

Each party carries a triple (±i, ±j, ±k).  The three product constraints
(xyy, yxy, yyx) are evaluated on the signs of the selected components;
the punchline product over the three x components is evaluated as an
exact quaternion product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

from .quaternions import Basis, Q8Element, q8_product

PATTERNS = ("xyy", "yxy", "yyx")

_COMPONENT_BASIS = {"x": Basis.I, "y": Basis.J, "z": Basis.K}


@dataclass(frozen=True, order=True)
class PartyTriple:
    """One party's values for the x, y and z components: a signed i, a
    signed j and a signed k."""

    sx: Q8Element
    sy: Q8Element
    sz: Q8Element

    def __post_init__(self):
        if self.sx.basis is not Basis.I or self.sy.basis is not Basis.J or self.sz.basis is not Basis.K:
            raise ValueError("party triple must be (signed i, signed j, signed k)")

    def component(self, axis: str) -> Q8Element:
        return {"x": self.sx, "y": self.sy, "z": self.sz}[axis]

    @classmethod
    def from_signs(cls, ex: int, ey: int, ez: int) -> "PartyTriple":
        return cls(Q8Element(Basis.I, ex), Q8Element(Basis.J, ey), Q8Element(Basis.K, ez))


@dataclass(frozen=True, order=True)
class GhzAssignment:
    """Ordered triple of party triples (party 1, 2, 3)."""

    parties: tuple[PartyTriple, PartyTriple, PartyTriple]

    def to_labels(self) -> list[list[str]]:
        return [[str(p.sx), str(p.sy), str(p.sz)] for p in self.parties]


@lru_cache(maxsize=None)
def enumerate_assignments() -> tuple[GhzAssignment, ...]:
    """All 8^3 = 512 assignments, in a fixed deterministic order."""
    triples = [
        PartyTriple.from_signs(ex, ey, ez)
        for ex, ey, ez in itertools.product((1, -1), repeat=3)
    ]
    return tuple(
        GhzAssignment(parties=(p1, p2, p3))
        for p1, p2, p3 in itertools.product(triples, repeat=3)
    )


def satisfies(assignment: GhzAssignment, pattern: str) -> bool:
    """True iff the signs of the selected components (one axis letter per
    party) multiply to +1."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown condition pattern: {pattern!r}")
    sign = 1
    for party, axis in zip(assignment.parties, pattern):
        sign *= party.component(axis).sign
    return sign == 1


@lru_cache(maxsize=None)
def condition_set(pattern: str) -> frozenset[GhzAssignment]:
    """All assignments satisfying one sign-product condition; a single
    parity constraint, so exactly half the 512-element space."""
    return frozenset(a for a in enumerate_assignments() if satisfies(a, pattern))


@lru_cache(maxsize=None)
def full_intersection() -> frozenset[GhzAssignment]:
    """Assignments satisfying all three conditions simultaneously.

    Three independent parity constraints on nine signs leave 512/8 = 64
    assignments.  The quaternion product of the three x components is -i
    on every one of them.
    """
    sets = [condition_set(p) for p in PATTERNS]
    return frozenset(reduce(frozenset.intersection, sets))


@lru_cache(maxsize=None)
def ghz_intersection() -> frozenset[GhzAssignment]:
    """The aligned part of the joint solution set: assignments satisfying
    all three conditions in which each party's x and y components carry
    the same sign.

    Under the three conditions, per-party x/y alignment is equivalent to
    all three constraints being met through the same one of the four sign
    patterns (+++ / +-- / -+- / --+), which yields four families of 8
    assignments each (the z signs stay free): 32 assignments.
    """
    return frozenset(
        a
        for a in full_intersection()
        if all(p.sx.sign == p.sy.sign for p in a.parties)
    )


def xxx_product(assignment: GhzAssignment) -> Q8Element:
    """Quaternion product of the three x components, in party order."""
    return q8_product([p.sx for p in assignment.parties])


@dataclass(frozen=True)
class ParityCheckReport:
    """Outcome of the all-real sign check: how many of the 2^6 sign
    assignments satisfy the three conditions, and the (constant) product
    of the three x signs over that satisfying set."""

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
    """Sorted label export, e.g. [["+i", "+j", "-k"], ...] per party."""
    return [a.to_labels() for a in sorted(assignments)]
