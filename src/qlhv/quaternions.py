"""Exact arithmetic in the 8-element unit-quaternion group.

The group {±1, ±i, ±j, ±k} is represented exactly (no floating point) so
that identities proved over it hold with no tolerance.  The package has no
floating-point quaternion type and no float helper.  _basis_product is the
one statement of the Hamilton relations, and q8_mul calls it on every
product.  q8_product takes an iterable of Q8Element values, else
ValueError.
"""

from __future__ import annotations

from collections import namedtuple
from enum import IntEnum
from functools import reduce
from typing import Iterable

from .tolerances import CheckedRecord, integer


class Basis(IntEnum):
    ONE = 0
    I = 1
    J = 2
    K = 3


_SYMBOL = {Basis.ONE: "1", Basis.I: "i", Basis.J: "j", Basis.K: "k"}

# the unit carried by each spatial axis
AXIS_BASIS = {"x": Basis.I, "y": Basis.J, "z": Basis.K}


# Hamilton relations i^2 = j^2 = k^2 = ijk = -1: the product of two distinct
# pure units is the third, with sign +1 along the cycle i -> j -> k -> i.
def _basis_product(a: Basis, b: Basis) -> tuple[Basis, int]:
    if Basis.ONE in (a, b):
        return Basis(a + b), 1
    if a == b:
        return Basis.ONE, -1
    return Basis(6 - a - b), 1 if (b - a) % 3 == 1 else -1


class Q8Element(CheckedRecord, namedtuple("Q8Element", "basis sign")):
    """One of the eight unit quaternions ±1, ±i, ±j, ±k: a Basis and a sign,
    the integer +1 or -1, ordered by basis, then sign."""

    __slots__ = ()

    def __new__(cls, basis: Basis, sign: int = 1):
        if not isinstance(basis, Basis):
            raise ValueError(f"basis must be a Basis member, got {basis!r}")
        checked = integer(sign)
        if checked not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return super().__new__(cls, basis, checked)

    def __neg__(self) -> "Q8Element":
        return Q8Element(self.basis, -self.sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + _SYMBOL[self.basis]


def q8_mul(a: Q8Element, b: Q8Element) -> Q8Element:
    """Exact group product a*b."""
    basis, factor = _basis_product(a.basis, b.basis)
    return Q8Element(basis, a.sign * b.sign * factor)


def q8_product(seq: Iterable[Q8Element]) -> Q8Element:
    """Left-to-right fold of q8_mul; the group is non-commutative, so
    operand order matters."""
    try:
        items = list(seq)
    except TypeError:   # no iterable: a single factor, which the check below refuses
        items = [seq]
    if not items:
        raise ValueError("empty product")
    if not all(isinstance(item, Q8Element) for item in items):
        raise ValueError("factors must be Q8Element values")
    return reduce(q8_mul, items)
