"""Exact arithmetic in the 8-element unit-quaternion group, plus phase helpers.

The group {±1, ±i, ±j, ±k} is represented exactly (no floating point) so
that identities proved over it hold with no tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import reduce
from typing import Iterable

TWO_PI = 2.0 * math.pi


class Basis(IntEnum):
    ONE = 0
    I = 1
    J = 2
    K = 3


_SYMBOL = {Basis.ONE: "1", Basis.I: "i", Basis.J: "j", Basis.K: "k"}


# Hamilton relations i^2 = j^2 = k^2 = ijk = -1: the product of two distinct
# pure units is the third, with sign +1 along the cycle i -> j -> k -> i.
def _basis_product(a: Basis, b: Basis) -> tuple[Basis, int]:
    if Basis.ONE in (a, b):
        return Basis(a + b), 1
    if a == b:
        return Basis.ONE, -1
    return Basis(6 - a - b), 1 if (b - a) % 3 == 1 else -1


# (a, b) -> (basis of a*b, sign factor)
_MUL_TABLE = {(a, b): _basis_product(a, b) for a in Basis for b in Basis}


@dataclass(frozen=True, order=True)
class Q8Element:
    """One of the eight unit quaternions ±1, ±i, ±j, ±k."""

    basis: Basis
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def __neg__(self) -> "Q8Element":
        return Q8Element(self.basis, -self.sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + _SYMBOL[self.basis]

    @classmethod
    def from_label(cls, label: str) -> "Q8Element":
        """Parse labels like "+i", "-k", "1", "i"."""
        text = label.strip()
        sign = 1
        if text[:1] in "+-":
            sign = 1 if text[0] == "+" else -1
            text = text[1:]
        for basis, symbol in _SYMBOL.items():
            if text == symbol:
                return cls(basis, sign)
        raise ValueError(f"not a unit quaternion label: {label!r}")

    def inverse(self) -> "Q8Element":
        if self.basis is Basis.ONE:
            return self
        # pure units square to -1, so q^-1 = -q
        return -self


ONE = Q8Element(Basis.ONE, 1)
I = Q8Element(Basis.I, 1)
J = Q8Element(Basis.J, 1)
K = Q8Element(Basis.K, 1)

Q8_ELEMENTS = tuple(
    Q8Element(basis, sign) for basis in Basis for sign in (1, -1)
)


def q8_mul(a: Q8Element, b: Q8Element) -> Q8Element:
    """Exact group product a*b."""
    basis, factor = _MUL_TABLE[(a.basis, b.basis)]
    return Q8Element(basis, a.sign * b.sign * factor)


def q8_product(seq: Iterable[Q8Element]) -> Q8Element:
    """Left-to-right fold of q8_mul; the group is non-commutative, so
    operand order matters."""
    items = list(seq)
    if not items:
        raise ValueError("empty product")
    return reduce(q8_mul, items)


def canonical_phase(theta: float) -> float:
    """Reduce an angle in radians into [0, 2*pi)."""
    reduced = math.fmod(theta, TWO_PI)
    if reduced < 0.0:
        reduced += TWO_PI
    return reduced


def phase_pair_magnitudes(t2: float, t4: float) -> tuple[float, float]:
    """Return (|e^{i t2} + e^{i t4}|, |e^{i t2} - e^{i t4}|).

    The sum of the squares of the two magnitudes is always 4, so the sum
    of the magnitudes is at most 2*sqrt(2), with equality exactly when the
    two phases differ by an odd multiple of pi/2.
    """
    z2 = cmath.exp(1j * t2)
    z4 = cmath.exp(1j * t4)
    return abs(z2 + z4), abs(z2 - z4)
