"""Every proved bound and every tolerance of the package, the two input
rules built on them (the closed Bloch ball and the unit sphere), and
CheckedRecord, the base that keeps each record's checks on every route that
builds one.  Checks are written so that NaN fails them (`not x <= tol`,
never `x > tol`).  The input rules return 3-tuples of Python floats and
need no numpy."""

from __future__ import annotations

import math
from typing import Sequence

TSIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
#: The most negative weight of a qubit state, reached on the diagonal.
NEGATIVE_WEIGHT_FLOOR = (1.0 - math.sqrt(3.0)) / 8.0

#: Identities exact in real arithmetic, up to float rounding: weight and
#: pair sums, expectations, eigenrelations, the Bloch ball |r|^2 <= 1.
EXACT_TOL = 1e-12
#: Slack on a proved inequality, and on the norm of a unit vector.
BOUND_TOL = 1e-9
#: Distance of a numerical optimum from the proved optimum.
OPTIMUM_TOL = 1e-6


def _three_floats(v: Sequence[float], message: str) -> tuple[float, float, float]:
    # A string, a nested sequence or a component that is not a real number
    # fails with the caller's message, as a vector of the wrong length does.
    if isinstance(v, str):
        raise ValueError(message)
    try:
        x, y, z = v
        return float(x), float(y), float(z)
    except (TypeError, ValueError):
        raise ValueError(message) from None


def bloch_vector(r: Sequence[float]) -> tuple[float, float, float]:
    """r as three floats, if it is a 3-vector with |r|^2 <= 1 + EXACT_TOL."""
    x, y, z = vec = _three_floats(r, "Bloch vector must have three components")
    if not x * x + y * y + z * z <= 1.0 + EXACT_TOL:
        raise ValueError("outside Bloch ball")
    return vec


def unit_direction(n: Sequence[float]) -> tuple[float, float, float]:
    """n as three floats, if it is a 3-vector with | |n| - 1 | <= BOUND_TOL."""
    vec = _three_floats(n, "non-unit direction")
    if not abs(math.hypot(*vec) - 1.0) <= BOUND_TOL:
        raise ValueError("non-unit direction")
    return vec


class CheckedRecord:
    """Base of the package's records, listed before their namedtuple base.
    namedtuple's _make, which _replace calls, builds the tuple without
    __new__; this _make goes through the class, so neither skips the
    record's checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)
