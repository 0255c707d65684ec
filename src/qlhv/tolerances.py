"""Every proved bound and the package's two tolerances, the two number
rules that every input boundary applies, the count rule and the two vector
rules built on them (the closed Bloch ball and the unit sphere), and
CheckedRecord, the base that keeps each record's checks on every route that
builds one.

A real is a Python or numpy int or float, never a bool, str, bytes, None
or complex.  An integer is what operator.index accepts, never a bool.  A
count is an integer with a lower bound; the library, not the CLI, applies
it to every count and seed argument.
Checks are written so that NaN fails them (`not x <= tol`, never
`x > tol`).  The rules return Python floats and ints and need no numpy."""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Sequence

TSIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
#: The most negative weight of a qubit state, reached on the diagonal.
NEGATIVE_WEIGHT_FLOOR = (1.0 - math.sqrt(3.0)) / 8.0

#: Identities exact in real arithmetic, up to float rounding: weight and
#: pair sums, expectations, eigenrelations, the Bloch ball |r|^2 <= 1, and
#: values at the proved optimum TSIRELSON, which move with the square of
#: an error in their argument.
EXACT_TOL = 1e-12
#: Slack on a proved inequality, and on the norm of a unit vector.
BOUND_TOL = 1e-9


_FLOAT = frozenset({float})


def is_real(x) -> bool:
    """The real rule: x is a Python or numpy int or float, and no bool."""
    if isinstance(x, (int, float)):
        return not isinstance(x, bool)
    # a numpy scalar exists only once numpy is imported, so it is never imported here
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, (np.integer, np.floating))


def integer(x) -> int | None:
    """The integer rule: x as an int, if operator.index takes it and it is
    no bool; otherwise None."""
    try:
        return None if isinstance(x, bool) else operator.index(x)
    except TypeError:
        return None


def count(value, name: str, minimum: int) -> int:
    """value as an int, if it is an integer by the integer rule and at least
    minimum; otherwise ValueError naming it.  The rule of every count and
    seed argument."""
    checked = integer(value)
    if checked is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if checked < minimum:
        raise ValueError(f"{name} must be at least {minimum}" if minimum else f"{name} must be nonnegative")
    return checked


def reals(values: Iterable[float], message: str) -> tuple[float, ...]:
    """values as a tuple of floats, if it is a sequence of reals; otherwise
    ValueError(message).  A str or bytes is text, never a sequence of
    numbers, although bytes iterate as ints.  A numpy array is read through
    one tolist(), whose Python numbers, lists and str the rules then check."""
    if type(values) is not tuple and type(values) is not list:
        np = sys.modules.get("numpy")
        if np is not None and isinstance(values, np.ndarray):
            values = values.tolist()
    try:
        entries = tuple(values)
    except TypeError:   # a number or None in place of the sequence
        raise ValueError(message) from None
    if entries and _FLOAT.issuperset(map(type, entries)):   # the common case, already floats
        return entries
    if isinstance(values, (str, bytes, bytearray)) or not all(map(is_real, entries)):
        raise ValueError(message)
    return tuple(map(float, entries))


def _three_floats(v: Sequence[float], message: str) -> tuple[float, float, float]:
    # a vector of the wrong length fails with the message of a malformed one
    vec = reals(v, message)
    if len(vec) != 3:
        raise ValueError(message)
    return vec


def bloch_vector(r: Sequence[float]) -> tuple[float, float, float]:
    """r as three floats, if it is three reals with |r|^2 <= 1 + EXACT_TOL."""
    x, y, z = vec = _three_floats(r, "Bloch vector must have three components")
    if not x * x + y * y + z * z <= 1.0 + EXACT_TOL:
        raise ValueError("outside Bloch ball")
    return vec


def unit_direction(n: Sequence[float]) -> tuple[float, float, float]:
    """n as three floats, if it is three reals with | |n| - 1 | <= BOUND_TOL."""
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
