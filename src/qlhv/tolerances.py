"""Every proved bound and the package's two tolerances, the two number
rules that every input boundary applies, the count rule and the two vector
rules built on them (the closed Bloch ball and the unit sphere), and
CheckedRecord, the base that keeps each record's checks on every route that
builds one.

A real is a Python or numpy int or float, never a bool, str, bytes, None
or complex.  An integer is what operator.index accepts, never a bool.  A
count is an integer with a lower bound; the library, not the CLI, applies
it to every count and seed argument.  Weights and phases (ChshModel,
model_from_dict, SignedDistribution, PermutationMix) are reals; a
Q8Element sign, a permutation entry and a GHZ assignment are integers.
Checks are written so that NaN fails them (`not x <= tol`, never
`x > tol`).  The rules return Python floats and ints and need no numpy.

The three claims at the proved optimum TSIRELSON, chsh-achieve's
bell_expression, chsh-optimize's optimizer_reaches_tsirelson and
oracle-check's tsirelson_optimal_settings, are each judged close within
EXACT_TOL, so a value more than EXACT_TOL above the optimum fails as one
below it does.  Near a maximum a value moves with the square of the error
in its argument, so a looser tolerance admits a wrong argmax: a Bob phase
2e-5 off pi/2 moves chsh-achieve's value by only 1.4e-10, which EXACT_TOL
fails."""

from __future__ import annotations

import math
import operator
import sys
from typing import Sequence

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


def reals(values: Sequence[float], message: str) -> tuple[float, ...]:
    """values as a tuple of floats, if it is a tuple, a list or a numpy
    array of reals; otherwise ValueError(message).  Any other iterable is
    refused: a dict would give its keys, a set its hash order, a str its
    characters.  An array is read through one tolist(), whose Python
    numbers, nested lists and str the real rule then checks; a 0-d array
    gives a scalar there, which is no list."""
    if type(values) is not tuple and type(values) is not list:
        np = sys.modules.get("numpy")
        values = values.tolist() if np is not None and isinstance(values, np.ndarray) else None
        if type(values) is not list:
            raise ValueError(message)
    if values and _FLOAT.issuperset(map(type, values)):   # the common case, already floats
        return tuple(values)
    if not all(map(is_real, values)):
        raise ValueError(message)
    return tuple(map(float, values))


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
    """Base of the package's four records, ChshModel, Q8Element,
    SignedDistribution and PermutationMix, listed before their namedtuple
    base.  Each is an immutable named tuple: equal by value, also to the
    plain tuple of its fields, hashable, with a Name(field=...) repr.
    namedtuple's _make, which _replace calls, builds the tuple without
    __new__; this _make goes through the class, so neither skips the
    record's checks and no record is built invalid."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)
