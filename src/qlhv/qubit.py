"""Eight-point hidden-variable model of a single qubit.

The hidden variable takes values 1..8; each value fixes a sign for the
x, y and z components.  States are weight assignments on the eight
points derived from a Bloch vector; weights may be negative but antipodal
pairs (m, 9-m) always sum to 1/4.  Evolution acts by permuting the eight
points and by convex mixtures of such permutations.  Only permutations
that commute with m -> 9-m (384 of the 40,320, the hyperoctahedral group
B4) keep every pair sum for every state, so evolution accepts no other.

Plain Python throughout (no numpy): the model is exact combinatorics over
eight points.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Sequence

from .quaternions import AXIS_BASIS, Q8Element
from .tolerances import BOUND_TOL, EXACT_TOL, bloch_vector, unit_direction

LAMBDAS = tuple(range(1, 9))

AXES = ("x", "y", "z")

# Sign table: row m-1 holds (eps_x, eps_y, eps_z) for hidden value m, in
# lexicographic order over (+1, -1), so antipodal rows m and 9-m are full
# sign flips of each other.
SIGN_TABLE = tuple(itertools.product((1, -1), repeat=3))
# axis -> its column of SIGN_TABLE: the signs of that axis over lam = 1..8
_AXIS_SIGNS = dict(zip(AXES, zip(*SIGN_TABLE)))

#: Permutation exchanging m and m+4 for m = 1..4 (flips the x signs).
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)

IDENTITY_PERMUTATION = LAMBDAS


def epsilon(axis: str, lam: int) -> int:
    """Sign of the given axis component at hidden value lam."""
    try:
        # an int only, as in _check_permutation: a bool is an int but no hidden value
        index = -1 if isinstance(lam, bool) else operator.index(lam) - 1
    except TypeError:   # a float or a string
        index = -1
    if not 0 <= index < 8:
        raise ValueError(f"hidden value outside 1..8: {lam!r}")
    try:
        return _AXIS_SIGNS[axis][index]
    except KeyError:
        raise ValueError(f"unknown axis: {axis!r}") from None


def quaternion_value(axis: str, lam: int) -> Q8Element:
    """The quaternion-valued outcome at (axis, lam): the axis unit (i, j
    or k) carrying the table sign."""
    sign = epsilon(axis, lam)   # first, so a bad axis raises its ValueError
    return Q8Element(AXIS_BASIS[axis], sign)


class SignedDistribution(namedtuple("SignedDistribution", "weights")):
    """Eight real weights summing to 1, kept as a tuple of floats.  Negative
    weights are allowed; whether the antipodal pair sums equal 1/4 is
    checked separately by retroaction_check."""

    __slots__ = ()

    def __new__(cls, weights: Sequence[float]):
        try:
            if isinstance(weights, str) or len(weights) != 8:
                raise ValueError("need exactly 8 weights")
            w = tuple(map(float, weights))
        except TypeError:
            # a number, None or a nested sequence: like NaN, it has no sum
            raise ValueError("weights must sum to 1") from None
        if not abs(sum(w) - 1.0) <= EXACT_TOL:
            raise ValueError("weights must sum to 1")
        if not all(abs(x) <= 1.0 + EXACT_TOL for x in w):
            raise ValueError("weights must lie in [-1, 1]")
        return super().__new__(cls, w)

    # _replace builds through _make, so neither skips the checks of __new__
    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def state_distribution(r: Sequence[float]) -> SignedDistribution:
    """Distribution of the state with Bloch vector r:
    p(lam) = (1/8) * (1 + eps(lam) . r)."""
    x, y, z = bloch_vector(r)
    return SignedDistribution(tuple((1.0 + (ex * x + ey * y + ez * z)) / 8.0
                                    for ex, ey, ez in SIGN_TABLE))


def axis_expectation(dist: SignedDistribution, axis: str) -> float:
    """Sum over hidden values of weight times the axis sign."""
    try:
        signs = _AXIS_SIGNS[axis]
    except KeyError:
        raise ValueError(f"unknown axis: {axis!r}") from None
    return sum(w * s for w, s in zip(dist.weights, signs))


def retroaction_check(dist: SignedDistribution) -> bool:
    """True iff every antipodal pair (m, 9-m) has weights summing to 1/4
    within EXACT_TOL."""
    w = dist.weights
    return all(abs(w[m - 1] + w[8 - m] - 0.25) <= EXACT_TOL for m in (1, 2, 3, 4))


def sign_function_search(n: Sequence[float]):
    """Search the 2^8 sign assignments g for one with
    sum_lam p_r(lam) * g(lam) = n . r for every Bloch vector r.

    The state weights are affine in r, so the requirement reduces to
    sum(g) = 0 and (1/8) * sum_lam g(lam) * eps_i(lam) = n_i per axis.
    The achievable per-axis values are multiples of 1/4, so only the six
    signed axis directions admit a solution (matched within BOUND_TOL).
    Returns the first solution, in lexicographic order over (+1, -1), as a
    tuple of signs in lam order, or None.
    """
    vec = unit_direction(n)
    for g in itertools.product((1, -1), repeat=8):
        if sum(g) == 0 and all(
            abs(sum(a * b for a, b in zip(g, signs)) / 8.0 - target) <= BOUND_TOL
            for signs, target in zip(_AXIS_SIGNS.values(), vec)
        ):
            return g
    return None


def commutes_with_antipode(s: Sequence[int]) -> bool:
    """True iff s commutes with the involution m -> 9-m."""
    return all(s[8 - m] == 9 - s[m - 1] for m in LAMBDAS)


def _check_permutation(s: Sequence[int]) -> tuple[int, ...]:
    try:
        # int entries only; a bool is an int but no hidden value, so -1
        perm = tuple(-1 if isinstance(v, bool) else operator.index(v) for v in s)
    except TypeError:   # a float or string entry, or no sequence at all
        perm = ()
    if sorted(perm) != list(LAMBDAS):
        raise ValueError("not a permutation of 1..8")
    if not commutes_with_antipode(perm):
        raise ValueError("breaks antipodal constraint")
    return perm


def evolve_permutation(dist: SignedDistribution, s: Sequence[int]) -> SignedDistribution:
    """Pull the weights back along s: p'(lam) = p(s(lam)).  s must be a
    permutation of 1..8 commuting with m -> 9-m, which keeps every antipodal
    pair sum at 1/4 (384 of the 40,320); any other s raises ValueError."""
    perm = _check_permutation(s)
    return SignedDistribution(tuple(dist.weights[perm[m - 1] - 1] for m in LAMBDAS))


class PermutationMix(namedtuple("PermutationMix", "terms")):
    """Convex combination of permutations of the eight hidden values: terms
    is a tuple of (permutation, weight) pairs."""

    __slots__ = ()

    def __new__(cls, terms: Sequence[tuple[Sequence[int], float]]):
        total = 0.0
        checked = []
        try:
            for perm, weight in terms:
                # the checked tuple, so that no caller keeps a mutable permutation
                checked.append((_check_permutation(perm), weight))
                if not weight >= 0.0:
                    raise ValueError("mixture weights must be nonnegative")
                total += weight
        except TypeError:   # terms that are no sequence, or a weight that is no number
            raise ValueError("mixture terms must be (permutation, number) pairs") from None
        if not checked:
            raise ValueError("mixture needs at least one term")
        if not abs(total - 1.0) <= EXACT_TOL:
            raise ValueError("mixture weights must sum to 1")
        return super().__new__(cls, tuple(checked))

    # _replace builds through _make, so neither skips the checks of __new__
    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def evolve_mixture(dist: SignedDistribution, mix: PermutationMix) -> SignedDistribution:
    """Weighted combination of permutation evolutions:
    p'(lam) = sum_t w_t * p(s_t(lam))."""
    out = (0.0,) * 8
    for perm, weight in mix.terms:
        evolved = evolve_permutation(dist, perm)
        out = tuple(o + weight * w for o, w in zip(out, evolved.weights))
    return SignedDistribution(out)
