"""Eight-point hidden-variable model of a single qubit.

The hidden variable takes values 1..8; each value fixes a sign for the
x, y and z components.  States are weight assignments on the eight
points derived from a Bloch vector; weights may be negative but antipodal
pairs (m, 9-m) always sum to 1/4.  Evolution acts by convex mixtures of
permutations of the eight points; a single permutation is evolved as the
one-term mixture.  Only permutations that commute with m -> 9-m (384 of
the 40,320, the hyperoctahedral group B4) keep every pair sum for every
state, so evolution accepts no other.

Weights are reals, and permutation entries integers, by the number rules
of qlhv.tolerances.  Plain Python throughout (no numpy, no quaternions): the
model is exact combinatorics over eight points and their sign table.
An axis expectation adds its eight terms left to right from 0.0, not by
sum(), which compensates float sums from CPython 3.12: so its value, and
every report built on it, is the same bit for bit on every interpreter.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Sequence

from .tolerances import BOUND_TOL, EXACT_TOL, CheckedRecord, bloch_vector, integer, reals, unit_direction

LAMBDAS = tuple(range(1, 9))

AXES = ("x", "y", "z")

# Sign table: row m-1 holds (eps_x, eps_y, eps_z) for hidden value m, in
# lexicographic order over (+1, -1), so antipodal rows m and 9-m are full
# sign flips of each other.
SIGN_TABLE = tuple(itertools.product((1, -1), repeat=3))
# axis -> its column of SIGN_TABLE: the signs of that axis over lam = 1..8
_AXIS_SIGNS = dict(zip(AXES, zip(*SIGN_TABLE)))


class SignedDistribution(CheckedRecord, namedtuple("SignedDistribution", "weights")):
    """Eight real weights summing to 1, kept as a tuple of floats.  Negative
    weights are allowed; whether the antipodal pair sums equal 1/4 is
    checked separately by retroaction_check."""

    __slots__ = ()

    def __new__(cls, weights: Sequence[float]):
        # what is no sequence of reals, like NaN, has no sum
        w = reals(weights, "weights must sum to 1")
        if len(w) != 8:
            raise ValueError("need exactly 8 weights")
        if not abs(sum(w) - 1.0) <= EXACT_TOL:
            raise ValueError("weights must sum to 1")
        if not all(abs(x) <= 1.0 + EXACT_TOL for x in w):
            raise ValueError("weights must lie in [-1, 1]")
        return super().__new__(cls, w)


def state_distribution(r: Sequence[float]) -> SignedDistribution:
    """Distribution of the state with Bloch vector r:
    p(lam) = (1/8) * (1 + eps(lam) . r)."""
    x, y, z = bloch_vector(r)
    return SignedDistribution(tuple((1.0 + (ex * x + ey * y + ez * z)) / 8.0
                                    for ex, ey, ez in SIGN_TABLE))


def axis_expectation(dist: SignedDistribution, axis: str) -> float:
    """Sum over hidden values of weight times the axis sign, added left to
    right from 0.0."""
    try:
        signs = _AXIS_SIGNS[axis]
    except (KeyError, TypeError):
        # an unknown axis, or an unhashable one
        raise ValueError(f"unknown axis: {axis!r}") from None
    # not sum(), which compensates from CPython 3.12
    total = 0.0
    for w, s in zip(dist.weights, signs):
        total += w * s
    return total


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
    """True iff s, a permutation of 1..8 (else ValueError("not a
    permutation of 1..8")), commutes with the involution m -> 9-m."""
    perm = _check_permutation(s)
    return all(perm[8 - m] == 9 - perm[m - 1] for m in LAMBDAS)


def _check_permutation(s: Sequence[int]) -> tuple[int, ...]:
    try:
        perm = tuple(map(integer, s))   # None for an entry that is no integer
    except TypeError:   # no sequence at all
        perm = ()
    if None in perm or sorted(perm) != list(LAMBDAS):
        raise ValueError("not a permutation of 1..8")
    return perm


class PermutationMix(CheckedRecord, namedtuple("PermutationMix", "terms")):
    """Convex combination of permutations of the eight hidden values: terms
    is a tuple of (permutation, weight) pairs, each weight a float."""

    __slots__ = ()

    def __new__(cls, terms: Sequence[tuple[Sequence[int], float]]):
        message = "mixture terms must be (permutation, number) pairs"
        try:
            pairs = [(perm, weight) for perm, weight in terms]
        except (TypeError, ValueError):   # terms that are no sequence, or a term that is no pair
            raise ValueError(message) from None
        if not pairs:
            raise ValueError("mixture needs at least one term")
        perms, weights = zip(*pairs)
        # the checked tuples, so that no caller keeps a mutable permutation
        perms = tuple(map(_check_permutation, perms))
        if not all(map(commutes_with_antipode, perms)):
            raise ValueError("breaks antipodal constraint")
        weights = reals(weights, message)
        if not all(w >= 0.0 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if not abs(sum(weights) - 1.0) <= EXACT_TOL:
            raise ValueError("mixture weights must sum to 1")
        return super().__new__(cls, tuple(zip(perms, weights)))


def evolve_mixture(dist: SignedDistribution, mix: PermutationMix) -> SignedDistribution:
    """Weighted combination of permutation evolutions:
    p'(lam) = sum_t w_t * p(s_t(lam))."""
    w = dist.weights
    out = (0.0,) * 8
    # each term's permutation is the tuple that PermutationMix checked
    for perm, weight in mix.terms:
        out = tuple(o + weight * w[p - 1] for o, p in zip(out, perm))
    return SignedDistribution(out)


def evolve_permutation(dist: SignedDistribution, s: Sequence[int]) -> SignedDistribution:
    """Pull the weights back along s: p'(lam) = p(s(lam)), the one-term
    mixture.  s must be a permutation of 1..8 commuting with m -> 9-m, which
    keeps every antipodal pair sum at 1/4 (384 of the 40,320); any other s
    raises ValueError."""
    return evolve_mixture(dist, PermutationMix(((s, 1.0),)))
