"""Eight-point hidden-variable model of a single qubit.

The hidden variable takes values 1..8; each value fixes a sign for the
x, y and z components.  States are weight assignments on the eight
points derived from a Bloch vector; weights may be negative but antipodal
pairs (m, 9-m) always sum to 1/4.  Evolution acts by permuting the eight
points and by convex mixtures of such permutations.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .quaternions import Basis, Q8Element
from .tolerances import BOUND_TOL, EXACT_TOL, bloch_vector, unit_direction

LAMBDAS = tuple(range(1, 9))

AXES = ("x", "y", "z")
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
_AXIS_BASIS = {"x": Basis.I, "y": Basis.J, "z": Basis.K}

# Sign table: row m-1 holds (eps_x, eps_y, eps_z) for hidden value m, in
# lexicographic order over (+1, -1), so antipodal rows m and 9-m are full
# sign flips of each other.
SIGN_TABLE = np.array(list(itertools.product((1, -1), repeat=3)), dtype=float)

#: Permutation exchanging m and m+4 for m = 1..4 (flips the x signs).
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)

IDENTITY_PERMUTATION = tuple(range(1, 9))


def epsilon(axis: str, lam: int) -> int:
    """Sign of the given axis component at hidden value lam."""
    return int(SIGN_TABLE[lam - 1, _AXIS_INDEX[axis]])


def quaternion_value(axis: str, lam: int) -> Q8Element:
    """The quaternion-valued outcome at (axis, lam): the axis unit (i, j
    or k) carrying the table sign."""
    return Q8Element(_AXIS_BASIS[axis], epsilon(axis, lam))


@dataclass(frozen=True)
class SignedDistribution:
    """Eight real weights summing to 1.  Negative weights are allowed;
    whether the antipodal pair sums equal 1/4 is checked separately by
    retroaction_check."""

    weights: tuple[float, float, float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.weights) != 8:
            raise ValueError("need exactly 8 weights")
        w = np.asarray(self.weights, dtype=float)
        if not abs(w.sum() - 1.0) <= EXACT_TOL:
            raise ValueError("weights must sum to 1")
        if not np.all(np.abs(w) <= 1.0 + EXACT_TOL):
            raise ValueError("weights must lie in [-1, 1]")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def min_weight(self) -> float:
        return min(self.weights)


def state_distribution(r: Sequence[float]) -> SignedDistribution:
    """Distribution of the state with Bloch vector r:
    p(lam) = (1/8) * (1 + eps(lam) . r)."""
    p = (1.0 + SIGN_TABLE @ bloch_vector(r)) / 8.0
    return SignedDistribution(tuple(float(x) for x in p))


def axis_expectation(dist: SignedDistribution, axis: str) -> float:
    """Sum over hidden values of weight times the axis sign."""
    return float(dist.as_array() @ SIGN_TABLE[:, _AXIS_INDEX[axis]])


def retroaction_check(dist: SignedDistribution) -> bool:
    """True iff every antipodal pair (m, 9-m) has weights summing to 1/4
    within EXACT_TOL."""
    w = dist.weights
    return all(abs(w[m - 1] + w[8 - m] - 0.25) <= EXACT_TOL for m in (1, 2, 3, 4))


@lru_cache(maxsize=1)
def _sign_candidates() -> np.ndarray:
    # all 2^8 assignments of +-1 to the eight points, lexicographic
    return np.array(list(itertools.product((1, -1), repeat=8)), dtype=float)


def sign_function_search(n: Sequence[float]):
    """Search the 2^8 sign assignments g for one with
    sum_lam p_r(lam) * g(lam) = n . r for every Bloch vector r.

    The state weights are affine in r, so the requirement reduces to
    sum(g) = 0 and (1/8) * sum_lam g(lam) * eps_i(lam) = n_i per axis.
    The achievable per-axis values are multiples of 1/4, so only the six
    signed axis directions admit a solution (matched within BOUND_TOL).
    Returns the assignment as a tuple of signs in lam order, or None.
    """
    vec = unit_direction(n)
    candidates = _sign_candidates()
    sums = candidates.sum(axis=1)
    achieved = candidates @ SIGN_TABLE / 8.0
    ok = (sums == 0) & np.all(np.abs(achieved - vec) <= BOUND_TOL, axis=1)
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return None
    return tuple(int(s) for s in candidates[hits[0]])


def is_permutation(s: Sequence[int]) -> bool:
    return len(s) == 8 and sorted(s) == list(LAMBDAS)


def commutes_with_antipode(s: Sequence[int]) -> bool:
    """True iff s commutes with the involution m -> 9-m."""
    return all(s[8 - m] == 9 - s[m - 1] for m in LAMBDAS)


def _check_permutation(s: Sequence[int], strict: bool) -> tuple[int, ...]:
    perm = tuple(int(v) for v in s)
    if not is_permutation(perm):
        raise ValueError("not a permutation of 1..8")
    if not commutes_with_antipode(perm):
        if strict:
            raise ValueError("breaks antipodal constraint")
        warnings.warn(
            "permutation does not commute with the antipodal involution; "
            "the pair-sum constraint may be broken",
            stacklevel=3,
        )
    return perm


def evolve_permutation(
    dist: SignedDistribution, s: Sequence[int], strict: bool = True
) -> SignedDistribution:
    """Pull the weights back along s: p'(lam) = p(s(lam)).

    Permutations commuting with the involution m -> 9-m preserve the
    antipodal pair sums; in strict mode (default) any other permutation is
    rejected, in permissive mode it only warns.
    """
    perm = _check_permutation(s, strict)
    return SignedDistribution(tuple(dist.weights[perm[m - 1] - 1] for m in LAMBDAS))


@dataclass(frozen=True)
class PermutationMix:
    """Convex combination of permutations of the eight hidden values."""

    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("mixture needs at least one term")
        total = 0.0
        for perm, weight in self.terms:
            if not is_permutation(perm):
                raise ValueError("not a permutation of 1..8")
            if not weight >= 0.0:
                raise ValueError("mixture weights must be nonnegative")
            total += weight
        if not abs(total - 1.0) <= EXACT_TOL:
            raise ValueError("mixture weights must sum to 1")


def evolve_mixture(dist: SignedDistribution, mix: PermutationMix) -> SignedDistribution:
    """Weighted combination of strict permutation evolutions:
    p'(lam) = sum_t w_t * p(s_t(lam))."""
    out = np.zeros(8)
    for perm, weight in mix.terms:
        evolved = evolve_permutation(dist, perm)
        out += weight * evolved.as_array()
    return SignedDistribution(tuple(float(x) for x in out))
