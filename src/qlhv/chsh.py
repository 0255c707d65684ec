"""Finite hidden-variable models whose outcomes are unit-modulus phases.

A model assigns, to each hidden point, four dichotomic bits and four fixed
phase angles; the observable value at a setting is (-1)^bit * e^{i theta}.
The module evaluates the two-party correlation functional, the Bell
combination |E(a,b)-E(a,b')| + |E(a',b)+E(a',b')|, its analytic phase
bound, the explicit saturating configuration, and a numerical maximizer.

A population of models is three padded arrays: weights (N, MAX_POINTS)
with zeros past each model's support, thetas (N, 4) and bits
(N, 4, MAX_POINTS).  sample_models draws one and bell_values evaluates it;
ChshModel is one unpadded row, used by the per-model API and serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .quaternions import canonical_phase, phase_pair_magnitudes
from .tolerances import EXACT_TOL

ALICE_SETTINGS = ("a", "a'")
BOB_SETTINGS = ("b", "b'")

# support size bound of sample_model
MAX_POINTS = 16

_BIT_KEYS = ("f1", "f2", "f3", "f4")
# setting -> slot into the (f1, f2, f3, f4) / (theta1..theta4) layout
_SLOT = {"a": 0, "b": 1, "a'": 2, "b'": 3}
# Alice's and Bob's slots of E(a,b), E(a,b'), E(a',b), E(a',b')
_ALICE, _BOB = np.array([(_SLOT[a], _SLOT[b]) for a in ALICE_SETTINGS for b in BOB_SETTINGS]).T


@dataclass(frozen=True)
class ChshModel:
    """One model, an unpadded row of a population: a probability weight per
    hidden point (nonnegative, sum 1; signed weights belong to the qubit
    model), four phases theta1..theta4 and four per-point bit vectors
    f1..f4, one per setting.  Checks what bell_values checks, without numpy."""

    weights: tuple[float, ...]
    thetas: tuple[float, float, float, float]
    bits: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if not (all(w >= 0.0 for w in self.weights) and abs(sum(self.weights) - 1.0) <= EXACT_TOL):
            raise ValueError("invalid distribution")
        if len(self.thetas) != 4 or len(self.bits) != 4:
            raise ValueError("need exactly four phases and four bit vectors")
        for vec in self.bits:
            if len(vec) != len(self.weights):
                raise ValueError("bits need one entry per point")
            if any(b not in (0, 1) for b in vec):
                raise ValueError("bits must be 0 or 1")
        if not all(map(math.isfinite, self.thetas)):
            raise ValueError("phases must be finite")


def correlation(model: ChshModel, alice: str, bob: str) -> complex:
    """Weighted sum over hidden points of the product of Alice's and Bob's
    outcome values for the given settings."""
    if alice not in ALICE_SETTINGS:
        raise ValueError(f"unknown Alice setting: {alice!r}")
    if bob not in BOB_SETTINGS:
        raise ValueError(f"unknown Bob setting: {bob!r}")
    ia, ib = _SLOT[alice], _SLOT[bob]
    w = np.asarray(model.weights, dtype=float)
    fa = np.asarray(model.bits[ia], dtype=int)
    fb = np.asarray(model.bits[ib], dtype=int)
    parity = 1.0 - 2.0 * ((fa + fb) % 2)
    phase = complex(np.exp(1j * (model.thetas[ia] + model.thetas[ib])))
    return complex(np.dot(w, parity)) * phase


def _bell_combination(e_ab, e_abp, e_apb, e_apbp):
    # complex scalars, or arrays of them element by element
    return abs(e_ab - e_abp) + abs(e_apb + e_apbp)


def bell_expression(model: ChshModel) -> float:
    return _bell_combination(
        correlation(model, "a", "b"),
        correlation(model, "a", "b'"),
        correlation(model, "a'", "b"),
        correlation(model, "a'", "b'"),
    )


def bell_values(weights: np.ndarray, thetas: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """bell_expression of each model of a padded population: weights
    (N, P), thetas (N, 4), bits (N, 4, P); returns shape (N,).  Each row
    must be a valid model: weights nonnegative summing to 1 within
    EXACT_TOL, finite phases, bits 0 or 1.  Zero-weight columns do not
    change a row's value, whatever their bits."""
    weights = np.asarray(weights, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    bits = np.asarray(bits)
    if (weights.ndim != 2 or thetas.shape != (len(weights), 4)
            or bits.shape != (len(weights), 4, weights.shape[1])):
        raise ValueError("need weights (N, P), thetas (N, 4) and bits (N, 4, P)")
    if not (np.all(weights >= 0.0) and np.all(np.abs(weights.sum(axis=1) - 1.0) <= EXACT_TOL)):
        raise ValueError("invalid distribution")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("phases must be finite")
    parity = np.where(bits[:, _ALICE] == bits[:, _BOB], 1.0, -1.0)
    e = np.einsum("np,nkp->nk", weights, parity) * np.exp(1j * (thetas[:, _ALICE] + thetas[:, _BOB]))
    return _bell_combination(e[:, 0], e[:, 1], e[:, 2], e[:, 3])


def analytic_bound(t2, t4):
    """|e^{i t2}+e^{i t4}| + |e^{i t2}-e^{i t4}|, an upper bound on
    bell_expression for every model carrying these two Bob phases.  Takes
    floats or arrays of equal shape."""
    plus, minus = phase_pair_magnitudes(t2, t4)
    return plus + minus


def make_achieving_model() -> ChshModel:
    """The explicit configuration that saturates the 2*sqrt(2) bound:
    theta = (7pi/4, 0, pi/4, pi/2) on a single support point with all four
    bits zero."""
    return _single_point_model(0.0, math.pi / 2, 7 * math.pi / 4, math.pi / 4)


def _single_point_model(t2: float, t4: float, t1: float = 0.0, t3: float = 0.0) -> ChshModel:
    # On a one-point space with equal bits the Bell value reduces to
    # analytic_bound(t2, t4); t1 and t3 only rotate the two absolute values.
    return ChshModel((1.0,), (t1, t2, t3, t4), ((0,), (0,), (0,), (0,)))


def maximize_bell(grid_steps: int, refine_iters: int = 50,
                  rng_seed: int = 0) -> tuple[ChshModel, float]:
    """Grid search over the two Bob phases followed by local refinement.

    The support and bit structure are fixed analytically (single point,
    equal bits): any maximizing model can be brought to that form, so only
    the phases are searched, each candidate scored by analytic_bound, which
    is its Bell value.  Among equal grid maxima the lowest grid index wins.
    Returns (best model, its Bell value through the correlations).
    """
    if grid_steps < 4:
        raise ValueError("grid_steps must be at least 4")
    grid = [2.0 * math.pi * k / grid_steps for k in range(grid_steps)]
    spacing = 2.0 * math.pi / grid_steps

    best_t2, best_t4 = grid[0], grid[0]
    best_val = -math.inf
    for t2 in grid:
        for t4 in grid:
            val = analytic_bound(t2, t4)
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4

    rng = np.random.default_rng(rng_seed)
    step = spacing
    for _ in range(refine_iters):
        improved = False
        candidates = [
            (best_t2 + step, best_t4),
            (best_t2 - step, best_t4),
            (best_t2, best_t4 + step),
            (best_t2, best_t4 - step),
            (best_t2 + step * rng.uniform(-1, 1), best_t4 + step * rng.uniform(-1, 1)),
        ]
        for t2, t4 in candidates:
            val = analytic_bound(t2, t4)
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4
                improved = True
        if not improved:
            step *= 0.5

    best_model = _single_point_model(canonical_phase(best_t2), canonical_phase(best_t4))
    return best_model, bell_expression(best_model)


def _draw(rng: np.random.Generator, phase_choices: Sequence[float] | None):
    # One model as (weights (n,), thetas (4,), bits (4, n)).  These four
    # generator calls must consume the stream exactly as the per-field
    # draws (one integers, one random, one uniform or four rng.choice, four
    # integers(size=n)) do, so that a seed keeps its models; the tests pin it.
    n = int(rng.integers(1, MAX_POINTS + 1))
    raw = rng.random(n) + 1e-9
    if phase_choices is None:
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=4)
    else:
        choices = np.asarray(phase_choices, dtype=float)
        thetas = choices[rng.integers(0, len(choices), size=4)]
    return raw / raw.sum(), thetas, rng.integers(0, 2, size=(4, n))


def sample_model(rng: np.random.Generator, phase_choices: Sequence[float] | None = None) -> ChshModel:
    """Draw a random valid model: up to MAX_POINTS points with normalized
    weights, independent random bits, and phases either uniform on
    [0, 2pi) or drawn from phase_choices."""
    weights, thetas, bits = _draw(rng, phase_choices)
    return ChshModel(tuple(weights.tolist()), tuple(thetas.tolist()),
                     tuple(tuple(vec) for vec in bits.tolist()))


def sample_models(rng: np.random.Generator, count: int,
                  phase_choices: Sequence[float] | None = None):
    """Draw count models as padded arrays (weights (count, MAX_POINTS),
    thetas (count, 4), bits (count, 4, MAX_POINTS)), zero past each
    model's support.  Row i is the model that the i-th of count
    sample_model calls on the same generator would return."""
    weights = np.zeros((count, MAX_POINTS))
    thetas = np.empty((count, 4))
    bits = np.zeros((count, 4, MAX_POINTS), dtype=np.int64)
    for row in range(count):
        w, thetas[row], b = _draw(rng, phase_choices)
        weights[row, :w.size] = w
        bits[row, :, :w.size] = b
    return weights, thetas, bits


def model_to_dict(model: ChshModel) -> dict:
    """Flat serialization {points, weights, theta, f1..f4}; points are l0, l1, ..."""
    record = {"points": [f"l{k}" for k in range(len(model.weights))],
              "weights": list(model.weights), "theta": list(model.thetas)}
    record.update(zip(_BIT_KEYS, map(list, model.bits)))
    return record


def model_from_dict(record: Mapping) -> ChshModel:
    """Inverse of model_to_dict.  Labels are only counted: there must be
    one per weight."""
    weights = tuple(float(w) for w in record["weights"])
    if len(record["points"]) != len(weights):
        raise ValueError("invalid distribution: one label per weight")
    thetas = tuple(float(t) for t in record["theta"])
    # a bit that is not 0 or 1 stays as it is, for ChshModel to reject
    bits = tuple(tuple(int(b) if b in (0, 1) else b for b in record[key]) for key in _BIT_KEYS)
    return ChshModel(weights, thetas, bits)
