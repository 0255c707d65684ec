"""Finite hidden-variable models whose outcomes are unit-modulus phases.

A model assigns, to each hidden point, four dichotomic bits and four fixed
phase angles; the observable value at a setting is (-1)^bit * e^{i theta}.
The module evaluates the two-party correlation functional, the Bell
combination |E(a,b)-E(a,b')| + |E(a',b)+E(a',b')|, its analytic phase
bound, the explicit saturating configuration, and a numerical maximizer.
One pass over a model's points computes its four correlations; correlation
returns one of them, and the four calls of bell_expression on a model share
that pass.

A population of models is three padded arrays: weights (N, MAX_POINTS)
with zeros past each model's support, thetas (N, 4) and int8 bits
(N, 4, MAX_POINTS).  sample_models draws one from a single (N, 85) block
of uniforms and bell_values evaluates it, under one set of phases or
under S stacked as (S, N, 4); ChshModel is one unpadded row, used by the
per-model API and serialization, whose weights and phases follow the real
rule of qlhv.tolerances (bell_values applies it as a dtype rule), and
sample_model is the ChshModel view of a population of one.  bell_values
writes its own Bell combination, so bell_expression on a row is a second,
independent route to its value.  bell_sweep
draws each block of a sweep once and evaluates it under complex and real
phases, the two regimes the paper compares, returning a witness row for
each maximum and two fixed spot rows.

numpy is imported, when called, by the population functions
(sample_model, sample_models, bell_values, bell_sweep) and by analytic_bound
given arrays.  maximize_bell, which draws from random.Random, and the
ChshModel record path are plain Python.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import tolerances
from .tolerances import EXACT_TOL, CheckedRecord, reals

if TYPE_CHECKING:
    import numpy as np

ALICE_SETTINGS = ("a", "a'")
BOB_SETTINGS = ("b", "b'")

# support size bound of sample_models
MAX_POINTS = 16
# uniforms per model of sample_models: the support size, MAX_POINTS raw
# weights, four phases and 4 * MAX_POINTS bits, in this order
_ROW = 5 + 5 * MAX_POINTS

_BIT_KEYS = ("f1", "f2", "f3", "f4")
# setting -> slot into the (f1, f2, f3, f4) / (theta1..theta4) layout
_SLOT = {"a": 0, "b": 1, "a'": 2, "b'": 3}
# Alice's and Bob's slots of E(a,b), E(a,b'), E(a',b), E(a',b')
_ALICE, _BOB = zip(*((_SLOT[a], _SLOT[b]) for a in ALICE_SETTINGS for b in BOB_SETTINGS))


class ChshModel(CheckedRecord, namedtuple("ChshModel", "weights thetas bits")):
    """One model, an unpadded row of a population: a probability weight per
    hidden point (nonnegative, sum 1; signed weights belong to the qubit
    model), four phases theta1..theta4 and four per-point bit vectors
    f1..f4, one per setting, each field a tuple.  Weights and phases are
    reals by the rule of qlhv.tolerances, stored as floats; bits are 0 or 1
    by ==.  Checks what bell_values checks, without numpy."""

    __slots__ = ()

    def __new__(cls, weights: tuple[float, ...], thetas: tuple[float, float, float, float],
                bits: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]):
        # tuples, so that no caller keeps a mutable field of the record
        weights = reals(weights, "weights and phases must be numbers")
        thetas = reals(thetas, "weights and phases must be numbers")
        if not (all(w >= 0.0 for w in weights) and abs(sum(weights) - 1.0) <= EXACT_TOL):
            raise ValueError("invalid distribution")
        try:
            bits = tuple(map(tuple, bits))
            if len(thetas) != 4 or len(bits) != 4:
                raise ValueError("need exactly four phases and four bit vectors")
            for vec in bits:
                if len(vec) != len(weights):
                    raise ValueError("bits need one entry per point")
                # counted by ==, as `in (0, 1)` compares, so no entry is hashed
                if vec.count(0) + vec.count(1) != len(vec):
                    raise ValueError("bits must be 0 or 1")
        except TypeError:   # a number in place of the bit vectors or of one of them
            raise ValueError("bits need one entry per point") from None
        if not all(map(math.isfinite, thetas)):
            raise ValueError("phases must be finite")
        return super().__new__(cls, weights, thetas, bits)


def correlation(model: ChshModel, alice: str, bob: str) -> complex:
    """Weighted sum over hidden points of the product of Alice's and Bob's
    outcome values for the given settings: one of the four correlations
    that _correlations computes in one pass."""
    if alice not in ALICE_SETTINGS:
        raise ValueError(f"unknown Alice setting: {alice!r}")
    if bob not in BOB_SETTINGS:
        raise ValueError(f"unknown Bob setting: {bob!r}")
    return _correlations(model)[2 * ALICE_SETTINGS.index(alice) + BOB_SETTINGS.index(bob)]


# the last model given to _correlations and its four values: a model is an
# immutable record, so the same object has the same values
_LAST = (None, None)


def _correlations(model: ChshModel) -> tuple[complex, complex, complex, complex]:
    # E(a,b), E(a,b'), E(a',b), E(a',b') in one pass over the points: each
    # parity sum adds its signed weights left to right from 0.0, as sum() does
    # up to CPython 3.11, times e^{i(theta_a + theta_b)}
    global _LAST
    last, values = _LAST
    if last is model:
        return values
    s_ab = s_abp = s_apb = s_apbp = 0.0
    for w, a, b, ap, bp in zip(model.weights, *model.bits):
        s_ab += w if a == b else -w
        s_abp += w if a == bp else -w
        s_apb += w if ap == b else -w
        s_apbp += w if ap == bp else -w
    t_a, t_b, t_ap, t_bp = model.thetas
    values = (s_ab * cmath.exp(1j * (t_a + t_b)), s_abp * cmath.exp(1j * (t_a + t_bp)),
              s_apb * cmath.exp(1j * (t_ap + t_b)), s_apbp * cmath.exp(1j * (t_ap + t_bp)))
    _LAST = model, values
    return values


def _bell_combination(e_ab, e_abp, e_apb, e_apbp):
    # complex scalars: the combination of the per-model route only
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
    (N, P), thetas (N, 4), bits (N, 4, P); returns shape (N,).  thetas may
    also stack S phase regimes of the same weights and bits as (S, N, 4),
    which returns (S, N): the parity sums are computed once and only the
    phase factors once per regime.  Weights and phases must have an int,
    uint or float dtype, and bits may have any dtype whose entries are 0 or
    1.  Each row must be a valid model: weights nonnegative summing to 1
    within EXACT_TOL, finite phases, bits 0 or 1.  Zero-weight columns do
    not change a row's value, whatever their bits."""
    import numpy as np
    weights, thetas, bits = np.asarray(weights), np.asarray(thetas), np.asarray(bits)
    # the real rule as a dtype rule: no bool, str, bytes, complex or object
    if weights.dtype.kind not in "iuf" or thetas.dtype.kind not in "iuf":
        raise ValueError("weights and phases must be numbers")
    weights, thetas = weights.astype(float, copy=False), thetas.astype(float, copy=False)
    if (weights.ndim != 2 or thetas.ndim not in (2, 3) or thetas.shape[-2:] != (len(weights), 4)
            or bits.shape != (len(weights), 4, weights.shape[1])):
        raise ValueError("need weights (N, P), thetas (N, 4) or (S, N, 4) and bits (N, 4, P)")
    if not (np.all(weights >= 0.0) and np.all(np.abs(weights.sum(axis=1) - 1.0) <= EXACT_TOL)):
        raise ValueError("invalid distribution")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    if not np.all(np.isfinite(thetas)):
        raise ValueError("phases must be finite")
    # int8 takes bits of any 0/1 dtype and keeps the parity out of float
    b = bits.astype(np.int8, copy=False)
    parity = 1 - 2 * (b[:, _ALICE] ^ b[:, _BOB])
    e = np.einsum("np,nkp->nk", weights, parity) * np.exp(1j * (thetas[..., _ALICE] + thetas[..., _BOB]))
    # its own combination, so that chsh-verify's replay through bell_expression
    # is a second route
    return np.abs(e[..., 0] - e[..., 1]) + np.abs(e[..., 2] + e[..., 3])


def analytic_bound(t2, t4):
    """|e^{i t2}+e^{i t4}| + |e^{i t2}-e^{i t4}|, an upper bound on
    bell_expression for every model carrying these two Bob phases.  Takes
    floats or arrays of equal shape.

    The squares of the two magnitudes always sum to 4, so the bound is at
    most 2*sqrt(2), with equality exactly when the two phases differ by an
    odd multiple of pi/2.  Two real numbers take cmath.exp, which agrees
    with np.exp bit for bit, so only arrays import numpy.
    """
    if isinstance(t2, (int, float)) and isinstance(t4, (int, float)):
        exp = cmath.exp
    else:
        import numpy as np
        exp = np.exp
    z2, z4 = exp(1j * t2), exp(1j * t4)
    return abs(z2 + z4) + abs(z2 - z4)


def make_achieving_model() -> ChshModel:
    """The explicit configuration that saturates the 2*sqrt(2) bound:
    theta = (7pi/4, 0, pi/4, pi/2) on a single support point with all four
    bits zero."""
    return _single_point_model(7 * math.pi / 4, 0.0, math.pi / 4, math.pi / 2)


def _single_point_model(t1: float, t2: float, t3: float, t4: float) -> ChshModel:
    # a one-point model with equal bits: its Bell value is analytic_bound(t2, t4)
    return ChshModel((1.0,), (t1, t2, t3, t4), ((0,), (0,), (0,), (0,)))


def maximize_bell(grid_steps: int, refine_iters: int = 50,
                  rng_seed: int = 0) -> tuple[ChshModel, float]:
    """Grid search over the two Bob phases followed by local refinement.

    The support and bit structure are fixed analytically (single point,
    equal bits): any maximizing model can be brought to that form, so only
    the phases are searched, each candidate scored by analytic_bound, which
    is its Bell value.  Among equal grid maxima the lowest grid index wins.
    The random candidate of each refinement step comes from
    random.Random(rng_seed).  grid_steps, refine_iters and rng_seed are
    integers; refine_iters and rng_seed must be nonnegative.
    Returns (best model, its Bell value through the correlations).
    """
    grid_steps = tolerances.count(grid_steps, "grid_steps", 4)
    refine_iters = tolerances.count(refine_iters, "refine_iters", 0)
    rng_seed = tolerances.count(rng_seed, "rng_seed", 0)
    import random
    grid = [2.0 * math.pi * k / grid_steps for k in range(grid_steps)]
    spacing = 2.0 * math.pi / grid_steps

    best_t2, best_t4 = grid[0], grid[0]
    best_val = -math.inf
    for t2 in grid:
        for t4 in grid:
            val = analytic_bound(t2, t4)
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4

    rng = random.Random(rng_seed)
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

    best_model = _single_point_model(0.0, best_t2 % math.tau, 0.0, best_t4 % math.tau)
    return best_model, bell_expression(best_model)


def sample_model(rng: np.random.Generator, phase_choices: Sequence[float] | None = None) -> ChshModel:
    """Draw a random valid model: up to MAX_POINTS points with normalized
    weights, independent random bits, and phases either uniform on
    [0, 2pi) or drawn from phase_choices.  The ChshModel view of
    sample_models(rng, 1, phase_choices)."""
    weights, thetas, bits = sample_models(rng, 1, phase_choices)
    return _row_model(weights, thetas, bits, 0)


def sample_models(rng: np.random.Generator, count: int,
                  phase_choices: Sequence[float] | None = None):
    """Draw count models as padded arrays (weights (count, MAX_POINTS),
    thetas (count, 4), bits int8 (count, 4, MAX_POINTS)), zero past each
    model's support, in one rng.random((count, 85)) call.  A row-major draw
    consumes the stream as count draws of one row do, so row i is the model
    that the i-th of count sample_model calls on the same generator would
    return, and splitting a sweep into chunks does not change its models.
    count is a nonnegative integer; phase_choices, if given, is a nonempty
    sequence of reals."""
    count = tolerances.count(count, "count", 0)
    if phase_choices is not None:
        message = "phase_choices must be a nonempty sequence of reals"
        if not (phase_choices := reals(phase_choices, message)):
            raise ValueError(message)
    weights, (thetas,), bits = _decode_rows(rng.random((count, _ROW)), (phase_choices,))
    return weights, thetas, bits


def _decode_rows(u, phase_regimes):
    """The models of the rows of u (N, _ROW): weights, one thetas (N, 4)
    per phase_choices of phase_regimes, all from the same phase uniforms,
    and bits.  The one home of the row layout."""
    import numpy as np
    size_u, weight_u = u[:, :1], u[:, 1:1 + MAX_POINTS]
    theta_u, bit_u = u[:, 1 + MAX_POINTS:5 + MAX_POINTS], u[:, 5 + MAX_POINTS:]
    # column k is in a support of floor(16 u) + 1 points iff k <= 16 u
    support = np.arange(MAX_POINTS) <= size_u * MAX_POINTS
    raw = (weight_u + 1e-9) * support
    thetas = []
    for choices in phase_regimes:
        if choices is None:
            thetas.append(2.0 * math.pi * theta_u)
        else:
            thetas.append(np.asarray(choices, dtype=float)[(theta_u * len(choices)).astype(np.intp)])
    bits = (bit_u.reshape(len(u), 4, MAX_POINTS) < 0.5) & support[:, None, :]
    # a fresh bool array: its bytes are already the int8 bits 0 and 1
    return raw / raw.sum(axis=1, keepdims=True), thetas, bits.view(np.int8)


def _row_model(weights, thetas, bits, row: int) -> ChshModel:
    # a row of a drawn population as a ChshModel: its support is its nonzero
    # weights, which come first
    w = weights[row].tolist()
    n = len(w) - w.count(0.0)
    return ChshModel(w[:n], thetas[row].tolist(), bits[row, :, :n].tolist())


# models per block of bell_sweep: bounds its memory for any sample count
# without changing the stream
_BLOCK = 1024
# the phase regimes of bell_sweep: uniform on [0, 2pi), and real (0 or pi)
_SWEEP_REGIMES = (None, (0.0, math.pi))
# complex rows that bell_sweep returns whatever their value: 15 in 16 rows
# have more than one point, where the maxima nearly always have one
_SPOT_ROWS = 2


class Witness(NamedTuple):
    """A row of a sweep: the lowest-indexed model that reaches a maximum,
    or a spot row."""

    index: int      # row of the sweep, counted from 0 across blocks
    value: float    # its Bell value through bell_values
    model: ChshModel


def bell_sweep(rng: np.random.Generator, samples: int) -> tuple[Witness, Witness, float, list[Witness]]:
    """Draw samples models from rng, as sample_models draws them, and
    evaluate each under complex phases (uniform on [0, 2pi)) and under real
    phases (0 or pi) mapped from the same phase uniforms: the real models
    are those that sample_models(rng, samples, (0.0, math.pi)) would draw
    from a generator in the same state.  Works in blocks of up to _BLOCK
    models, one rng.random call and one bell_values call each.  Returns
    the witnesses of the complex and of the real maximum, the largest
    excess of a complex value over its analytic_bound, and the first
    _SPOT_ROWS rows (fewer if samples is smaller) under complex phases."""
    samples = tolerances.count(samples, "samples", 1)
    best: list[Witness | None] = [None] * len(_SWEEP_REGIMES)
    gap, spots = -math.inf, []
    for start in range(0, samples, _BLOCK):
        # no name holds the uniforms, so they are freed before evaluation: a
        # block held through bell_values made malloc return and re-fault
        # about 360 heap pages per call
        weights, thetas, bits = _decode_rows(rng.random((min(_BLOCK, samples - start), _ROW)), _SWEEP_REGIMES)
        values = bell_values(weights, thetas, bits)
        gap = max(gap, float((values[0] - analytic_bound(thetas[0][:, 1], thetas[0][:, 3])).max()))
        spots += [Witness(start + row, float(values[0, row]), _row_model(weights, thetas[0], bits, row))
                  for row in range(min(len(bits), _SPOT_ROWS - start))]
        for regime, row in enumerate(values.argmax(axis=1).tolist()):
            value = float(values[regime, row])
            # a tie keeps the earlier witness, as argmax does within a block
            if best[regime] is None or value > best[regime].value:
                best[regime] = Witness(start + row, value, _row_model(weights, thetas[regime], bits, row))
    return best[0], best[1], gap, spots


def model_to_dict(model: ChshModel) -> dict:
    """Flat serialization {points, weights, theta, f1..f4}; points are l0, l1, ..."""
    record = {"points": [f"l{k}" for k in range(len(model.weights))],
              "weights": list(model.weights), "theta": list(model.thetas)}
    record.update((key, list(map(int, vec))) for key, vec in zip(_BIT_KEYS, model.bits))
    return record


def model_from_dict(record: Mapping) -> ChshModel:
    """Inverse of model_to_dict.  Labels are only counted: there must be
    one per weight.  ChshModel judges the numbers, so a string or a bool
    (JSON true/false) as a weight or phase is corrupt, while a bit is
    read as 0 or 1 by ==, true/false as 1/0."""
    if len(record["points"]) != len(record["weights"]):
        raise ValueError("invalid distribution: one label per weight")
    # a bit that is not 0 or 1 stays as it is, for ChshModel to reject
    bits = tuple(tuple(int(b) if b in (0, 1) else b for b in record[key]) for key in _BIT_KEYS)
    return ChshModel(record["weights"], record["theta"], bits)
