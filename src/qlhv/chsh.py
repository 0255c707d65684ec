"""Finite hidden-variable models whose outcomes are unit-modulus phases.

A model assigns, to each hidden point, four dichotomic bits and four fixed
phase angles; the observable value at a setting is (-1)^bit * e^{i theta}.
The module evaluates the two-party correlation functional, the Bell
combination |E(a,b)-E(a,b')| + |E(a',b)+E(a',b')|, its analytic phase
bound, the explicit saturating configuration, and a numerical maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .quaternions import canonical_phase, phase_pair_magnitudes
from .tolerances import EXACT_TOL
from .tolerances import TSIRELSON  # noqa: F401  (re-exported)

ALICE_SETTINGS = ("a", "a'")
BOB_SETTINGS = ("b", "b'")

# setting -> slot into the (f1, f2, f3, f4) / (theta1..theta4) layout
_SLOT = {"a": 0, "b": 1, "a'": 2, "b'": 3}


@dataclass(frozen=True)
class HiddenSpace:
    """Finite labelled hidden-variable space with a probability weight per
    point.  Weights here are a genuine distribution (nonnegative, sum 1);
    signed weights belong to the single-qubit model, not this module."""

    points: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("invalid distribution")
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= EXACT_TOL):
            raise ValueError("invalid distribution")


@dataclass(frozen=True)
class ChshModel:
    """Hidden space plus four phases (theta1..theta4) and four per-point bit
    vectors (f1..f4), one bit function per measurement setting."""

    space: HiddenSpace
    thetas: tuple[float, float, float, float]
    bits: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if len(self.thetas) != 4 or len(self.bits) != 4:
            raise ValueError("need exactly four phases and four bit vectors")
        n = len(self.space.points)
        for vec in self.bits:
            if len(vec) != n:
                raise ValueError("bit vector length must match the space")
            if any(b not in (0, 1) for b in vec):
                raise ValueError("bits must be 0 or 1")


def correlation(model: ChshModel, alice: str, bob: str) -> complex:
    """Weighted sum over hidden points of the product of Alice's and Bob's
    outcome values for the given settings."""
    if alice not in ALICE_SETTINGS:
        raise ValueError(f"unknown Alice setting: {alice!r}")
    if bob not in BOB_SETTINGS:
        raise ValueError(f"unknown Bob setting: {bob!r}")
    ia, ib = _SLOT[alice], _SLOT[bob]
    w = np.asarray(model.space.weights, dtype=float)
    fa = np.asarray(model.bits[ia], dtype=int)
    fb = np.asarray(model.bits[ib], dtype=int)
    parity = 1.0 - 2.0 * ((fa + fb) % 2)
    phase = complex(np.exp(1j * (model.thetas[ia] + model.thetas[ib])))
    return complex(np.dot(w, parity)) * phase


def bell_expression(model: ChshModel) -> float:
    e_ab = correlation(model, "a", "b")
    e_abp = correlation(model, "a", "b'")
    e_apb = correlation(model, "a'", "b")
    e_apbp = correlation(model, "a'", "b'")
    return abs(e_ab - e_abp) + abs(e_apb + e_apbp)


def analytic_bound(t2: float, t4: float) -> float:
    """|e^{i t2}+e^{i t4}| + |e^{i t2}-e^{i t4}|, an upper bound on
    bell_expression for every model carrying these two Bob phases."""
    plus, minus = phase_pair_magnitudes(t2, t4)
    return plus + minus


def make_achieving_model() -> ChshModel:
    """The explicit configuration that saturates the 2*sqrt(2) bound:
    theta = (7pi/4, 0, pi/4, pi/2) on a single support point with all four
    bits zero."""
    space = HiddenSpace(points=("l0",), weights=(1.0,))
    thetas = (7.0 * math.pi / 4.0, 0.0, math.pi / 4.0, math.pi / 2.0)
    bits = ((0,), (0,), (0,), (0,))
    return ChshModel(space=space, thetas=thetas, bits=bits)


def _single_point_model(t2: float, t4: float, t1: float = 0.0, t3: float = 0.0) -> ChshModel:
    # On a one-point space with equal bits the Bell value reduces to
    # analytic_bound(t2, t4); t1 and t3 only rotate the two absolute values.
    space = HiddenSpace(points=("l0",), weights=(1.0,))
    return ChshModel(space=space, thetas=(t1, t2, t3, t4), bits=((0,), (0,), (0,), (0,)))


def maximize_bell(
    grid_steps: int,
    refine_iters: int = 50,
    rng_seed: int = 0,
    phase_grid: Sequence[float] | None = None,
) -> tuple[ChshModel, float]:
    """Grid search over the two Bob phases followed by local refinement.

    The support and bit structure are fixed analytically (single point,
    equal bits): any maximizing model can be brought to that form, so only
    the phases are searched.  Among equal grid maxima the lowest grid index
    wins.  Returns (best model, its Bell value).
    """
    if phase_grid is not None:
        grid = [canonical_phase(t) for t in phase_grid]
        if len(grid) < 1:
            raise ValueError("phase grid must be non-empty")
        spacing = 2.0 * math.pi / len(grid)
    else:
        if grid_steps < 4:
            raise ValueError("grid_steps must be at least 4")
        grid = [2.0 * math.pi * k / grid_steps for k in range(grid_steps)]
        spacing = 2.0 * math.pi / grid_steps

    best_t2, best_t4 = grid[0], grid[0]
    best_val = -math.inf
    for t2 in grid:
        for t4 in grid:
            val = bell_expression(_single_point_model(t2, t4))
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
            val = bell_expression(_single_point_model(t2, t4))
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4
                improved = True
        if not improved:
            step *= 0.5

    best_model = _single_point_model(canonical_phase(best_t2), canonical_phase(best_t4))
    return best_model, bell_expression(best_model)


def sample_model(
    rng: np.random.Generator,
    max_points: int = 16,
    phase_choices: Sequence[float] | None = None,
) -> ChshModel:
    """Draw a random valid model: up to max_points points with normalized
    weights, independent random bits, and phases either uniform on
    [0, 2pi) or drawn from phase_choices."""
    n = int(rng.integers(1, max_points + 1))
    raw = rng.random(n) + 1e-9
    weights = tuple(raw / raw.sum())
    if phase_choices is None:
        thetas = tuple(rng.uniform(0.0, 2.0 * math.pi, size=4))
    else:
        thetas = tuple(float(rng.choice(phase_choices)) for _ in range(4))
    bits = tuple(tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(4))
    points = tuple(f"l{k}" for k in range(n))
    return ChshModel(space=HiddenSpace(points, weights), thetas=thetas, bits=bits)


def model_to_dict(model: ChshModel) -> dict:
    """Flat serialization: {points, weights, theta, f1..f4}."""
    record = {
        "points": list(model.space.points),
        "weights": list(model.space.weights),
        "theta": list(model.thetas),
    }
    for idx, key in enumerate(("f1", "f2", "f3", "f4")):
        record[key] = list(model.bits[idx])
    return record


def model_from_dict(record: Mapping) -> ChshModel:
    space = HiddenSpace(tuple(record["points"]), tuple(float(w) for w in record["weights"]))
    thetas = tuple(float(t) for t in record["theta"])
    bits = tuple(tuple(int(b) for b in record[key]) for key in ("f1", "f2", "f3", "f4"))
    return ChshModel(space=space, thetas=thetas, bits=bits)
