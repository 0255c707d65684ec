import cmath
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlhv import chsh
from qlhv.chsh import (
    MAX_POINTS,
    ChshModel,
    analytic_bound,
    bell_expression,
    bell_sweep,
    bell_values,
    correlation,
    make_achieving_model,
    maximize_bell,
    model_from_dict,
    model_to_dict,
    sample_model,
    sample_models,
)
from qlhv.tolerances import TSIRELSON

SQRT2 = math.sqrt(2.0)


def single_point_model(thetas, bits=(0, 0, 0, 0)):
    return ChshModel((1.0,), tuple(thetas), tuple((b,) for b in bits))


def test_correlation_single_point():
    model = single_point_model((7 * math.pi / 4, 0.0, 0.0, 0.0))
    value = correlation(model, "a", "b")
    assert value == pytest.approx(cmath.exp(1j * 7 * math.pi / 4), abs=1e-12)


def test_correlation_perfectly_correlated_real_model():
    model = ChshModel((0.3, 0.7), (0.0, 0.0, 0.0, 0.0), ((1, 0), (1, 0), (0, 1), (0, 1)))
    assert correlation(model, "a", "b") == pytest.approx(1.0, abs=1e-12)


def test_correlation_cancellation():
    # parities even at the first point, odd at the second
    model = ChshModel((0.5, 0.5), (0.0, 0.0, 0.0, 0.0), ((0, 0), (0, 1), (0, 0), (0, 0)))
    assert correlation(model, "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_correlation_rejects_unknown_settings():
    model = make_achieving_model()
    with pytest.raises(ValueError):
        correlation(model, "b", "a")
    with pytest.raises(ValueError, match="unknown Bob setting: 'c'"):
        correlation(model, "a", "c")


def test_invalid_distribution_rejected():
    with pytest.raises(ValueError, match="invalid distribution"):
        ChshModel((0.6, 0.6), (0.0,) * 4, ((0, 0),) * 4)
    with pytest.raises(ValueError, match="invalid distribution"):
        ChshModel((1.2, -0.2), (0.0,) * 4, ((0, 0),) * 4)
    with pytest.raises(ValueError, match="invalid distribution"):
        ChshModel((math.nan, 1.0), (0.0,) * 4, ((0, 0),) * 4)


def test_achieving_model_correlations():
    model = make_achieving_model()
    assert correlation(model, "a", "b") == pytest.approx(cmath.exp(1j * 7 * math.pi / 4), abs=1e-12)
    assert correlation(model, "a", "b'") == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-12)
    assert correlation(model, "a'", "b") == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-12)
    assert correlation(model, "a'", "b'") == pytest.approx(cmath.exp(1j * 3 * math.pi / 4), abs=1e-12)


def test_achieving_model_saturates():
    model = make_achieving_model()
    assert model.thetas == (7 * math.pi / 4, 0.0, math.pi / 4, math.pi / 2)
    assert abs(bell_expression(model) - TSIRELSON) <= 1e-9


def test_constant_real_model_reaches_two():
    model = ChshModel((0.5, 0.5), (0.0,) * 4, ((0, 0),) * 4)
    assert bell_expression(model) == pytest.approx(2.0, abs=1e-12)


def test_analytic_bound_examples():
    assert analytic_bound(0.0, math.pi / 2) == pytest.approx(TSIRELSON, abs=1e-12)
    assert analytic_bound(0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert analytic_bound(0.0, math.pi / 3) == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)


def phase_pair_magnitudes(t2, t4):
    # (|e^{i t2} + e^{i t4}|, |e^{i t2} - e^{i t4}|), the two terms of analytic_bound
    z2, z4 = cmath.exp(1j * t2), cmath.exp(1j * t4)
    return abs(z2 + z4), abs(z2 - z4)


def test_phase_pair_magnitude_examples():
    # analytic_bound(0, t4) of each example, as floats and as one array
    t4 = (math.pi / 2, 0.0, math.pi / 3)
    pairs = ((SQRT2, SQRT2), (2.0, 0.0), (math.sqrt(3.0), 1.0))
    for phase, pair in zip(t4, pairs):
        assert phase_pair_magnitudes(0.0, phase) == pytest.approx(pair, abs=1e-12)
        assert analytic_bound(0.0, phase) == pytest.approx(sum(pair), abs=1e-12)
    bounds = analytic_bound(np.zeros(3), np.array(t4))
    assert bounds == pytest.approx([sum(pair) for pair in pairs], abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
)
def test_phase_pair_properties(t2, t4):
    plus, minus = phase_pair_magnitudes(t2, t4)
    assert plus * plus + minus * minus == pytest.approx(4.0, abs=1e-12)
    assert analytic_bound(t2, t4) == pytest.approx(plus + minus, abs=1e-12)
    assert plus + minus <= 2.0 * SQRT2 + 1e-12
    # saturation happens only when the phases differ by pi/2 mod pi; the
    # value degrades quadratically, so near-saturation pins the difference
    if plus + minus >= 2.0 * SQRT2 - 1e-9:
        diff = abs(t2 - t4) % math.pi
        assert abs(diff - math.pi / 2) < 1e-4


def test_saturation_at_exact_quarter_turn():
    for base in (0.0, 1.0, 2.5):
        assert analytic_bound(base, base + math.pi / 2) == pytest.approx(2.0 * SQRT2, abs=1e-12)


def test_random_models_respect_bounds():
    rng = np.random.default_rng(42)
    for _ in range(500):
        model = sample_model(rng)
        value = bell_expression(model)
        assert value <= TSIRELSON + 1e-9
        assert value <= analytic_bound(model.thetas[1], model.thetas[3]) + 1e-9
        for a in ("a", "a'"):
            for b in ("b", "b'"):
                assert abs(correlation(model, a, b)) <= 1.0 + 1e-12


def test_real_phase_models_respect_classical_bound():
    rng = np.random.default_rng(43)
    for _ in range(500):
        model = sample_model(rng, phase_choices=(0.0, math.pi))
        assert bell_expression(model) <= 2.0 + 1e-9


def test_relabeling_invariance():
    rng = np.random.default_rng(44)
    for _ in range(50):
        model = sample_model(rng)
        perm = rng.permutation(len(model.weights))
        shuffled = ChshModel(
            tuple(model.weights[i] for i in perm),
            model.thetas,
            tuple(tuple(vec[i] for i in perm) for vec in model.bits),
        )
        assert bell_expression(shuffled) == pytest.approx(bell_expression(model), abs=1e-12)


def test_maximizer_converges():
    _, value = maximize_bell(16, 50, 7)
    assert TSIRELSON - 1e-6 <= value <= TSIRELSON + 1e-9


def test_maximizer_grid_containing_optimum_is_exact():
    # the 4-step grid is (0, pi/2, pi, 3pi/2)
    _, value = maximize_bell(4, refine_iters=0, rng_seed=0)
    assert value == pytest.approx(TSIRELSON, abs=1e-12)


def test_maximizer_rejects_small_grid():
    with pytest.raises(ValueError):
        maximize_bell(3)


def test_maximizer_rejects_negative_seed():
    # random.Random would take -1 as the seed 1
    with pytest.raises(ValueError, match="rng_seed must be nonnegative"):
        maximize_bell(8, 50, -1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: maximize_bell(4.5), "grid_steps must be an integer", id="float-grid"),
    pytest.param(lambda: maximize_bell(16, 2.5), "refine_iters must be an integer", id="float-refine"),
    pytest.param(lambda: maximize_bell(16, -1), "refine_iters must be nonnegative", id="negative-refine"),
    pytest.param(lambda: maximize_bell(16, 50, True), "rng_seed must be an integer", id="bool-seed"),
    pytest.param(lambda: bell_sweep(np.random.default_rng(0), 2.5), "samples must be an integer",
                 id="float-samples"),
    pytest.param(lambda: bell_sweep(np.random.default_rng(0), 0), "samples must be at least 1", id="no-samples"),
    pytest.param(lambda: sample_models(np.random.default_rng(0), True), "count must be an integer", id="bool-count"),
    pytest.param(lambda: sample_models(np.random.default_rng(0), -1), "count must be nonnegative",
                 id="negative-count"),
])
def test_counts_and_seeds_follow_the_integer_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_counts_and_seeds_take_numpy_integers():
    assert maximize_bell(np.int64(8), np.int64(50), np.int64(1)) == maximize_bell(8, 50, 1)
    weights, _, _ = sample_models(np.random.default_rng(0), np.int64(3))
    assert weights.shape == (3, MAX_POINTS)


def test_maximizer_returns_phases_in_zero_to_two_pi():
    # refinement can leave a phase outside [0, 2pi) before the reduction: the
    # 5-step grid, seed 0, ends below 0 and returns theta2 = 5.969...
    assert maximize_bell(5, 50, 0)[0].thetas[1] == pytest.approx(5.969026, abs=1e-6)
    for grid_steps in range(4, 33):
        for seed in range(6):
            model, _ = maximize_bell(grid_steps, 50, seed)
            assert all(0.0 <= theta < math.tau for theta in model.thetas), (grid_steps, seed)


def test_maximizer_deterministic():
    a = maximize_bell(12, 50, 5)
    b = maximize_bell(12, 50, 5)
    assert a[1] == b[1]
    assert a[0].thetas == b[0].thetas


def reference_maximize(grid_steps, refine_iters, rng_seed):
    # the search scored by bell_expression of a one-point model per candidate
    def score(t2, t4):
        return bell_expression(single_point_model((0.0, t2, 0.0, t4)))

    grid = [2.0 * math.pi * k / grid_steps for k in range(grid_steps)]
    best_val, best_t2, best_t4 = -math.inf, grid[0], grid[0]
    for t2 in grid:
        for t4 in grid:
            val = score(t2, t4)
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4
    rng = random.Random(rng_seed)
    step = 2.0 * math.pi / grid_steps
    for _ in range(refine_iters):
        improved = False
        for t2, t4 in [(best_t2 + step, best_t4), (best_t2 - step, best_t4),
                       (best_t2, best_t4 + step), (best_t2, best_t4 - step),
                       (best_t2 + step * rng.uniform(-1, 1), best_t4 + step * rng.uniform(-1, 1))]:
            val = score(t2, t4)
            if val > best_val:
                best_val, best_t2, best_t4 = val, t2, t4
                improved = True
        if not improved:
            step *= 0.5
    model = single_point_model((0.0, best_t2 % math.tau, 0.0, best_t4 % math.tau))
    return model, bell_expression(model)


@pytest.mark.parametrize("grid_steps", [4, 5, 8, 12, 16, 24, 32])
def test_maximizer_matches_the_per_model_search(grid_steps):
    # ties between grid maxima must resolve as in the per-model search
    for seed in range(3):
        model, value = maximize_bell(grid_steps, 50, seed)
        ref_model, ref_value = reference_maximize(grid_steps, 50, seed)
        assert value == ref_value
        assert model.thetas == ref_model.thetas


def test_serialization_round_trip():
    rng = np.random.default_rng(45)
    for _ in range(10):
        model = sample_model(rng)
        restored = model_from_dict(model_to_dict(model))
        assert restored == model


def test_non_finite_phases_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            single_point_model((bad, 0.0, 0.0, 0.0))
        record = model_to_dict(make_achieving_model())
        record["theta"] = [0.0, 0.0, bad, 0.0]
        with pytest.raises(ValueError, match="finite"):
            model_from_dict(record)


@pytest.mark.parametrize("bit", [0.7, "1"])
def test_model_from_dict_rejects_bits_that_are_not_0_or_1(bit):
    record = model_to_dict(make_achieving_model())
    record["f1"] = [bit]
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        model_from_dict(record)


def test_model_from_dict_reads_booleans_and_counts_labels():
    record = model_to_dict(make_achieving_model())
    record["f1"], record["f3"], record["points"] = [False], [True], ["any label"]
    model = model_from_dict(record)
    assert model.bits == ((0,), (0,), (1,), (0,))
    assert all(type(b) is int for vec in model.bits for b in vec)
    record["points"] = ["l0", "l1"]
    with pytest.raises(ValueError, match="distribution"):
        model_from_dict(record)


@pytest.mark.parametrize("key, values", [
    ("weights", ["1.0"]),
    ("weights", [True]),
    ("theta", ["0", "1e0", "0.5", "2"]),
    ("theta", [0.0, 0.0, None, 0.0]),
])
def test_model_from_dict_rejects_weights_and_phases_that_are_not_numbers(key, values):
    record = model_to_dict(make_achieving_model())
    record[key] = values
    with pytest.raises(ValueError, match="numbers"):
        model_from_dict(record)


def test_model_to_dict_is_canonical_for_a_directly_built_model():
    record = model_to_dict(ChshModel((1,), (0.0,) * 4, ((True,), (1.0,), (0,), (0,))))
    # json tells 1 from 1.0 and True, where == does not
    assert json.dumps(record) == json.dumps(model_to_dict(model_from_dict(record)))
    assert json.dumps(record["weights"]) == "[1.0]" and record["f1"] == record["f2"] == [1]


@pytest.mark.parametrize("weights, thetas", [
    pytest.param(("1.0",), (0.0,) * 4, id="string-weight"),
    pytest.param((None,), (0.0,) * 4, id="none-weight"),
    pytest.param((1.0,), ("0", 0.0, 0.0, 0.0), id="string-phase"),
    pytest.param((1.0,), (0.0, 0.0, None, 0.0), id="none-phase"),
])
def test_model_rejects_weights_and_phases_that_are_not_numbers(weights, thetas):
    with pytest.raises(ValueError, match="weights and phases must be numbers"):
        ChshModel(weights, thetas, ((0,),) * 4)


@pytest.mark.parametrize("bits", [
    pytest.param((0, 0, 0, 0), id="numbers-for-bit-vectors"),
    pytest.param(5, id="number-for-bits"),
])
def test_model_rejects_bits_that_are_not_vectors(bits):
    with pytest.raises(ValueError, match="bits need one entry per point"):
        ChshModel((1.0,), (0.0,) * 4, bits)


@pytest.mark.parametrize("weights, thetas, bits, reason", [
    pytest.param((0.6, 0.6), (0.0,) * 4, ((0, 0),) * 4, "distribution", id="sum-above-1"),
    pytest.param((1.2, -0.2), (0.0,) * 4, ((0, 0),) * 4, "distribution", id="negative-weight"),
    pytest.param((math.nan, 1.0), (0.0,) * 4, ((0, 0),) * 4, "distribution", id="nan-weight"),
    pytest.param((), (0.0,) * 4, ((),) * 4, "distribution", id="no-points"),
    pytest.param((1.0,), (0.0,) * 3, ((0,),) * 4, "need", id="three-phases"),
    pytest.param((1.0,), (0.0,) * 4, ((0,),) * 3, "need", id="three-bit-vectors"),
    pytest.param((0.5, 0.5), (0.0,) * 4, ((0, 0), (0,), (0, 0), (0, 0)), "bits", id="short-bit-vector"),
    pytest.param((1.0,), (0.0,) * 4, ((0,), (2,), (0,), (0,)), "bits", id="bit-2"),
    pytest.param((1.0,), (0.0,) * 4, ((0,), (0,), (0.5,), (0,)), "bits", id="bit-0.5"),
    pytest.param((1.0,), (0.0, math.nan, 0.0, 0.0), ((0,),) * 4, "finite", id="nan-theta"),
    pytest.param((1.0,), (0.0, 0.0, 0.0, math.inf), ((0,),) * 4, "finite", id="inf-theta"),
])
def test_model_and_batch_validators_agree(weights, thetas, bits, reason):
    with pytest.raises(ValueError, match=reason):
        ChshModel(weights, thetas, bits)
    if any(len(vec) != len(weights) for vec in bits):
        return  # a ragged model has no padded row
    pad = MAX_POINTS - len(weights)
    row_weights = np.pad(np.array([weights], dtype=float), ((0, 0), (0, pad)))
    row_bits = np.pad(np.array([bits]), ((0, 0), (0, 0), (0, pad)))
    with pytest.raises(ValueError, match=reason):
        bell_values(row_weights, np.array([thetas]), row_bits)


# ---------------------------------------------------------------- batches

@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi)])
def test_sample_models_rows_are_sample_model_calls(phase_choices):
    for seed in (0, 1, 2024):
        rng = np.random.default_rng(seed)
        models = [sample_model(rng, phase_choices) for _ in range(1100)]
        batch_rng = np.random.default_rng(seed)
        weights, thetas, bits = sample_models(batch_rng, 1100, phase_choices)
        assert weights.shape == (1100, MAX_POINTS) and thetas.shape == (1100, 4)
        assert bits.shape == (1100, 4, MAX_POINTS)
        assert bits.dtype == np.int8 and np.all((bits == 0) | (bits == 1))
        for row, model in enumerate(models):
            n = len(model.weights)
            assert weights[row, :n].tolist() == list(model.weights)
            assert thetas[row].tolist() == list(model.thetas)
            assert bits[row, :, :n].tolist() == [list(vec) for vec in model.bits]
            assert not weights[row, n:].any() and not bits[row, :, n:].any()
        assert {len(model.weights) for model in models} == set(range(1, MAX_POINTS + 1))
        if phase_choices is not None:
            assert set(thetas.flat) == {0.0, math.pi}

        # two consecutive batches, as a chunked sweep draws them
        chunk_rng = np.random.default_rng(seed)
        first = sample_models(chunk_rng, 1030, phase_choices)
        second = sample_models(chunk_rng, 70, phase_choices)
        for whole, part, rest in zip((weights, thetas, bits), first, second):
            assert np.array_equal(np.concatenate([part, rest]), whole)
        assert rng.bit_generator.state == batch_rng.bit_generator.state == chunk_rng.bit_generator.state


def reference_row(u, phase_choices):
    """One model from a row of 85 uniforms by the documented layout, in plain
    Python: (weights, thetas, bits) over the support."""
    n = math.floor(u[0] * 16) + 1
    raw = [x + 1e-9 for x in u[1:1 + n]]
    if phase_choices is None:
        thetas = [2.0 * math.pi * x for x in u[17:21]]
    else:
        thetas = [phase_choices[math.floor(x * len(phase_choices))] for x in u[17:21]]
    bits = [[int(x < 0.5) for x in u[21 + 16 * k:21 + 16 * k + n]] for k in range(4)]
    return [x / sum(raw) for x in raw], thetas, bits


class FixedUniforms:
    """Stands in for a Generator: random(shape) returns the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi), (0.0, 1.0, 2.0)])
def test_sample_models_follow_the_documented_row_layout(phase_choices):
    uniforms = np.random.default_rng(5).random((300, 85))
    # the edges of each field: support sizes 1, 9, 16 and 16, the first and
    # last phase choice, and a bit uniform of exactly 0.5
    top = 1.0 - 2.0 ** -53
    uniforms[:4, 0] = (0.0, 0.5, 15 / 16, top)
    uniforms[:2, 17:21] = ((0.0,) * 4, (top,) * 4)
    uniforms[:4, 21] = 0.5
    weights, thetas, bits = sample_models(FixedUniforms(uniforms), 300, phase_choices)
    for row, u in enumerate(uniforms.tolist()):
        ref_weights, ref_thetas, ref_bits = reference_row(u, phase_choices)
        n = len(ref_weights)
        assert weights[row, :n].tolist() == pytest.approx(ref_weights, rel=1e-15, abs=0.0)
        assert not weights[row, n:].any() and not bits[row, :, n:].any()
        assert thetas[row].tolist() == ref_thetas
        assert bits[row, :, :n].tolist() == ref_bits


def as_batch(models):
    """Padded (weights, thetas, bits) of ChshModels."""
    weights = np.zeros((len(models), MAX_POINTS))
    bits = np.zeros((len(models), 4, MAX_POINTS), dtype=int)
    for row, model in enumerate(models):
        n = len(model.weights)
        weights[row, :n] = model.weights
        bits[row, :, :n] = model.bits
    return weights, np.array([model.thetas for model in models], dtype=float), bits


@st.composite
def chsh_models(draw):
    n = draw(st.integers(1, MAX_POINTS))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    weights = tuple(w / sum(raw) for w in raw)
    thetas = tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4)))
    bits = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))) for _ in range(4))
    return ChshModel(weights, thetas, bits)


@given(st.lists(chsh_models(), min_size=1, max_size=8), st.integers(1, 5), st.randoms())
def test_bell_values_match_bell_expression(models, extra, random):
    models = models + [make_achieving_model()]
    weights, thetas, bits = as_batch(models)
    values = bell_values(weights, thetas, bits)
    assert values.shape == (len(models),)
    for value, model in zip(values, models):
        assert abs(value - bell_expression(model)) <= 1e-14
    assert abs(values[-1] - TSIRELSON) <= 1e-14

    # zero-weight columns change no value, whatever their bits
    padded_bits = np.array([[[random.randint(0, 1) for _ in range(extra)] for _ in range(4)]
                            for _ in models])
    padded = bell_values(np.pad(weights, ((0, 0), (0, extra))), thetas,
                         np.concatenate([bits, padded_bits], axis=2))
    assert np.all(np.abs(padded - values) <= 1e-14)


@given(chsh_models())
def test_one_pass_correlations_equal_the_four_pass_definition_bit_for_bit(model):
    # the definition, one setting pair at a time: the signed weights added
    # left to right from 0.0, times e^{i(theta_a + theta_b)}; written as a
    # loop, since sum() of floats is compensated from CPython 3.12
    slot = {"a": 0, "b": 1, "a'": 2, "b'": 3}
    reference = {}
    for alice in ("a", "a'"):
        for bob in ("b", "b'"):
            ia, ib = slot[alice], slot[bob]
            total = 0.0
            for w, x, y in zip(model.weights, model.bits[ia], model.bits[ib]):
                total += w if x == y else -w
            reference[alice, bob] = total * cmath.exp(1j * (model.thetas[ia] + model.thetas[ib]))
    for (alice, bob), value in reference.items():
        assert correlation(model, alice, bob) == value
    e_ab, e_abp, e_apb, e_apbp = reference.values()
    assert bell_expression(model) == abs(e_ab - e_abp) + abs(e_apb + e_apbp)


def test_correlation_reads_each_model_when_calls_interleave():
    # the one-pass kernel keeps the last model's four values: another model
    # in between must be computed afresh, and the first read again
    first = make_achieving_model()
    second = ChshModel(first.weights, (0.0, 0.0, 0.0, 0.0), first.bits)
    values = [correlation(model, "a", "b'") for model in (first, second, first)]
    assert values == [cmath.exp(1j * (7 * math.pi / 4 + math.pi / 2)), 1.0, values[0]]


def _valid_batch():
    return [part.copy() for part in sample_models(np.random.default_rng(3), 5)]


def _set(part, index, value):
    def mutate(batch):
        batch[part][index] = value
        return batch
    return mutate


def _negative_weight(batch):
    batch[0][0] = 0.0
    batch[0][0, :2] = (1.5, -0.5)
    return batch


def _nan_in_second_regime(batch):
    second = batch[1].copy()
    second[2, 3] = math.nan
    return [batch[0], np.stack([batch[1], second]), batch[2]]


@pytest.mark.parametrize("mutate, reason", [
    pytest.param(lambda b: [b[0], b[1][:, :3], b[2]], "need", id="theta-shape"),
    pytest.param(lambda b: [b[0], b[1], b[2][:, :, :-1]], "need", id="bits-shape"),
    pytest.param(lambda b: [b[0][0], b[1], b[2]], "need", id="weights-shape"),
    pytest.param(lambda b: [np.vstack([b[0], b[0][:1]]), b[1], b[2]], "need", id="row-count"),
    pytest.param(_negative_weight, "distribution", id="negative-weight"),
    pytest.param(_set(0, (1, 0), math.nan), "distribution", id="nan-weight"),
    pytest.param(lambda b: [b[0] * (1.0 + 1e-11), b[1], b[2]], "distribution", id="row-sum"),
    pytest.param(_set(2, (2, 1, 0), 2), "bits", id="bit-outside-0-1"),
    pytest.param(_set(1, (3, 2), math.nan), "finite", id="nan-theta"),
    pytest.param(_set(1, (4, 0), math.inf), "finite", id="inf-theta"),
    pytest.param(lambda b: [b[0], np.stack([b[1][:4]] * 2), b[2]], "need", id="stacked-theta-rows"),
    pytest.param(_nan_in_second_regime, "finite", id="nan-theta-second-regime"),
])
def test_bell_values_rejects_invalid_batches(mutate, reason):
    assert bell_values(*_valid_batch()).shape == (5,)
    batch = mutate(_valid_batch())
    with pytest.raises(ValueError, match=reason):
        bell_values(*batch)


def test_bell_values_take_bits_of_any_0_1_dtype():
    weights, thetas, bits = sample_models(np.random.default_rng(5), 200)
    values = [bell_values(weights, thetas, bits.astype(dtype))
              for dtype in (np.int8, bool, np.int64, float)]
    for other in values[1:]:
        assert np.array_equal(values[0], other)
    half = bits.astype(float)
    half[7, 1, 0] = 0.5
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        bell_values(weights, thetas, half)


_ONE_POINT_BITS = [[[0], [0], [0], [0]]]
_NUMBERS = "weights and phases must be numbers"
_CHOICES = "phase_choices must be a nonempty sequence of reals"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda rng: bell_values([["1.0"]], [["0"] * 4], _ONE_POINT_BITS), _NUMBERS,
                 id="str-weight-and-phases"),
    pytest.param(lambda rng: bell_values([[True]], [[0.0] * 4], _ONE_POINT_BITS), _NUMBERS,
                 id="bool-weight"),
    pytest.param(lambda rng: bell_values([[1.0]], [[b"0"] * 4], _ONE_POINT_BITS), _NUMBERS,
                 id="bytes-phases"),
    pytest.param(lambda rng: bell_values([[1.0]], np.zeros((1, 4), complex), _ONE_POINT_BITS), _NUMBERS,
                 id="complex-phases"),
    pytest.param(lambda rng: bell_values(np.ones((1, 1), object), [[0.0] * 4], _ONE_POINT_BITS), _NUMBERS,
                 id="object-weight"),
    pytest.param(lambda rng: sample_model(rng, (True, False)), _CHOICES, id="bool-choices"),
    pytest.param(lambda rng: sample_model(rng, ("0", "1")), _CHOICES, id="str-choices"),
    pytest.param(lambda rng: sample_models(rng, 2, ()), _CHOICES, id="no-choices"),
])
def test_population_inputs_follow_the_real_rule(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(np.random.default_rng(0))


def test_population_inputs_take_numbers_of_any_int_uint_or_float_dtype():
    for weights, thetas in (([[1]], [[0] * 4]), (np.ones((1, 1), np.uint8), np.zeros((1, 4), np.float32))):
        assert bell_values(weights, thetas, _ONE_POINT_BITS).tolist() == [2.0]
    for choices in ([0, 1.5], np.array([0.0, math.pi])):
        expected = sample_model(np.random.default_rng(1), tuple(map(float, choices)))
        assert sample_model(np.random.default_rng(1), choices) == expected


def test_analytic_bound_is_elementwise():
    t2, t4 = np.random.default_rng(8).uniform(-10.0, 10.0, size=(2, 200))
    bounds = analytic_bound(t2, t4)
    assert bounds.shape == (200,)
    for bound, a, b in zip(bounds, t2, t4):
        assert abs(bound - analytic_bound(float(a), float(b))) <= 1e-15


def test_bell_values_on_stacked_phases_equal_one_call_per_regime():
    weights, thetas, bits = sample_models(np.random.default_rng(11), 500)
    real = np.where(thetas < math.pi, 0.0, math.pi)
    stacked = bell_values(weights, np.stack([thetas, real]), bits)
    assert stacked.shape == (2, 500)
    assert np.array_equal(stacked[0], bell_values(weights, thetas, bits))
    assert np.array_equal(stacked[1], bell_values(weights, real, bits))


def test_bell_sweep_returns_the_first_two_rows_as_spot_rows(monkeypatch):
    for block in (1, 1024):
        monkeypatch.setattr(chsh, "_BLOCK", block)
        for samples in (1, 2, 5):
            *_, spots = bell_sweep(np.random.default_rng(3), samples)
            rng = np.random.default_rng(3)
            models = [sample_model(rng) for _ in range(min(samples, 2))]
            assert [(spot.index, spot.model) for spot in spots] == list(enumerate(models))
            for spot in spots:
                assert abs(spot.value - bell_expression(spot.model)) <= 1e-14


def test_bell_sweep_does_not_depend_on_the_block_size(monkeypatch):
    # 1,100 samples in 158, two or one blocks; witnesses compare index, value and model
    sweeps = []
    for block in (7, 1024, 1100):
        monkeypatch.setattr(chsh, "_BLOCK", block)
        sweeps.append(bell_sweep(np.random.default_rng(107), 1_100))
    assert sweeps[0] == sweeps[1] == sweeps[2]
