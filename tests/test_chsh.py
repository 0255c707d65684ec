import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlhv.chsh import (
    MAX_POINTS,
    ChshModel,
    analytic_bound,
    bell_expression,
    bell_values,
    correlation,
    make_achieving_model,
    maximize_bell,
    model_from_dict,
    model_to_dict,
    sample_model,
    sample_models,
)
from qlhv.quaternions import canonical_phase
from qlhv.tolerances import TSIRELSON


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
    rng = np.random.default_rng(rng_seed)
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
    model = single_point_model((0.0, canonical_phase(best_t2), 0.0, canonical_phase(best_t4)))
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

def reference_draw(rng, phase_choices):
    """The original per-field generator calls of sample_model, kept as the
    independent reference for the random stream: (weights, thetas, bits)."""
    n = int(rng.integers(1, 17))
    raw = rng.random(n) + 1e-9
    if phase_choices is None:
        thetas = list(rng.uniform(0.0, 2.0 * math.pi, size=4))
    else:
        thetas = [float(rng.choice(phase_choices)) for _ in range(4)]
    bits = [list(rng.integers(0, 2, size=n)) for _ in range(4)]
    return list(raw / raw.sum()), thetas, bits


@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi)])
def test_sampling_keeps_the_random_stream(phase_choices):
    for seed in (0, 1, 2024):
        reference = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            weights, thetas, bits = reference_draw(reference, phase_choices)
            model = sample_model(rng, phase_choices)
            assert list(model.weights) == weights
            assert list(model.thetas) == thetas
            assert [list(vec) for vec in model.bits] == bits
        assert rng.bit_generator.state == reference.bit_generator.state

        # two consecutive batches, as a chunked sweep draws them
        first, second = sample_models(rng, 1030, phase_choices), sample_models(rng, 70, phase_choices)
        batch = [np.concatenate(parts) for parts in zip(first, second)]
        assert [part.shape for part in batch] == [(1100, MAX_POINTS), (1100, 4), (1100, 4, MAX_POINTS)]
        for row in range(1100):
            weights, thetas, bits = reference_draw(reference, phase_choices)
            n = len(weights)
            assert batch[0][row, :n].tolist() == weights
            assert batch[1][row].tolist() == thetas
            assert batch[2][row, :, :n].tolist() == bits
            assert not batch[0][row, n:].any() and not batch[2][row, :, n:].any()
        assert rng.bit_generator.state == reference.bit_generator.state


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
])
def test_bell_values_rejects_invalid_batches(mutate, reason):
    assert bell_values(*_valid_batch()).shape == (5,)
    batch = mutate(_valid_batch())
    with pytest.raises(ValueError, match=reason):
        bell_values(*batch)


def test_analytic_bound_is_elementwise():
    t2, t4 = np.random.default_rng(8).uniform(-10.0, 10.0, size=(2, 200))
    bounds = analytic_bound(t2, t4)
    assert bounds.shape == (200,)
    for bound, a, b in zip(bounds, t2, t4):
        assert abs(bound - analytic_bound(float(a), float(b))) <= 1e-15
