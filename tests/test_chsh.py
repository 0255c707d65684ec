import cmath
import itertools
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
from qlhv.tolerances import EXACT_TOL, TSIRELSON

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


@pytest.mark.parametrize("alice, bob, message", [
    pytest.param("c", "b", "unknown Alice setting: 'c'", id="alice-unknown"),
    pytest.param(["a"], "b", "unknown Alice setting: \\['a'\\]", id="alice-unhashable"),
    pytest.param(None, "b", "unknown Alice setting: None", id="alice-none"),
    pytest.param("a", ["b"], "unknown Bob setting: \\['b'\\]", id="bob-unhashable"),
    pytest.param("a", "c", "unknown Bob setting: 'c'", id="bob-unknown"),
    pytest.param("a'", None, "unknown Bob setting: None", id="bob-none"),
    pytest.param("b", "a", "unknown Alice setting: 'b'", id="swapped"),
    # unhashable, yet equal to a setting name: a setting is a str
    pytest.param(np.array("a"), "b", "unknown Alice setting: array\\('a', dtype='<U1'\\)", id="alice-array"),
    pytest.param("a", np.array("b"), "unknown Bob setting: array\\('b', dtype='<U1'\\)", id="bob-array"),
])
def test_correlation_rejects_unknown_settings(alice, bob, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        correlation(make_achieving_model(), alice, bob)


@pytest.mark.parametrize("weights", [
    pytest.param((0.6, 0.6), id="sum-above-1"),
    pytest.param((1.2, -0.2), id="negative-weight"),
    pytest.param((), id="no-points"),
    pytest.param((math.nan, 1.0), id="nan-first"),
    pytest.param((1.0, math.nan), id="nan-last"),
    pytest.param((math.inf,), id="inf"),
    pytest.param((-1e-300, 1.0), id="tiny-negative"),
])
def test_invalid_distribution_rejected(weights):
    with pytest.raises(ValueError, match="^invalid distribution$"):
        ChshModel(weights, (0.0,) * 4, (tuple(0 for _ in weights),) * 4)


def test_model_accepts_a_negative_zero_weight():
    model = ChshModel((-0.0, 1.0), (0.0,) * 4, ((0, 0),) * 4)
    assert bell_expression(model) == 2.0


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


@pytest.mark.parametrize("t2, t4", [
    pytest.param(None, 0.0, id="none"),
    pytest.param("0", 0.0, id="str"),
    pytest.param(0.0, [1j], id="complex"),
    pytest.param(np.array([True]), np.zeros(1), id="bool-array"),
    pytest.param([None], [0.0], id="object"),
])
def test_analytic_bound_takes_arrays_of_numbers_only(t2, t4):
    # the dtype rule of bell_values; two floats take the scalar path
    with pytest.raises(ValueError, match="^phases must be numbers$"):
        analytic_bound(t2, t4)


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


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_analytic_bound_reads_only_the_phase_difference(t2, t4, phi):
    # maximize_bell searches t4 - t2 alone on this fact.  A common shift phi
    # leaves the bound but for the rounding of t2 + phi and t4 + phi, each
    # within half an ulp of its magnitude, so their difference is off by at
    # most ulp(m) for the larger magnitude m; the bound moves by at most
    # sqrt(2) times a change of t4 - t2.  1e-14 covers the exp and abs
    tol = 1e-14 + 2 * math.ulp(max(abs(t2 + phi), abs(t4 + phi)))
    assert abs(analytic_bound(t2 + phi, t4 + phi) - analytic_bound(t2, t4)) <= tol
    unshifted, shifted = analytic_bound(np.array([t2, t2 + phi]), np.array([t4, t4 + phi]))
    assert abs(shifted - unshifted) <= tol


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
    assert abs(value - TSIRELSON) <= EXACT_TOL


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
    pytest.param(lambda: bell_sweep(0, 2.5), "samples must be an integer", id="float-samples"),
    pytest.param(lambda: bell_sweep(0, 0), "samples must be at least 1", id="no-samples"),
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
    # grid 5 holds no optimum: its best grid point 2pi/5 is refined to pi/2
    assert maximize_bell(5, 50, 0)[0].thetas[3] == pytest.approx(math.pi / 2, abs=1e-8)
    for grid_steps in range(4, 101):
        for seed in range(20):
            model, value = maximize_bell(grid_steps, 50, seed)
            assert model.thetas[:3] == (0.0, 0.0, 0.0), (grid_steps, seed)
            assert 0.0 <= model.thetas[3] < math.tau, (grid_steps, seed)
            assert abs(value - TSIRELSON) <= EXACT_TOL, (grid_steps, seed)


def test_maximizer_deterministic():
    a = maximize_bell(12, 50, 5)
    b = maximize_bell(12, 50, 5)
    assert a[1] == b[1]
    assert a[0].thetas == b[0].thetas


def reference_maximize(grid_steps, refine_iters, rng_seed):
    # the search over delta = t4 - t2, each candidate scored by the bound's
    # closed form 2(|cos(delta/2)| + |sin(delta/2)|), written out here; it is
    # the Bell value of the one-point model, which bell_expression gives to
    # within 2 ulps.  Returns the best model, its value and the scored
    # deltas in order
    scored = []

    def score(delta):
        scored.append(delta)
        value = 2.0 * (abs(math.cos(delta / 2.0)) + abs(math.sin(delta / 2.0)))
        assert abs(value - bell_expression(single_point_model((0.0, 0.0, 0.0, delta)))) <= 2 * math.ulp(TSIRELSON)
        return value

    step = 2.0 * math.pi / grid_steps
    best_val, best_delta = -math.inf, 0.0
    for k in range(grid_steps):
        val = score(step * k)
        if val > best_val:
            best_val, best_delta = val, step * k
    rng = random.Random(rng_seed)
    for _ in range(refine_iters):
        improved = False
        for delta in [best_delta + step, best_delta - step, best_delta + step * rng.uniform(-1, 1)]:
            val = score(delta)
            if val > best_val:
                best_val, best_delta = val, delta
                improved = True
        if not improved:
            step *= 0.5
    model = single_point_model((0.0, 0.0, 0.0, best_delta % math.tau))
    return model, bell_expression(model), scored


@pytest.mark.parametrize("grid_steps", [4, 5, 8, 12, 16, 24, 32])
def test_maximizer_matches_the_per_model_search(grid_steps):
    # ties between grid maxima must resolve as in the per-model search
    for seed in range(3):
        model, value = maximize_bell(grid_steps, 50, seed)
        ref_model, ref_value, _ = reference_maximize(grid_steps, 50, seed)
        assert value == ref_value
        assert model.thetas == ref_model.thetas


@pytest.mark.parametrize("grid_steps, refine_iters, rng_seed", [(4, 0, 0), (5, 1, 3), (7, 50, 2), (10, 20, 11),
                                                            (16, 50, 7)])
def test_maximizer_scores_the_pairs_of_the_per_model_search(monkeypatch, grid_steps, refine_iters, rng_seed):
    # the optimizer's work, which the benchmark's per-layer counters read:
    # each grid delta, then three candidates per refinement round, each
    # scored once by analytic_bound(0.0, delta), in the order of the
    # per-model search
    expected = [(0.0, delta) for delta in reference_maximize(grid_steps, refine_iters, rng_seed)[2]]
    scored = []
    bound = chsh.analytic_bound

    def recording(t2, t4):
        scored.append((t2, t4))
        return bound(t2, t4)

    monkeypatch.setattr(chsh, "analytic_bound", recording)
    maximize_bell(grid_steps, refine_iters, rng_seed)
    assert len(scored) == grid_steps + 3 * refine_iters
    assert scored == expected


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
    # numbers equal to a bit read as it, a complex one too, which int() refuses
    record["f2"], record["f4"] = [1.0], [0j]
    model = model_from_dict(record)
    assert model.bits == ((0,), (1,), (1,), (0,))
    assert all(type(b) is int for vec in model.bits for b in vec)
    record["points"] = ["l0", "l1"]
    with pytest.raises(ValueError, match="distribution"):
        model_from_dict(record)


@pytest.mark.parametrize("key, values", [
    ("weights", ["1.0"]),
    ("weights", [True]),
    ("theta", ["0", "1e0", "0.5", "2"]),
    ("theta", [0.0, 0.0, None, 0.0]),
    # a dict iterates as its keys, which are numbers here
    ("theta", {0.0: "a", 1.0: "b", 2.0: "c", 3.0: "d"}),
])
def test_model_from_dict_rejects_weights_and_phases_that_are_not_numbers(key, values):
    record = model_to_dict(make_achieving_model())
    record[key] = values
    with pytest.raises(ValueError, match="numbers"):
        model_from_dict(record)


@pytest.mark.parametrize("record", [None, [], "model", 3], ids=["none", "list", "str", "int"])
def test_model_from_dict_rejects_a_record_that_is_not_a_mapping(record):
    with pytest.raises(ValueError, match="a model record must be a mapping"):
        model_from_dict(record)


@pytest.mark.parametrize("key", ["points", "weights", "theta", "f4"])
def test_model_from_dict_names_a_missing_key(key):
    record = model_to_dict(make_achieving_model())
    del record[key]
    with pytest.raises(ValueError, match=f"^model record lacks {key}$"):
        model_from_dict(record)


@pytest.mark.parametrize("key, value", [
    ("points", 3), ("points", None), ("weights", 1), ("f2", 1),
    # each has the length of the one weight, so that a length test alone passes it
    pytest.param("points", "l", id="points-str"), pytest.param("points", b"l", id="points-bytes"),
    pytest.param("points", {"l0": 1.0}, id="points-dict"), pytest.param("weights", "1", id="weights-str"),
    pytest.param("f2", {0: "x"}, id="f2-dict"),
])
def test_model_from_dict_rejects_a_number_in_place_of_a_list(key, value):
    record = model_to_dict(make_achieving_model())
    record[key] = value
    with pytest.raises(ValueError, match="points, weights and bits must be lists"):
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
    if any(len(vec) != len(weights) or not set(vec) <= {0, 1} for vec in bits):
        # a ragged model has no padded row, and a bit other than 0 or 1 no
        # word: test_bell_values_rejects_invalid_batches holds the word rule
        return
    pad = MAX_POINTS - len(weights)
    row_weights = np.pad(np.array([weights], dtype=float), ((0, 0), (0, pad)))
    row_words = [[sum(bit << p for p, bit in enumerate(vec)) for vec in bits]]
    with pytest.raises(ValueError, match=reason):
        bell_values(row_weights, np.array([thetas]), row_words)


# ---------------------------------------------------------------- batches

@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi), (0, 1, 2)])
def test_sample_models_rows_are_sample_model_calls(phase_choices):
    # two decoders, numpy's for blocks and plain Python's for one row, must
    # give the same models bit for bit
    for seed in (0, 1, 2024):
        rng = np.random.default_rng(seed)
        models = [sample_model(rng, phase_choices) for _ in range(2000)]
        batch_rng = np.random.default_rng(seed)
        weights, thetas, words = sample_models(batch_rng, 2000, phase_choices)
        assert weights.shape == (2000, MAX_POINTS) and thetas.shape == (2000, 4)
        assert words.shape == (2000, 4) and words.dtype == np.dtype("<u2")
        bits = word_bits(words)
        assert np.all((bits == 0) | (bits == 1))
        for row, model in enumerate(models):
            n = len(model.weights)
            assert weights[row, :n].tolist() == list(model.weights)
            assert thetas[row].tolist() == list(model.thetas)
            assert bits[row, :, :n].tolist() == [list(vec) for vec in model.bits]
            assert not weights[row, n:].any() and not bits[row, :, n:].any()
        assert {len(model.weights) for model in models} == set(range(1, MAX_POINTS + 1))
        if phase_choices is not None:
            assert set(thetas.flat) == set(map(float, phase_choices))

        # two consecutive batches, as a chunked sweep draws them
        chunk_rng = np.random.default_rng(seed)
        first = sample_models(chunk_rng, 1030, phase_choices)
        second = sample_models(chunk_rng, 970, phase_choices)
        for whole, part, rest in zip((weights, thetas, words), first, second):
            assert np.array_equal(np.concatenate([part, rest]), whole)
        assert rng.bit_generator.state == batch_rng.bit_generator.state == chunk_rng.bit_generator.state


def word_bits(words):
    """The (N, 4, 16) bits of (N, 4) words, bit p of each word at point p,
    by shifts rather than by unpacking bytes."""
    return (np.asarray(words, dtype=np.int64)[..., None] >> np.arange(MAX_POINTS)) & 1


def array_row_model(weights, thetas, words, row):
    """One row of a population as a ChshModel: its support is its nonzero
    weights, which come first, and its bits are read by shifts."""
    w = weights[row].tolist()
    n = len(w) - w.count(0.0)
    return ChshModel(w[:n], thetas[row].tolist(), word_bits(words[row])[:, :n].tolist())


def reference_row(u, phase_choices):
    """One model from a row of 25 uniforms by the documented layout, in plain
    Python: (weights, thetas, bits) over the support.  Setting k's bits are
    the binary digits of floor(u[21 + k] * 2^16), point p reading the p-th
    least significant one."""
    n = math.floor(u[0] * 16) + 1
    raw = [x + 1e-9 for x in u[1:1 + n]]
    if phase_choices is None:
        thetas = [2.0 * math.pi * x for x in u[17:21]]
    else:
        thetas = [phase_choices[math.floor(x * len(phase_choices))] for x in u[17:21]]
    bits = [[int(digit) for digit in reversed(format(math.floor(x * 2 ** 16), "016b"))][:n] for x in u[21:25]]
    # left to right: sum() of floats is compensated from CPython 3.12
    total = 0.0
    for x in raw:
        total += x
    return [x / total for x in raw], thetas, bits


class FixedUniforms:
    """Stands in for a Generator: random(shape) returns the given rows, a
    (N, 25) block or one row of 25."""

    def __init__(self, rows):
        self.rows = rows

    def random(self, shape):
        assert np.shape(np.empty(shape)) == self.rows.shape
        return self.rows.copy()


@pytest.mark.parametrize("phase_choices", [None, (0.0, math.pi), (0.0, 1.0, 2.0)])
def test_sample_models_follow_the_documented_row_layout(phase_choices):
    uniforms = np.random.default_rng(5).random((300, 25))
    # the edges of each field: support sizes 1, 9, 16 and 16, the first and
    # last phase choice, and the bit uniforms 0, 1/2 (word 0x8000, only
    # point 15) and 1 - 2^-53 (word 0xFFFF) on supports of 9 and 16
    top = 1.0 - 2.0 ** -53
    uniforms[:4, 0] = (0.0, 0.5, 15 / 16, top)
    uniforms[:2, 17:21] = ((0.0,) * 4, (top,) * 4)
    uniforms[1:3, 21:25] = ((0.5, top, 0.0, 0.5), (0.0, 0.5, top, 0.5))
    # the byte boundary: words 0x00FF, 0xFF00, 0x0100, 0x5555 and 0xAAAA,
    # each read by some setting on supports of 8, 9 and 16 (rows 4 to 9)
    edge_words = ((0x00FF, 0xFF00, 0x0100, 0x5555), (0xAAAA, 0x5555, 0x00FF, 0xFF00))
    edge_rows = [(size, words) for size in (8, 9, 16) for words in edge_words]
    for row, (size, words) in enumerate(edge_rows, start=4):
        uniforms[row, 0] = (size - 1) / 16
        uniforms[row, 21:25] = [word / 2 ** 16 for word in words]
    weights, thetas, drawn = sample_models(FixedUniforms(uniforms), 300, phase_choices)
    bits = word_bits(drawn)
    assert bits[1].tolist() == [[0] * 16, [1] * 9 + [0] * 7, [0] * 16, [0] * 16]
    assert bits[2].tolist() == [[0] * 16, [0] * 15 + [1], [1] * 16, [0] * 15 + [1]]
    literal = {0x00FF: [1] * 8 + [0] * 8, 0xFF00: [0] * 8 + [1] * 8, 0x0100: [0] * 8 + [1] + [0] * 7,
               0x5555: [1, 0] * 8, 0xAAAA: [0, 1] * 8}
    for row, (size, words) in enumerate(edge_rows, start=4):
        table = [literal[word][:size] for word in words]
        assert bits[row].tolist() == [vec + [0] * (16 - size) for vec in table]
        # the drawn words themselves, cleared past the support
        assert drawn[row].tolist() == [word & ((1 << size) - 1) for word in words]
        model = sample_model(FixedUniforms(uniforms[row]), phase_choices)
        assert [list(vec) for vec in model.bits] == table
    for row, u in enumerate(uniforms.tolist()):
        ref_weights, ref_thetas, ref_bits = reference_row(u, phase_choices)
        n = len(ref_weights)
        assert weights[row, :n].tolist() == ref_weights
        assert not weights[row, n:].any() and not bits[row, :, n:].any()
        assert thetas[row].tolist() == ref_thetas
        assert bits[row, :, :n].tolist() == ref_bits
        # the one-row decoder of sample_model reads the same layout
        model = sample_model(FixedUniforms(uniforms[row]), phase_choices)
        assert model == ChshModel(ref_weights, ref_thetas, ref_bits)


def test_sample_models_bits_are_fair_and_independent_across_settings():
    # over 50,000 seeded rows, each in-support bit of each setting has mean
    # 1/2, and each pair of settings agrees at a point half the time, each to
    # 6 sigma = 3 / sqrt(count): a point that reads a bit fixed in every word
    # or two settings that read one word fail it
    weights, _, words = sample_models(np.random.default_rng(31), 50_000)
    bits = word_bits(words)
    support = weights > 0.0
    rows_per_point = support.sum(axis=0)
    assert np.all(np.abs(bits.sum(axis=0) / rows_per_point - 0.5) <= 3.0 / np.sqrt(rows_per_point))
    points = support.sum()
    for k, l in itertools.combinations(range(4), 2):
        agree = ((bits[:, k] == bits[:, l]) & support).sum() / points
        assert abs(agree - 0.5) <= 3.0 / math.sqrt(points), (k, l)


def as_batch(models):
    """Padded weights, thetas and words of ChshModels, bit p of a word
    being the bit at point p."""
    weights = np.zeros((len(models), MAX_POINTS))
    words = np.zeros((len(models), 4), dtype=int)
    for row, model in enumerate(models):
        weights[row, :len(model.weights)] = model.weights
        words[row] = [sum(bit << p for p, bit in enumerate(vec)) for vec in model.bits]
    return weights, np.array([model.thetas for model in models], dtype=float), words


@st.composite
def chsh_models(draw):
    n = draw(st.integers(1, MAX_POINTS))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    weights = tuple(w / sum(raw) for w in raw)
    thetas = tuple(draw(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4)))
    bits = tuple(tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))) for _ in range(4))
    return ChshModel(weights, thetas, bits)


def phase_rounding_bound(ulps, *models):
    """1e-14 + ulps * u with u = ulp(2 max|theta|) over the models' phases:
    how far apart two values may be when only the rounding of phases
    separates them, with ulps derived at each use from these two facts.
    The exact value V(delta) = |s_ab - s_ab' e^{i delta}| + |s_a'b + s_a'b'
    e^{i delta}|, delta = t4 - t2, moves by at most |s_ab'| + |s_a'b'| <= 2
    times a change of delta.  bell_values rounds only t4 - t2, to within
    u/2, so it is within u of V; bell_expression rounds each of its four
    phase sums theta_a + theta_b to within u/2, which moves the correlation
    s e^{i phase} by at most |s| u/2, so each magnitude is off by at most
    (|s| + |s'|) u/2 <= u and the value is within 2u of V.  1e-14 covers
    the rest of the arithmetic on values of at most 2 sqrt(2)."""
    return 1e-14 + ulps * math.ulp(2 * max(abs(t) for model in models for t in model.thetas))


@given(st.lists(chsh_models(), min_size=1, max_size=8), st.randoms())
def test_bell_values_match_bell_expression(models, random):
    models = models + [make_achieving_model()]
    weights, thetas, words = as_batch(models)
    values = bell_values(weights, thetas, words)
    assert values.shape == (len(models),)
    for value, model in zip(values, models):
        # within u and 2u of one exact value: 3u apart
        assert abs(value - bell_expression(model)) <= phase_rounding_bound(3, model)
    assert abs(values[-1] - TSIRELSON) <= 1e-14

    # zero-weight points change no value, whatever their bits, nor do the
    # points past the weight columns
    support = np.array([(1 << len(model.weights)) - 1 for model in models])
    noise = np.array([[random.getrandbits(MAX_POINTS) for _ in range(4)] for _ in models])
    noisy = words | (noise & ~support[:, None])
    padded = bell_values(weights, thetas, noisy)
    assert np.all(np.abs(padded - values) <= 1e-14)
    columns = max(len(model.weights) for model in models)
    assert np.all(np.abs(bell_values(weights[:, :columns], thetas, noisy) - values) <= 1e-14)


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


@given(chsh_models(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_bell_expression_reads_only_bob_phase_difference(model, t1, t3, phi):
    # |E(a,b) - E(a,b')| = |s_ab - s_ab' e^{i(t4 - t2)}| and the a' term
    # likewise: Alice's phases and a common shift of Bob's leave the value.
    # Each bell_expression is within 2u of its model's exact value, and the
    # two exact values differ too: t2 + phi and t4 + phi are each rounded to
    # within u/4 (they are at most half of 2 max|theta|), so the moved delta
    # is off by at most u/2 and its exact value by at most u.  5u in all
    _, t2, _, t4 = model.thetas
    moved = ChshModel(model.weights, (t1, t2 + phi, t3, t4 + phi), model.bits)
    assert abs(bell_expression(moved) - bell_expression(model)) <= phase_rounding_bound(5, model, moved)


def test_bell_values_are_closer_to_the_exact_value_than_bell_expression():
    # the exact value of a float model, from its exact parity sums and phase
    # sums at 40 digits; every value of either route is within its rounding
    # bound, and the batch route, which rounds one phase difference in place
    # of four sums, is the closer one
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    weights, _, words = sample_models(rng, 3_000)
    thetas = rng.uniform(-1e3, 1e3, size=(3_000, 4))
    batch = bell_values(weights, thetas, words)
    errors = {"bell_values": [], "bell_expression": []}
    for row in range(3_000):
        model = array_row_model(weights, thetas, words, row)
        with mpmath.workdps(40):
            t = [mpmath.mpf(theta) for theta in model.thetas]
            e = [sum(mpmath.mpf(w) if x == y else -mpmath.mpf(w) for w, x, y in
                     zip(model.weights, model.bits[a], model.bits[b])) * mpmath.expj(t[a] + t[b])
                 for a, b in ((0, 1), (0, 3), (2, 1), (2, 3))]
            exact = abs(e[0] - e[1]) + abs(e[2] + e[3])
        for name, value, ulps in (("bell_values", batch[row], 1),
                                  ("bell_expression", bell_expression(model), 2)):
            error = float(abs(mpmath.mpf(float(value)) - exact))
            assert error <= phase_rounding_bound(ulps, model)
            errors[name].append(error)
    assert max(errors["bell_values"]) < max(errors["bell_expression"])


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


def _word(value):
    # the batch with words[2, 1] set to value, the words widened to int64
    def mutate(batch):
        batch[2] = batch[2].astype(np.int64)
        batch[2][2, 1] = value
        return batch
    return mutate


def _scale_last_row(factor):
    # the batch with only its last row of weights scaled by factor
    def mutate(batch):
        batch[0][-1] *= factor
        return batch
    return mutate


def _nan_in_second_regime(batch):
    second = batch[1].copy()
    second[2, 3] = math.nan
    return [batch[0], np.stack([batch[1], second]), batch[2]]


@pytest.mark.parametrize("mutate, reason", [
    pytest.param(lambda b: [b[0], b[1][:, :3], b[2]], "need", id="theta-shape"),
    pytest.param(lambda b: [b[0], b[1], b[2][:, :-1]], "need", id="words-shape"),
    pytest.param(lambda b: [b[0], b[1], b[2][..., None]], "need", id="words-of-bits-shape"),
    pytest.param(lambda b: [np.pad(b[0], ((0, 0), (0, 1))), b[1], b[2]], "need", id="seventeen-points"),
    pytest.param(lambda b: [b[0][0], b[1], b[2]], "need", id="weights-shape"),
    pytest.param(lambda b: [np.vstack([b[0], b[0][:1]]), b[1], b[2]], "need", id="row-count"),
    pytest.param(_negative_weight, "distribution", id="negative-weight"),
    pytest.param(_set(0, (1, 0), math.nan), "distribution", id="nan-weight"),
    pytest.param(lambda b: [b[0] * (1.0 + 1e-11), b[1], b[2]], "distribution", id="row-sum"),
    pytest.param(_scale_last_row(1.0 - 1e-11), "distribution", id="last-row-sum-low"),
    pytest.param(_scale_last_row(1.0 + 1e-11), "distribution", id="last-row-sum-high"),
    pytest.param(_set(0, (-1, 0), math.nan), "distribution", id="nan-weight-last-row"),
    pytest.param(_word(2 ** 16), "bits must be words", id="word-2**16"),
    pytest.param(_word(-1), "bits must be words", id="word-negative"),
    pytest.param(lambda b: [b[0], b[1], b[2].astype(float)], "bits must be words", id="float-words"),
    pytest.param(lambda b: [b[0], b[1], b[2] > 0], "bits must be words", id="bool-words"),
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


def test_bell_values_take_words_of_any_integer_dtype():
    # the word rule: an int or uint dtype of either byte order, or a list of
    # ints, each word in [0, 2**16); the largest word 0xFFFF passes, 2**16
    # and a float word fail.  uint8 words hold points 0 to 7 only
    weights, thetas, words = sample_models(np.random.default_rng(5), 200)
    values = [bell_values(weights, thetas, given)
              for given in (words, words.astype(">u2"), words.astype(np.int32), words.astype(np.uint64),
                            words.tolist())]
    for other in values[1:]:
        assert np.array_equal(values[0], other)
    assert np.array_equal(bell_values(weights, thetas, (words & 0xFF).astype(np.uint8)),
                          bell_values(weights, thetas, words & 0xFF))
    assert bell_values(weights, thetas, words | 0xFFFF).shape == (200,)
    # a uint wider than 16 bits still gets the range test
    for bad in (words.astype(np.int64) + (1 << 16), words.astype(np.uint32) + (1 << 16), words.astype(float)):
        with pytest.raises(ValueError, match="bits must be words"):
            bell_values(weights, thetas, bad)


_ONE_POINT_WORDS = [[0, 0, 0, 0]]
_NUMBERS = "weights and phases must be numbers"
_CHOICES = "phase_choices must be a nonempty sequence of reals"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda rng: bell_values([["1.0"]], [["0"] * 4], _ONE_POINT_WORDS), _NUMBERS,
                 id="str-weight-and-phases"),
    pytest.param(lambda rng: bell_values([[True]], [[0.0] * 4], _ONE_POINT_WORDS), _NUMBERS,
                 id="bool-weight"),
    pytest.param(lambda rng: bell_values([[1.0]], [[b"0"] * 4], _ONE_POINT_WORDS), _NUMBERS,
                 id="bytes-phases"),
    pytest.param(lambda rng: bell_values([[1.0]], np.zeros((1, 4), complex), _ONE_POINT_WORDS), _NUMBERS,
                 id="complex-phases"),
    pytest.param(lambda rng: bell_values(np.ones((1, 1), object), [[0.0] * 4], _ONE_POINT_WORDS), _NUMBERS,
                 id="object-weight"),
    pytest.param(lambda rng: sample_model(rng, (True, False)), _CHOICES, id="bool-choices"),
    pytest.param(lambda rng: sample_model(rng, ("0", "1")), _CHOICES, id="str-choices"),
    pytest.param(lambda rng: sample_models(rng, 2, ()), _CHOICES, id="no-choices"),
    pytest.param(lambda rng: sample_model(rng, {0.0, math.pi}), _CHOICES, id="set-choices"),
])
def test_population_inputs_follow_the_real_rule(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(np.random.default_rng(0))


def test_population_inputs_take_numbers_of_any_int_uint_or_float_dtype():
    for weights, thetas in (([[1]], [[0] * 4]), (np.ones((1, 1), np.uint8), np.zeros((1, 4), np.float32))):
        assert bell_values(weights, thetas, _ONE_POINT_WORDS).tolist() == [2.0]
    for choices in ([0, 1.5], np.array([0.0, math.pi])):
        expected = sample_model(np.random.default_rng(1), tuple(map(float, choices)))
        assert sample_model(np.random.default_rng(1), choices) == expected


def test_analytic_bound_is_elementwise():
    t2, t4 = np.random.default_rng(8).uniform(-10.0, 10.0, size=(2, 200))
    bounds = analytic_bound(t2, t4)
    assert bounds.shape == (200,)
    for bound, a, b in zip(bounds, t2, t4):
        assert bound == analytic_bound(float(a), float(b))


def test_analytic_bound_is_within_two_ulps_of_the_exact_magnitudes():
    # the closed form 2(|cos(d/2)| + |sin(d/2)|) against the definition
    # |e^{i t2} + e^{i t4}| + |e^{i t2} - e^{i t4}| at 40 digits, on seeded
    # phases in [0, 2pi), within 2 ulps of 2 sqrt(2)
    mpmath = pytest.importorskip("mpmath")
    t2, t4 = np.random.default_rng(23).uniform(0.0, 2.0 * math.pi, size=(2, 2000))
    with mpmath.workdps(40):
        for bound, a, b in zip(analytic_bound(t2, t4).tolist(), t2.tolist(), t4.tolist()):
            z2, z4 = mpmath.expj(mpmath.mpf(a)), mpmath.expj(mpmath.mpf(b))
            assert abs(mpmath.mpf(bound) - (abs(z2 + z4) + abs(z2 - z4))) <= 2 * math.ulp(TSIRELSON), (a, b)


def test_bell_values_on_stacked_phases_equal_one_call_per_regime():
    weights, thetas, words = sample_models(np.random.default_rng(11), 500)
    real = np.where(thetas < math.pi, 0.0, math.pi)
    stacked = bell_values(weights, np.stack([thetas, real]), words)
    assert stacked.shape == (2, 500)
    assert np.array_equal(stacked[0], bell_values(weights, thetas, words))
    assert np.array_equal(stacked[1], bell_values(weights, real, words))


def test_real_phase_from_the_complex_phase_is_the_floor_of_two_u():
    """bell_sweep takes the real phase of a phase uniform u from its complex
    phase, as np.where(2pi*u < pi, 0, pi), where sample_models(..., (0.0, pi))
    takes (0, pi)[floor(2u)].  With P = math.pi, 2P is a double, so the
    complex phase is the product 2P*u rounded once.  For u >= 1/2 the exact
    product is at least P, a double, and rounding is monotone, so the phase
    is at least P.  For u < 1/2, u <= 1/2 - 2^-54, the next double down, so
    the exact product is at most P - P*2^-53, about 0.785 of an ulp of P
    (2^-51) below P; the nearest double is then at most P - 2^-51, and the
    phase is below P.  So the two mappings agree for every u in [0, 1)."""
    u = np.concatenate([
        0.5 - 2.0 ** -54 * np.arange(1, 100_001),     # the 10^5 doubles below 1/2
        0.5 + 2.0 ** -53 * np.arange(100_001),        # 1/2 and the 10^5 above it
        np.random.default_rng(17).random(1_000_000),
        [0.0, 1.0 - 2.0 ** -53],
    ])
    real = np.where(2.0 * math.pi * u < math.pi, 0.0, math.pi)
    assert np.array_equal(real, np.array([0.0, math.pi])[np.floor(2.0 * u).astype(np.intp)])


def test_bell_sweep_evaluates_the_phases_that_sample_models_draws(monkeypatch):
    # phase uniforms: the 1,000 doubles below 1/2, 1/2 and the 999 above it,
    # 0, 1 - 2^-53, 1/4 and 3/4
    rows = np.random.default_rng(19).random((501, 25))
    rows[:, 17:21] = np.concatenate([0.5 - 2.0 ** -54 * np.arange(1, 1001), 0.5 + 2.0 ** -53 * np.arange(1000),
                                     [0.0, 1.0 - 2.0 ** -53, 0.25, 0.75]]).reshape(501, 4)
    evaluated = []
    monkeypatch.setattr(chsh, "sample_models", lambda rng, count: sample_models(FixedUniforms(rows), count))
    monkeypatch.setattr(chsh, "bell_values", lambda w, t, b: evaluated.append(t) or bell_values(w, t, b))
    bell_sweep(0, 501)
    (phases,) = evaluated
    for regime, choices in enumerate((None, (0.0, math.pi))):
        assert np.array_equal(phases[regime], sample_models(FixedUniforms(rows), 501, choices)[1])


def test_bell_sweep_returns_the_first_two_rows_as_spot_rows(monkeypatch):
    for block in (1, 1024):
        monkeypatch.setattr(chsh, "_BLOCK", block)
        for samples in (1, 2, 5):
            *_, spots = bell_sweep(3, samples)
            rng = np.random.default_rng(3)
            models = [sample_model(rng) for _ in range(min(samples, 2))]
            assert [(spot.index, spot.model) for spot in spots] == list(enumerate(models))
            for spot in spots:
                assert abs(spot.value - bell_expression(spot.model)) <= 1e-14


# crafted real values of 30 rows, {row: value} over a floor of 1.0, with the
# witness row and the number of rows within EXACT_TOL of the maximum
@pytest.mark.parametrize("pattern, witness, ties", [
    # the maximum 2 first comes at row 20.  Rows 5 and 12 are within
    # EXACT_TOL of row 3's value, the maximum that a block of 7 sees until
    # then, but not of 2, so they must drop out of the ties
    pytest.param({3: 2.0 - 0.9e-12, 5: 2.0 - 1.7e-12, 12: 2.0 - 1.7e-12, 20: 2.0, 25: 2.0, 27: 2.0 - 0.9e-12},
                 3, 4, id="earlier-ties-fall-out"),
    # three doubles one ulp apart, each its own value: the maximum at rows 9
    # and 22 is not the witness
    pytest.param({4: math.nextafter(2.0, 0.0), 9: math.nextafter(2.0, 3.0), 15: 2.0,
                  22: math.nextafter(2.0, 3.0)}, 4, 4, id="one-ulp-apart"),
    # the maximum rises in row 10 and again in row 20, each time by more
    # than EXACT_TOL, so each earlier maximum and its near row drop out
    pytest.param({2: 1.5, 3: 1.5 - 0.5e-12, 10: 1.8, 11: 1.8 - 0.5e-12, 20: 2.0, 29: 2.0 - 0.5e-12},
                 20, 2, id="rises-twice"),
    # rows 8 and 26 sit exactly at 2 - EXACT_TOL and are kept; row 3, one ulp
    # below, leads until the maximum comes in row 12, then drops out
    pytest.param({3: math.nextafter(2.0 - EXACT_TOL, 0.0), 8: 2.0 - EXACT_TOL, 12: 2.0,
                  26: 2.0 - EXACT_TOL}, 8, 3, id="band-edge"),
    # with blocks of 7 the maximum rises in the third block (rows 14-20), so
    # the first block's near rows drop out; that block holds the witness,
    # row 16 before its maximum at row 18, and the ties 18 and 19, and the
    # fourth block one more tie
    pytest.param({1: 1.9, 2: 1.9 - 0.5e-12, 5: 1.9, 16: 2.0 - 0.8e-12, 18: 2.0, 19: 2.0 - 0.3e-12,
                  24: 2.0}, 16, 4, id="rises-in-a-later-block"),
    # the first block keeps rows 3 and 5 until the second raises the maximum
    # at row 9: row 3 then falls below the floor, and row 5 of the same
    # block, a row the first block did not start with, is the witness
    pytest.param({3: 2.0 - 0.9e-12, 5: 2.0, 9: 2.0 + 0.5e-12, 11: 2.0 - 0.6e-12}, 5, 2,
                 id="first-kept-row-falls-out"),
])
@pytest.mark.parametrize("block", [1, 7, 1024])
def test_bell_sweep_real_witness_is_the_lowest_row_within_exact_tol_of_the_maximum(
        monkeypatch, pattern, witness, ties, block):
    real = np.full(30, 1.0)
    real[list(pattern)] = list(pattern.values())
    # the rule by brute force over all values
    floor = real.max() - EXACT_TOL
    near = [row for row, value in enumerate(real.tolist()) if value >= floor]
    assert (near[0], len(near)) == (witness, ties)
    monkeypatch.setattr(chsh, "_BLOCK", block)
    done = []

    def crafted(weights, thetas, words):
        values = bell_values(weights, thetas, words)
        values[1] = real[len(done):len(done) + len(weights)]
        done.extend(range(len(weights)))
        return values

    monkeypatch.setattr(chsh, "bell_values", crafted)
    sweep = bell_sweep(0, 30)
    assert (sweep.real_max, sweep.real_ties) == (real.max(), ties)
    assert sweep.real_witness[:2] == (witness, real[witness])
    rng = np.random.default_rng(0)
    sample_models(rng, witness)
    assert sweep.real_witness.model == sample_model(rng, (0.0, math.pi))


@pytest.mark.parametrize("row", [0, 1023, 1024, 2499])
def test_bell_sweep_rebuilds_a_witness_equal_to_its_batch_row(monkeypatch, row):
    # the complex maximum forced onto the row, at the edges of the 1,024-model
    # blocks of a 2,500-sample sweep: the model rebuilt from the seed and the
    # index by sample_model is the batch route's row, decoded by _decode_rows
    done = []

    def crafted(weights, thetas, words):
        values = bell_values(weights, thetas, words)
        if len(done) <= row < len(done) + len(weights):
            values[0, row - len(done)] = 3.0
        done.extend(range(len(weights)))
        return values

    monkeypatch.setattr(chsh, "bell_values", crafted)
    witness = bell_sweep(11, 2_500).complex_witness
    assert witness[:2] == (row, 3.0)
    assert witness.model == array_row_model(*sample_models(np.random.default_rng(11), 2_500), row)


def test_generator_random_on_pcg64_is_the_top_53_bits_of_each_raw_draw():
    # bell_sweep addresses row i at raw draw 25 i, which rests on this
    drawn = np.random.default_rng(7).random(2_000)
    raw = np.random.PCG64(7).random_raw(2_000)
    assert np.array_equal(drawn, (raw >> 11) * 2.0 ** -53)


def test_bell_sweep_does_not_depend_on_the_block_size(monkeypatch):
    # 1,100 samples in 158, two or one blocks; witnesses compare index, value and model
    sweeps = []
    for block in (7, 1024, 1100):
        monkeypatch.setattr(chsh, "_BLOCK", block)
        sweeps.append(bell_sweep(107, 1_100))
    assert sweeps[0] == sweeps[1] == sweeps[2]
