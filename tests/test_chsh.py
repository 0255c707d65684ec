import cmath
import math

import numpy as np
import pytest

from qlhv.chsh import (
    ChshModel,
    HiddenSpace,
    TSIRELSON,
    analytic_bound,
    bell_expression,
    correlation,
    make_achieving_model,
    maximize_bell,
    model_from_dict,
    model_to_dict,
    sample_model,
)


def single_point_model(thetas, bits=(0, 0, 0, 0)):
    space = HiddenSpace(("l0",), (1.0,))
    return ChshModel(space, tuple(thetas), tuple((b,) for b in bits))


def test_correlation_single_point():
    model = single_point_model((7 * math.pi / 4, 0.0, 0.0, 0.0))
    value = correlation(model, "a", "b")
    assert value == pytest.approx(cmath.exp(1j * 7 * math.pi / 4), abs=1e-12)


def test_correlation_perfectly_correlated_real_model():
    space = HiddenSpace(("p", "q"), (0.3, 0.7))
    model = ChshModel(space, (0.0, 0.0, 0.0, 0.0), ((1, 0), (1, 0), (0, 1), (0, 1)))
    assert correlation(model, "a", "b") == pytest.approx(1.0, abs=1e-12)


def test_correlation_cancellation():
    space = HiddenSpace(("p", "q"), (0.5, 0.5))
    # parities even at p, odd at q
    model = ChshModel(space, (0.0, 0.0, 0.0, 0.0), ((0, 0), (0, 1), (0, 0), (0, 0)))
    assert correlation(model, "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_correlation_rejects_unknown_settings():
    model = make_achieving_model()
    with pytest.raises(ValueError):
        correlation(model, "b", "a")


def test_invalid_distribution_rejected():
    with pytest.raises(ValueError, match="invalid distribution"):
        HiddenSpace(("p", "q"), (0.6, 0.6))
    with pytest.raises(ValueError, match="invalid distribution"):
        HiddenSpace(("p", "q"), (1.2, -0.2))
    with pytest.raises(ValueError, match="invalid distribution"):
        HiddenSpace(("a", "b"), (math.nan, 1.0))


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
    space = HiddenSpace(("p", "q"), (0.5, 0.5))
    model = ChshModel(space, (0.0,) * 4, ((0, 0),) * 4)
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
        n = len(model.space.points)
        perm = rng.permutation(n)
        space = HiddenSpace(
            tuple(model.space.points[i] for i in perm),
            tuple(model.space.weights[i] for i in perm),
        )
        shuffled = ChshModel(
            space,
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


def test_serialization_round_trip():
    rng = np.random.default_rng(45)
    for _ in range(10):
        model = sample_model(rng)
        restored = model_from_dict(model_to_dict(model))
        assert restored == model
