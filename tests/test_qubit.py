import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlhv.qubit import (
    IDENTITY_PERMUTATION,
    LAMBDAS,
    PermutationMix,
    SIGN_TABLE,
    SignedDistribution,
    X_FLIP,
    axis_expectation,
    commutes_with_antipode,
    epsilon,
    evolve_mixture,
    evolve_permutation,
    quaternion_value,
    retroaction_check,
    sign_function_search,
    state_distribution,
)
from qlhv.quaternions import Basis, Q8Element

SQRT3 = math.sqrt(3.0)
UNIFORM = SignedDistribution((0.125,) * 8)

bloch_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda r: sum(c * c for c in r) <= 1.0)


def test_sign_table_rows():
    expected = {
        1: (1, 1, 1), 2: (1, 1, -1), 3: (1, -1, 1), 4: (1, -1, -1),
        5: (-1, 1, 1), 6: (-1, 1, -1), 7: (-1, -1, 1), 8: (-1, -1, -1),
    }
    for lam, row in expected.items():
        assert tuple(int(s) for s in SIGN_TABLE[lam - 1]) == row


def test_sign_table_antipodal_flip():
    for m in LAMBDAS:
        assert np.array_equal(SIGN_TABLE[m - 1], -SIGN_TABLE[8 - m])


def test_quaternion_value_examples():
    assert quaternion_value("x", 1) == Q8Element(Basis.I, 1)
    assert quaternion_value("z", 8) == Q8Element(Basis.K, -1)
    assert quaternion_value("y", 4) == Q8Element(Basis.J, -1)


def test_state_distribution_x_eigenstate():
    dist = state_distribution((1.0, 0.0, 0.0))
    assert dist.weights[:4] == pytest.approx((0.25,) * 4, abs=1e-15)
    assert dist.weights[4:] == pytest.approx((0.0,) * 4, abs=1e-15)


def test_state_distribution_maximally_mixed():
    dist = state_distribution((0.0, 0.0, 0.0))
    assert dist.weights == pytest.approx((0.125,) * 8, abs=1e-15)


def test_state_distribution_diagonal_negative_weight():
    r = (1 / SQRT3, 1 / SQRT3, 1 / SQRT3)
    dist = state_distribution(r)
    assert dist.weights[7] == pytest.approx((1.0 - SQRT3) / 8.0, abs=1e-12)
    assert dist.min_weight() < 0.0
    assert retroaction_check(dist)


def test_state_distribution_rejects_outside_ball():
    with pytest.raises(ValueError, match="outside Bloch ball"):
        state_distribution((0.9, 0.9, 0.0))
    with pytest.raises(ValueError, match="outside Bloch ball"):
        state_distribution((math.nan, 0.0, 0.0))


def test_distribution_invariants_rejected():
    with pytest.raises(ValueError):
        SignedDistribution((0.5,) * 8)
    with pytest.raises(ValueError):
        SignedDistribution((2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SignedDistribution((math.nan,) * 8)


def test_axis_expectation_examples():
    dist = state_distribution((0.6, 0.0, 0.8))
    assert axis_expectation(dist, "x") == pytest.approx(0.6, abs=1e-12)
    assert axis_expectation(dist, "z") == pytest.approx(0.8, abs=1e-12)
    x_dist = state_distribution((1.0, 0.0, 0.0))
    assert axis_expectation(x_dist, "x") == pytest.approx(1.0, abs=1e-12)
    assert axis_expectation(x_dist, "z") == pytest.approx(0.0, abs=1e-12)
    assert axis_expectation(x_dist, "y") == pytest.approx(0.0, abs=1e-12)


@given(bloch_vectors)
def test_state_distribution_properties(r):
    dist = state_distribution(r)
    assert sum(dist.weights) == pytest.approx(1.0, abs=1e-12)
    assert retroaction_check(dist)
    assert dist.min_weight() >= (1.0 - SQRT3) / 8.0 - 1e-12
    for axis, value in zip("xyz", r):
        assert axis_expectation(dist, axis) == pytest.approx(value, abs=1e-12)


@given(bloch_vectors)
def test_negativity_iff_l1_norm_exceeds_one(r):
    l1 = sum(abs(c) for c in r)
    if abs(l1 - 1.0) < 1e-9:
        return
    dist = state_distribution(r)
    assert (dist.min_weight() < -1e-15) == (l1 > 1.0)


def test_retroaction_check_violation():
    bad = SignedDistribution((0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5))
    assert not retroaction_check(bad)
    assert retroaction_check(UNIFORM)


def test_sign_search_axis_directions():
    for idx, axis_sign in ((0, 1), (1, 1), (2, 1), (0, -1), (1, -1), (2, -1)):
        n = [0.0, 0.0, 0.0]
        n[idx] = float(axis_sign)
        g = sign_function_search(n)
        assert g is not None
        assert g == tuple(int(axis_sign * s) for s in SIGN_TABLE[:, idx])


def test_sign_search_reproduces_inner_product():
    g = np.array(sign_function_search((0.0, 0.0, -1.0)), dtype=float)
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        dist = state_distribution(r)
        assert float(dist.as_array() @ g) == pytest.approx(-r[2], abs=1e-12)


def test_sign_search_fails_off_axis():
    s = 1.0 / math.sqrt(2.0)
    assert sign_function_search((s, s, 0.0)) is None
    assert sign_function_search((1 / SQRT3,) * 3) is None


def test_sign_search_achievable_values_are_quarter_multiples():
    # any balanced sign assignment projects each axis onto k/4
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = rng.choice((1.0, -1.0), size=8)
        if g.sum() != 0:
            continue
        achieved = g @ SIGN_TABLE / 8.0
        assert np.allclose(achieved * 4.0, np.round(achieved * 4.0), atol=1e-12)


def test_sign_search_rejects_non_unit():
    with pytest.raises(ValueError, match="non-unit direction"):
        sign_function_search((1.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="non-unit direction"):
        sign_function_search((math.nan, 0.0, 1.0))


def test_x_flip_negates_x_component():
    rng = np.random.default_rng(13)
    for _ in range(100):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        evolved = evolve_permutation(state_distribution(r), X_FLIP)
        mirrored = state_distribution((-r[0], r[1], r[2]))
        assert evolved.weights == pytest.approx(mirrored.weights, abs=1e-15)


def test_identity_and_uniform_evolution():
    dist = state_distribution((0.3, -0.2, 0.4))
    assert evolve_permutation(dist, IDENTITY_PERMUTATION) == dist
    assert evolve_permutation(UNIFORM, X_FLIP) == UNIFORM


def test_strict_mode_rejects_antipode_breaking_permutation():
    swap_12 = (2, 1, 3, 4, 5, 6, 7, 8)
    assert not commutes_with_antipode(swap_12)
    with pytest.raises(ValueError, match="breaks antipodal constraint"):
        evolve_permutation(UNIFORM, swap_12)


def test_permissive_mode_warns_instead():
    swap_12 = (2, 1, 3, 4, 5, 6, 7, 8)
    with pytest.warns(UserWarning):
        evolved = evolve_permutation(UNIFORM, swap_12, strict=False)
    assert sum(evolved.weights) == pytest.approx(1.0, abs=1e-15)


def test_evolution_rejects_non_permutation():
    with pytest.raises(ValueError):
        evolve_permutation(UNIFORM, (1, 1, 3, 4, 5, 6, 7, 8))


def test_single_term_mixture_reduces_to_permutation():
    dist = state_distribution((0.1, 0.5, -0.3))
    mix = PermutationMix(((X_FLIP, 1.0),))
    assert evolve_mixture(dist, mix) == evolve_permutation(dist, X_FLIP)


def test_even_mixture_of_identity_and_x_flip_is_uniform():
    dist = state_distribution((1.0, 0.0, 0.0))
    mix = PermutationMix(((IDENTITY_PERMUTATION, 0.5), (X_FLIP, 0.5)))
    assert evolve_mixture(dist, mix).weights == pytest.approx((0.125,) * 8, abs=1e-15)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, 0.4), (X_FLIP, 0.4)))
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, 1.5), (X_FLIP, -0.5)))
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, math.nan), (X_FLIP, 1.0)))


def _antipode_commuting_permutations(rng, count):
    # build by permuting the four antipodal pairs and flipping some pairs
    perms = []
    for _ in range(count):
        pair_perm = rng.permutation(4)
        flips = rng.integers(0, 2, size=4)
        mapping = {}
        for pair, (target, flip) in enumerate(zip(pair_perm, flips), start=1):
            low, high = target + 1, 8 - target
            if flip:
                low, high = high, low
            mapping[pair] = low
            mapping[9 - pair] = high
        perms.append(tuple(mapping[m] for m in range(1, 9)))
    return perms


def test_commuting_mixtures_preserve_retroaction():
    rng = np.random.default_rng(14)
    perms = _antipode_commuting_permutations(rng, 6)
    for perm in perms:
        assert commutes_with_antipode(perm)
    weights = rng.random(len(perms))
    weights /= weights.sum()
    mix = PermutationMix(tuple(zip(perms, (float(w) for w in weights))))
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        evolved = evolve_mixture(state_distribution(r), mix)
        assert retroaction_check(evolved)


def test_commuting_permutations_form_subgroup():
    rng = np.random.default_rng(15)
    perms = _antipode_commuting_permutations(rng, 10)
    for s in perms:
        inverse = tuple(s.index(m) + 1 for m in LAMBDAS)
        assert commutes_with_antipode(inverse)
        for t in perms:
            composed = tuple(s[t[m - 1] - 1] for m in LAMBDAS)
            assert commutes_with_antipode(composed)


def test_epsilon_matches_table():
    for lam in LAMBDAS:
        for idx, axis in enumerate("xyz"):
            assert epsilon(axis, lam) == int(SIGN_TABLE[lam - 1, idx])
