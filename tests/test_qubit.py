import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlhv import qubit
from qlhv.qubit import (
    AXES,
    LAMBDAS,
    PermutationMix,
    SIGN_TABLE,
    SignedDistribution,
    axis_expectation,
    commutes_with_antipode,
    evolve_mixture,
    evolve_permutation,
    retroaction_check,
    sign_function_search,
    state_distribution,
)

SQRT3 = math.sqrt(3.0)
UNIFORM = SignedDistribution((0.125,) * 8)
# exchanges m and m+4 for m = 1..4, which flips the x signs
X_FLIP = (5, 6, 7, 8, 1, 2, 3, 4)
IDENTITY_PERMUTATION = (1, 2, 3, 4, 5, 6, 7, 8)

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
        assert SIGN_TABLE[m - 1] == tuple(-s for s in SIGN_TABLE[8 - m])


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
    assert min(dist.weights) < 0.0
    assert retroaction_check(dist)


def test_state_distribution_rejects_outside_ball():
    with pytest.raises(ValueError, match="outside Bloch ball"):
        state_distribution((0.9, 0.9, 0.0))
    with pytest.raises(ValueError, match="outside Bloch ball"):
        state_distribution((math.nan, 0.0, 0.0))


@pytest.mark.parametrize("axis, message", [
    pytest.param("w", "unknown axis: 'w'", id="unknown"),
    pytest.param(["x"], "unknown axis: \\['x'\\]", id="unhashable"),
    pytest.param({"x": 1}, "unknown axis: \\{'x': 1\\}", id="dict"),
])
def test_axis_expectation_rejects_unknown_axes(axis, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        axis_expectation(state_distribution((0.0, 0.0, 1.0)), axis)


def test_distribution_invariants_rejected():
    with pytest.raises(ValueError):
        SignedDistribution((0.5,) * 8)
    with pytest.raises(ValueError):
        SignedDistribution((2.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SignedDistribution((math.nan,) * 8)


@pytest.mark.parametrize("weights, message", [
    pytest.param("abcdefgh", "weights must sum to 1", id="string"),
    pytest.param((0.25,) * 4, "need exactly 8 weights", id="four-weights"),
    pytest.param((0.1,) * 10, "need exactly 8 weights", id="ten-weights"),
    pytest.param(5, "weights must sum to 1", id="number"),
    # eight distinct weights summing to 1, given as the keys of a dict
    pytest.param(dict.fromkeys((0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.72)),
                 "weights must sum to 1", id="dict"),
    pytest.param(((0.125,),) + (0.125,) * 7, "weights must sum to 1", id="nested"),
    pytest.param((None,) + (0.125,) * 7, "weights must sum to 1", id="none-weight"),
    pytest.param(("x",) + (0.125,) * 7, "weights must sum to 1", id="string-weight"),
    pytest.param((math.nan,) + (0.125,) * 7, "weights must sum to 1", id="nan"),
    pytest.param((math.inf,) + (0.125,) * 7, "weights must sum to 1", id="inf"),
    pytest.param((-math.inf,) + (0.125,) * 7, "weights must sum to 1", id="-inf"),
])
def test_distribution_rejects_malformed_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        SignedDistribution(weights)


def test_distribution_keeps_its_weights_as_floats():
    for given in ((0.125,) * 8, [0.125] * 8, np.full(8, 0.125), (1, 0, 0, 0, 0, 0, 0, 0)):
        dist = SignedDistribution(given)
        assert type(dist.weights) is tuple and all(type(w) is float for w in dist.weights)
        assert dist.weights == tuple(float(w) for w in given)


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
    assert min(dist.weights) >= (1.0 - SQRT3) / 8.0 - 1e-12
    for axis, value in zip("xyz", r):
        assert axis_expectation(dist, axis) == pytest.approx(value, abs=1e-12)


@given(bloch_vectors)
def test_negativity_iff_l1_norm_exceeds_one(r):
    l1 = sum(abs(c) for c in r)
    if abs(l1 - 1.0) < 1e-9:
        return
    dist = state_distribution(r)
    assert (min(dist.weights) < -1e-15) == (l1 > 1.0)


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
        assert g == tuple(int(axis_sign * row[idx]) for row in SIGN_TABLE)


def test_sign_search_reproduces_inner_product():
    g = np.array(sign_function_search((0.0, 0.0, -1.0)), dtype=float)
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        dist = state_distribution(r)
        assert float(np.array(dist.weights) @ g) == pytest.approx(-r[2], abs=1e-12)


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


def test_plain_python_model_matches_the_matrix_forms():
    # the sign table as a matrix: weights (1 + S r) / 8, expectations w . S,
    # and the first of the 2^8 lexicographic sign vectors g with sum(g) = 0
    # and g . S / 8 = n
    table = np.array(SIGN_TABLE, dtype=float)
    candidates = np.array(list(itertools.product((1, -1), repeat=8)), dtype=float)
    rng = np.random.default_rng(16)
    for _ in range(300):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        dist = state_distribution(r)
        assert np.abs(np.array(dist.weights) - (1.0 + table @ r) / 8.0).max() <= 1e-15
        for idx, axis in enumerate(AXES):
            assert abs(axis_expectation(dist, axis) - dist.weights @ table[:, idx]) <= 1e-15
    directions = [row for row in np.vstack([np.eye(3), -np.eye(3)])]
    directions += [v / np.linalg.norm(v) for v in rng.standard_normal((20, 3))]
    for n in directions:
        ok = (candidates.sum(axis=1) == 0) & np.all(np.abs(candidates @ table / 8.0 - n) <= 1e-9, axis=1)
        hits = np.nonzero(ok)[0]
        expected = tuple(int(s) for s in candidates[hits[0]]) if hits.size else None
        assert sign_function_search(n) == expected


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
    # a mixture holds each term to the same rule, at construction
    with pytest.raises(ValueError, match="breaks antipodal constraint"):
        PermutationMix(((IDENTITY_PERMUTATION, 0.5), (swap_12, 0.5)))


def test_evolution_rejects_non_permutation():
    with pytest.raises(ValueError):
        evolve_permutation(UNIFORM, (1, 1, 3, 4, 5, 6, 7, 8))


@pytest.mark.parametrize("perm", [
    pytest.param((5.7, 6, 7, 8, 1, 2, 3, 4), id="float-entry"),
    pytest.param((5.0, 6, 7, 8, 1, 2, 3, 4), id="integral-float-entry"),
    pytest.param("56781234", id="string"),
    pytest.param((True, 2, 3, 4, 5, 6, 7, 8), id="bool-entry"),
    pytest.param((None, 6, 7, 8, 1, 2, 3, 4), id="none-entry"),
    pytest.param(5, id="number"),
])
def test_permutation_entries_must_be_ints(perm):
    with pytest.raises(ValueError, match="not a permutation of 1..8"):
        evolve_permutation(UNIFORM, perm)
    with pytest.raises(ValueError, match="not a permutation of 1..8"):
        PermutationMix(((perm, 1.0),))


def test_evolution_accepts_exactly_the_pair_sum_preserving_permutations():
    # nonzero components of distinct magnitudes: a pulled-back pair sum is
    # 1/4 only if the pair maps onto a pair, never by accident
    dist = state_distribution((0.5, 0.3, 0.1))
    accepted = 0
    for perm in itertools.permutations(LAMBDAS):
        try:
            evolve_permutation(dist, perm)
            ok = True
        except ValueError:
            ok = False
        pulled = SignedDistribution(tuple(dist.weights[s - 1] for s in perm))
        assert ok == retroaction_check(pulled), perm
        accepted += ok
    assert accepted == 2**4 * math.factorial(4) == 384


def test_evolution_is_the_pull_back_for_every_commuting_permutation():
    # exact equality: 0.0 + 1.0 * w == w, and no state weight is -0.0
    perms = [s for s in itertools.permutations(LAMBDAS) if commutes_with_antipode(s)]
    assert len(perms) == 384
    rng = np.random.default_rng(16)
    states = []
    while len(states) < 20:
        r = rng.uniform(-1, 1, 3)
        if r @ r <= 1.0:
            states.append(state_distribution(r))
    for i, s in enumerate(perms):
        mix = PermutationMix(((s, 0.25), (perms[i - 1], 0.5), (perms[i - 2], 0.25)))
        for d in states:
            assert evolve_permutation(d, s).weights == tuple(d.weights[s[m] - 1] for m in range(8)), s
            expected = (0.0,) * 8
            for perm, weight in mix.terms:
                expected = tuple(o + weight * w for o, w in zip(expected, evolve_permutation(d, perm).weights))
            assert evolve_mixture(d, mix).weights == expected, s


def test_single_term_mixture_reduces_to_permutation():
    dist = state_distribution((0.1, 0.5, -0.3))
    mix = PermutationMix(((X_FLIP, 1.0),))
    # the pull-back p'(m) = p(s(m)), written out
    assert evolve_mixture(dist, mix).weights == tuple(dist.weights[X_FLIP[m] - 1] for m in range(8))


def test_even_mixture_of_identity_and_x_flip_is_uniform():
    dist = state_distribution((1.0, 0.0, 0.0))
    mix = PermutationMix(((IDENTITY_PERMUTATION, 0.5), (X_FLIP, 0.5)))
    assert evolve_mixture(dist, mix).weights == pytest.approx((0.125,) * 8, abs=1e-15)


def test_mixture_keeps_one_shot_terms():
    # checking the terms consumes an iterator; the record keeps them as a tuple
    dist = state_distribution((1.0, 0.0, 0.0))
    mix = PermutationMix(iter([(X_FLIP, 1.0)]))
    assert mix.terms == ((X_FLIP, 1.0),)
    assert evolve_mixture(dist, mix).weights == tuple(dist.weights[X_FLIP[m] - 1] for m in range(8))


def test_evolve_mixture_reuses_the_checked_permutations(monkeypatch):
    dist = state_distribution((0.1, 0.5, -0.3))
    terms = ((IDENTITY_PERMUTATION, 0.25), (X_FLIP, 0.5), ((2, 1, 4, 3, 6, 5, 8, 7), 0.25))
    mix = PermutationMix(terms)
    # the term-by-term route through evolve_permutation, which checks each term
    expected = (0.0,) * 8
    for perm, weight in terms:
        expected = tuple(o + weight * w for o, w in zip(expected, evolve_permutation(dist, perm).weights))
    calls = []
    check = qubit._check_permutation
    monkeypatch.setattr(qubit, "_check_permutation", lambda s: calls.append(s) or check(s))
    assert evolve_mixture(dist, mix) == SignedDistribution(expected)
    assert calls == []


def test_mixture_weight_validation():
    with pytest.raises(ValueError, match="mixture needs at least one term"):
        PermutationMix(())
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, 0.4), (X_FLIP, 0.4)))
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, 1.5), (X_FLIP, -0.5)))
    with pytest.raises(ValueError):
        PermutationMix(((IDENTITY_PERMUTATION, math.nan), (X_FLIP, 1.0)))


@pytest.mark.parametrize("terms", [
    pytest.param(((X_FLIP, "1"),), id="string-weight"),
    pytest.param(((X_FLIP, None),), id="none-weight"),
    pytest.param(5, id="terms-not-a-sequence"),
    pytest.param(((X_FLIP, 1.0, 3),), id="triple"),
    pytest.param(((X_FLIP,),), id="single"),
])
def test_mixture_rejects_terms_that_are_not_permutation_number_pairs(terms):
    with pytest.raises(ValueError, match=r"mixture terms must be \(permutation, number\) pairs"):
        PermutationMix(terms)


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


def test_unknown_axis_is_rejected():
    with pytest.raises(ValueError, match="unknown axis: 'w'"):
        axis_expectation(UNIFORM, "w")
