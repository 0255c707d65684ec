import math

import numpy as np
import pytest

from qlhv import oracle
from qlhv.oracle import (
    chsh_quantum_value,
    density_matrix,
    direction_operator,
    ghz_state,
    pauli,
    qubit_expectation,
    three_party_operator,
    verify_eigenrelation,
)
from qlhv.tolerances import BOUND_TOL, TSIRELSON

INV_SQRT2 = 1.0 / math.sqrt(2.0)
def is_hermitian(m):
    return np.max(np.abs(m - m.conj().T)) <= 1e-12


def is_unitary(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= 1e-12


OPTIMAL_SETTINGS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (INV_SQRT2, INV_SQRT2, 0.0),
    (INV_SQRT2, -INV_SQRT2, 0.0),
)


def test_pauli_algebra():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(x @ x, np.eye(2))
    assert np.allclose(y @ y, np.eye(2))
    assert np.allclose(z @ z, np.eye(2))
    assert np.allclose(x @ y, 1j * z)
    for m in (x, y, z):
        assert is_hermitian(m)
        assert is_unitary(m)


def test_pauli_x_flips_basis():
    v = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(pauli("x") @ v, [0.0, 1.0])


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        pauli("w")


def test_tensor_dimensions():
    m = np.kron(pauli("x"), np.eye(2))
    assert m.shape == (4, 4)
    assert three_party_operator("xyy").shape == (8, 8)


def test_ghz_state_amplitudes():
    v = ghz_state()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert v[0] == pytest.approx(INV_SQRT2, abs=1e-15)
    assert v[7] == pytest.approx(-INV_SQRT2, abs=1e-15)
    assert np.allclose(v[1:7], 0.0)


def test_eigenrelations():
    v = ghz_state()
    for axes in ("xyy", "yxy", "yyx"):
        assert verify_eigenrelation(three_party_operator(axes), v, 1)
    assert verify_eigenrelation(three_party_operator("xxx"), v, -1)
    assert not verify_eigenrelation(three_party_operator("xxx"), v, 1)


def test_three_party_operators_commute_and_square_to_identity():
    ops = [three_party_operator(axes) for axes in ("xyy", "yxy", "yyx")]
    for op in ops:
        assert is_hermitian(op)
        assert np.allclose(op @ op, np.eye(8), atol=1e-12)
    for a in ops:
        for b in ops:
            assert np.allclose(a @ b, b @ a, atol=1e-12)


def test_qubit_expectation_examples():
    assert qubit_expectation((1, 0, 0), (1, 0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert qubit_expectation((0, 0, 0), (0, 1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert qubit_expectation((0.6, 0, 0.8), (0, 0, 1)) == pytest.approx(0.8, abs=1e-12)


def test_qubit_expectation_is_inner_product():
    rng = np.random.default_rng(21)
    for _ in range(200):
        r = rng.uniform(-1, 1, 3)
        if r @ r > 1.0:
            continue
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert qubit_expectation(r, n) == pytest.approx(float(n @ r), abs=1e-12)


def test_single_qubit_path_matches_numpy_route():
    # the numpy arrays of pauli and direction_operator, with np.eye for I
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rng.uniform(-1, 1, 3) / math.sqrt(3.0)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        rho = np.array(density_matrix(r))
        reference = 0.5 * (np.eye(2) + sum(c * pauli(axis) for c, axis in zip(r, "xyz")))
        assert np.max(np.abs(rho - reference)) <= 1e-15
        assert abs(qubit_expectation(r, n) - np.trace(rho @ direction_operator(n)).real) <= 1e-15


def test_qubit_expectation_validates_inputs():
    with pytest.raises(ValueError, match="non-unit direction"):
        qubit_expectation((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError, match="non-unit direction"):
        qubit_expectation((0, 0, 0), (math.nan, 0, 1))
    with pytest.raises(ValueError, match="outside Bloch ball"):
        density_matrix((math.nan, 0.0, 0.0))
    with pytest.raises(ValueError, match="outside Bloch ball"):
        density_matrix((1.0, 1.0, 0.0))


def test_direction_operator_is_hermitian_unit_involution():
    n = np.array([0.36, 0.48, 0.8])
    op = direction_operator(n)
    assert is_hermitian(op)
    assert np.allclose(op @ op, np.eye(2), atol=1e-12)


def test_chsh_optimal_settings_reach_tsirelson():
    value = chsh_quantum_value(*OPTIMAL_SETTINGS)
    assert value == pytest.approx(TSIRELSON, abs=1e-6)


def test_chsh_degenerate_settings_give_two():
    x = (1.0, 0.0, 0.0)
    assert chsh_quantum_value(x, x, x, x) == pytest.approx(2.0, abs=1e-9)


def test_chsh_quantum_value_cross_checked_against_eigensolver():
    rng = np.random.default_rng(22)
    for _ in range(50):
        dirs = rng.standard_normal((4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a, ap, b, bp = dirs
        value = chsh_quantum_value(a, ap, b, bp)
        bell_op = np.kron(direction_operator(a), direction_operator(b) + direction_operator(bp)) + np.kron(
            direction_operator(ap), direction_operator(b) - direction_operator(bp)
        )
        reference = float(np.max(np.abs(np.linalg.eigvalsh(bell_op))))
        assert value == pytest.approx(reference, abs=1e-8)
        assert value <= TSIRELSON + 1e-9


def test_chsh_rejects_non_unit_settings():
    with pytest.raises(ValueError, match="non-unit direction"):
        chsh_quantum_value((1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0))


@pytest.mark.xfail(strict=True, reason="power iteration stalls on near-degenerate top eigenvalues "
                   "and underestimates; remove this marker when the batched eigvalsh oracle "
                   "(ROADMAP item 2) replaces it")
def test_chsh_quantum_value_near_degenerate_settings():
    settings = ((1.0, 0.0, 0.0), (math.cos(1e-5), math.sin(1e-5), 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    a, ap, b, bp = map(direction_operator, settings)
    reference = float(np.max(np.abs(np.linalg.eigvalsh(np.kron(a, b + bp) + np.kron(ap, b - bp)))))
    assert abs(chsh_quantum_value(*settings) - reference) <= BOUND_TOL
