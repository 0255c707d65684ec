import itertools
import math
import random

import numpy as np
import pytest

from qlhv import cli, oracle
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
from qlhv.tolerances import BOUND_TOL, EXACT_TOL, TSIRELSON

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


@pytest.mark.parametrize("build, argument, message", [
    pytest.param(pauli, ["x"], "unknown axis: \\['x'\\]", id="pauli-unhashable"),
    pytest.param(pauli, {"x"}, "unknown axis: \\{'x'\\}", id="pauli-set"),
    pytest.param(three_party_operator, 123, "need one axis per party", id="parties-int"),
    pytest.param(three_party_operator, None, "need one axis per party", id="parties-none"),
    pytest.param(three_party_operator, dict.fromkeys("xyz"), "need one axis per party",
                 id="parties-mapping"),
    pytest.param(three_party_operator, ["x", ["y"], "y"], "unknown axis: \\['y'\\]",
                 id="parties-unhashable-axis"),
])
def test_operators_reject_unhashable_or_unsized_arguments(build, argument, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(argument)


def test_operators_reject_the_wrong_number_of_parties():
    with pytest.raises(ValueError, match="need one axis per party"):
        three_party_operator("xy")
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_eigenrelation(pauli("x"), ghz_state(), 1)


def test_tensor_dimensions():
    m = np.kron(pauli("x"), np.eye(2))
    assert m.shape == (4, 4)
    assert three_party_operator("xyy").shape == (8, 8)


def test_kron_helper_equals_np_kron_entry_for_entry():
    # eigvalsh cannot tell kron(x, y) from kron(y, x): both have one spectrum
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        assert np.array_equal(oracle._kron(x, y), np.kron(x, y))
    pair = oracle._kron(pauli("x"), pauli("y"))
    assert np.array_equal(oracle._kron(pair, pauli("z")), np.kron(pair, pauli("z")))
    for axes in ("xxx", "xyy", "yxy", "yyx", "zxy"):
        assert np.array_equal(three_party_operator(axes),
                              np.kron(np.kron(pauli(axes[0]), pauli(axes[1])), pauli(axes[2])))


def test_direction_operator_is_the_sum_over_the_pauli_matrices():
    rng = np.random.default_rng(6)
    dirs = rng.standard_normal((20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for x, y, z in dirs.tolist() + [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]:
        expected = x * pauli("x") + y * pauli("y") + z * pauli("z")
        assert np.array_equal(direction_operator((x, y, z)), expected)


def test_power_iteration_start_vector_is_read_only_and_shared():
    v = oracle._start_vector(4)
    assert v is oracle._start_vector(4) and np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        v[0] = 0.0
    bell = oracle._kron(pauli("x"), pauli("x") + pauli("z")) + oracle._kron(pauli("z"), pauli("x") - pauli("z"))
    square = bell.conj().T @ bell
    assert oracle._power_iteration(square) == oracle._power_iteration(square)


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


IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)
# entry k of I, X, Y and Z side by side, the Pauli matrices read from pauli()
PAULI_COLUMNS = tuple(zip(IDENTITY, *(pauli(axis).ravel().tolist() for axis in "xyz")))


def table_combination(c0, cx, cy, cz):
    """The entries of c0*I + cx*X + cy*Y + cz*Z summed over the Pauli table in
    complex arithmetic, added in this order: the route _combination closes."""
    return [c0 * i + cx * x + cy * y + cz * z for i, x, y, z in PAULI_COLUMNS]


def bits(entries):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(v.real.hex(), v.imag.hex()) for v in entries]


SIGNED_GRID = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.25, -0.25, 0.6, -0.6, 0.8, -0.8,
               1.0, -1.0)


def test_combination_closed_form_equals_the_table_sum_bit_for_bit():
    # c0 is 0.0 for n . sigma and 0.5 for rho; the draws span subnormals to 1
    rng = random.Random(38)
    draws = [tuple(rng.uniform(-1.0, 1.0) * 10.0 ** -rng.randrange(330) for _ in range(3))
             for _ in range(3000)]
    for c0 in (0.0, 0.5):
        for c in itertools.chain(itertools.product(SIGNED_GRID, repeat=3), draws):
            assert bits(oracle._combination(c0, *c)) == bits(table_combination(c0, *c)), (c0, c)


def json_reports(runs):
    # the JSON text keeps the sign of a zero, which dict equality ignores
    texts = []
    for command, config in runs:
        report = cli.run(command, config)
        report.pop("elapsed_ms")
        texts.append(cli.render_report(report, "json"))
    return texts


def test_reports_are_the_same_on_the_table_route(monkeypatch):
    grid = (0.0, -0.0, 0.6, -0.6, 0.8, -0.8)
    runs = [("qubit-expect", {"bloch": list(r)}) for r in itertools.product(grid, repeat=3)
            if r[0] * r[0] + r[1] * r[1] + r[2] * r[2] <= 1.0 + EXACT_TOL]
    runs += [("oracle-check", {"samples": 50, "seed": seed}) for seed in (0, 7, 29)]
    closed_form = json_reports(runs)
    monkeypatch.setattr(oracle, "_combination", table_combination)
    assert json_reports(runs) == closed_form


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
    assert value == pytest.approx(TSIRELSON, abs=EXACT_TOL)


def test_chsh_degenerate_settings_give_two():
    x = (1.0, 0.0, 0.0)
    assert chsh_quantum_value(x, x, x, x) == pytest.approx(2.0, abs=EXACT_TOL)


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
                   "(ROADMAP item 5) replaces it")
def test_chsh_quantum_value_near_degenerate_settings():
    settings = ((1.0, 0.0, 0.0), (math.cos(1e-5), math.sin(1e-5), 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    a, ap, b, bp = map(direction_operator, settings)
    reference = float(np.max(np.abs(np.linalg.eigvalsh(np.kron(a, b + bp) + np.kron(ap, b - bp)))))
    assert abs(chsh_quantum_value(*settings) - reference) <= BOUND_TOL
