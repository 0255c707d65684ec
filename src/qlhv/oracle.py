"""Small dense complex-matrix quantum mechanics used as ground truth.

Pauli algebra, tensor products, the three-qubit GHZ state and its
eigenrelations, single-qubit expectations, and the quantum value of the
CHSH operator via power iteration.  Dimensions never exceed 8.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tolerances import EXACT_TOL, bloch_vector, unit_direction

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    if axis not in _PAULI:
        raise ValueError(f"unknown axis: {axis!r}")
    return _PAULI[axis].copy()


def ghz_state() -> np.ndarray:
    """(|000> - |111>) / sqrt(2), party 1 as the most significant bit of
    the 3-qubit basis index."""
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0 / math.sqrt(2.0)
    v[7] = -1.0 / math.sqrt(2.0)
    return v


def three_party_operator(axes: str) -> np.ndarray:
    """Tensor product of one Pauli per party, e.g. "xyy"."""
    if len(axes) != 3:
        raise ValueError("need one axis per party")
    op = pauli(axes[0])
    for axis in axes[1:]:
        op = np.kron(op, pauli(axis))
    return op


def verify_eigenrelation(op: np.ndarray, v: np.ndarray, expected: int) -> bool:
    """True iff op @ v = expected * v within EXACT_TOL (Euclidean norm)."""
    if op.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    return bool(np.linalg.norm(op @ v - expected * v) <= EXACT_TOL)


def direction_operator(n: Sequence[float]) -> np.ndarray:
    """n . sigma for a unit 3-vector n."""
    vec = unit_direction(n)
    return vec[0] * _PAULI["x"] + vec[1] * _PAULI["y"] + vec[2] * _PAULI["z"]


def density_matrix(r: Sequence[float]) -> np.ndarray:
    """(I + r . sigma) / 2 for a Bloch vector r with |r| <= 1."""
    vec = bloch_vector(r)
    rho = np.eye(2, dtype=complex) / 2.0
    for component, axis in zip(vec, "xyz"):
        rho = rho + 0.5 * component * _PAULI[axis]
    return rho


def qubit_expectation(r: Sequence[float], n: Sequence[float]) -> float:
    """Tr(rho * (n . sigma)) by explicit matrix arithmetic; equals n . r."""
    rho = density_matrix(r)
    return float(np.trace(rho @ direction_operator(n)).real)


# stopping rule of _power_iteration
_RESIDUAL = 1e-10
_MAX_ITERS = 10_000


def _power_iteration(m: np.ndarray) -> float:
    """Dominant eigenvalue of a positive semidefinite hermitian matrix by
    power iteration, run to a residual of _RESIDUAL."""
    dim = m.shape[0]
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_MAX_ITERS):
        w = m @ v
        lam = float((v.conj() @ w).real)
        if np.linalg.norm(w - lam * v) <= _RESIDUAL:
            return lam
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
    # Near-degenerate top eigenvalues can stall the residual; the Rayleigh
    # quotient of a PSD matrix never overestimates, so return the estimate.
    return lam


def chsh_quantum_value(a: Sequence[float], a_prime: Sequence[float],
                       b: Sequence[float], b_prime: Sequence[float]) -> float:
    """Largest-magnitude eigenvalue of the CHSH operator
    a.sigma (x) (b+b').sigma + a'.sigma (x) (b-b').sigma,
    obtained by power iteration on its square."""
    op_a = direction_operator(a)
    op_ap = direction_operator(a_prime)
    op_b = direction_operator(b)
    op_bp = direction_operator(b_prime)
    bell_op = np.kron(op_a, op_b + op_bp) + np.kron(op_ap, op_b - op_bp)
    top = _power_iteration(bell_op.conj().T @ bell_op)
    return math.sqrt(max(top, 0.0))
