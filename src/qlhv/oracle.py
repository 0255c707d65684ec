"""Small dense complex-matrix quantum mechanics used as ground truth.

Pauli algebra, tensor products, the three-qubit GHZ state and its
eigenrelations, single-qubit expectations, and the quantum value of the
CHSH operator via power iteration.  Dimensions never exceed 8.

One Pauli table underlies every operator: I, X, Y and Z, each flattened
to its four complex entries.  The single-qubit path (density_matrix,
qubit_expectation) builds rho and n . sigma each as one fused combination
c0*I + cx*X + cy*Y + cz*Z of the table, takes the trace by explicit 2x2
complex arithmetic, and needs no numpy.  pauli, ghz_state,
three_party_operator, verify_eigenrelation, direction_operator and
chsh_quantum_value build or take numpy arrays and import numpy when called.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

from .tolerances import EXACT_TOL, bloch_vector, unit_direction

if TYPE_CHECKING:
    import numpy as np

# The Pauli table, each matrix flattened to its entries (m00, m01, m10, m11)
_IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)
_PAULI = {
    "x": (0j, 1 + 0j, 1 + 0j, 0j),
    "y": (0j, -1j, 1j, 0j),
    "z": (1 + 0j, 0j, 0j, -1 + 0j),
}
# entry k of I, X, Y and Z, side by side
_ENTRIES = tuple(zip(_IDENTITY, *_PAULI.values()))


def _combination(c0: float, cx: float, cy: float, cz: float) -> list:
    """The entries of c0*I + cx*X + cy*Y + cz*Z, added in this order."""
    return [c0 * i + cx * x + cy * y + cz * z for i, x, y, z in _ENTRIES]


@functools.cache
def _pauli_arrays() -> dict:
    # the table as numpy arrays, built on first use
    import numpy as np
    return {axis: np.array(entries).reshape(2, 2) for axis, entries in _PAULI.items()}


def pauli(axis: str) -> np.ndarray:
    if axis not in _PAULI:
        raise ValueError(f"unknown axis: {axis!r}")
    return _pauli_arrays()[axis].copy()


def ghz_state() -> np.ndarray:
    """(|000> - |111>) / sqrt(2), party 1 as the most significant bit of
    the 3-qubit basis index."""
    import numpy as np
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0 / math.sqrt(2.0)
    v[7] = -1.0 / math.sqrt(2.0)
    return v


def three_party_operator(axes: str) -> np.ndarray:
    """Tensor product of one Pauli per party, e.g. "xyy"."""
    if len(axes) != 3:
        raise ValueError("need one axis per party")
    import numpy as np
    op = pauli(axes[0])
    for axis in axes[1:]:
        op = np.kron(op, pauli(axis))
    return op


def verify_eigenrelation(op: np.ndarray, v: np.ndarray, expected: int) -> bool:
    """True iff op @ v = expected * v within EXACT_TOL (Euclidean norm)."""
    if op.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    import numpy as np
    return bool(np.linalg.norm(op @ v - expected * v) <= EXACT_TOL)


def direction_operator(n: Sequence[float]) -> np.ndarray:
    """n . sigma for a unit 3-vector n."""
    vec = unit_direction(n)
    x, y, z = _pauli_arrays().values()
    return vec[0] * x + vec[1] * y + vec[2] * z


def density_matrix(r: Sequence[float]) -> tuple:
    """(I + r . sigma) / 2 as rows of complex numbers, for a Bloch vector r
    with |r| <= 1."""
    x, y, z = bloch_vector(r)
    r00, r01, r10, r11 = _combination(0.5, 0.5 * x, 0.5 * y, 0.5 * z)
    return (r00, r01), (r10, r11)


def qubit_expectation(r: Sequence[float], n: Sequence[float]) -> float:
    """Tr(rho * (n . sigma)) by explicit 2x2 complex arithmetic; equals n . r."""
    (r00, r01), (r10, r11) = density_matrix(r)
    n00, n01, n10, n11 = _combination(0.0, *unit_direction(n))
    return ((r00 * n00 + r01 * n10) + (r10 * n01 + r11 * n11)).real


# stopping rule of _power_iteration
_RESIDUAL = 1e-10
_MAX_ITERS = 10_000


def _power_iteration(m: np.ndarray) -> float:
    """Dominant eigenvalue of a positive semidefinite hermitian matrix by
    power iteration, run to a residual of _RESIDUAL."""
    import numpy as np
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
    import numpy as np
    op_a = direction_operator(a)
    op_ap = direction_operator(a_prime)
    op_b = direction_operator(b)
    op_bp = direction_operator(b_prime)
    bell_op = np.kron(op_a, op_b + op_bp) + np.kron(op_ap, op_b - op_bp)
    top = _power_iteration(bell_op.conj().T @ bell_op)
    return math.sqrt(max(top, 0.0))
