"""Small dense complex-matrix quantum mechanics used as ground truth.

Pauli algebra, tensor products, the three-qubit GHZ state and its
eigenrelations, single-qubit expectations, and the quantum value of the
CHSH operator via power iteration.  Dimensions never exceed 8.

rho and n . sigma are each the combination c0*I + cx*X + cy*Y + cz*Z,
which _combination writes in closed form in float arithmetic.  Its
entries equal, bit for bit, the complex sum over the Pauli table, so
every report is the same on either route.  _PAULI is the table: pauli()
returns its matrices, and the tests compare the closed form against its
sum.
The single-qubit path (density_matrix, qubit_expectation) takes the
trace by explicit 2x2 complex arithmetic and needs no numpy.
Tensor products are one broadcast product each, whose every entry is the
single product x[i, j] * y[k, l] that np.kron computes, without its
generic Python path: the package never calls np.kron.  pauli,
ghz_state, three_party_operator, verify_eigenrelation, direction_operator
and chsh_quantum_value build or take numpy arrays and import numpy when
called.  Power iteration starts
every call from one cached, read-only vector, so equal matrices give
equal values.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

from .tolerances import EXACT_TOL, bloch_vector, is_real, unit_direction

if TYPE_CHECKING:
    import numpy as np

# The Pauli table, each matrix flattened to its entries (m00, m01, m10, m11)
_PAULI = {
    "x": (0j, 1 + 0j, 1 + 0j, 0j),
    "y": (0j, -1j, 1j, 0j),
    "z": (1 + 0j, 0j, 0j, -1 + 0j),
}


def _combination(c0: float, cx: float, cy: float, cz: float) -> list:
    """The entries (m00, m01, m10, m11) of c0*I + cx*X + cy*Y + cz*Z, i.e.
    [[c0 + cz, cx - i*cy], [cx + i*cy, c0 - cz]].  Callers pass c0 = 0.0
    (n . sigma) or 0.5 (rho).  Where the table's complex sum gives +0.0,
    so does this: the off-diagonal parts add 0.0 to a -0.0 or subtract from
    0.0, and the diagonal starts from c0, which is not -0.0.  So every
    entry, signed zeros included, equals that sum bit for bit for any
    c0 >= 0 other than -0.0."""
    return [complex(c0 + cz, 0.0), complex(cx + 0.0, 0.0 - cy),
            complex(cx + 0.0, cy + 0.0), complex(c0 - cz, 0.0)]


def pauli(axis: str) -> np.ndarray:
    # a str first: the dict would hash an unhashable axis and raise TypeError
    if not isinstance(axis, str) or axis not in _PAULI:
        raise ValueError(f"unknown axis: {axis!r}")
    import numpy as np
    return np.array(_PAULI[axis]).reshape(2, 2)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices: entry (i*m + k, j*m + l)
    is x[i, j] * y[k, l], as in np.kron."""
    n, m = len(x), len(y)
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(n * m, n * m)


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
    # a Sequence, so that a mapping or set of three fails here, not on axes[0]
    if not isinstance(axes, Sequence) or len(axes) != 3:
        raise ValueError("need one axis per party")
    op = pauli(axes[0])
    for axis in axes[1:]:
        op = _kron(op, pauli(axis))
    return op


def verify_eigenrelation(op: np.ndarray, v: np.ndarray, expected: int) -> bool:
    """True iff op @ v = expected * v within EXACT_TOL (Euclidean norm);
    expected is a real by the rule of qlhv.tolerances, else ValueError."""
    if not is_real(expected):
        raise ValueError(f"expected eigenvalue must be a number, got {expected!r}")
    if op.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    import numpy as np
    return bool(np.linalg.norm(op @ v - expected * v) <= EXACT_TOL)


def direction_operator(n: Sequence[float]) -> np.ndarray:
    """n . sigma for a unit 3-vector n."""
    import numpy as np
    return np.array(_combination(0.0, *unit_direction(n))).reshape(2, 2)


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


@functools.cache
def _start_vector(dim: int) -> np.ndarray:
    # the unit start vector of _power_iteration, drawn once and read-only, so
    # that every call runs the same iterations
    import numpy as np
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(dim) + 1.0j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    v.flags.writeable = False
    return v


def _power_iteration(m: np.ndarray) -> float:
    """Dominant eigenvalue of a positive semidefinite hermitian matrix by
    power iteration, run to a residual of _RESIDUAL."""
    import numpy as np
    v = _start_vector(m.shape[0])
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
    bell_op = _kron(op_a, op_b + op_bp) + _kron(op_ap, op_b - op_bp)
    top = _power_iteration(bell_op.conj().T @ bell_op)
    return math.sqrt(max(top, 0.0))
