"""Every proved bound and every tolerance of the package, and the two input
rules built on them: the closed Bloch ball and the unit sphere.  Checks are
written so that NaN fails them (`not x <= tol`, never `x > tol`)."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)
CLASSICAL = 2.0
#: The most negative weight of a qubit state, reached on the diagonal.
NEGATIVE_WEIGHT_FLOOR = (1.0 - math.sqrt(3.0)) / 8.0

#: Identities exact in real arithmetic, up to float rounding: weight and
#: pair sums, expectations, eigenrelations, the Bloch ball |r|^2 <= 1.
EXACT_TOL = 1e-12
#: Slack on a proved inequality, and on the norm of a unit vector.
BOUND_TOL = 1e-9
#: Distance of a numerical optimum from the proved optimum.
OPTIMUM_TOL = 1e-6


def bloch_vector(r: Sequence[float]) -> np.ndarray:
    """r as a float array, if it is a 3-vector with |r|^2 <= 1 + EXACT_TOL."""
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if not float(vec @ vec) <= 1.0 + EXACT_TOL:
        raise ValueError("outside Bloch ball")
    return vec


def unit_direction(n: Sequence[float]) -> np.ndarray:
    """n as a float array, if it is a 3-vector with | |n| - 1 | <= BOUND_TOL."""
    vec = np.asarray(n, dtype=float)
    if vec.shape != (3,) or not abs(float(np.linalg.norm(vec)) - 1.0) <= BOUND_TOL:
        raise ValueError("non-unit direction")
    return vec
