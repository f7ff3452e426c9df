"""Vectorized quaternion kernels on ``(..., 4)`` float arrays.

Internal support for the sequence/polynomial modules; the scalar API lives
in `quaternion`.  Component order is (re, i, j, k) and broadcasting follows
numpy rules.
"""

from __future__ import annotations

import numpy as np

from .quaternion import Quaternion


def qmul(a, b):
    """Broadcast Hamilton product of component arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    ], axis=-1)


def from_quaternions(qs) -> np.ndarray:
    """Stack an iterable of Quaternion into an (n, 4) array."""
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def to_quaternions(arr) -> list:
    arr = np.asarray(arr, dtype=float).reshape(-1, 4)
    return [Quaternion(*row) for row in arr]
