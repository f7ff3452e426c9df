"""Vectorized quaternion kernels on ``(..., 4)`` component arrays.

Internal support for the sequence/polynomial modules; the scalar API lives
in `quaternion`.  Component order is (re, i, j, k) and broadcasting follows
numpy rules.  Components are real, or complex for spectra: the DFT is
linear over the reals, so the Hamilton product of two component spectra
is the spectrum of the convolution product.

Spectra are multiplied component-first: `qmul_into` takes ``(4, ...)``
arrays, whose components are contiguous blocks, and writes the product
into a buffer the caller owns, which may be one of the factors.  It works
through cache-sized blocks and allocates the scratch of one block and
nothing else.
"""

from __future__ import annotations

import numpy as np

from .quaternion import Quaternion


def qmul(a, b):
    """Broadcast Hamilton product of real or complex component arrays."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    b = np.asarray(b, dtype=complex if np.iscomplexobj(b) else float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    ], axis=-1)


#: entries per component of one `qmul_into` block: both factors, the
#: product and the scratch of a complex block fit in a 1 MB cache
_QMUL_BLOCK = 4096

#: the four terms of each result component of the Hamilton product, as
#: (sign, component of a, component of b), in the order `qmul` sums them
_HAMILTON_TERMS = (
    ((+1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
    ((+1, 0, 1), (+1, 1, 0), (+1, 2, 3), (-1, 3, 2)),
    ((+1, 0, 2), (+1, 2, 0), (+1, 3, 1), (-1, 1, 3)),
    ((+1, 0, 3), (+1, 3, 0), (+1, 1, 2), (-1, 2, 1)),
)


def qmul_into(a, b, out):
    """Hamilton product of component-first ``(4, ...)`` arrays into `out`.

    All three are C-contiguous and of one shape; `out` may be `a` or `b`.
    The product is formed in blocks of `_QMUL_BLOCK` entries of every
    component, in a scratch of one such block, and every component is
    summed in `qmul`'s order, so the result is bit-identical to ``qmul``
    on the component-last arrays.  Returns `out`.
    """
    if not out.flags.c_contiguous:
        raise ValueError("qmul_into writes into a C-contiguous array")
    a, b, flat = (np.reshape(x, (4, -1)) for x in (a, b, out))
    n = flat.shape[1]
    scratch = np.empty((5, min(n, _QMUL_BLOCK)), dtype=flat.dtype)
    for lo in range(0, n, _QMUL_BLOCK):
        hi = min(lo + _QMUL_BLOCK, n)
        ab, bb = a[:, lo:hi], b[:, lo:hi]
        prod, tmp = scratch[:4, :hi - lo], scratch[4, :hi - lo]
        for m, ((_, i, j), *rest) in enumerate(_HAMILTON_TERMS):
            np.multiply(ab[i], bb[j], out=prod[m])
            for sign, i, j in rest:
                np.multiply(ab[i], bb[j], out=tmp)
                (np.add if sign > 0 else np.subtract)(prod[m], tmp, out=prod[m])
        flat[:, lo:hi] = prod
    return out


def from_quaternions(qs) -> np.ndarray:
    """Stack an iterable of Quaternion into an (n, 4) array."""
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def to_quaternions(arr) -> list:
    """Quaternions of the rows of an (n, 4) array."""
    return [Quaternion(*row) for row in np.asarray(arr, dtype=float).reshape(-1, 4).tolist()]
