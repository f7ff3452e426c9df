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

`schoolbook` is the one naive product, the oracle of every fast one: it
shifts and adds the coefficient tables of sequences (one exponent axis)
and of mappings and their real components (four axes).

`finite` is the one finiteness check of the library: coefficient
containers run it when they are built, so a container holds finite
coefficients or is not made, and the evaluation paths run it on their
points, nodes, values, poles and grid axes.  `component_rows` is the one
shape check: every (n, 4) array of coefficients or nodes passes it.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteValue
from .quaternion import Quaternion


def finite(arr: np.ndarray, what: str | None = None) -> np.ndarray:
    """`arr` itself when every entry is finite; NonFiniteValue otherwise.

    Containers call it on their coefficients, so an infinite or NaN input
    and a sum or product whose coefficients overflow are refused alike.
    Given `what`, the message names the first entry along axis 0 that is
    not finite, as "<what> <index> is not finite": points, nodes, values,
    poles and grid axes are checked this way where they are used.
    """
    # the method, not np.all: about 3 us against 5 us of fixed cost, paid
    # by every constant, variable and partial product of an expansion
    ok = np.isfinite(arr)
    if ok.all():
        return arr
    if what is None:
        raise NonFiniteValue("coefficients are infinite or NaN: an input is, "
                             "or a computed coefficient overflows")
    bad = np.argmin(ok.reshape(len(ok), -1).all(axis=1))
    raise NonFiniteValue(f"{what} {bad} is not finite")


def component_rows(arr) -> np.ndarray:
    """`arr` as an array when it is an (n, 4) component array; ValueError otherwise."""
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) component array, got shape {arr.shape}")
    return arr


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


def schoolbook(ta: np.ndarray, tb: np.ndarray, axes: int, mul) -> np.ndarray:
    """Schoolbook product of two coefficient tables whose leading `axes`
    axes are exponents: entry g of the result sums mul(ta[e], tb[f]) over
    e + f = g.

    `mul` multiplies an entry of one table into the whole other table by
    broadcasting, keeping the factor order: `np.multiply` for real tables,
    `qmul` for (..., 4) component tables.  The loop runs over the nonzero
    exponent tuples e of the factor with fewer of them and adds
    ``mul(ta[e], tb)``, or ``mul(ta, tb[e])``, into the result at offset
    e, so no temporary is larger than the other factor.  A factor with an
    empty exponent axis gives an empty result.
    """
    lead_a, lead_b = ta.shape[:axes], tb.shape[:axes]
    shape = tuple(a + b - 1 if a and b else 0 for a, b in zip(lead_a, lead_b))
    out = np.zeros(shape + np.broadcast_shapes(ta.shape[axes:], tb.shape[axes:]))
    live_a, live_b = (np.argwhere(np.any(t != 0, axis=tuple(range(axes, t.ndim)))).tolist()
                      for t in (ta, tb))
    if len(live_a) <= len(live_b):
        for e in live_a:
            out[tuple(slice(i, i + n) for i, n in zip(e, lead_b))] += mul(ta[tuple(e)], tb)
    else:
        for e in live_b:
            out[tuple(slice(i, i + n) for i, n in zip(e, lead_a))] += mul(ta, tb[tuple(e)])
    return out


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
    return [Quaternion(*row) for row in np.asarray(arr, dtype=float).tolist()]
