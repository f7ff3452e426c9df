"""Quaternion coefficient sequences under componentwise addition and
non-commutative convolution.

A sequence is a ring element in its own right; there is deliberately no
evaluation operation here, because substituting a point into a coefficient
sequence does not commute with the convolution product over quaternions.

The fast product transforms the four real component sequences of each
operand with real FFTs, multiplies the spectra pointwise as quaternions
with complex components, and transforms back; the oracle is the
schoolbook product that mappings share, `qarray.schoolbook`.  Spectra
are held component-first, one row per component, so the transforms run
along contiguous rows, and the Hamilton product overwrites the first
spectrum in its preallocated block (`qarray.qmul_into`).

A sequence holds finite coefficients: `Rows`, the storage `QSeq` shares
with `onesided.OneSidedPoly`, checks them when it is built (`qarray.rows`),
so an infinite or NaN input, and a sum or convolution whose coefficients
overflow, raise NonFiniteValue.
"""

from __future__ import annotations

import numpy as np

from . import complexpoly
from .qarray import from_quaternions  # noqa: F401  qpbench/layers.py binds this name
from .qarray import qmul, qmul_into, rows, schoolbook, to_quaternions
from .quaternion import Quaternion


class Rows:
    """Finite quaternion coefficients, row l holding coefficient l: the
    storage that sequences and one-sided polynomials share.

    Stored as a C-ordered (n, 4) float component array `comps`, read by
    `qarray.rows` from an iterable of Quaternion or an (n, 4) array.
    Infinite or NaN coefficients raise NonFiniteValue, an array not of shape
    (n, 4) ValueError.
    """

    __slots__ = ("comps",)

    def __init__(self, coeffs=()):
        self.comps = rows(coeffs)

    @classmethod
    def from_components(cls, arr):
        return cls(np.asarray(arr, dtype=float))

    def __len__(self):
        return self.comps.shape[0]

    def __getitem__(self, l) -> Quaternion:
        return Quaternion(*self.comps[l])

    def __iter__(self):
        return iter(to_quaternions(self.comps))

    def __repr__(self):
        return f"{type(self).__name__}({[str(q) for q in self]})"


class QSeq(Rows):
    """Finite quaternion sequence; index l holds the coefficient of slot l.

    `X` is (0, 1) in slot one, i.e. ``QSeq([Quaternion(0), Quaternion(1)])``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, QSeq):
            return NotImplemented
        return self.comps.shape == other.comps.shape and bool(
            np.all(self.comps == other.comps))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return convolve_fast(self, other)


def add(a: QSeq, b: QSeq) -> QSeq:
    """Componentwise sum, zero-padded to the longer length.  Raises
    NonFiniteValue when a coefficient overflows."""
    n = max(len(a), len(b))
    out = np.zeros((n, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        out[: len(a)] += a.comps
        out[: len(b)] += b.comps
    return QSeq.from_components(out)


def convolve_naive(a: QSeq, b: QSeq) -> QSeq:
    """Convolution c_l = sum_t a_t * b_(l-t) by shift and add
    (`qarray.schoolbook`); the factor order matters.

    Raises NonFiniteValue when a coefficient overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return QSeq.from_components(schoolbook(a.comps, b.comps, 1, qmul))


def convolve_fast(a: QSeq, b: QSeq) -> QSeq:
    """FFT convolution: real transforms of the four component sequences,
    the Hamilton product of the spectra, one inverse transform.

    The components are transformed component-first, as rows of one
    ``(2, 4, size // 2 + 1)`` work block that holds both spectra; their
    product overwrites the first, and the inverse transform runs into the
    second, which nothing reads after the product.  Matches
    `convolve_naive` up to rounding; raises NonFiniteValue when a
    coefficient overflows.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return QSeq()
    out_len = n + m - 1
    size = complexpoly._next_pow2(out_len)
    # one block for both spectra and the result: freed separately, large
    # temporaries go back to the OS and fault in again on every call
    work = np.empty((2, 4, size // 2 + 1), dtype=np.complex128)
    # the real result, 4 * size floats, in the second spectrum's 4 * size + 8
    res = work[1].reshape(-1).view(np.float64)[:4 * size].reshape(4, size)
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.rfft(a.comps.T, n=size, axis=-1, out=work[0])
        np.fft.rfft(b.comps.T, n=size, axis=-1, out=work[1])
        qmul_into(work[0], work[1], work[0])
        np.fft.irfft(work[0], n=size, axis=-1, out=res)
    return QSeq.from_components(res[:, :out_len].T)


def random_qseq(n: int, rng) -> QSeq:
    """Sequence of n quaternions with components uniform in [-1, 1]."""
    return QSeq.from_components(rng.uniform(-1.0, 1.0, size=(n, 4)))
