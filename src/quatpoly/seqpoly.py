"""Quaternion coefficient sequences under componentwise addition and
non-commutative convolution.

A sequence is a ring element in its own right; there is deliberately no
evaluation operation here, because substituting a point into a coefficient
sequence does not commute with the convolution product over quaternions.

The fast product transforms the four real component sequences of each
operand with real FFTs, multiplies the spectra pointwise as quaternions
with complex components, and transforms back; the naive double loop
stays as the oracle.  Spectra are held component-first, one row per
component, so the transforms run along contiguous rows and the Hamilton
product writes into a preallocated block (`qarray.qmul_into`).
"""

from __future__ import annotations

import numpy as np

from . import complexpoly
from .errors import NonFiniteValue
from .qarray import from_quaternions, qmul, qmul_into, to_quaternions
from .quaternion import Quaternion


class QSeq:
    """Finite quaternion sequence; index l holds the coefficient of slot l.

    Stored as an (n, 4) float component array; `X` is (0, 1) in slot one,
    i.e. ``QSeq([Quaternion(0), Quaternion(1)])``.
    """

    __slots__ = ("comps",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2 and coeffs.shape[1] == 4:
            self.comps = np.array(coeffs, dtype=float, order="C")
        else:
            self.comps = from_quaternions(coeffs)

    @classmethod
    def from_components(cls, arr) -> "QSeq":
        return cls(np.asarray(arr, dtype=float).reshape(-1, 4))

    def __len__(self):
        return self.comps.shape[0]

    def __getitem__(self, l) -> Quaternion:
        return Quaternion(*self.comps[l])

    def __iter__(self):
        return iter(to_quaternions(self.comps))

    def __eq__(self, other):
        if not isinstance(other, QSeq):
            return NotImplemented
        return self.comps.shape == other.comps.shape and bool(
            np.all(self.comps == other.comps))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return convolve_fast(self, other)

    def __repr__(self):
        return f"QSeq({[str(q) for q in self]})"


def add(a: QSeq, b: QSeq) -> QSeq:
    """Componentwise sum, zero-padded to the longer length."""
    n = max(len(a), len(b))
    out = np.zeros((n, 4))
    out[: len(a)] += a.comps
    out[: len(b)] += b.comps
    return QSeq.from_components(out)


def convolve_naive(a: QSeq, b: QSeq) -> QSeq:
    """Exact convolution c_l = sum_t a_t * b_(l-t); the factor order matters.

    Raises NonFiniteValue when a coefficient overflows.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return QSeq()
    out = np.zeros((n + m - 1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            out[t:t + m] += qmul(a.comps[t], b.comps)
    return _finite_product(out)


def convolve_fast(a: QSeq, b: QSeq) -> QSeq:
    """FFT convolution: real transforms of the four component sequences,
    the Hamilton product of the spectra, one inverse transform.

    The components are transformed component-first, as rows of one
    ``(3, 4, size // 2 + 1)`` work block that holds both spectra and their
    product.  Matches `convolve_naive` up to rounding; raises
    NonFiniteValue when a coefficient overflows.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return QSeq()
    out_len = n + m - 1
    size = complexpoly._next_pow2(out_len)
    # one block for both spectra and their product: freed separately, large
    # temporaries go back to the OS and fault in again on every call
    work = np.empty((3, 4, size // 2 + 1), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.rfft(a.comps.T, n=size, axis=-1, out=work[0])
        np.fft.rfft(b.comps.T, n=size, axis=-1, out=work[1])
        qmul_into(work[0], work[1], work[2])
        out = np.fft.irfft(work[2], n=size, axis=-1)[:, :out_len].T
    return _finite_product(out)


def _finite_product(comps) -> QSeq:
    if not np.all(np.isfinite(comps)):
        raise NonFiniteValue("convolution coefficients overflow")
    return QSeq.from_components(comps)


def random_qseq(n: int, rng, scale: float = 1.0) -> QSeq:
    """Sequence of n quaternions with components uniform in [-scale, scale]."""
    return QSeq.from_components(rng.uniform(-scale, scale, size=(n, 4)))
