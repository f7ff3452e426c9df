"""The ring of quaternion polynomial mappings.

A mapping is a quadruple of dense four-variate real polynomials:
component m gives the m-th basis coordinate of the value at
x0 + i x1 + j x2 + k x3.  Every quadruple of real polynomials arises this
way, so the type carries no membership predicate.  The quadruple is stored
as one coefficient table of shape (e0, e1, e2, e3, 4), component m in
``table[..., m]``; `QuadruplePoly.comps` are `RPoly4` views of it.

Multiplication combines the sixteen pairwise component products with the
basis sign table.  The fast path transforms each factor's table with a
four-dimensional real FFT on the product box, multiplies the spectra
pointwise as quaternions with complex components, and transforms back.
A degree-d table lives on the simplex e0 + ... + e3 <= d, so the
transforms are pruned to it: the forward one skips the e3 fibres with
e0 + e1 + e2 > d and the e2 fibres with e0 + e1 > d, which hold only
zeros, and the inverse skips the fibres that reach no entry of the
product's simplex, whose entries beyond it are exactly 0.  Spectra are
held component-first, so their Hamilton product runs on contiguous
blocks, in place.  A constant factor multiplies the other table directly.
The schoolbook scatter product of the components stays as the oracle.

A grid's affine image x -> M.x + b is evaluated by substituting the map
into the coefficient table, then evaluating the result axis by axis on
the grid.  The substitution is a Taylor shift by b, one binomial matrix
per axis, followed by M = P.L.U applied as an axis permutation and
elementary shears x_i -> x_i + c x_j and axis scalings; it costs
O(d (d+1)^4) for degree d and accepts every M, singular ones included.

Degrees are total degrees; the degree of a quadruple is the maximum over
its components, which matches half the total degree of the component sum
of squares because squares of reals cannot cancel.  Coefficients count
for degrees once they exceed DEGREE_TRIM_REL times the largest one of the
whole quadruple.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lu

from . import complexpoly
from .errors import EmptySampleSet, NonFiniteValue, ParseError, SingularTransform
from .qarray import qmul, qmul_into
from .quaternion import Quaternion

#: entries below this fraction of the largest one do not count for degrees
DEGREE_TRIM_REL = 1e-9

#: reciprocal condition number below which an affine grid transform is rejected
TOL_SINGULAR = 1e-12

NEG_INF = float("-inf")


def _finite(name: str, value) -> np.ndarray:
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"non-finite {name}")
    return arr


@functools.lru_cache(maxsize=64)
def _exponent_sums(box) -> np.ndarray:
    """e0 + ... + e(n-1) over the exponent box `box`, shared read-only."""
    return _read_only(np.indices(box).sum(axis=0))[0]


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class _TablePoly:
    """Ring operations on a dense coefficient table whose first four axes
    are the exponents e0..e3; any trailing axes are carried along."""

    __slots__ = ("table",)

    @property
    def extents(self):
        return self.table.shape[:4]

    @property
    def degree(self):
        """Total degree; -inf for zero, an integer otherwise, and
        NonFiniteValue for a table with an infinite or NaN entry.

        Entries are trimmed against the largest coefficient of the whole
        table, so a component holding only rounding residue of a
        cancellation does not count.
        """
        return _trimmed_degree(self.table)

    def is_zero(self) -> bool:
        return not np.any(self.table)

    def padded(self, shape) -> np.ndarray:
        """A fresh copy of the table, zero-padded to the exponent box `shape`."""
        out = np.zeros(tuple(shape) + self.table.shape[4:])
        out[tuple(map(slice, self.extents))] = self.table
        return out

    def __add__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        return type(self)(self.padded(shape) + other.padded(shape))

    def __sub__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        return type(self)(self.padded(shape) - other.padded(shape))

    def __neg__(self):
        return type(self)(-self.table)

    def scale(self, s: float):
        return type(self)(self.table * s)

    def __repr__(self):
        degree = self.degree if np.all(np.isfinite(self.table)) else "non-finite"
        return f"{type(self).__name__}(extents={self.extents}, degree={degree})"


class RPoly4(_TablePoly):
    """Dense real polynomial in four variables.

    ``table[e0, e1, e2, e3]`` is the coefficient of X0^e0 X1^e1 X2^e2 X3^e3;
    the stored box is the per-axis bound, entries beyond the total-degree
    simplex are simply zero.
    """

    __slots__ = ()

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 4:
            raise ValueError("RPoly4 needs a 4-dimensional coefficient table")
        self.table = t

    @classmethod
    def zero(cls) -> "RPoly4":
        return cls(np.zeros((1, 1, 1, 1)))

    @classmethod
    def constant(cls, value: float) -> "RPoly4":
        t = np.zeros((1, 1, 1, 1))
        t[0, 0, 0, 0] = value
        return cls(t)

    @classmethod
    def axis_variable(cls, axis: int) -> "RPoly4":
        t = np.zeros((2, 2, 2, 2))
        t[tuple(1 if m == axis else 0 for m in range(4))] = 1.0
        return cls(t)

    def mul_naive(self, other: "RPoly4") -> "RPoly4":
        """Schoolbook product: scatter every coefficient pair."""
        return RPoly4(_scatter_mul(self.table, other.table))

    def mul_fast(self, other: "RPoly4") -> "RPoly4":
        """Product by four-dimensional real FFTs on the product box,
        pruned to the factors' support simplices."""
        shape = tuple(a + b - 1 for a, b in zip(self.extents, other.extents))
        da, db = _support_degree(self.table), _support_degree(other.table)
        return RPoly4(_unpack(_pack(self.table, shape, da) * _pack(other.table, shape, db),
                              shape, da + db))


def _trimmed_degree(table):
    """Largest total degree of an exponent tuple with an entry above
    DEGREE_TRIM_REL times the largest entry of the table, trailing axes
    included; -inf when the table is zero.  A table with an infinite or
    NaN entry has no degree: NonFiniteValue."""
    mag = np.abs(table)
    peak = float(np.max(mag))
    if not np.isfinite(peak):
        raise NonFiniteValue("non-finite coefficients have no degree")
    if peak == 0.0:
        return NEG_INF
    mask = np.any(mag > DEGREE_TRIM_REL * peak, axis=tuple(range(4, table.ndim)))
    degrees = _exponent_sums(mask.shape)[mask]
    return int(np.max(degrees)) if degrees.size else NEG_INF


def _scatter_mul(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    shape = tuple(a + b - 1 for a, b in zip(ta.shape, tb.shape))
    out = np.zeros(shape)
    ia = np.argwhere(ta)
    if ia.size == 0 or not np.any(tb):
        return out
    ib = np.argwhere(tb)
    va = ta[tuple(ia.T)]
    vb = tb[tuple(ib.T)]
    pairs = ia[:, None, :] + ib[None, :, :]
    flat = np.ravel_multi_index(tuple(pairs.reshape(-1, 4).T), shape)
    np.add.at(out.reshape(-1), flat, (va[:, None] * vb[None, :]).ravel())
    return out


def _support_degree(table: np.ndarray) -> int:
    """Largest e0 + e1 + e2 + e3 with a nonzero entry, trailing axes
    included; -1 for a zero table.  Nothing is trimmed: this bounds the
    support exactly, so a transform pruned to it loses no entry."""
    nonzero = table != 0.0
    if table.ndim > 4:
        nonzero = np.any(nonzero, axis=tuple(range(4, table.ndim)))
    degrees = _exponent_sums(nonzero.shape)[nonzero]
    return int(degrees.max()) if degrees.size else -1


@functools.lru_cache(maxsize=64)
def _lines(box, shape, degree):
    """The e3 fibres of the exponent box `box` with e0 + e1 + e2 <= degree:
    their flat indices in (a0, a1, a2) and in (s0, s1, s2) of `shape`,
    and the mask of their entries beyond the degree simplex."""
    e0, e1, e2 = np.nonzero(_exponent_sums(box[:3]) <= degree)
    beyond = (e0 + e1 + e2)[:, None] + np.arange(shape[3]) > degree
    return _read_only(np.ravel_multi_index((e0, e1, e2), box[:3]),
                      np.ravel_multi_index((e0, e1, e2), shape[:3]), beyond)


def _pack(table: np.ndarray, shape, degree: int) -> np.ndarray:
    """Real spectrum over the four exponent axes of `table` zero-padded to
    `shape`, component-first: trailing axes of the table lead, so a
    QuadruplePoly table gives (4, s0, s1, s2, s3 // 2 + 1).

    `degree` is the exact support degree (`_support_degree`).  Entries
    beyond it are zero, and so are the fibres that hold only such
    entries: the rfft along e3 runs only on fibres with
    e0 + e1 + e2 <= degree, the fft along e2 only where e0 + e1 <= degree,
    and e1 and e0 are transformed in full (a pruned FFT).  All but the
    first run in place.  The axes go in numpy's rfftn order, so the
    spectrum equals rfftn's.  A product box of `shape` holds every
    exponent sum of its factors, so the cyclic convolution of two spectra
    never wraps around.
    """
    a0, a1, a2, a3 = table.shape[:4]
    s0, s1, s2, s3 = shape
    lead = table.shape[4:]
    fibres = table.reshape(a0 * a1 * a2, a3, -1)
    comps = fibres.shape[-1]
    spec = np.zeros((comps, s0, s1, s2, s3 // 2 + 1), dtype=np.complex128)
    lines, lines_at, _ = _lines(table.shape[:4], tuple(shape), degree)
    spec.reshape(comps, s0 * s1 * s2, -1)[:, lines_at] = np.moveaxis(
        np.fft.rfft(fibres[lines], n=s3, axis=1), 2, 0)
    for e0 in range(min(a0, degree + 1)):
        planes = spec[:, e0, :min(a1, degree + 1 - e0)]
        np.fft.fft(planes, n=s2, axis=2, out=planes)
    np.fft.fft(spec[:, :a0], n=s1, axis=2, out=spec[:, :a0])
    np.fft.fft(spec, n=s0, axis=1, out=spec)
    return spec.reshape(lead + spec.shape[1:])


def _unpack(spectrum: np.ndarray, shape, degree: int) -> np.ndarray:
    """Coefficient table of `shape` back from a `_pack` spectrum of a
    product whose support degree is at most `degree`; the spectrum's
    leading axes become the table's trailing ones.  The spectrum is
    overwritten.

    The inverse runs along e0 and e1 in full, along e2 only on fibres
    with e0 + e1 <= degree and the irfft along e3 only where
    e0 + e1 + e2 <= degree; all but the last run in place.  Entries on the
    degree simplex equal irfftn's, and every entry beyond it is exactly 0.
    """
    s0, s1, s2, s3 = shape
    lead = spectrum.shape[:-4]
    spec = spectrum.reshape((-1,) + spectrum.shape[-4:])
    comps = spec.shape[0]
    np.fft.ifft(spec, n=s0, axis=1, out=spec)
    np.fft.ifft(spec, n=s1, axis=2, out=spec)
    for e0 in range(min(s0, degree + 1)):
        planes = spec[:, e0, :min(s1, degree + 1 - e0)]
        np.fft.ifft(planes, n=s2, axis=2, out=planes)
    _, lines_at, beyond = _lines(tuple(shape), tuple(shape), degree)
    lines = np.fft.irfft(spec.reshape(comps, s0 * s1 * s2, -1)[:, lines_at], n=s3, axis=2)
    lines[:, beyond] = 0.0
    table = np.zeros((s0 * s1 * s2, s3, comps))
    table[lines_at] = np.moveaxis(lines, 0, 2)
    return table.reshape(tuple(shape) + lead)


def _power_vectors(extents, coords):
    return [np.asarray(coords[m]) ** np.arange(extents[m]) for m in range(4)]


def _combine16(prod):
    """Basis sign table: 16 component products -> the 4 result components."""
    h0 = prod[0][0] - prod[1][1] - prod[2][2] - prod[3][3]
    h1 = prod[0][1] + prod[1][0] + prod[2][3] - prod[3][2]
    h2 = prod[0][2] + prod[2][0] + prod[3][1] - prod[1][3]
    h3 = prod[0][3] + prod[3][0] + prod[1][2] - prod[2][1]
    return h0, h1, h2, h3


class QuadruplePoly(_TablePoly):
    """Quaternion polynomial mapping: one table of shape (e0, e1, e2, e3, 4)
    whose entry [e0, e1, e2, e3, m] is the coefficient of
    X0^e0 X1^e1 X2^e2 X3^e3 in component m.

    Built from an (e0, e1, e2, e3, 4) ndarray, which is taken as the table
    without a copy, or from four `RPoly4` components, which are zero-padded
    to their common box.
    """

    __slots__ = ()

    def __init__(self, comps):
        if isinstance(comps, np.ndarray):
            t = np.asarray(comps, dtype=float)
            if t.ndim != 5 or t.shape[-1] != 4:
                raise ValueError("QuadruplePoly needs an (e0, e1, e2, e3, 4) table")
        else:
            comps = tuple(comps)
            if len(comps) != 4 or not all(isinstance(c, RPoly4) for c in comps):
                raise ValueError("QuadruplePoly needs four RPoly4 components")
            shape = tuple(map(max, zip(*(c.extents for c in comps))))
            t = np.stack([c.padded(shape) for c in comps], axis=-1)
        self.table = t

    @classmethod
    def zero(cls) -> "QuadruplePoly":
        return cls(np.zeros((1, 1, 1, 1, 4)))

    @classmethod
    def constant(cls, a: Quaternion) -> "QuadruplePoly":
        return cls(np.reshape(a.components(), (1, 1, 1, 1, 4)))

    @classmethod
    def variable(cls) -> "QuadruplePoly":
        t = np.zeros((2, 2, 2, 2, 4))
        t[(*np.eye(4, dtype=int), np.arange(4))] = 1.0
        return cls(t)

    @property
    def comps(self) -> tuple:
        """The four components, as `RPoly4` views of the table."""
        return tuple(RPoly4(self.table[..., m]) for m in range(4))

    def mul_naive(self, other: "QuadruplePoly") -> "QuadruplePoly":
        prod = [[a.mul_naive(b) for b in other.comps] for a in self.comps]
        return QuadruplePoly(_combine16(prod))

    def mul_fast(self, other: "QuadruplePoly") -> "QuadruplePoly":
        """FFT product: the component-first spectra of both tables, pruned
        to their support simplices, are multiplied pointwise as
        quaternions and transformed back; entries beyond the degree
        simplex of the product are exactly 0.  A constant factor (a
        (1, 1, 1, 1) box) multiplies the other table directly, with no
        FFT.  Raises NonFiniteValue when a coefficient overflows.
        """
        if self.is_zero() or other.is_zero():
            return QuadruplePoly.zero()
        shape = tuple(a + b - 1 for a, b in zip(self.extents, other.extents))
        with np.errstate(over="ignore", invalid="ignore"):
            if self.extents == (1, 1, 1, 1) or other.extents == (1, 1, 1, 1):
                table = qmul(self.table, other.table)
            else:
                da, db = _support_degree(self.table), _support_degree(other.table)
                pa, pb = _pack(self.table, shape, da), _pack(other.table, shape, db)
                table = _unpack(qmul_into(pa, pb, pa), shape, da + db)
        if not np.all(np.isfinite(table)):
            raise NonFiniteValue("product coefficients overflow")
        return QuadruplePoly(table)

    def __mul__(self, other):
        if isinstance(other, QuadruplePoly):
            return self.mul_fast(other)
        return NotImplemented

    def evaluate(self, x: Quaternion) -> Quaternion:
        pw = _power_vectors(self.extents, x.components())
        return Quaternion(*np.einsum("abcdm,a,b,c,d->m", self.table, *pw))

    def evaluate_with_bound(self, x: Quaternion):
        """Value together with the accumulated magnitude sum_|c| |x|^e.

        The bound is the natural scale for deciding whether a computed
        value is a rounding residue of zero.
        """
        pw = _power_vectors(self.extents, [abs(v) for v in x.components()])
        bound = float(np.einsum("abcdm,a,b,c,d->", np.abs(self.table), *pw))
        return self.evaluate(x), bound

    # -- grids ---------------------------------------------------------------

    def grid_multieval(self, axes):
        """Values on the product grid axes[0] x ... x axes[3].

        The table is contracted one axis at a time against the abscissa
        values (fast multipoint evaluation once both the degree and the
        point count warrant it).  Returns an array of shape
        (len A0, ..., len A3, 4), complex if any abscissa is complex.
        A non-finite abscissa or value raises NonFiniteValue.
        """
        axes = [_finite(f"grid axis {m}", np.atleast_1d(np.asarray(a)))
                for m, a in enumerate(axes)]
        if len(axes) != 4:
            raise ValueError("grid_multieval needs four abscissa sequences")
        cplx = any(np.iscomplexobj(a) for a in axes)
        out = self.table.astype(np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(4):
                out = _eval_axis(out, m, axes[m])
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue("grid values overflow")
        return out if cplx else out.real

    def affine_substitute(self, matrix, offset) -> "QuadruplePoly":
        """Composition with the affine coordinate map x -> matrix.x + offset.

        Every matrix is accepted, singular ones included; a non-finite
        matrix or offset, or substituted coefficients that overflow, raise
        NonFiniteValue.
        """
        t = _finite("affine matrix", matrix).astype(float).reshape(4, 4)
        y = _finite("affine offset", offset).astype(float).reshape(4)
        deg = self.degree
        if deg == NEG_INF:
            return QuadruplePoly.zero()
        size = int(deg) + 1
        table = self.padded(np.maximum(self.extents, size))[(slice(size),) * 4]
        table[_exponent_sums(table.shape[:4]) >= size] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            table = _subst_table(table, t, y)
        if not np.all(np.isfinite(table)):
            raise NonFiniteValue("coefficients substituted by the affine matrix "
                                 "and offset overflow")
        return QuadruplePoly(table)

    def affine_grid_multieval(self, matrix, offset, axes):
        """Values on the image of a grid under a regular affine map.

        Raises SingularTransform when the condition number of the matrix
        exceeds 1 / TOL_SINGULAR, and NonFiniteValue on a non-finite
        matrix, offset or grid axis.
        """
        t = _finite("affine matrix", matrix).astype(float).reshape(4, 4)
        if np.linalg.cond(t) > 1.0 / TOL_SINGULAR:
            raise SingularTransform("affine grid transform is numerically singular")
        return self.affine_substitute(t, offset).grid_multieval(axes)

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Table serialization: a degree-bound header line, then one
        ``e0 e1 e2 e3 c0 c1 c2 c3`` row per nonzero exponent tuple."""
        lines = [str(max(max(self.extents) - 1, 0))]
        for e in np.argwhere(np.any(self.table != 0.0, axis=-1)):
            lines.append(" ".join(str(v) for v in e) + " "
                         + " ".join(format(c, ".17g") for c in self.table[tuple(e)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QuadruplePoly":
        """Inverse of `to_text`; raises ParseError on malformed text.

        The table is sized from the rows present, not from the header,
        which only bounds the exponents.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty quadruple serialization")
        try:
            bound = int(lines[0])
        except ValueError:
            raise ParseError(f"bad degree-bound header: {lines[0]!r}") from None
        if bound < 0:
            raise ParseError(f"negative degree-bound header: {lines[0]!r}")
        rows = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 8:
                raise ParseError(f"expected 8 fields per row, got {len(parts)}")
            try:
                e = tuple(int(v) for v in parts[:4])
                coeffs = [float(v) for v in parts[4:]]
            except ValueError:
                raise ParseError(f"bad table row: {ln!r}") from None
            if any(v < 0 or v > bound for v in e):
                raise ParseError(f"exponent outside declared bound: {ln!r}")
            if not np.all(np.isfinite(coeffs)):
                raise ParseError(f"non-finite coefficient: {ln!r}")
            if e in rows:
                raise ParseError(f"duplicate exponent row: {ln!r}")
            rows[e] = coeffs
        shape = tuple(max((e[m] for e in rows), default=0) + 1 for m in range(4))
        table = np.zeros(shape + (4,))
        for e, coeffs in rows.items():
            table[e] = coeffs
        return cls(table)


def _eval_axis(work: np.ndarray, axis: int, pts: np.ndarray) -> np.ndarray:
    moved = np.moveaxis(work, axis, 0)
    lead = moved.shape[0]
    flat = moved.reshape(lead, -1)
    if len(pts) < complexpoly.DEFAULT_CROSSOVER or lead - 1 < complexpoly.DEFAULT_CROSSOVER:
        vander = np.asarray(pts, dtype=np.complex128)[:, None] ** np.arange(lead)
        vals = vander @ flat
    else:
        vals = complexpoly._multieval_rows(flat.T, pts).T
    return np.moveaxis(vals.reshape((len(pts),) + moved.shape[1:]), 0, axis)


def _subst_table(tables: np.ndarray, matrix: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Coefficients of p(matrix.z + offset) from the table of p, shape
    (d+1,)*4 + (4,), supported on the degree-d simplex.

    With T_A p = p(A.), T_AB = T_B o T_A.  So after the Taylor shift by the
    offset, matrix = P.L.U is applied as T_U o T_L o T_P: an axis
    permutation, L's shears column 0 first, then U's rows 3 down to 0,
    each its shears followed by an axis scaling.  No pivot is divided by,
    so singular matrices substitute as well as regular ones.
    """
    size = tables.shape[0]
    for m in range(4):
        tables = np.moveaxis(
            np.tensordot(_shift_matrix(offset[m], size), tables, axes=(1, m)), 0, m)
    perm, lower, upper = lu(matrix)
    tables = np.transpose(tables, tuple(perm.argmax(axis=0)) + (4,))
    for j in range(3):
        for i in range(j + 1, 4):
            tables = _shear(tables, i, j, lower[i, j])
    for i in range(3, -1, -1):
        for j in range(i + 1, 4):
            tables = _shear(tables, i, j, upper[i, j])
        tables = tables * (upper[i, i] ** np.arange(size)).reshape((size,) + (1,) * (4 - i))
    return tables


def _shift_matrix(c: float, size: int) -> np.ndarray:
    """S[k, n] = C(n, k) c^(n-k): coefficients of p(x + c) from those of p(x).

    Column n holds (x + c)^n, built from column n - 1 as Pascal's rule does.
    """
    s = np.zeros((size, size))
    s[0, 0] = 1.0
    for n in range(1, size):
        s[:, n] = c * s[:, n - 1]
        s[1:, n] += s[:-1, n - 1]
    return s


def _shear(tables: np.ndarray, i: int, j: int, c: float) -> np.ndarray:
    """Coefficients with x_i replaced by x_i + c x_j.

    The shear keeps the degree n + m in the (i, j) plane, so once (n, m) is
    skewed to (n, n + m) it is the Taylor shift by c along axis i.
    """
    size = tables.shape[0]
    n, m = np.nonzero(np.add.outer(np.arange(size), np.arange(size)) < size)
    skew = np.zeros_like(tables)
    plane = np.moveaxis(skew, (i, j), (0, 1))
    plane[n, n + m] = np.moveaxis(tables, (i, j), (0, 1))[n, m]
    plane = np.tensordot(_shift_matrix(c, size), plane, axes=1)
    out = np.zeros_like(tables)
    np.moveaxis(out, (i, j), (0, 1))[n, m] = plane[n, n + m]
    return out


def random_quadruple(degree: int, rng, scale: float = 1.0) -> QuadruplePoly:
    """Random mapping with dense simplex coefficients uniform in [-scale, scale].

    The components are drawn one whole table after the other.
    """
    if degree < 0:
        return QuadruplePoly.zero()
    t = rng.uniform(-scale, scale, size=(4,) + (degree + 1,) * 4)
    on = _exponent_sums((degree + 1,) * 4) <= degree
    return QuadruplePoly(np.where(on[..., None], np.moveaxis(t, 0, -1), 0.0))


def default_sample_set(p: QuadruplePoly) -> np.ndarray:
    """The integers {0, ..., 2 deg(p) - 1}, the stock zero-witness pool."""
    deg = p.degree
    n = 2 * int(deg) if deg is not NEG_INF and deg > 0 else 1
    return np.arange(max(n, 1), dtype=float)


def random_zero_witness(p: QuadruplePoly, sample_set, rng):
    """One uniformly random point of sample_set^4 together with p's value.

    For nonzero p and a sample set of at least twice its degree, the value
    is nonzero with probability above one half.
    """
    a = np.asarray(sample_set, dtype=float).ravel()
    if a.size == 0:
        raise EmptySampleSet("zero witness needs a nonempty sample set")
    idx = rng.integers(0, a.size, size=4)
    x = Quaternion(*a[idx])
    return x, p.evaluate(x)


def max_coeff_diff(p: QuadruplePoly, q: QuadruplePoly) -> float:
    """Largest componentwise coefficient difference (tables padded alike)."""
    return float(np.max(np.abs((p - q).table)))


def coeff_scale(p: QuadruplePoly) -> float:
    """Largest absolute coefficient across the four components."""
    return float(np.max(np.abs(p.table)))
