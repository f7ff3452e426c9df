"""The ring of quaternion polynomial mappings.

A mapping is a quadruple of dense four-variate real polynomials:
component m gives the m-th basis coordinate of the value at
x0 + i x1 + j x2 + k x3.  Every quadruple of real polynomials arises this
way, so the type carries no membership predicate.  The quadruple is stored
as one coefficient table of shape (e0, e1, e2, e3, 4), component m in
``table[..., m]``; `QuadruplePoly.comps` are `RPoly4` views of it.

Multiplication is the Hamilton product of coefficients, summed over
exponent pairs as for real polynomials.  The fast path folds each
exponent pair (e0, e1) and (e2, e3) onto one cyclic axis by
(u, v) -> u + A v mod N.  A degree-D product has its pairs on the
triangle u + v <= D, and triangles pack the plane with density 2/3, so
some A makes the fold injective there at N near 3 D^2 / 4 rather than
(D + 1)^2.  The fold is a group
homomorphism, so the cyclic product on Z_N1 x Z_N2 is the folded linear
product, and a two-dimensional real FFT computes it: each factor's table
is scattered onto the folded grid and transformed, the spectra are
multiplied pointwise as quaternions with complex components, and the
product is transformed back and gathered.  The rfft runs only on the
rows a factor occupies and the inverse irfft only on the rows holding the
product's simplex, whose entries beyond it are exactly 0.  Spectra are
held component-first, so their Hamilton product runs on contiguous
blocks, in place.  A constant factor multiplies the other table directly.
The oracle is the schoolbook product that sequences share,
`qarray.schoolbook`.

A grid is evaluated one axis at a time: each exponent axis of the table
is contracted with the Vandermonde matrix of that axis' abscissae, read
as float, or as complex when they are complex, so a real grid gives a
real result and integer abscissae do not wrap.  A grid's affine image
x -> M.x + b is evaluated by substituting the map into the coefficient
table, then evaluating the result on the grid.  The substitution is a
Taylor shift by b, one binomial matrix per axis, followed by the
row-pivoted LU M[order] = L.U, factored here, applied as an axis
transpose and elementary shears x_i -> x_i + c x_j and axis scalings; it
costs O(d (d+1)^4) for degree d and accepts every M, singular ones
included.

Degrees are total degrees; the degree of a quadruple is the maximum over
its components, which matches half the total degree of the component sum
of squares because squares of reals cannot cancel.  Coefficients count
for degrees once they exceed DEGREE_TRIM_REL times the largest one of the
whole quadruple.

Every table is finite: `RPoly4` and `QuadruplePoly` check their
coefficients when they are built (`qarray.finite`), so an infinite or NaN
input, and a sum, product or substitution whose coefficients overflow,
raise NonFiniteValue.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EmptySampleSet, ParseError, SingularTransform
from .qarray import finite, qmul, qmul_into, reals, schoolbook
from .quaternion import Quaternion

#: entries below this fraction of the largest one do not count for degrees
DEGREE_TRIM_REL = 1e-9

#: reciprocal condition number below which an affine grid transform is rejected
TOL_SINGULAR = 1e-12

NEG_INF = float("-inf")


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
        """Total degree; -inf for zero, an integer otherwise.

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

    # sums and scalings that overflow raise NonFiniteValue in the constructor

    def __add__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        with np.errstate(over="ignore", invalid="ignore"):
            return type(self)(self.padded(shape) + other.padded(shape))

    def __sub__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        with np.errstate(over="ignore", invalid="ignore"):
            return type(self)(self.padded(shape) - other.padded(shape))

    def __neg__(self):
        return type(self)(-self.table)

    def scale(self, s: float):
        with np.errstate(over="ignore", invalid="ignore"):
            return type(self)(self.table * s)

    def __repr__(self):
        return f"{type(self).__name__}(extents={self.extents}, degree={self.degree})"


class RPoly4(_TablePoly):
    """Dense real polynomial in four variables.

    ``table[e0, e1, e2, e3]`` is the coefficient of X0^e0 X1^e1 X2^e2 X3^e3;
    the stored box is the per-axis bound, entries beyond the total-degree
    simplex are simply zero.  Infinite or NaN coefficients raise
    NonFiniteValue.  Its one product is the schoolbook `mul_naive`.
    """

    __slots__ = ()

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 4:
            raise ValueError("RPoly4 needs a 4-dimensional coefficient table")
        self.table = finite(t)

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
        """Schoolbook product (`qarray.schoolbook`).  Raises NonFiniteValue
        when a coefficient overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return RPoly4(schoolbook(self.table, other.table, 4, np.multiply))


def _trimmed_degree(table):
    """Largest total degree of an exponent tuple with an entry above
    DEGREE_TRIM_REL times the largest entry of the table, trailing axes
    included; -inf when the table is zero."""
    peak = float(np.max(np.abs(table)))
    if peak == 0.0:
        return NEG_INF
    return _support_degree(table, DEGREE_TRIM_REL * peak)


def _support_degree(table: np.ndarray, floor: float = 0.0) -> int:
    """Largest e0 + e1 + e2 + e3 with an entry above `floor` in magnitude,
    trailing axes included; -1 when there is none.  A NaN entry counts.
    At the default floor nothing is trimmed: this bounds the support
    exactly, so a transform pruned to it loses no entry."""
    # written as "not at most" so that NaN counts
    live = ~(np.abs(table) <= floor)
    if table.ndim > 4:
        live = np.any(live, axis=tuple(range(4, table.ndim)))
    degrees = _exponent_sums(live.shape)[live]
    return int(degrees.max()) if degrees.size else -1


def _smooth(n: int) -> bool:
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


@functools.lru_cache(maxsize=256)
def _fold(su: int, sv: int, degree: int):
    """(N, A) such that (u, v) -> u + A v mod N is injective on the
    exponent pairs P = {u < su, v < sv, u + v <= degree} of a product.

    The plain flattening (su sv, su) is injective on the whole box.  When
    the degree cuts the box's corner, the smallest 7-smooth N below su sv
    from max(|P|, 3 degree^2 / 4) upward that admits some A is taken,
    with the least such A.  Lattice translates of a triangle cover at
    most 2/3 of the plane (Fary, 1950), and N comes out near 3/4 of
    (degree + 1)^2.  Every A of a candidate N is tested at once by
    sorting the images.
    """
    plain = (su * sv, su)
    if degree >= su + sv - 2:
        return plain
    u, v = np.nonzero(np.add.outer(np.arange(su), np.arange(sv)) <= degree)
    for n in filter(_smooth, range(max(u.size, -(-3 * degree * degree // 4)), su * sv)):
        images = np.sort((u + np.arange(1, n)[:, None] * v) % n, axis=1)
        hits = np.flatnonzero(np.all(np.diff(images, axis=1), axis=1))
        if hits.size:
            return n, 1 + int(hits[0])
    return plain


def _folds(shape, degree: int):
    """The folds of the axis pairs (e0, e1) and (e2, e3) of a product box
    `shape` whose support degree is `degree`."""
    return _fold(shape[0], shape[1], degree), _fold(shape[2], shape[3], degree)


@functools.lru_cache(maxsize=128)
def _fold_map(box, degree: int, folds):
    """Where the entries of the exponent box `box` with e0 + ... + e3 <=
    degree go on the folded grid: their flat indices in `box`, the
    distinct rows phi1(e0, e1) they occupy, and their flat indices in
    (row rank, phi2(e2, e3)) of those rows."""
    (n1, a1), (n2, a2) = folds
    e0, e1, e2, e3 = np.nonzero(_exponent_sums(box) <= degree)
    rows, rank = np.unique((e0 + a1 * e1) % n1, return_inverse=True)
    return _read_only(np.ravel_multi_index((e0, e1, e2, e3), box), rows,
                      rank * n2 + (e2 + a2 * e3) % n2)


def _pack(table: np.ndarray, degree: int, folds) -> np.ndarray:
    """Real spectrum of an (e0, e1, e2, e3, 4) `table` folded onto the
    cyclic grid Z_N1 x Z_N2 of `folds` (`_folds`), component-first:
    shape (4, N1, N2 // 2 + 1).

    `degree` is the exact support degree (`_support_degree`); the entries
    up to it go to (phi1(e0, e1), phi2(e2, e3)), the rfft runs only on the
    rows they occupy and the fft along the first fold in place.  The
    spectrum equals rfft2's of the folded grid.  Each fold is a group
    homomorphism that is injective on the product's exponent pairs, so
    the cyclic product of two spectra is the folded linear product.
    """
    (n1, _), (n2, _) = folds
    at, rows, to = _fold_map(table.shape[:4], degree, folds)
    grid = np.zeros((4, rows.size * n2))
    grid[:, to] = table.reshape(-1, 4)[at].T
    spec = np.zeros((4, n1, n2 // 2 + 1), dtype=np.complex128)
    spec[:, rows] = np.fft.rfft(grid.reshape(4, rows.size, n2), axis=2)
    np.fft.fft(spec, axis=1, out=spec)
    return spec


def _unpack(spectrum: np.ndarray, shape, degree: int, folds) -> np.ndarray:
    """The (e0, e1, e2, e3, 4) table of the exponent box `shape` back
    from a (4, N1, N2 // 2 + 1) `_pack` spectrum of a product whose
    support degree is at most `degree`.  The spectrum is overwritten.

    The ifft along the first fold runs in place, the irfft only on the
    rows that hold entries of the product's degree simplex, into the
    spectrum's own memory, and those entries are gathered; every entry
    beyond it is exactly 0.
    """
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    at, rows, fro = _fold_map(tuple(shape), degree, folds)
    n2 = folds[1][0]
    lines = spectrum.reshape(-1).view(np.float64)[:4 * rows.size * n2]
    np.fft.irfft(spectrum[:, rows], n=n2, axis=2, out=lines.reshape(4, rows.size, n2))
    table = np.zeros((int(np.prod(shape)), 4))
    table[at] = lines.reshape(4, -1)[:, fro].T
    return table.reshape(tuple(shape) + (4,))


def _power_vectors(extents, coords):
    return [np.asarray(coords[m]) ** np.arange(extents[m]) for m in range(4)]


class QuadruplePoly(_TablePoly):
    """Quaternion polynomial mapping: one table of shape (e0, e1, e2, e3, 4)
    whose entry [e0, e1, e2, e3, m] is the coefficient of
    X0^e0 X1^e1 X2^e2 X3^e3 in component m.

    Built from an (e0, e1, e2, e3, 4) ndarray, which is taken as the table
    without a copy, or from four `RPoly4` components, which are zero-padded
    to their common box.  Infinite or NaN coefficients raise
    NonFiniteValue.
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
        self.table = finite(t)

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
        """Schoolbook product with the Hamilton product of coefficients
        (`qarray.schoolbook`).  Raises NonFiniteValue when a coefficient
        overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            return QuadruplePoly(schoolbook(self.table, other.table, 4, qmul))

    def mul_fast(self, other: "QuadruplePoly") -> "QuadruplePoly":
        """FFT product: the component-first spectra of both tables, folded
        onto two cyclic axes (`_pack`), are multiplied pointwise as
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
                folds = _folds(shape, da + db)
                spec = _pack(self.table, da, folds)
                qmul_into(spec, _pack(other.table, db, folds), spec)
                table = _unpack(spec, shape, da + db, folds)
        return QuadruplePoly(table)

    def __mul__(self, other):
        if isinstance(other, QuadruplePoly):
            return self.mul_fast(other)
        return NotImplemented

    def evaluate(self, x: Quaternion) -> Quaternion:
        """Value at x; NonFiniteValue when it overflows, as on a grid."""
        with np.errstate(over="ignore", invalid="ignore"):
            pw = _power_vectors(self.extents, x.components())
            value = np.einsum("abcdm,a,b,c,d->m", self.table, *pw)
        return Quaternion(*finite(value[None], "value at point")[0])

    def evaluate_with_bound(self, x: Quaternion):
        """Value together with the accumulated magnitude sum_|c| |x|^e.

        The bound is the natural scale for deciding whether a computed
        value is a rounding residue of zero.  A value or a bound that
        overflows raises NonFiniteValue, as `expr.eval_with_bound` does.
        """
        value = self.evaluate(x)
        with np.errstate(over="ignore", invalid="ignore"):
            pw = _power_vectors(self.extents, [abs(v) for v in x.components()])
            bound = np.einsum("abcdm,a,b,c,d->", np.abs(self.table), *pw)
        return value, float(finite(bound[None], "bound at point")[0])

    # -- grids ---------------------------------------------------------------

    def grid_multieval(self, axes):
        """Values on the product grid axes[0] x ... x axes[3].

        The table is contracted with the Vandermonde matrix of one axis at
        a time, the last axis first, so the result comes out C-ordered.
        An axis is read as float, or as complex when it is complex, so
        integer abscissae do not wrap.  Returns an array of shape
        (len A0, ..., len A3, 4), float64 when every axis is real and
        complex otherwise.  Axes that are not four 1-D sequences raise
        ValueError, a non-finite abscissa or value NonFiniteValue.
        """
        axes = [np.asarray(a, dtype=complex if np.iscomplexobj(a) else float) for a in axes]
        if len(axes) != 4 or any(a.ndim != 1 for a in axes):
            raise ValueError("grid_multieval needs four 1-D abscissa sequences")
        for m, a in enumerate(axes):
            finite(a, f"grid axis {m} entry")
        out = self.table
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(3, -1, -1):
                out = _eval_axis(out, m, axes[m])
        return finite(out, "overflowing grid value at axis-0 index")

    def affine_substitute(self, matrix, offset) -> "QuadruplePoly":
        """Composition with the affine coordinate map x -> matrix.x + offset.

        The table is cut to its exact support degree (`_support_degree`),
        so coefficients below the degree trim are substituted too.  Every
        matrix is accepted, singular ones included.  A matrix not of shape
        (4, 4) or an offset not of shape (4,) raises ValueError; a non-finite
        matrix or offset, or substituted coefficients that overflow,
        NonFiniteValue.
        """
        return self._substitute(*_affine_map(matrix, offset))

    def _substitute(self, t: np.ndarray, y: np.ndarray) -> "QuadruplePoly":
        size = _support_degree(self.table) + 1
        if size == 0:
            return QuadruplePoly.zero()
        table = self.padded(np.maximum(self.extents, size))[(slice(size),) * 4]
        with np.errstate(over="ignore", invalid="ignore"):
            return QuadruplePoly(_subst_table(table, t, y))

    def affine_grid_multieval(self, matrix, offset, axes):
        """Values on the image of a grid under a regular affine map.

        Raises SingularTransform when the condition number of the matrix
        exceeds 1 / TOL_SINGULAR, ValueError on a misshapen matrix, offset
        or grid axis, as `affine_substitute` and `grid_multieval` do, and
        NonFiniteValue on a non-finite one.
        """
        t, y = _affine_map(matrix, offset)
        if np.linalg.cond(t) > 1.0 / TOL_SINGULAR:
            raise SingularTransform("affine grid transform is numerically singular")
        return self._substitute(t, y).grid_multieval(axes)

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


def _affine_map(matrix, offset):
    """The matrix and offset of x -> matrix.x + offset as float arrays.

    ValueError unless they have shapes (4, 4) and (4,); NonFiniteValue,
    naming the row or entry, for one that is not finite.
    """
    t, y = np.asarray(matrix, dtype=float), np.asarray(offset, dtype=float)
    if t.shape != (4, 4) or y.shape != (4,):
        raise ValueError(f"an affine map needs a (4, 4) matrix and a (4,) offset, "
                         f"got shapes {t.shape} and {y.shape}")
    return finite(t, "affine matrix row"), finite(y, "affine offset entry")


def _eval_axis(work: np.ndarray, axis: int, pts: np.ndarray) -> np.ndarray:
    """`work` with its exponent axis `axis` replaced by the values at the
    abscissae `pts`: one contraction with their Vandermonde matrix."""
    vander = np.vander(pts, work.shape[axis], increasing=True)
    return np.moveaxis(np.tensordot(vander, work, axes=(1, axis)), 0, axis)


def _subst_table(tables: np.ndarray, matrix: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Coefficients of p(matrix.z + offset) from the table of p, shape
    (d+1,)*4 + (4,), supported on the degree-d simplex.

    With T_A p = p(A.), T_AB = T_B o T_A.  So after the Taylor shift by the
    offset, matrix[order] = L.U is applied as T_U o T_L o T_order: an axis
    transpose, L's shears column 0 first, then U's rows 3 down to 0, each
    its shears followed by an axis scaling.  No pivot is divided by, so
    singular matrices substitute as well as regular ones.
    """
    size = tables.shape[0]
    for m in range(4):
        tables = np.moveaxis(
            np.tensordot(_shift_matrix(offset[m], size), tables, axes=(1, m)), 0, m)
    order, lower, upper = _lu(matrix)
    tables = np.transpose(tables, tuple(order) + (4,))
    for j in range(3):
        for i in range(j + 1, 4):
            tables = _shear(tables, i, j, lower[i, j])
    for i in range(3, -1, -1):
        for j in range(i + 1, 4):
            tables = _shear(tables, i, j, upper[i, j])
        tables = tables * (upper[i, i] ** np.arange(size)).reshape((size,) + (1,) * (4 - i))
    return tables


def _lu(matrix: np.ndarray):
    """(order, lower, upper) with matrix[order] = lower @ upper, unit lower.

    Partial pivoting in the left-looking order of OpenBLAS's getf2, so
    that the factors round as scipy.linalg.lu's do there: column j first
    takes the updates of the columns before it, its pivot is then the
    first largest |entry| at or below the diagonal, and the multipliers
    are scaled by the pivot's reciprocal (divided by a pivot too small to
    invert).  A zero pivot leaves its column as it is, so a singular
    matrix factors without a division by zero.
    """
    a = np.array(matrix, dtype=float, order="F")
    n = a.shape[0]
    order = np.arange(n)
    for j in range(n):
        for i in range(1, j):
            a[i, j] -= a[i, :i] @ a[:i, j]
        a[j:, j] -= a[j:, :j] @ a[:j, j]
        p = j + int(np.argmax(np.abs(a[j:, j])))
        a[[j, p]], order[[j, p]] = a[[p, j]], order[[p, j]]
        pivot = a[j, j]
        if abs(pivot) >= np.finfo(float).tiny:
            a[j + 1:, j] *= 1.0 / pivot
        elif pivot != 0.0:
            a[j + 1:, j] /= pivot
    return order, np.tril(a, -1) + np.eye(n), np.triu(a)


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


def random_quadruple(degree: int, rng) -> QuadruplePoly:
    """Random mapping with dense simplex coefficients uniform in [-1, 1].

    The components are drawn one whole table after the other.
    """
    if degree < 0:
        return QuadruplePoly.zero()
    t = rng.uniform(-1.0, 1.0, size=(4,) + (degree + 1,) * 4)
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
    is nonzero with probability above one half.  The sample set is a 1-D
    real sequence: another shape raises ValueError, a sample that is not
    finite NonFiniteValue, an empty set EmptySampleSet.
    """
    a = reals(sample_set, "sample")
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
