"""The ring of quaternion polynomial mappings.

A mapping is stored as a quadruple of dense four-variate real polynomials:
component m gives the m-th basis coordinate of the value at
x0 + i x1 + j x2 + k x3.  Every quadruple of real polynomials arises this
way, so the type carries no membership predicate.

Multiplication combines the sixteen pairwise component products with the
basis sign table.  The fast path packs each four-variate table into a
single variable by a mixed-radix Kronecker embedding (collision-free by
construction), multiplies in the Fourier domain with transforms shared
across the sixteen products, and unpacks.  The schoolbook scatter product
stays as the oracle.

Degrees are total degrees; the degree of a quadruple is the maximum over
its components, which matches half the total degree of the component sum
of squares because squares of reals cannot cancel.  Coefficients count
for degrees once they exceed DEGREE_TRIM_REL times the largest one of the
whole quadruple.
"""

from __future__ import annotations

import numpy as np

from . import complexpoly
from .errors import EmptySampleSet, ParseError, SingularTransform
from .quaternion import Quaternion

#: entries below this fraction of the largest one do not count for degrees
DEGREE_TRIM_REL = 1e-9

#: determinant threshold for rejecting an affine grid transform
TOL_SINGULAR = 1e-12

NEG_INF = float("-inf")


def _simplex_mask(degree: int) -> np.ndarray:
    idx = np.indices((degree + 1,) * 4).sum(axis=0)
    return idx <= degree


class RPoly4:
    """Dense real polynomial in four variables.

    ``table[e0, e1, e2, e3]`` is the coefficient of X0^e0 X1^e1 X2^e2 X3^e3;
    the stored box is the per-axis bound, entries beyond the total-degree
    simplex are simply zero.
    """

    __slots__ = ("table",)

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

    @property
    def extents(self):
        return self.table.shape

    @property
    def degree(self):
        """Total degree over entries above the relative trim threshold."""
        return _trimmed_degree([self.table])

    def is_zero(self) -> bool:
        return not np.any(self.table)

    def padded(self, shape) -> np.ndarray:
        pad = [(0, s - cur) for s, cur in zip(shape, self.table.shape)]
        return np.pad(self.table, pad)

    def __add__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        return RPoly4(self.padded(shape) + other.padded(shape))

    def __sub__(self, other):
        shape = tuple(map(max, zip(self.extents, other.extents)))
        return RPoly4(self.padded(shape) - other.padded(shape))

    def __neg__(self):
        return RPoly4(-self.table)

    def scale(self, s: float) -> "RPoly4":
        return RPoly4(self.table * s)

    def mul_naive(self, other: "RPoly4") -> "RPoly4":
        """Schoolbook product: scatter every coefficient pair."""
        return RPoly4(_scatter_mul(self.table, other.table))

    def mul_fast(self, other: "RPoly4") -> "RPoly4":
        """Kronecker-packed FFT product."""
        shape = tuple(a + b - 1 for a, b in zip(self.extents, other.extents))
        size = complexpoly._next_pow2(int(np.prod(shape)))
        fa = complexpoly.fft(_pack(self.table, shape, size))
        fb = complexpoly.fft(_pack(other.table, shape, size))
        return RPoly4(_unpack(complexpoly.fft(fa * fb, inverse=True), shape))

    def eval_at(self, coords) -> float:
        pw = _power_vectors(self.extents, coords)
        return float(np.einsum("abcd,a,b,c,d->", self.table, *pw))

    def __repr__(self):
        return f"RPoly4(extents={self.extents}, degree={self.degree})"


def _trimmed_degree(tables):
    """Largest total degree of an entry above DEGREE_TRIM_REL times the
    largest entry of all the tables; -inf when they are all zero."""
    peak = max(float(np.max(np.abs(t))) for t in tables)
    if peak == 0.0:
        return NEG_INF
    out = NEG_INF
    for t in tables:
        mask = np.abs(t) > DEGREE_TRIM_REL * peak
        if np.any(mask):
            out = max(out, int(np.max(np.indices(t.shape).sum(axis=0)[mask])))
    return out


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


def _pack(table: np.ndarray, shape, size: int) -> np.ndarray:
    """Mixed-radix Kronecker packing into a univariate coefficient vector.

    With radices K = `shape`, exponent tuples map to
    ((e0*K1 + e1)*K2 + e2)*K3 + e3; sums of factor exponents never carry
    between axes because the product extents fit the radices.
    """
    pad = [(0, s - cur) for s, cur in zip(shape, table.shape)]
    flat = np.pad(table, pad).ravel()
    out = np.zeros(size, dtype=float)
    out[: flat.size] = flat
    return out


def _unpack(vec: np.ndarray, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return vec[:n].real.reshape(shape)


def _power_vectors(extents, coords):
    return [np.asarray(coords[m]) ** np.arange(extents[m]) for m in range(4)]


def _combine16(prod):
    """Basis sign table: 16 component products -> the 4 result components."""
    h0 = prod[0][0] - prod[1][1] - prod[2][2] - prod[3][3]
    h1 = prod[0][1] + prod[1][0] + prod[2][3] - prod[3][2]
    h2 = prod[0][2] + prod[2][0] + prod[3][1] - prod[1][3]
    h3 = prod[0][3] + prod[3][0] + prod[1][2] - prod[2][1]
    return h0, h1, h2, h3


class QuadruplePoly:
    """Quaternion polynomial mapping as four real four-variate components."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if len(comps) != 4 or not all(isinstance(c, RPoly4) for c in comps):
            raise ValueError("QuadruplePoly needs four RPoly4 components")
        self.comps = comps

    @classmethod
    def zero(cls) -> "QuadruplePoly":
        return cls([RPoly4.zero() for _ in range(4)])

    @classmethod
    def constant(cls, a: Quaternion) -> "QuadruplePoly":
        return cls([RPoly4.constant(c) for c in a.components()])

    @classmethod
    def variable(cls) -> "QuadruplePoly":
        return cls([RPoly4.axis_variable(m) for m in range(4)])

    @property
    def degree(self):
        """Total degree; -inf for the zero mapping, an integer otherwise.

        Entries are trimmed against the largest coefficient of the whole
        quadruple, so a component holding only rounding residue of a
        cancellation does not count.
        """
        return _trimmed_degree([c.table for c in self.comps])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other):
        return QuadruplePoly([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return QuadruplePoly([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return QuadruplePoly([-c for c in self.comps])

    def scale(self, s: float) -> "QuadruplePoly":
        return QuadruplePoly([c.scale(s) for c in self.comps])

    def mul_naive(self, other: "QuadruplePoly") -> "QuadruplePoly":
        prod = [[self.comps[s].mul_naive(other.comps[t]) for t in range(4)]
                for s in range(4)]
        return QuadruplePoly(_combine16(prod))

    def mul_fast(self, other: "QuadruplePoly") -> "QuadruplePoly":
        """Kronecker product with transforms shared across the 16 products.

        All eight component tables are packed on the common radix grid, the
        sign table is applied pointwise to the spectra, and four inverse
        transforms recover the result components.
        """
        if self.is_zero() or other.is_zero():
            return QuadruplePoly.zero()
        ea = tuple(map(max, zip(*(c.extents for c in self.comps))))
        eb = tuple(map(max, zip(*(c.extents for c in other.comps))))
        shape = tuple(a + b - 1 for a, b in zip(ea, eb))
        size = complexpoly._next_pow2(int(np.prod(shape)))
        fa = [complexpoly.fft(_pack(c.table, shape, size)) for c in self.comps]
        fb = [complexpoly.fft(_pack(c.table, shape, size)) for c in other.comps]
        spectra = _combine16([[fa[s] * fb[t] for t in range(4)] for s in range(4)])
        return QuadruplePoly(
            [RPoly4(_unpack(complexpoly.fft(h, inverse=True), shape)) for h in spectra])

    def __mul__(self, other):
        if isinstance(other, QuadruplePoly):
            return self.mul_fast(other)
        return NotImplemented

    def evaluate(self, x: Quaternion) -> Quaternion:
        coords = x.components()
        return Quaternion(*(c.eval_at(coords) for c in self.comps))

    def evaluate_with_bound(self, x: Quaternion):
        """Value together with the accumulated magnitude sum_|c| |x|^e.

        The bound is the natural scale for deciding whether a computed
        value is a rounding residue of zero.
        """
        coords = [abs(v) for v in x.components()]
        bound = 0.0
        vals = []
        for c in self.comps:
            pw = _power_vectors(c.extents, coords)
            vals.append(c.eval_at(x.components()))
            bound += float(np.einsum("abcd,a,b,c,d->", np.abs(c.table), *pw))
        return Quaternion(*vals), bound

    # -- grids ---------------------------------------------------------------

    def grid_multieval(self, axes):
        """Values on the product grid axes[0] x ... x axes[3].

        Each component table is contracted one axis at a time against the
        abscissa values (fast multipoint evaluation once both the degree
        and the point count warrant it).  Returns an array of shape
        (len A0, ..., len A3, 4), complex if any abscissa is complex.
        """
        axes = [np.atleast_1d(np.asarray(a)) for a in axes]
        if len(axes) != 4:
            raise ValueError("grid_multieval needs four abscissa sequences")
        cplx = any(np.iscomplexobj(a) for a in axes)
        outs = []
        for c in self.comps:
            work = c.table.astype(np.complex128)
            for m in range(4):
                work = _eval_axis(work, m, axes[m])
            outs.append(work)
        out = np.stack(outs, axis=-1)
        return out if cplx else out.real

    def affine_substitute(self, matrix, offset) -> "QuadruplePoly":
        """Composition with the affine coordinate map x -> matrix.x + offset."""
        t = np.asarray(matrix, dtype=float).reshape(4, 4)
        y = np.asarray(offset, dtype=float).reshape(4)
        deg = self.degree
        if deg is NEG_INF or deg < 0:
            return QuadruplePoly.zero()
        box = (int(deg) + 1,) * 4
        lins = [(y[m], t[m, 0], t[m, 1], t[m, 2], t[m, 3]) for m in range(4)]
        return QuadruplePoly(
            [RPoly4(_subst_table(c.table, lins, box)) for c in self.comps])

    def affine_grid_multieval(self, matrix, offset, axes):
        """Values on the image of a grid under a regular affine map."""
        t = np.asarray(matrix, dtype=float).reshape(4, 4)
        if abs(np.linalg.det(t)) <= TOL_SINGULAR:
            raise SingularTransform("affine grid transform is numerically singular")
        return self.affine_substitute(t, offset).grid_multieval(axes)

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Table serialization: a degree-bound header line, then one
        ``e0 e1 e2 e3 c0 c1 c2 c3`` row per nonzero exponent tuple."""
        shape = tuple(map(max, zip(*(c.extents for c in self.comps))))
        stacked = np.stack([c.padded(shape) for c in self.comps], axis=-1)
        bound = max(max(shape) - 1, 0)
        lines = [str(bound)]
        for e in np.argwhere(np.any(stacked != 0.0, axis=-1)):
            coeffs = stacked[tuple(e)]
            lines.append(" ".join(str(v) for v in e)
                         + " " + " ".join(format(c, ".17g") for c in coeffs))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QuadruplePoly":
        """Inverse of `to_text`; raises ParseError on malformed text.

        The tables are sized from the rows present, not from the header,
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
        tables = np.zeros(shape + (4,))
        for e, coeffs in rows.items():
            tables[e] = coeffs
        return cls([RPoly4(tables[..., m]) for m in range(4)])

    def __repr__(self):
        return f"QuadruplePoly(degree={self.degree})"


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


def _subst_table(table: np.ndarray, lins, box) -> np.ndarray:
    """Simultaneous affine substitution by nested Horner over the axes."""

    def mul_linear(tab, lin):
        c0, t0, t1, t2, t3 = lin
        out = tab * c0
        for m, tm in enumerate((t0, t1, t2, t3)):
            if tm != 0.0:
                src = [slice(None)] * 4
                dst = [slice(None)] * 4
                src[m] = slice(0, box[m] - 1)
                dst[m] = slice(1, box[m])
                out[tuple(dst)] += tm * tab[tuple(src)]
        return out

    def subst(sub, axis):
        if axis == 4:
            out = np.zeros(box)
            out[0, 0, 0, 0] = sub
            return out
        acc = None
        for e in range(sub.shape[0] - 1, -1, -1):
            term = subst(sub[e], axis + 1)
            acc = term if acc is None else mul_linear(acc, lins[axis]) + term
        return acc

    return subst(table, 0)


def random_quadruple(degree: int, rng, scale: float = 1.0) -> QuadruplePoly:
    """Random mapping with dense simplex coefficients uniform in [-scale, scale]."""
    if degree < 0:
        return QuadruplePoly.zero()
    mask = _simplex_mask(degree)
    comps = []
    for _ in range(4):
        t = rng.uniform(-scale, scale, size=(degree + 1,) * 4)
        comps.append(RPoly4(np.where(mask, t, 0.0)))
    return QuadruplePoly(comps)


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
    out = 0.0
    for a, b in zip(p.comps, q.comps):
        shape = tuple(map(max, zip(a.extents, b.extents)))
        out = max(out, float(np.max(np.abs(a.padded(shape) - b.padded(shape)))))
    return out


def coeff_scale(p: QuadruplePoly) -> float:
    """Largest absolute coefficient across the four components."""
    return max(float(np.max(np.abs(c.table))) for c in p.comps)
