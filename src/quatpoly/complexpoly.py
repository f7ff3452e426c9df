"""Dense univariate polynomial kernels over the complex numbers.

Commutative support machinery for the quaternion modules: an iterative
radix-2 FFT, fast multipoint evaluation, and Cauchy sums
sum_k w_k / (y - s_k) over real sources.

Multipoint evaluation works in value space rather than coefficient space:
the polynomial is sampled on an oversampled set of roots of unity with one
FFT and then carried to the requested points through the barycentric
Lagrange form, a Cauchy-kernel sum over the circle nodes.  Points outside
the unit disk go through the reversed polynomial at their inverses.
Remainder cascades over subproduct trees - the textbook route - amplify
rounding by the coefficient norm of the node polynomials, which grows
exponentially for points confined to the upper half-plane, so they are not
used here.

Both Cauchy sums, over circle nodes and over real sources, are evaluated
directly for small problems and through one multipole hierarchy for large
ones: sources sorted along a curve parameter, bisected into bins, with the
circle as the periodic case and the real segment as the open one.

All heavy routines accept batches: a ``(rows, n)`` coefficient matrix is
processed with transforms along the last axis, which is how the quaternion
modules push their four (or sixteen) real component polynomials through
shared machinery.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPowerOfTwoLength

#: below this many points (or this degree) multipoint evaluation uses Horner
DEFAULT_CROSSOVER = 32

#: dense Cauchy summation while n_points * n_nodes stays below this
_DENSE_LIMIT = 1 << 19

#: sources per leaf bin and top fan-out of the multipole hierarchy
_LEAF_SOURCES = 128
_TOP_BINS = 16

#: multipole truncation order (separation ratio <= ~1/3)
_MP_TERMS = 20

#: targets per chunk when sweeping multipole expansions
_EVAL_CHUNK = 2048

#: targets this close to a circle node are evaluated by plain Horner
_NODE_GUARD = 3e-8

_bitrev_cache: dict[int, np.ndarray] = {}
_twiddle_cache: dict[tuple[int, bool], np.ndarray] = {}
_node_cache: dict[int, np.ndarray] = {}


def _bitrev_indices(n: int) -> np.ndarray:
    idx = _bitrev_cache.get(n)
    if idx is None:
        idx = np.zeros(n, dtype=np.intp)
        for i in range(1, n):
            idx[i] = (idx[i >> 1] >> 1) | ((i & 1) * (n >> 1))
        _bitrev_cache[n] = idx
    return idx


def _twiddles(half: int, inverse: bool) -> np.ndarray:
    key = (half, inverse)
    w = _twiddle_cache.get(key)
    if w is None:
        sign = 1.0 if inverse else -1.0
        w = np.exp(sign * 1j * np.pi * np.arange(half) / half)
        _twiddle_cache[key] = w
    return w


def fft(values, inverse: bool = False) -> np.ndarray:
    """Radix-2 discrete Fourier transform along the last axis.

    Forward maps index l to sum_m a_m exp(-2 pi i l m / n); `inverse=True`
    applies the conjugate kernel and the 1/n scaling, so the round trip is
    the identity up to rounding.  The length must be a power of two.
    """
    a = np.array(values, dtype=np.complex128)
    n = a.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise NonPowerOfTwoLength(f"FFT length {n} is not a power of two")
    if n == 1:
        return a
    a = a[..., _bitrev_indices(n)]
    half = 1
    while half < n:
        w = _twiddles(half, inverse)
        b = a.reshape(a.shape[:-1] + (n // (2 * half), 2, half))
        t = b[..., 1, :] * w
        b[..., 1, :] = b[..., 0, :] - t
        b[..., 0, :] += t
        half *= 2
    if inverse:
        a /= n
    return a


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


class CPoly:
    """Dense complex polynomial; ``coeffs[l]`` is the coefficient of Z^l.

    Trailing coefficients of magnitude <= `trim_tol` are removed on
    construction (default 0: only exact zeros go); the zero polynomial is
    the empty sequence, with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(), trim_tol: float = 0.0):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128))
        keep = np.nonzero(np.abs(c) > trim_tol)[0]
        self.coeffs = c[: keep[-1] + 1] if keep.size else c[:0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self):
        return len(self.coeffs)

    def __call__(self, z):
        scalar = np.isscalar(z) or np.ndim(z) == 0
        vals = _horner_rows(self.coeffs[None, :], np.atleast_1d(z))[0]
        return vals[0] if scalar else vals

    def __repr__(self):
        return f"CPoly({self.coeffs.tolist()!r})"


def _pad_last(a: np.ndarray, size: int) -> np.ndarray:
    pad = [(0, 0)] * (a.ndim - 1) + [(0, size - a.shape[-1])]
    return np.pad(a, pad)


def _horner_rows(rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate each row polynomial at every point; returns (k, npts)."""
    pts = np.asarray(pts, dtype=np.complex128)
    vals = np.zeros(rows.shape[:-1] + pts.shape, dtype=np.complex128)
    for col in range(rows.shape[-1] - 1, -1, -1):
        vals = vals * pts + rows[..., col, None]
    return vals


# -- fast multipoint evaluation ----------------------------------------------

def multipoint_eval(p: CPoly, pts, crossover: int = DEFAULT_CROSSOVER) -> np.ndarray:
    """Values of p at every point.

    Point sets smaller than `crossover` (and polynomials of degree below
    it) are evaluated by plain Horner; larger problems run through the
    fast circle-sampling path.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=np.complex128))
    if pts.size == 0:
        return np.zeros(0, dtype=np.complex128)
    return _multieval_rows(p.coeffs[None, :], pts, crossover)[0]


def _multieval_rows(rows: np.ndarray, pts, crossover: int = DEFAULT_CROSSOVER) -> np.ndarray:
    """Batched multipoint evaluation; (k, n) coefficients -> (k, npts)."""
    pts = np.atleast_1d(np.asarray(pts, dtype=np.complex128))
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1] + pts.shape, dtype=np.complex128)
    if pts.size < crossover or rows.shape[-1] - 1 < crossover:
        return _horner_rows(rows, pts)
    out = np.empty(rows.shape[:-1] + pts.shape, dtype=np.complex128)
    rho = np.abs(pts)
    outer = rho > 1.0 + 1e-6
    inner = ~outer
    if np.any(inner):
        out[..., inner] = _circle_eval_rows(rows, pts[inner])
    if np.any(outer):
        # p(y) = y^(n-1) * rev(p)(1/y) moves the point inside the disk
        w = 1.0 / pts[outer]
        vals = _circle_eval_rows(rows[..., ::-1], w)
        factor = pts[outer] ** (rows.shape[-1] - 1)
        out[..., outer] = vals * factor
    return out


def _circle_nodes(N: int) -> np.ndarray:
    nodes = _node_cache.get(N)
    if nodes is None:
        nodes = np.exp(-2j * np.pi * np.arange(N) / N)
        _node_cache[N] = nodes
    return nodes


def _circle_eval_rows(rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate row polynomials at points with |y| <= 1 (plus rounding slack).

    One FFT samples every row on N = 2^ceil(lg 2n) roots of unity; the
    barycentric Lagrange form then gives
    p(y) = (y^N - 1) * sum_k c_k / (y - s_k) with c_k = s_k p(s_k) / N.
    """
    n = rows.shape[-1]
    N = _next_pow2(2 * n)
    nodes = _circle_nodes(N)
    vals = fft(_pad_last(rows, N))
    weights = vals * nodes / N

    out = np.empty(rows.shape[:-1] + ys.shape, dtype=np.complex128)
    rho = np.abs(ys)

    # points essentially on a sample node: barycentric form degenerates,
    # plain Horner is cheap and exact enough for the few of them
    k_near = np.mod(np.rint(-np.angle(ys) * N / (2 * np.pi)).astype(np.intp), N)
    on_node = np.abs(ys - nodes[k_near]) < _NODE_GUARD
    deep = (rho < 0.5) & ~on_node
    ann = ~deep & ~on_node

    if np.any(on_node):
        out[..., on_node] = _horner_rows(rows, ys[on_node])
    if np.any(deep):
        # |y| < 1/2: the 2^-m damping makes a coefficient head sufficient;
        # how long a head depends on the coefficient growth profile
        damped = np.max(np.abs(rows.reshape(-1, n)), axis=0) * 0.5 ** np.arange(n)
        tails = np.cumsum(damped[::-1])[::-1]
        keep = np.nonzero(tails > 1e-18 * tails[0])[0]
        head = rows[..., : keep[-1] + 2] if keep.size else rows[..., :1]
        out[..., deep] = _horner_rows(head, ys[deep])
    if np.any(ann):
        ya = ys[ann]
        s = _cauchy_sum(weights, nodes, ya)
        out[..., ann] = (ya ** N - 1.0) * s
    return out


def _cauchy_sum(weights: np.ndarray, nodes: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] / (y - nodes[k]) for targets in the annulus."""
    N = nodes.shape[0]
    t = ys.shape[0]
    if t * N <= _DENSE_LIMIT or N // _LEAF_SOURCES < _TOP_BINS:
        return _cauchy_dense(weights, nodes, ys)
    return _cauchy_multipole(weights, nodes, ys)


def _cauchy_dense(weights, nodes, ys):
    out = np.zeros(weights.shape[:-1] + ys.shape, dtype=np.complex128)
    step = max(1, _DENSE_LIMIT // nodes.shape[0])
    for lo in range(0, ys.shape[0], step):
        chunk = ys[lo:lo + step]
        inv = 1.0 / (chunk[:, None] - nodes)
        out[..., lo:lo + step] = weights @ inv.T
    return out


def _cauchy_multipole(weights, nodes, ys):
    """Circle case of the hierarchy: the sources are the roots of unity
    nodes[k] = exp(-2 pi i k / N), at curve parameter k / N."""
    N = nodes.shape[0]
    t_ys = np.mod(-np.angle(ys) / (2 * np.pi), 1.0)
    out = _cauchy_tree(nodes, np.arange(N) / N, weights.reshape(-1, N), ys, t_ys,
                       lambda t: np.exp(-2j * np.pi * t), periodic=True)
    return out.reshape(weights.shape[:-1] + ys.shape)


def cauchy_line_sum(sources, weights, ys) -> np.ndarray:
    """sum_k weights[k] / (y - sources[k]) for real sources.

    Direct (chunked) summation for small problems; a segment-bisection
    multipole hierarchy over the source interval for large ones.  Each
    term is formed from the actual distance, so accuracy is relative to
    sum_k |weights[k] / (y - sources[k])|, the honest conditioning of the
    sum; coefficient-space detours through prod (Z - source) lose all
    relative accuracy once that product is small against its coefficients.
    """
    sources = np.asarray(sources, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    ys = np.atleast_1d(np.asarray(ys, dtype=np.complex128))
    s_n, t_n = sources.size, ys.size
    if s_n == 0 or t_n == 0:
        return np.zeros(ys.shape, dtype=np.complex128)
    lo, hi = float(np.min(sources)), float(np.max(sources))
    span = hi - lo
    if s_n * t_n <= _DENSE_LIMIT or s_n < 4 * _LEAF_SOURCES or span <= 0.0:
        return _cauchy_dense(weights, sources, ys)
    order = np.argsort(sources)
    src = sources[order]
    out = _cauchy_tree(src, (src - lo) / span, weights[order][None, :], ys,
                       (ys.real - lo) / span, lambda t: lo + t * span, periodic=False)
    return out[0]


def _cauchy_tree(sources, t_src, weights, ys, t_ys, curve, periodic):
    """sum_k weights[r, k] / (y - sources[k]) by a bisection multipole hierarchy.

    The sources lie on the curve s = curve(t), sorted by their parameter
    `t_src` in [0, 1]; `t_ys` places each target at the parameter of a
    nearby curve point.  Level l splits the parameter range into
    _TOP_BINS * 2^l equal bins.  A target takes the truncated multipole
    expansion of every bin in its interaction lists (separation ratio
    <= ~1/3) and sums the sources of its own and the two adjacent leaf
    bins directly.  `periodic` closes the curve (the circle); otherwise
    it is a segment and bins past its ends do not exist.

    Expansion tables are laid out (bin, term, row) so that per-target
    gathers copy one contiguous block per bin and the Horner sweep reads
    sequentially.  Bin n_bins is all zeros and stands in for dropped bins.
    """
    n_rows, n_src = weights.shape
    n_targets = ys.shape[0]
    n_leaf = _next_pow2(max(n_src // _LEAF_SOURCES, _TOP_BINS))
    src_leaf = np.minimum((t_src * n_leaf).astype(np.intp), n_leaf - 1)
    leaf_bounds = np.searchsorted(src_leaf, np.arange(n_leaf + 1))
    t_leaf = np.minimum((np.clip(t_ys, 0.0, 1.0) * n_leaf).astype(np.intp), n_leaf - 1)
    far, near = _interaction_lists(t_leaf, n_leaf, periodic)

    out = np.zeros((n_rows, n_targets), dtype=np.complex128)
    for n_bins, bins in far:
        # table[b, m, r] = sum of weights[r, k] (sources[k] - center_b)^m over bin b
        step = n_leaf // n_bins
        starts = leaf_bounds[::step]
        filled = np.flatnonzero(starts[1:] > starts[:-1])
        centers = np.append(curve((np.arange(n_bins) + 0.5) / n_bins), 0.0)
        d = sources - centers[src_leaf // step]
        table = np.zeros((n_bins + 1, _MP_TERMS, n_rows), dtype=np.complex128)
        cur = weights
        for m in range(_MP_TERMS):
            table[filled, m, :] = np.add.reduceat(cur, starts[filled], axis=1).T
            if m + 1 < _MP_TERMS:
                cur = cur * d

        # Horner in 1/(y - center), summed over the stacked bin axis
        inv_full = np.divide(1.0, ys - centers[bins], where=bins < n_bins,
                             out=np.zeros(bins.shape, dtype=np.complex128))
        for lo in range(0, n_targets, _EVAL_CHUNK):
            sl = slice(lo, lo + _EVAL_CHUNK)
            gath = table[bins[:, sl]]            # (k, chunk, P, rows)
            inv = inv_full[:, sl, None]
            acc = gath[:, :, _MP_TERMS - 1, :]
            for m in range(_MP_TERMS - 2, -1, -1):
                acc = acc * inv + gath[:, :, m, :]
            out[:, sl] += np.sum(acc * inv, axis=0).T

    # near field: targets grouped by leaf bin, direct sum over the near bins
    order = np.argsort(t_leaf, kind="stable")
    cuts = np.flatnonzero(np.diff(t_leaf[order])) + 1
    for sel in np.split(order, cuts):
        cols = np.concatenate([np.arange(leaf_bounds[b], leaf_bounds[b + 1])
                               for b in near[:, sel[0]] if b < n_leaf])
        inv = 1.0 / (ys[sel][:, None] - sources[cols])
        out[:, sel] += weights[:, cols] @ inv.T
    return out


def _interaction_lists(t_leaf, n_leaf, periodic):
    """Bins that targets in leaf bins `t_leaf` take at each level.

    Returns ``(far, near)``.  `far` holds one ``(n_bins, bins)`` pair per
    level, coarsest first: ``bins[:, t]`` are the bins whose multipole
    expansions target t takes there.  `near` holds the leaf bins t_leaf - 1,
    t_leaf and t_leaf + 1, summed directly.  Together they cover every leaf
    bin exactly once.  A bin index equal to the level's bin count marks a
    bin past the end of an open segment.
    """
    def place(cand, n_bins):
        if periodic:
            return np.mod(cand, n_bins)
        return np.where((cand >= 0) & (cand < n_bins), cand, n_bins)

    shift = n_leaf.bit_length() - _TOP_BINS.bit_length()
    # top level: every bin that is neither the target's own nor adjacent
    if periodic:
        offs = np.arange(2, _TOP_BINS - 1)
    else:
        offs = np.r_[-_TOP_BINS + 1:-1, 2:_TOP_BINS]
    far = [(_TOP_BINS, place((t_leaf >> shift) + offs[:, None], _TOP_BINS))]
    for li in range(1, shift + 1):
        a = t_leaf >> (shift - li)
        # children of the parent's +-1 neighbourhood that are not our own
        # neighbours: three bins, depending on which child we are
        even = (a & 1) == 0
        cand = np.stack([np.where(even, a - 2, a - 3),
                         np.where(even, a + 2, a - 2),
                         np.where(even, a + 3, a + 2)])
        far.append((_TOP_BINS << li, place(cand, _TOP_BINS << li)))
    near = place(t_leaf + np.arange(-1, 2)[:, None], n_leaf)
    return far, near
