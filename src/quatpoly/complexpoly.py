"""Dense univariate polynomial kernels over the complex numbers.

Commutative support machinery for the quaternion modules: the FFT (a thin
name over numpy.fft), fast multipoint evaluation, and Cauchy sums
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
circle as the periodic case and the real segment as the open one.  Moments
are summed over the sources of the leaf bins only; an upward pass
translates them to every coarser level.  A target stops at the coarsest
level whose bin scale its distance to the curve exceeds threefold, and
takes every bin left at that level, its own and adjacent ones included,
as a multipole.  Only targets within three leaf radii of the curve sum
sources directly.

All heavy routines accept batches: a ``(rows, n)`` coefficient matrix is
processed with transforms along the last axis, which is how the quaternion
modules push their four (or sixteen) real component polynomials through
shared machinery.
"""

from __future__ import annotations

import math

import numpy as np

#: below this many points (or this degree) multipoint evaluation uses Horner
DEFAULT_CROSSOVER = 32

#: dense Cauchy summation while n_points * n_nodes stays below this
_DENSE_LIMIT = 1 << 19

#: sources per leaf bin and top fan-out of the multipole hierarchy
_LEAF_SOURCES = 128
_TOP_BINS = 16

#: multipole truncation order (separation ratio <= ~1/3)
_MP_TERMS = 20

#: C(m, i) and m - i (clipped at 0) for the moment translation
_BINOM = np.array([[math.comb(m, i) for i in range(_MP_TERMS)] for m in range(_MP_TERMS)], float)
_BINOM_POWER = np.maximum(np.subtract.outer(np.arange(_MP_TERMS), np.arange(_MP_TERMS)), 0)

#: targets per block of the hierarchy's evaluation matrix: bounds its
#: memory when many targets share one bin
_EVAL_CHUNK = 256

#: targets this close to a circle node are evaluated by plain Horner
_NODE_GUARD = 3e-8

_node_cache: dict[int, np.ndarray] = {}


def fft(values) -> np.ndarray:
    """Discrete Fourier transform along the last axis, any length: index l
    maps to sum_m a_m exp(-2 pi i l m / n)."""
    return np.fft.fft(values)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


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

def _multieval_rows(rows: np.ndarray, pts) -> np.ndarray:
    """Batched multipoint evaluation; (k, n) coefficients -> (k, npts).

    Point sets smaller than DEFAULT_CROSSOVER (and polynomials of degree
    below it) are evaluated by plain Horner; larger problems run through
    the fast circle-sampling path.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=np.complex128))
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1] + pts.shape, dtype=np.complex128)
    if pts.size < DEFAULT_CROSSOVER or rows.shape[-1] - 1 < DEFAULT_CROSSOVER:
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
        dense = ya.size * N <= _DENSE_LIMIT or N // _LEAF_SOURCES < _TOP_BINS
        s = (_cauchy_dense if dense else _cauchy_multipole)(weights, nodes, ya)
        out[..., ann] = (ya ** N - 1.0) * s
    return out


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
                       1.0 - np.abs(ys), lambda t: np.exp(-2j * np.pi * t), periodic=True)
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
                       (ys.real - lo) / span, np.abs(ys.imag), lambda t: lo + t * span,
                       periodic=False)
    return out[0]


def _cauchy_tree(sources, t_src, weights, ys, t_ys, gap, curve, periodic):
    """sum_k weights[r, k] / (y - sources[k]) by a bisection multipole hierarchy.

    The sources lie on the curve s = curve(t), sorted by their parameter
    `t_src` in [0, 1]; `t_ys` places each target at the parameter of a
    nearby curve point and `gap` bounds its distance to the curve from
    below.  Level l splits the parameter range into _TOP_BINS * 2^l equal
    bins, and rad_l bounds the distance of a source from its level-l bin's
    centre.  `periodic` closes the curve (the circle); otherwise it is a
    segment and bins past its ends do not exist.

    A target stops at the coarsest level j with gap >= 3 rad_j.  It takes
    the truncated multipole expansions of the far lists of levels 0..j and
    of its own and the two adjacent level-j bins, all at separation ratio
    <= ~1/3, and sums no source directly.  A target that meets no level
    takes the far lists of every level and sums the sources of its own and
    the two adjacent leaf bins directly.

    The targets with one stop level and bin share their lists.  In blocks
    of at most _EVAL_CHUNK of them, one matrix product of the near weights
    and the bins' moments with the column-major [1/(y - s); powers of
    rad / (y - c)] gives every row at once (s a near source, c a bin's
    centre).
    """
    n_rows = weights.shape[0]
    src_leaf, leaf_bounds = _leaf_bins(t_src)
    n_leaf = leaf_bounds.size - 1
    shift = n_leaf.bit_length() - _TOP_BINS.bit_length()
    table, centers, rad = _moment_tables(sources, src_leaf, leaf_bounds, weights, curve)
    far, near = _interaction_lists(np.arange(n_leaf), n_leaf, periodic)
    radii = np.repeat(rad, [n_bins for n_bins, _ in far])

    # Targets are grouped by their bin at the stop level, keyed by its
    # global index, or by leaf bin when summed directly, keyed n_total +
    # leaf.  lists[:, key] holds the global bins whose expansions the
    # group takes, padded with -1.
    def glob(n_bins, bins):
        return np.where(bins < n_bins, bins + n_bins - _TOP_BINS, -1)

    far_g = [glob(*lv) for lv in far]
    per_key = [np.concatenate(far_g[:l + 1] + [glob(*near[l])])[:, np.arange(n) << (shift - l)]
               for l, (n, _) in enumerate(far)]
    per_key.append(np.concatenate(far_g))
    width = max(g.shape[0] for g in per_key)
    lists = np.concatenate([np.pad(g, ((0, width - g.shape[0]), (0, 0)), constant_values=-1)
                            for g in per_key], axis=1)

    stop = _stop_level(gap, rad)
    level = np.minimum(stop, shift)
    t_leaf = np.minimum((np.clip(t_ys, 0.0, 1.0) * n_leaf).astype(np.intp), n_leaf - 1)
    key = (_TOP_BINS << level) - _TOP_BINS + (t_leaf >> (shift - level))
    key[stop > shift] += n_leaf
    order = np.argsort(key, kind="stable")
    group = np.searchsorted(key[order], np.arange(lists.shape[1] + 1))
    y_sorted = ys[order]

    res = np.empty((n_rows, ys.shape[0]), dtype=np.complex128)
    for k in np.flatnonzero(group[1:] > group[:-1]):
        f = lists[:, k]
        f = f[f >= 0]
        rhs = table[:, :, f].reshape(n_rows, -1)
        cols = np.arange(0)
        if k >= centers.size:
            cols = np.concatenate([np.arange(leaf_bounds[b], leaf_bounds[b + 1])
                                   for b in near[-1][1][:, k - centers.size] if b < n_leaf])
            rhs = np.concatenate([weights[:, cols], rhs], axis=1)
        s_c, c_f, r_f = sources[cols, None], centers[f, None], radii[f, None]
        for lo in range(group[k], group[k + 1], _EVAL_CHUNK):
            y = y_sorted[lo:min(lo + _EVAL_CHUNK, group[k + 1])]
            v = np.empty((rhs.shape[1], y.size), dtype=np.complex128)
            np.divide(1.0, y - s_c, out=v[:cols.size])
            powers = v[cols.size:].reshape(_MP_TERMS, f.size, y.size)
            np.divide(r_f, y - c_f, out=powers[0])
            _powers_by_doubling(powers)
            np.matmul(rhs, v, out=res[:, lo:lo + y.size])
    out = np.empty_like(res)
    out[:, order] = res
    return out


def _leaf_bins(t_src):
    """Leaf bin of each source (by sorted parameter `t_src`) and the
    source index bounds of every leaf bin."""
    n_leaf = _next_pow2(max(t_src.size // _LEAF_SOURCES, _TOP_BINS))
    src_leaf = np.minimum((t_src * n_leaf).astype(np.intp), n_leaf - 1)
    return src_leaf, np.searchsorted(src_leaf, np.arange(n_leaf + 1))


def _stop_level(gap, rad):
    """The coarsest level l with gap >= 3 rad[l] for each target, or
    rad.size for a target that meets none."""
    meets = gap[:, None] >= 3.0 * rad
    return np.where(meets.any(axis=1), meets.argmax(axis=1), rad.size)


def _powers_by_doubling(powers):
    """Fill powers[m] = powers[0]^(m+1) along the first axis, in place.

    Each pass multiplies the first k powers by the k-th, doubling the
    filled part: lg(P) array operations instead of P - 1.
    """
    k = 1
    while k < powers.shape[0]:
        n = min(k, powers.shape[0] - k)
        np.multiply(powers[:n], powers[k - 1], out=powers[k:k + n])
        k += n


def _power_table(z):
    """z^0 .. z^(_MP_TERMS - 1), stacked along a new first axis."""
    out = np.empty((_MP_TERMS,) + z.shape, dtype=np.complex128)
    out[0] = 1.0
    out[1] = z
    _powers_by_doubling(out[1:])
    return out


def _moment_tables(sources, src_leaf, leaf_bounds, weights, curve):
    """Multipole moments of every bin of every level, by an upward pass.

    Returns ``(table, centers, rad)``.  Level l has n_l = _TOP_BINS * 2^l
    bins, at global indices n_l - _TOP_BINS onward; bin b has centre
    c = curve((b + 1/2) / n_l), and rad[l] is the largest distance of a
    source from its level-l centre.  table[r, m, g] = sum over the sources
    s_k of bin g of weights[r, k] (s_k - c_g)^m / rad^(m+1); the level's
    scale rad keeps moments and powers of rad / (y - c) in range.

    Only the leaf moments are summed over sources.  A parent of centre C
    and scale R gets its child's (centre c, scale r) by the binomial
    identity (s - C)^m = sum_i C(m, i) (c - C)^(m-i) (s - c)^i, one
    (bins, P, P) matrix per level.  A source sits at parameter 0, where
    every level's first bin starts, so R is at least half a bin and
    |c - C| <= ~R/2: the translation is well conditioned.
    """
    n_leaf, P = leaf_bounds.size - 1, _MP_TERMS
    sizes = _TOP_BINS << np.arange(n_leaf.bit_length() - _TOP_BINS.bit_length() + 1)
    centers = [curve((np.arange(n) + 0.5) / n) for n in sizes]
    rad = np.array([np.max(np.abs(sources - c[src_leaf // (n_leaf // c.size)])) for c in centers])
    rad[rad == 0.0] = 1.0

    powers = _power_table((sources - centers[-1][src_leaf]) / rad[-1])
    tables = [np.empty((n_leaf, P, weights.shape[0]), dtype=np.complex128)]
    for b, (lo, hi) in enumerate(zip(leaf_bounds[:-1], leaf_bounds[1:])):
        np.matmul(powers[:, lo:hi], weights[:, lo:hi].T, out=tables[0][b])
    tables[0] /= rad[-1]
    for l in range(sizes.size - 1, 0, -1):
        # trans[p, m, (c, i)]: moment i of child c of parent p into moment m of p
        powers = _power_table((centers[l] - np.repeat(centers[l - 1], 2)) / rad[l - 1]).T
        trans = _BINOM * powers[:, _BINOM_POWER] * (rad[l] / rad[l - 1]) ** np.arange(1, P + 1)
        trans = trans.reshape(-1, 2, P, P).transpose(0, 2, 1, 3).reshape(-1, P, 2 * P)
        tables.insert(0, trans @ tables[0].reshape(-1, 2 * P, weights.shape[0]))
    return np.concatenate(tables).transpose(2, 1, 0).copy(), np.concatenate(centers), rad


def _interaction_lists(t_leaf, n_leaf, periodic):
    """Bins that targets in leaf bins `t_leaf` take at each level.

    Returns ``(far, near)``, each with one ``(n_bins, bins)`` pair per
    level, coarsest first.  In `far`, ``bins[:, t]`` are the bins whose
    multipole expansions target t takes there; in `near`, they are the
    target's own level bin and its two neighbours.  The far lists of
    levels 0..j and the level-j near list cover every leaf bin exactly
    once.  A bin index equal to the level's bin count marks a bin past the
    end of an open segment.
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
    near = [(n_bins, place((t_leaf >> (shift - li)) + np.arange(-1, 2)[:, None], n_bins))
            for li, (n_bins, _) in enumerate(far)]
    return far, near
