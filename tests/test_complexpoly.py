import tracemalloc

import numpy as np
import pytest

from quatpoly import complexpoly as cp


def multieval(coeffs, pts):
    """The fast path on one coefficient row."""
    return cp._multieval_rows(np.asarray(coeffs, dtype=complex)[None, :], pts)[0]


def horner(coeffs, pts):
    vals = np.zeros(len(pts), dtype=complex)
    for c in coeffs[::-1]:
        vals = vals * pts + c
    return vals


def test_fft_examples():
    assert np.allclose(cp.fft([1, 0, 0, 0]), [1, 1, 1, 1])
    c = 2.5 - 1j
    assert np.allclose(cp.fft([c, c, c, c]), [4 * c, 0, 0, 0])


def test_fft_round_trip_and_numpy_oracle():
    rng = np.random.default_rng(0)
    for n in (256, 100):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(cp.fft(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)


def test_fft_linearity_and_parseval():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lhs = cp.fft(2.0 * x - 3.5j * y)
    rhs = 2.0 * cp.fft(x) - 3.5j * cp.fft(y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))
    energy_time = np.sum(np.abs(x) ** 2)
    energy_freq = np.sum(np.abs(cp.fft(x)) ** 2) / 128
    assert abs(energy_time - energy_freq) <= 1e-10 * energy_time


def test_multipoint_examples():
    assert np.allclose(multieval([0, 0, 1], [0, 1, 2]), [0, 1, 4], atol=1e-12)
    assert np.allclose(multieval([3 - 1j], [5, -2j, 0.5]), [3 - 1j] * 3)


def test_multipoint_matches_horner():
    rng = np.random.default_rng(6)
    coeffs = rng.uniform(-1, 1, 201)
    pts = rng.uniform(-1, 1, 256) + 1j * rng.uniform(0, 1, 256)
    got = multieval(coeffs, pts)
    want = horner(coeffs, pts)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)) <= 1e-7


@pytest.mark.parametrize("n", [64, 300, 1024])
def test_multipoint_matches_horner_across_degrees(n):
    rng = np.random.default_rng(100 + n)
    coeffs = rng.uniform(-1, 1, n + 1)
    # points shaped like rotated quaternions from the unit ball
    c4 = rng.uniform(-1, 1, (n, 4))
    c4 /= np.maximum(1.0, np.linalg.norm(c4, axis=1))[:, None]
    pts = c4[:, 0] + 1j * np.linalg.norm(c4[:, 1:], axis=1)
    got = multieval(coeffs, pts)
    want = horner(coeffs, pts)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9 * scale)) <= 1e-7


def test_multipoint_points_outside_disk_and_on_nodes():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1, 1, 64)
    pts = np.concatenate([
        rng.uniform(1.0, 2.0, 40) * np.exp(1j * rng.uniform(0, np.pi, 40)),
        np.exp(-2j * np.pi * np.arange(8) / 128),   # exact sample nodes
        [0.0 + 0j, 1.0 + 0j, -1.0 + 0j],
    ])
    got = multieval(coeffs, pts)
    want = horner(coeffs, pts)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)) <= 1e-7


def test_cauchy_line_sum_matches_direct():
    rng = np.random.default_rng(9)
    src = rng.uniform(-1, 1, 5000)
    w = rng.uniform(-1, 1, 5000)
    ys = rng.uniform(-1.5, 1.5, 4000) + 1j * rng.uniform(1e-6, 1.0, 4000)
    got = cp.cauchy_line_sum(src, w, ys)
    want = np.zeros(len(ys), dtype=complex)
    for base in range(0, len(ys), 512):
        chunk = ys[base:base + 512]
        want[base:base + 512] = (w / (chunk[:, None] - src)).sum(axis=1)
    floor = 1e-9 * np.abs(w).sum()
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)) <= 1e-9


def test_multipole_path_stress_against_dense():
    # adversarial target sets for the circle hierarchy: clustered angles,
    # radii piled near the annulus edges, targets straddling bin seams
    rng = np.random.default_rng(20)
    n = 4096  # forces the multipole path (t * nodes above the dense limit)
    coeffs = rng.uniform(-1, 1, n)
    clusters = np.exp(1j * (rng.uniform(0, 0.03, n // 2) + rng.integers(0, 5, n // 2)))
    spread = rng.uniform(0.5, 1.0, n - n // 2) * np.exp(1j * rng.uniform(0, np.pi, n - n // 2))
    pts = np.concatenate([clusters * rng.uniform(0.985, 1.0, n // 2), spread])
    got = multieval(coeffs, pts)
    want = horner(coeffs, pts)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9 * scale)) <= 1e-7


def test_multipole_path_radius_bands():
    rng = np.random.default_rng(21)
    n = 4096
    coeffs = rng.uniform(-1, 1, n)
    # exact band edges and near-node radii
    pts = np.concatenate([
        0.5 * np.exp(1j * rng.uniform(0, np.pi, n // 4)),            # deep/annulus seam
        (1.0 - 1e-12) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),  # hugging the circle
        rng.uniform(0.5, 0.51, n // 4) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),
        rng.uniform(0.0, 0.5, n // 4) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),
    ])
    got = multieval(coeffs, pts)
    want = horner(coeffs, pts)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9 * scale)) <= 1e-7


def test_cauchy_line_sum_clustered_sources():
    # clustered poles leave most bins empty; hierarchy must still agree
    rng = np.random.default_rng(22)
    src = np.concatenate([rng.uniform(0, 0.01, 3000),
                          rng.uniform(0.9, 0.91, 3000),
                          rng.uniform(-1, 1, 200)])
    w = rng.uniform(-1, 1, src.size)
    ys = np.concatenate([rng.uniform(-1.2, 1.2, 1500) + 1j * rng.uniform(1e-4, 1.0, 1500),
                         rng.uniform(0, 0.02, 500) + 1j * rng.uniform(0.001, 0.01, 500)])
    got = cp.cauchy_line_sum(src, w, ys)
    want = np.zeros(len(ys), dtype=complex)
    for base in range(0, len(ys), 256):
        chunk = ys[base:base + 256]
        want[base:base + 256] = (w / (chunk[:, None] - src)).sum(axis=1)
    floor = 1e-9 * np.abs(w).sum()
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)) <= 1e-8


def test_clustered_targets_bounded_memory():
    # every target in one leaf bin: the hierarchy works through them in
    # blocks, so its memory does not grow with the size of the cluster
    rng = np.random.default_rng(30)
    n = 1 << 14
    rows = rng.uniform(-1, 1, (4, n)).astype(complex)
    ys = rng.uniform(0.5, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi / 512, n))
    tracemalloc.start()
    try:
        got = cp._circle_eval_rows(rows, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    pick = rng.choice(n, 64, replace=False)
    want = cp._horner_rows(rows, ys[pick])
    assert np.max(np.abs(got[:, pick] - want)) <= 1e-10 * np.max(np.abs(want))


def test_multipole_targets_on_leaf_boundaries():
    # targets at curve parameter k / n_leaf sit on the seam of two leaf
    # bins; either side's lists must give the dense sum, for all 16 rows
    rng = np.random.default_rng(31)
    N = 1 << 13
    nodes = cp._circle_nodes(N)
    w = rng.standard_normal((16, N)) + 1j * rng.standard_normal((16, N))
    n_leaf = N // cp._LEAF_SOURCES
    seams = np.exp(-2j * np.pi * np.arange(n_leaf) / n_leaf)
    ys = (rng.uniform(0.5, 0.99, (8, 1)) * seams).ravel()
    got = cp._cauchy_multipole(w, nodes, ys)
    want = cp._cauchy_dense(w, nodes, ys)
    scale = np.abs(w) @ (1.0 / np.abs(ys[:, None] - nodes)).T
    assert np.max(np.abs(got - want) / scale) <= 1e-10


def test_cauchy_line_sum_targets_beyond_segment_ends():
    # targets past either end of the open segment: the bins beyond it are
    # dropped from their lists
    rng = np.random.default_rng(32)
    src = rng.uniform(-1, 1, 5000)
    w = rng.uniform(-1, 1, 5000)
    re = np.concatenate([rng.uniform(-4, -1.01, 1000), rng.uniform(1.01, 4, 1000)])
    ys = re + 1j * rng.uniform(0, 1, 2000)
    got = cp.cauchy_line_sum(src, w, ys)
    want = cp._cauchy_dense(w, src, ys)
    scale = (np.abs(w) / np.abs(ys[:, None] - src)).sum(axis=1)
    assert np.max(np.abs(got - want) / scale) <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_cauchy_line_sum_is_scale_free(scale):
    # the hierarchy scales each level's moments: unscaled, the twentieth
    # power of 1/(y - c) overflows or the moments underflow long before
    # the sources and targets leave the double range
    rng = np.random.default_rng(33)
    src = scale * rng.uniform(-1, 1, 5000)
    w = rng.uniform(-1, 1, 5000)
    ys = scale * (rng.uniform(-1.2, 1.2, 2000) + 1j * rng.uniform(1e-3, 1, 2000))
    got = cp.cauchy_line_sum(src, w, ys)
    want = cp._cauchy_dense(w, src, ys)
    bound = (np.abs(w) / np.abs(ys[:, None] - src)).sum(axis=1)
    assert np.max(np.abs(got - want) / bound) <= 1e-10


def charge_counts(n_leaf, periodic, stop):
    """counts[t, b]: how often the lists of a target in leaf bin t that
    stops at level `stop` charge source leaf bin b, through the far lists of
    levels 0..stop and the level-`stop` near list; far bins are checked to
    be at least two bins from the target's own on the way."""
    leaf = np.arange(n_leaf)
    far, near = cp._interaction_lists(leaf, n_leaf, periodic)
    counts = np.zeros((n_leaf, n_leaf), dtype=int)
    for level, (n_bins, bins) in enumerate(far[:stop + 1] + [near[stop]]):
        per = n_leaf // n_bins
        own = leaf // per
        for t in leaf:
            for b in bins[:, t]:
                if b == n_bins:
                    continue  # past the end of the open segment
                if level <= stop:
                    gap = abs(b - own[t])
                    if periodic:
                        gap = min(gap, n_bins - gap)
                    assert gap >= 2, (n_bins, t, b)
                counts[t, b * per:(b + 1) * per] += 1
    return counts


def n_levels(n_leaf):
    return n_leaf.bit_length() - cp._TOP_BINS.bit_length() + 1


@pytest.mark.parametrize("n_leaf", [16, 64, 512])
def test_interaction_lists_partition_sources(n_leaf):
    # circle: at every stop level, each source bin is charged to every
    # target exactly once, in some level's far list or in the near list
    for stop in range(n_levels(n_leaf)):
        assert np.all(charge_counts(n_leaf, True, stop) == 1), stop


@pytest.mark.parametrize("n_leaf", [16, 64, 256])
def test_line_interaction_lists_partition_sources(n_leaf):
    # open segment: bins past the ends are dropped, coverage stays exact
    for stop in range(n_levels(n_leaf)):
        assert np.all(charge_counts(n_leaf, False, stop) == 1), stop


def circle_hierarchy(N):
    nodes = cp._circle_nodes(N)
    return nodes, np.arange(N) / N, lambda t: np.exp(-2j * np.pi * t)


def line_hierarchy(src):
    src = np.sort(src)
    lo, span = src[0], src[-1] - src[0]
    return src, (src - lo) / span, lambda t: lo + t * span, lambda x: (x - lo) / span


def multipole_ratios(sources, t_src, curve, ys, t_ys, gap, periodic):
    """rad / |y - c| over every (target, bin) pair that a target takes as a
    multipole: (far-list ratios, ratios of the stop level's near bins)."""
    src_leaf, bounds = cp._leaf_bins(t_src)
    n_leaf = bounds.size - 1
    _, centers, rad = cp._moment_tables(sources, src_leaf, bounds, np.ones((1, t_src.size)),
                                        curve)
    t_leaf = np.minimum((np.clip(t_ys, 0, 1) * n_leaf).astype(int), n_leaf - 1)
    far, near = cp._interaction_lists(t_leaf, n_leaf, periodic)
    stop = cp._stop_level(gap, rad)
    far_ratios, near_ratios = [0.0], [0.0]
    for level, ((n_bins, fb), (_, nb)) in enumerate(zip(far, near)):
        for bins, taken, ratios in ((fb, stop >= level, far_ratios),
                                    (nb, stop == level, near_ratios)):
            real = (bins < n_bins) & taken
            c = centers[n_bins - cp._TOP_BINS + np.minimum(bins, n_bins - 1)]
            r = rad[level] / np.abs(ys - c)
            ratios.append(np.max(r[real], initial=0.0))
    return max(far_ratios), max(near_ratios)


def test_multipole_bins_separated_from_their_targets():
    # a bin taken as a multipole lies at least 3 rad from the target: the
    # stop rule guarantees it for the stop level's own and adjacent bins,
    # and the far lists' two-bin gap does on the line; on the circle the
    # chord to a far bin is shorter than its arc, which costs ~6% at level 0
    rng = np.random.default_rng(40)
    nodes, t_src, curve = circle_hierarchy(1 << 13)
    ys = rng.uniform(0.5, 1.0, 20000) * np.exp(2j * np.pi * rng.uniform(0, 1, 20000))
    t_ys = np.mod(-np.angle(ys) / (2 * np.pi), 1.0)
    far_r, near_r = multipole_ratios(nodes, t_src, curve, ys, t_ys, 1 - np.abs(ys), True)
    assert near_r <= 1 / 3 and far_r <= 0.36, (near_r, far_r)
    src, t_src, curve, param = line_hierarchy(rng.uniform(-1, 1, 5000))
    ys = rng.uniform(-3, 3, 20000) + 1j * rng.uniform(0, 1, 20000)
    far_r, near_r = multipole_ratios(src, t_src, curve, ys, param(ys.real),
                                     np.abs(ys.imag), False)
    assert near_r <= 1 / 3 and far_r <= 1 / 3, (near_r, far_r)


def clustered_sources(rng):
    # the poles of test_cauchy_line_sum_clustered_sources
    return np.concatenate([rng.uniform(0, 0.01, 3000), rng.uniform(0.9, 0.91, 3000),
                           rng.uniform(-1, 1, 200)])


def level_radii(sources, t_src, curve):
    src_leaf, bounds = cp._leaf_bins(t_src)
    return cp._moment_tables(sources, src_leaf, bounds, np.ones((1, t_src.size)), curve)[2]


def seam_gaps(rad):
    # gap = 3 rad_j (1 -+ 1e-9): just short of level j and just inside it
    return np.concatenate([3 * r * np.array([1 - 1e-9, 1 + 1e-9]) for r in rad])


def test_circle_targets_on_stop_level_seams():
    rng = np.random.default_rng(41)
    nodes, t_src, curve = circle_hierarchy(1 << 14)
    rad = level_radii(nodes, t_src, curve)
    gaps = seam_gaps(rad)
    ys = ((1 - gaps)[:, None] * np.exp(2j * np.pi * rng.uniform(0, 1, (gaps.size, 64)))).ravel()
    assert np.array_equal(np.unique(cp._stop_level(1 - np.abs(ys), rad)),
                          np.arange(rad.size + 1))
    w = rng.standard_normal((2, nodes.size)) + 1j * rng.standard_normal((2, nodes.size))
    got = cp._cauchy_multipole(w, nodes, ys)
    want = cp._cauchy_dense(w, nodes, ys)
    scale = np.abs(w) @ (1.0 / np.abs(ys[:, None] - nodes)).T
    assert np.max(np.abs(got - want) / scale) <= 1e-10


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_line_targets_on_stop_level_seams(kind, scale):
    rng = np.random.default_rng(42)
    raw = rng.uniform(-1, 1, 5000) if kind == "uniform" else clustered_sources(rng)
    src, t_src, curve, _ = line_hierarchy(scale * raw)
    rad = level_radii(src, t_src, curve)
    gaps = seam_gaps(rad)
    ys = (scale * rng.uniform(-1.2, 1.2, (gaps.size, 64)) + 1j * gaps[:, None]).ravel()
    assert np.array_equal(np.unique(cp._stop_level(np.abs(ys.imag), rad)),
                          np.arange(rad.size + 1))
    w = rng.uniform(-1, 1, src.size)
    got = cp.cauchy_line_sum(src, w, ys)
    want = cp._cauchy_dense(w, src, ys)
    bound = (np.abs(w) / np.abs(ys[:, None] - src)).sum(axis=1)
    assert np.max(np.abs(got - want) / bound) <= 1e-10


def direct_moments(sources, t_src, weights, level, centers, rad):
    """Moments of every level-`level` bin, summed over its sources."""
    src_leaf, bounds = cp._leaf_bins(t_src)
    n_leaf = bounds.size - 1
    n_bins = cp._TOP_BINS << level
    b = src_leaf // (n_leaf // n_bins)
    d = (sources - centers[n_bins - cp._TOP_BINS + b]) / rad[level]
    member = (b[:, None] == np.arange(n_bins)).astype(float)
    return np.stack([(weights * d ** m / rad[level]) @ member for m in range(cp._MP_TERMS)],
                    axis=1)


@pytest.mark.parametrize("case", ["circle", "uniform", "clustered", "tiny", "huge"])
def test_translated_moments_match_direct_sums(case):
    # the upward pass translates leaf moments to every coarser level; each
    # level must agree with moments summed straight from its sources
    rng = np.random.default_rng(43)
    if case == "circle":
        sources, t_src, curve = circle_hierarchy(1 << 13)
    else:
        raw = clustered_sources(rng) if case == "clustered" else rng.uniform(-1, 1, 5000)
        scale = {"tiny": 1e-200, "huge": 1e200}.get(case, 1.0)
        sources, t_src, curve, _ = line_hierarchy(scale * raw)
    weights = rng.standard_normal((3, t_src.size)) + 1j * rng.standard_normal((3, t_src.size))
    src_leaf, bounds = cp._leaf_bins(t_src)
    table, centers, rad = cp._moment_tables(sources, src_leaf, bounds, weights, curve)
    for level in range(rad.size):
        n_bins = cp._TOP_BINS << level
        want = direct_moments(sources, t_src, weights, level, centers, rad)
        got = table[:, :, n_bins - cp._TOP_BINS:2 * n_bins - cp._TOP_BINS]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), level
