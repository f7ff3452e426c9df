import numpy as np
import pytest

from quatpoly import complexpoly as cp
from quatpoly.errors import NonPowerOfTwoLength


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
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    back = cp.fft(cp.fft(x), inverse=True)
    assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))
    assert np.allclose(cp.fft(x), np.fft.fft(x), rtol=1e-10, atol=1e-10)
    assert np.allclose(cp.fft(x, inverse=True), np.fft.ifft(x), rtol=1e-10, atol=1e-10)


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


def test_fft_rejects_non_power_of_two():
    for n in (0, 3, 6, 100):
        with pytest.raises(NonPowerOfTwoLength):
            cp.fft(np.zeros(n))


def test_multipoint_examples():
    p = cp.CPoly([0, 0, 1])
    assert np.allclose(cp.multipoint_eval(p, [0, 1, 2]), [0, 1, 4], atol=1e-12)
    c = cp.CPoly([3 - 1j])
    assert np.allclose(cp.multipoint_eval(c, [5, -2j, 0.5]), [3 - 1j] * 3)


def test_multipoint_matches_horner():
    rng = np.random.default_rng(6)
    coeffs = rng.uniform(-1, 1, 201)
    pts = rng.uniform(-1, 1, 256) + 1j * rng.uniform(0, 1, 256)
    got = cp.multipoint_eval(cp.CPoly(coeffs), pts)
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
    got = cp.multipoint_eval(cp.CPoly(coeffs), pts)
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
    got = cp.multipoint_eval(cp.CPoly(coeffs), pts)
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
    p = cp.CPoly(coeffs)
    clusters = np.exp(1j * (rng.uniform(0, 0.03, n // 2) + rng.integers(0, 5, n // 2)))
    spread = rng.uniform(0.5, 1.0, n - n // 2) * np.exp(1j * rng.uniform(0, np.pi, n - n // 2))
    pts = np.concatenate([clusters * rng.uniform(0.985, 1.0, n // 2), spread])
    got = cp.multipoint_eval(p, pts)
    want = horner(coeffs, pts)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9 * scale)) <= 1e-7


def test_multipole_path_radius_bands():
    rng = np.random.default_rng(21)
    n = 4096
    coeffs = rng.uniform(-1, 1, n)
    p = cp.CPoly(coeffs)
    # exact band edges and near-node radii
    pts = np.concatenate([
        0.5 * np.exp(1j * rng.uniform(0, np.pi, n // 4)),            # deep/annulus seam
        (1.0 - 1e-12) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),  # hugging the circle
        rng.uniform(0.5, 0.51, n // 4) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),
        rng.uniform(0.0, 0.5, n // 4) * np.exp(1j * rng.uniform(0, np.pi, n // 4)),
    ])
    got = cp.multipoint_eval(p, pts)
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


def charge_counts(n_leaf, periodic):
    """counts[t, b]: how often the interaction lists of a target in leaf
    bin t charge source leaf bin b, checking far-bin separation on the way."""
    leaf = np.arange(n_leaf)
    far, near = cp._interaction_lists(leaf, n_leaf, periodic)
    counts = np.zeros((n_leaf, n_leaf), dtype=int)
    for n_bins, bins in far:
        per = n_leaf // n_bins
        own = leaf // per
        for t in leaf:
            for b in bins[:, t]:
                if b == n_bins:
                    continue  # past the end of the open segment
                gap = abs(b - own[t])
                if periodic:
                    gap = min(gap, n_bins - gap)
                assert gap >= 2, (n_bins, t, b)
                counts[t, b * per:(b + 1) * per] += 1
    for t in leaf:
        for b in near[:, t]:
            if b < n_leaf:
                counts[t, b] += 1
    return counts


@pytest.mark.parametrize("n_leaf", [16, 64, 512])
def test_interaction_lists_partition_sources(n_leaf):
    # circle: every source bin is charged to every target exactly once,
    # either in some level's far list or in the leaf neighbourhood
    assert np.all(charge_counts(n_leaf, periodic=True) == 1)


@pytest.mark.parametrize("n_leaf", [16, 64, 256])
def test_line_interaction_lists_partition_sources(n_leaf):
    # open segment: bins past the ends are dropped, coverage stays exact
    assert np.all(charge_counts(n_leaf, periodic=False) == 1)
