"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  Everything is seeded; the scaling benchmark is the only test that
takes more than a few seconds.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from quatpoly import expr as ex
from quatpoly import mappoly as mp
from quatpoly import onesided as os_
from quatpoly import seqpoly as sp
from quatpoly.cli import main
from quatpoly.errors import BracketsNotAllowed, InfeasiblePoints
from quatpoly.quaternion import (
    I, J, K, Quaternion, apply_automorphism, random_quaternion,
)

ONE = Quaternion(1)

VANISHING = "X·X·i·X·i + i·X·X·i·X - i·X·i·X·X - X·i·X·X·i"
ROOTLESS = "i·X-X·i+1"


def ball_point(rng):
    x = random_quaternion(rng)
    n = x.norm()
    return x / n if n > 1.0 else x


def test_criterion_01_vanishing_identity():
    start = time.perf_counter()
    e = ex.parse_expression(VANISHING)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        x = random_quaternion(rng)
        v, bound = ex.eval_with_bound(e, x)
        assert v.norm() <= 1e-9 * max(bound, 1e-300)
    quad = ex.expand(e)
    # scale: the four product terms have unit-size coefficients
    assert mp.coeff_scale(quad) <= 1e-9 * 1.0
    took = time.perf_counter() - start
    assert took < 1.0
    print(f"criterion 1 PASS: vanishing identity ({took:.2f}s)")


def test_criterion_02_rootless_witness():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    e = ex.parse_expression(ROOTLESS)
    assert ex.zero_test(e, 2.0 ** -20, rng) == "non-zero"
    hits = sum(ex.zero_test(e, 0.5, rng) == "non-zero" for _ in range(200))
    assert hits >= 100
    took = time.perf_counter() - start
    assert took < 1.0
    print(f"criterion 2 PASS: rootless witness, {hits}/200 rounds non-zero ({took:.2f}s)")


def test_criterion_03_convolution_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (1, 2, 7, 64, 257, 512):
        for _ in range(50):
            a = sp.random_qseq(n, rng)
            b = sp.random_qseq(n, rng)
            fast = sp.convolve_fast(a, b)
            naive = sp.convolve_naive(a, b)
            scale = max(float(np.max(np.abs(naive.comps))), 1e-300)
            worst = max(worst, float(np.max(np.abs(fast.comps - naive.comps))) / scale)
    assert worst <= 1e-9
    took = time.perf_counter() - start
    assert took < 5.0
    print(f"criterion 3 PASS: convolution fast vs naive, worst {worst:.2e} ({took:.2f}s)")


def test_criterion_04_mapping_product_homomorphism():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_coeff = 0.0
    worst_hom = 0.0
    for _ in range(20):
        da, db = rng.integers(0, 7, size=2)
        p = mp.random_quadruple(int(da), rng)
        q = mp.random_quadruple(int(db), rng)
        fast = p.mul_fast(q)
        naive = p.mul_naive(q)
        scale = max(mp.coeff_scale(naive), 1e-300)
        worst_coeff = max(worst_coeff, mp.max_coeff_diff(fast, naive) / scale)
        for _ in range(100):
            x = random_quaternion(rng)
            want = p.evaluate(x) * q.evaluate(x)
            got, bound = fast.evaluate_with_bound(x)
            worst_hom = max(worst_hom, (got - want).norm() / max(bound, 1e-300))
    assert worst_coeff <= 1e-8
    assert worst_hom <= 1e-7
    took = time.perf_counter() - start
    assert took < 10.0
    print(f"criterion 4 PASS: product homomorphism {worst_hom:.2e}, "
          f"coeff agreement {worst_coeff:.2e} ({took:.2f}s)")


def test_criterion_05_degree_law():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(100):
        da, db = rng.integers(0, 9, size=2)
        p = mp.random_quadruple(int(da), rng)
        q = mp.random_quadruple(int(db), rng)
        dp, dq = p.degree, q.degree
        assert isinstance(dp, int) and dp >= 0
        assert isinstance(dq, int) and dq >= 0
        assert p.mul_fast(q).degree == dp + dq
    took = time.perf_counter() - start
    assert took < 5.0
    print(f"criterion 5 PASS: degree additivity on 100 products ({took:.2f}s)")


def test_criterion_06_grid_evaluation():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    p = mp.random_quadruple(3, rng)
    axes = [rng.uniform(-1, 1, 3) for _ in range(4)]
    grid = p.grid_multieval(axes)
    worst = 0.0
    for idx in np.ndindex(3, 3, 3, 3):
        x = Quaternion(*(axes[m][idx[m]] for m in range(4)))
        want = np.array(p.evaluate(x).components())
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(grid[idx] - want))) / scale)
    t = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
    off = rng.uniform(-1, 1, 4)
    axes2 = [rng.uniform(-1, 1, 2) for _ in range(4)]
    agrid = p.affine_grid_multieval(t, off, axes2)
    for idx in np.ndindex(2, 2, 2, 2):
        g = np.array([axes2[m][idx[m]] for m in range(4)])
        x = Quaternion(*(t @ g + off))
        want = np.array(p.evaluate(x).components())
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = max(worst, float(np.max(np.abs(agrid[idx] - want))) / scale)
    assert worst <= 1e-8
    took = time.perf_counter() - start
    assert took < 1.0
    print(f"criterion 6 PASS: grid and affine-grid evaluation, worst {worst:.2e} ({took:.2f}s)")


def test_criterion_07_rotation_multievaluation():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for n in (4, 32, 256, 1024):
        p = os_.random_two_sided(n, rng)
        # points in the unit ball (larger points make degree-1023 values
        # overflow doubles for any algorithm), plus the degenerate
        # -i-direction regression points
        xs = [ball_point(rng) for _ in range(n)]
        xs[0] = Quaternion(0.3, -0.85, 0.0, 0.0)
        xs[1] = Quaternion(0.1, -0.6, 1e-13, 0.0)
        xs[2] = Quaternion(-0.4, -0.5, 0.0, -1e-13)
        xs[3] = Quaternion(0.25)
        fast = os_.multieval_fast(p, xs)
        naive = os_.multieval_naive(p, xs)
        scale = max(v.norm() for v in naive)
        for f, w in zip(fast, naive):
            worst = max(worst, (f - w).norm() / max(w.norm(), 1e-9 * scale))
    assert worst <= 1e-7
    took = time.perf_counter() - start
    assert took < 10.0
    print(f"criterion 7 PASS: rotation multi-evaluation, worst {worst:.2e} ({took:.2f}s)")


def test_criterion_08_sphere_zeros():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    p = os_.OneSidedPoly([ONE, Quaternion(), ONE])  # X^2 + 1
    xs = []
    for _ in range(1000):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        xs.append(Quaternion(0, *v))
    worst = max(p.horner_eval(x).norm() for x in xs)
    worst = max(worst, max(v.norm() for v in os_.multieval_fast(p, xs)))
    assert worst <= 1e-10
    took = time.perf_counter() - start
    assert took < 1.0
    print(f"criterion 8 PASS: sphere of zeros, worst residual {worst:.2e} ({took:.2f}s)")


def test_criterion_09_vandermonde_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    n_feasible = n_infeasible = 0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        kind = trial % 4  # 0, 1: generic; 2: duplicate; 3: conjugate triple
        xs = [random_quaternion(rng) for _ in range(n)]
        if kind == 2:
            xs[-1] = xs[0]
        elif kind == 3 and n >= 3:
            a = random_quaternion(rng)
            xs[0] = a
            for slot in (1, 2):
                w = random_quaternion(rng)
                while w.norm() < 1e-2:
                    w = random_quaternion(rng)
                xs[slot] = apply_automorphism(w, a)
        feasible = bool(os_.interpolation_feasible(xs))
        invertible = os_.vandermonde_invertible(xs)
        assert feasible == invertible
        planted = os_.random_one_sided(n, rng)
        ys = [planted.horner_eval(x) for x in xs]
        if feasible:
            recovered = os_.interpolate(xs, ys)
            scale = float(np.max(np.abs(planted.comps)))
            assert np.max(np.abs(recovered.comps - planted.comps)) <= 1e-6 * scale
            n_feasible += 1
        else:
            with pytest.raises(InfeasiblePoints):
                os_.interpolate(xs, ys)
            n_infeasible += 1
    assert not os_.interpolation_feasible([I, J, K])
    assert not os_.vandermonde_invertible([I, J, K])
    assert n_feasible >= 80 and n_infeasible >= 80
    took = time.perf_counter() - start
    assert took < 5.0
    print(f"criterion 9 PASS: node criterion == determinant == round-trip on "
          f"{n_feasible}+{n_infeasible} sets ({took:.2f}s)")


def test_criterion_10_nbody_kernel():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1100 + seed)
        poles = rng.uniform(-1, 1, 128)
        xs = [random_quaternion(rng) for _ in range(128)]
        fast = os_.nbody_multieval(poles, xs)
        naive = os_.nbody_naive(poles, xs)
        scale = max(v.norm() for v in naive)
        for f, w in zip(fast, naive):
            worst = max(worst, (f - w).norm() / max(w.norm(), 1e-9 * scale))
    assert worst <= 1e-7
    assert (os_.nbody_multieval([0.0], [I])[0] + I).norm() <= 1e-12
    assert (os_.nbody_multieval([1.0, -1.0], [Quaternion(3)])[0]
            - Quaternion(0.75)).norm() <= 1e-12
    took = time.perf_counter() - start
    assert took < 2.0
    print(f"criterion 10 PASS: N-body kernel over 20 seeds, worst {worst:.2e} ({took:.2f}s)")


def test_criterion_11_empirical_scaling():
    start = time.perf_counter()
    sizes = ",".join(str(1 << k) for k in range(10, 16))
    ratios = {}
    for op in ("convolve", "multieval", "nbody"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["bench", "--op", op, "--sizes", sizes,
                         "--repeats", "5", "--seed", "0"])
        assert code == 0
        rows = [ln.split(",") for ln in buf.getvalue().strip().splitlines()[1:]]
        times = [float(sec) for _, sec in rows]
        ratios[op] = [times[i + 1] / times[i] for i in range(len(times) - 1)]
        assert all(r <= 3.0 for r in ratios[op]), (op, ratios[op])
    took = time.perf_counter() - start
    assert took < 60.0
    worst = ", ".join(f"{op} {max(r):.2f}" for op, r in ratios.items())
    print(f"criterion 11 PASS: scaling ratios {worst} ({took:.1f}s)")


def test_criterion_12_expression_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(112)
    worst = 0.0
    for _ in range(100):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            factors = []
            for _ in range(int(rng.integers(1, 7))):
                if rng.random() < 0.5:
                    factors.append("X")
                else:
                    unit = ["", "i", "j", "k"][int(rng.integers(0, 4))]
                    factors.append(f"{rng.uniform(0, 2):.3f}{unit}")
            terms.append("·".join(factors))
        text = terms[0]
        for t in terms[1:]:
            text += ("+" if rng.random() < 0.5 else "-") + t
        e = ex.parse_expression(text)
        assert ex.node_count(e.root) <= 60
        quad = ex.expand(e)
        for _ in range(50):
            x = random_quaternion(rng)
            want, bound = ex.eval_with_bound(e, x)
            got = quad.evaluate(x)
            worst = max(worst, (got - want).norm() / max(bound, 1e-300))
    assert worst <= 1e-8
    with pytest.raises(BracketsNotAllowed):
        ex.expand(ex.parse_expression("(X+i)·(X-i)"))
    assert ex.zero_test(ex.parse_expression("(X+i)·(X-i)"), 0.5,
                        np.random.default_rng(0)) == "non-zero"
    took = time.perf_counter() - start
    assert took < 10.0
    print(f"criterion 12 PASS: expansion round-trip on 100 expressions, "
          f"worst {worst:.2e} ({took:.2f}s)")
