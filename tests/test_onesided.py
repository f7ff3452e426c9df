import numpy as np
import pytest

from quatpoly import onesided as os_
from quatpoly import seqpoly as sp
from quatpoly.errors import InfeasiblePoints, NonFiniteValue, NumericallySingular, PoleCollision
from quatpoly.qarray import to_quaternions
from quatpoly.quaternion import (
    I, J, K, Quaternion, apply_automorphism, random_quaternion, rotation_to_complex,
)

ONE = Quaternion(1)


def unit_imaginary(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return Quaternion(0, *v)


def ball_point(rng):
    x = random_quaternion(rng)
    n = x.norm()
    return x / n if n > 1.0 else x


def x2_plus_1():
    return os_.OneSidedPoly([ONE, Quaternion(), ONE])


def test_degree_definition():
    assert os_.OneSidedPoly().degree == -1
    assert os_.OneSidedPoly([Quaternion()]).degree == -1
    assert os_.OneSidedPoly([Quaternion(), I]).degree == 1


def test_horner_examples():
    p = x2_plus_1()
    assert p.horner_eval(Quaternion(0, 0.6, 0.8, 0)).norm() <= 1e-12
    c = os_.OneSidedPoly([Quaternion(3, -1, 2, 0.5)])
    assert c.horner_eval(random_quaternion(np.random.default_rng(0))) == c[0]


def test_horner_matches_power_sums():
    rng = np.random.default_rng(1)
    p = os_.random_one_sided(11, rng)
    for _ in range(30):
        x = random_quaternion(rng)
        want = Quaternion()
        power = ONE
        for l in range(11):
            if l:
                power = power * x
            want = want + p[l] * power
        got = p.horner_eval(x)
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


def test_two_sided_and_root_form_examples():
    ts = os_.TwoSidedPoly([(Quaternion(), Quaternion()), (I, J)])
    assert (ts.two_sided_eval(K) - ONE).norm() <= 1e-15
    rf = os_.RootFormPoly(ONE, [Quaternion(2, 1, 0, 0)])
    assert rf.root_form_eval(Quaternion(2, 1, 0, 0)).norm() == 0.0
    rng = np.random.default_rng(2)
    rf = os_.RootFormPoly(random_quaternion(rng),
                          [random_quaternion(rng) for _ in range(4)])
    x = random_quaternion(rng)
    want = rf.lead
    for r in rf.roots:
        want = want * (x - r)
    assert (rf.root_form_eval(x) - want).norm() <= 1e-13


def test_decompose_to_real():
    rng = np.random.default_rng(3)
    # real one-sided input fills only the (0, 0) cell
    comps = np.zeros((5, 4))
    comps[:, 0] = rng.uniform(-1, 1, 5)
    p = os_.TwoSidedPoly.from_one_sided(os_.OneSidedPoly.from_components(comps))
    cells = os_.decompose_to_real(p)
    assert np.allclose(cells[0, 0], comps[:, 0])
    assert np.max(np.abs(cells)) == np.max(np.abs(cells[0, 0]))
    assert not np.any(cells[1:, :, :]) and not np.any(cells[0, 1:, :])
    # a single iXj term lands in exactly one cell
    single = os_.TwoSidedPoly([(Quaternion(), Quaternion()), (I, J)])
    cells = os_.decompose_to_real(single)
    assert cells[1, 2, 1] == 1.0
    cells[1, 2, 1] = 0.0
    assert not np.any(cells)


def test_decompose_recomposes():
    rng = np.random.default_rng(4)
    p = os_.random_two_sided(7, rng)
    cells = os_.decompose_to_real(p)
    basis = [ONE, I, J, K]
    for _ in range(100):
        x = random_quaternion(rng)
        want = p.two_sided_eval(x)
        got = Quaternion()
        power_vals = []
        power = ONE
        for l in range(7):
            if l:
                power = power * x
            power_vals.append(power)
        for s in range(4):
            for t in range(4):
                cell_val = Quaternion()
                for l in range(7):
                    cell_val = cell_val + power_vals[l] * float(cells[s, t, l])
                got = got + basis[s] * cell_val * basis[t]
        assert (got - want).norm() <= 1e-9 * max(1.0, want.norm())


def test_rotation_conjugation_identity():
    # real-coefficient polynomials commute with the rotation: q(x) = u^-1 q(y) u
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-1, 1, 9)
    p = os_.OneSidedPoly.from_components(
        np.stack([coeffs, *(np.zeros(9),) * 3], axis=1))
    for _ in range(50):
        x = 1.5 * random_quaternion(rng)
        u, y = rotation_to_complex(x)
        qx = p.horner_eval(x)
        qy = p.horner_eval(y)
        back = apply_automorphism(u.conj(), qy)  # u^-1 . q(y) . u
        assert (qx - back).norm() <= 1e-10 * max(1.0, qx.norm())


@pytest.mark.parametrize("n", [4, 32, 256])
def test_multieval_fast_matches_naive(n):
    rng = np.random.default_rng(10 + n)
    p = os_.random_two_sided(n, rng)
    xs = [ball_point(rng) for _ in range(n)]
    xs[0] = Quaternion(0.3, -0.9, 0, 0)
    if n >= 4:
        xs[1] = Quaternion(0.1, -0.5, 1e-13, 0)
        xs[2] = Quaternion(-0.2)
        xs[3] = Quaternion(0.4, 0.1, 0, 0)
    # the lower half-plane and real points keep u = 1, the degenerate
    # axis takes u = j; both polynomial kinds lift through the same table
    for poly in (p, os_.random_one_sided(n, rng)):
        fast = os_.multieval_fast(poly, xs)
        naive = os_.multieval_naive(poly, xs)
        for f, w in zip(fast, naive):
            assert (f - w).norm() <= 1e-7 * max(w.norm(), 1e-9)


def test_multieval_one_sided_and_real_points():
    rng = np.random.default_rng(6)
    p = os_.random_one_sided(20, rng)
    xs = [Quaternion(v) for v in rng.uniform(-1, 1, 40)]
    fast = os_.multieval_fast(p, xs)
    for f, x in zip(fast, xs):
        w = p.horner_eval(x)
        assert (f - w).norm() <= 1e-9 * max(1.0, w.norm())


def test_multieval_sphere_roots():
    rng = np.random.default_rng(7)
    p = x2_plus_1()
    xs = [unit_imaginary(rng) for _ in range(64)]
    for v in os_.multieval_fast(p, xs):
        assert v.norm() <= 1e-9
    for x in xs:
        assert p.horner_eval(x).norm() <= 1e-9


def test_interpolation_feasible():
    assert not os_.interpolation_feasible([I, J, K])
    assert os_.interpolation_feasible([Quaternion(1), Quaternion(2), Quaternion(3)])
    assert not os_.interpolation_feasible([I, I])
    res = os_.interpolation_feasible([I, J, K])
    assert "equivalent" in res.reason


def test_interpolation_feasible_chain():
    # a ~ b and b ~ c within TOL_EQ times the largest node norm, sqrt(2),
    # a and c apart: one class of three nodes
    a = Quaternion(1, 1)
    b = Quaternion(1 + 0.9e-9, 0, 1)
    c = Quaternion(1 + 1.8e-9, 0, 0, 1)
    assert os_.interpolation_feasible([a, b])
    assert os_.interpolation_feasible([a, c])
    for xs in ([a, b, c], [a, c, b], [b, c, a]):
        res = os_.interpolation_feasible(xs)
        assert not res and "equivalent" in res.reason
        assert res.reason.endswith("0, 1, 2")
    # the first coinciding pair in lexicographic order is reported
    assert os_.interpolation_feasible([I, J, I, J]).reason == "points 0 and 2 coincide"


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-10, 1e100, 1e200])
def test_interpolation_feasible_is_scale_free(scale):
    # the tolerance is relative to the largest node norm, and no distance
    # is squared: scaling every node keeps the verdict
    rng = np.random.default_rng(31)
    generic = rng.uniform(-1, 1, (6, 4))
    pair = np.vstack([generic, [[0.5, 0.6, 0, 0.8], [0.5, -0.6, 0.8, 0]]])
    duplicate = np.vstack([generic, generic[2]])
    triple = np.vstack([[[0.5, 1, 0, 0], [0.5, 0, 1, 0]], generic, [[0.5, 0, 0, 1]]])
    for reason, nodes in [("", generic), ("", pair), ("points 2 and 6 coincide", duplicate),
                          ("three points are automorphically equivalent: 0, 1, 8", triple)]:
        assert os_.interpolation_feasible(nodes).reason == reason
        assert os_.interpolation_feasible(nodes * scale).reason == reason


def test_vandermonde_matches_quaternion_powers():
    rng = np.random.default_rng(17)
    xs = [random_quaternion(rng) for _ in range(7)]
    want = np.zeros((7, 7, 4))
    for l, x in enumerate(xs):
        power = ONE
        for m in range(7):
            if m:
                power = power * x
            want[l, m] = power.components()
    got = os_._vandermonde(np.array([x.components() for x in xs]))
    np.testing.assert_array_equal(got, want)


def test_double_determinant_examples():
    assert abs(os_.double_determinant([Quaternion(0), Quaternion(1)]) - 1.0) <= 1e-12
    assert os_.double_determinant([I, J, K]) <= 1e-9
    assert os_.double_determinant([I, I]) <= 1e-12
    assert os_.vandermonde_invertible([I, J, K]) is False
    assert os_.vandermonde_invertible([Quaternion(0), Quaternion(1)]) is True


def test_complex_rep_is_multiplicative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_quaternion(rng)
        b = random_quaternion(rng)
        ra = os_._complex_rep(np.array([[a.components()]]))
        rb = os_._complex_rep(np.array([[b.components()]]))
        rab = os_._complex_rep(np.array([[(a * b).components()]]))
        assert np.max(np.abs(ra @ rb - rab)) <= 1e-12 * max(1.0, np.max(np.abs(rab)))


def test_interpolate_two_points():
    rng = np.random.default_rng(9)
    y0, y1 = random_quaternion(rng), random_quaternion(rng)
    p = os_.interpolate([Quaternion(0), Quaternion(1)], [y0, y1])
    assert (p[0] - y0).norm() <= 1e-12
    assert (p[1] - (y1 - y0)).norm() <= 1e-12


def test_interpolate_rejects_infeasible():
    with pytest.raises(InfeasiblePoints):
        os_.interpolate([I, J, K], [ONE, ONE, ONE])
    with pytest.raises(ValueError):
        os_.interpolate([I], [ONE, ONE])


def test_interpolate_round_trip():
    rng = np.random.default_rng(10)
    xs = [random_quaternion(rng) for _ in range(8)]
    planted = os_.random_one_sided(8, rng)
    ys = [planted.horner_eval(x) for x in xs]
    recovered = os_.interpolate(xs, ys)
    scale = np.max(np.abs(planted.comps))
    assert np.max(np.abs(recovered.comps - planted.comps)) <= 1e-6 * scale


def test_interpolate_checks_its_residual():
    # random nodes in the 0.9-ball: the LU pivot guard passes at both sizes,
    # but at n=60 the solution misses the values by far more than 1e-8
    def ball(rng):
        while True:
            c = rng.uniform(-0.9, 0.9, 4)
            if np.linalg.norm(c) <= 0.9:
                return Quaternion(*c)

    for n in (20, 60):
        rng = np.random.default_rng(0)
        xs = [ball(rng) for _ in range(n)]
        ys = [random_quaternion(rng) for _ in range(n)]
        if n == 60:
            with pytest.raises(NumericallySingular, match="residual"):
                os_.interpolate(xs, ys)
        else:
            p = os_.interpolate(xs, ys)
            worst = max((g - y).norm() for g, y in zip(os_.multieval_naive(p, xs), ys))
            assert worst <= 1e-8 * max(y.norm() for y in ys)


def test_interpolate_round_trip_on_circle_images():
    # one node per conjugacy class, images e^(i pi k/64) on the unit circle
    rng = np.random.default_rng(18)
    n = 64
    ang = np.pi * np.arange(n) / n
    xs = [float(np.cos(t)) + float(np.sin(t)) * unit_imaginary(rng) for t in ang]
    planted = os_.random_one_sided(n, rng)
    recovered = os_.interpolate(xs, os_.multieval_naive(planted, xs))
    assert np.max(np.abs(recovered.comps - planted.comps)) <= 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
def test_interpolate_is_scale_free(scale):
    # solved on the unscaled powers, these nodes raised NumericallySingular
    # on pivot ratios near 1e-15 at 1e-3 and 1e3, and 1e-30 at 1e-6 and 1e6;
    # squared residual norms overflowed at values of 1e200 and underflowed
    # to 0 at 1e-200, where the residual check accepted any answer
    rng = np.random.default_rng(41)
    xs = scale * rng.uniform(-1.0, 1.0, (6, 4))
    ys = rng.uniform(-1.0, 1.0, (6, 4))
    for value_scale in (1.0, 1e-200, 1e200):
        got = os_.multieval_naive(os_.interpolate(xs, value_scale * ys), xs)
        err = np.max(np.abs([q.components() for q in got] - value_scale * ys))
        assert err <= 1e-12 * value_scale


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs, ys, culprit", [
    ([Quaternion(0), Quaternion(0.5, np.inf)], [ONE, ONE], "node 1"),
    ([Quaternion(0), Quaternion(1)], [ONE, Quaternion(np.nan)], "value 1"),
    # finite, but its square overflows
    ([Quaternion(0), Quaternion(1e200), Quaternion(1, 1)], [ONE] * 3, "node 1"),
    # every node scaled by 1e70: the fifth powers overflow
    (1e70 * np.random.default_rng(41).uniform(-1.0, 1.0, (6, 4)), np.ones((6, 4)), "node"),
])
def test_interpolate_rejects_non_finite(xs, ys, culprit):
    with pytest.raises(NonFiniteValue, match=culprit):
        os_.interpolate(xs, ys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("criterion", [os_.double_determinant, os_.vandermonde_invertible])
@pytest.mark.parametrize("xs", [
    [Quaternion(0), Quaternion(np.nan)],
    # finite, but its square overflows
    [Quaternion(0), Quaternion(1e200), Quaternion(1, 1)],
])
def test_determinant_criteria_reject_non_finite_nodes(criterion, xs):
    with pytest.raises(NonFiniteValue, match="node 1"):
        criterion(xs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs", [
    [Quaternion(np.nan), ONE, Quaternion(2)],
    [Quaternion(np.inf), ONE],
    np.array([[0.0, -np.inf, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]),
])
def test_interpolation_feasible_rejects_non_finite_nodes(xs):
    with pytest.raises(NonFiniteValue, match="node 0"):
        os_.interpolation_feasible(xs)


@pytest.mark.parametrize("shape", [(3, 5), (3, 3), (4,)])
def test_interpolation_feasible_rejects_misshapen_nodes(shape):
    # the rows of an array are nodes only when it is (n, 4)
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        os_.interpolation_feasible(np.arange(np.prod(shape), dtype=float).reshape(shape))


def test_interpolating_zeros_gives_zero_polynomial():
    # vanishing at deg+1 distinct reals forces every coefficient to zero
    rng = np.random.default_rng(11)
    xs = [Quaternion(v) for v in np.linspace(-1, 1, 6)]
    p = os_.interpolate(xs, [Quaternion()] * 6)
    assert np.max(np.abs(p.comps)) <= 1e-8


def test_nbody_hand_cases():
    assert (os_.nbody_multieval([0.0], [I])[0] + I).norm() <= 1e-12
    got = os_.nbody_multieval([1.0, -1.0], [Quaternion(3)])[0]
    assert (got - Quaternion(0.75)).norm() <= 1e-12


def test_nbody_matches_naive():
    rng = np.random.default_rng(12)
    poles = rng.uniform(-1, 1, 128)
    xs = [random_quaternion(rng) for _ in range(128)]
    fast = os_.nbody_multieval(poles, xs)
    naive = os_.nbody_naive(poles, xs)
    for f, w in zip(fast, naive):
        assert (f - w).norm() <= 1e-7 * max(w.norm(), 1e-9)


def test_nbody_naive_is_the_sum_of_scalar_inverses():
    rng = np.random.default_rng(28)
    poles = rng.uniform(-1, 1, 40)
    xs = [random_quaternion(rng) for _ in range(30)] + [Quaternion(0.25), Quaternion(0, 2)]
    for x, got in zip(xs, os_.nbody_naive(poles, xs)):
        want = Quaternion()
        for a in poles:
            want = want + (x - Quaternion(a)).inverse()
        assert got == want
    with pytest.raises(ZeroDivisionError, match="point 1 is the pole 0.5"):
        os_.nbody_naive([0.0, 0.5], [Quaternion(1), Quaternion(0.5)])


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_nbody_naive_is_scale_free(scale):
    # sum (x s - a s)^-1 = sum (x - a)^-1 / s, where |x - a|^2 s^2 leaves
    # the double range
    rng = np.random.default_rng(29)
    poles = rng.uniform(-1, 1, 8)
    xs = [random_quaternion(rng) for _ in range(8)]
    unit = os_.nbody_naive(poles, xs)
    scaled = os_.nbody_naive(poles * scale, [x * scale for x in xs])
    for got, want in zip(scaled, unit):
        assert (got * scale - want).norm() <= 1e-14 * want.norm()
    assert (os_.nbody_naive([0.0], [Quaternion(0, 1e-170)])[0]
            - Quaternion(0, -1e170)).norm() <= 1e-15 * 1e170


def test_nbody_multieval_at_a_huge_point():
    # |Im x| = 1.4e200 squares past the double range; the rotation takes it
    # with hypot
    x = Quaternion(0.5, 1e200, 1e200, 0)
    got = os_.nbody_multieval([0.0], [x])[0]
    want = os_.nbody_naive([0.0], [x])[0]
    assert (got - want).norm() <= 1e-12 * want.norm()
    assert (want - Quaternion(0, -5e-201, -5e-201, 0)).norm() <= 1e-15 * want.norm()


@pytest.mark.parametrize("n_poles", [16, 1024])
def test_nbody_special_conjugators_match_naive(n_poles):
    # u = 1 at complex points in the lower half-plane and at real points
    # (here midway between adjacent poles and outside their range), u = j
    # on the degenerate axis; 1024 poles at 1024 points take the hierarchy
    rng = np.random.default_rng(13)
    poles = rng.uniform(-1, 1, n_poles)
    srt = np.sort(poles)
    special = [Quaternion(0.3, -0.9, 0, 0), Quaternion(-0.4, -0.2, 0, 0),
               Quaternion(0.7, -1e-3, 0, 0),
               Quaternion(0.5 * (srt[0] + srt[1])), Quaternion(0.5 * (srt[-2] + srt[-1])),
               Quaternion(1.5), Quaternion(-1.25),
               Quaternion(0.1, -0.5, 1e-13, 0), Quaternion(0.1, -0.5, 0, -1e-13)]
    xs = special + [random_quaternion(rng) for _ in range(1024 - len(special))]
    fast = os_.nbody_multieval(poles, xs)
    naive = os_.nbody_naive(poles, special)
    for x, f, w in zip(special, fast, naive):
        scale = sum((x - Quaternion(a)).inverse().norm() for a in poles)
        assert (f - w).norm() <= 1e-9 * scale, x
        assert (f - w).norm() <= 1e-7 * max(w.norm(), 1e-9), x


def test_nbody_pole_collision():
    with pytest.raises(PoleCollision):
        os_.nbody_multieval([0.5], [Quaternion(0.5, 1e-12, 0, 0)])
    # guard applies to the reduced point, not the raw coordinates
    os_.nbody_multieval([0.5], [Quaternion(0.5, 0.3, 0.2, 0.1)])
    # poles all at 0 leave only exact hits: 1e-300 from the pole is no hit
    with pytest.raises(PoleCollision):
        os_.nbody_multieval([0.0, 0.0], [Quaternion(1), Quaternion()])
    got = os_.nbody_multieval([0.0], [Quaternion(1e-300)])[0]
    assert (got - Quaternion(1e300)).norm() <= 1e-15 * 1e300


@pytest.mark.parametrize("pole", [-0.75, 0.125, 0.875])
def test_nbody_pole_collision_first_interior_last(pole):
    # the sorted nearest-neighbour check must see the first, an interior
    # and the last pole, approached from either side and off the axis
    poles = np.array([0.875, -0.75, 0.125, 0.5, -0.25])
    for x in (Quaternion(pole - 5e-10), Quaternion(pole + 5e-10),
              Quaternion(pole, 0, 1e-12, 0)):
        with pytest.raises(PoleCollision):
            os_.nbody_multieval(poles, [Quaternion(0.3), x])
    os_.nbody_multieval(poles, [Quaternion(pole, 0, 1e-6, 0)])


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-10, 1e100, 1e200])
def test_nbody_multieval_is_scale_free(scale):
    # the collision guard is relative to max |a_l|: 64 poles and points,
    # scaled alike, agree with the oracle, and a point 5e-10 max |a_l|
    # from a pole still collides
    rng = np.random.default_rng(30)
    poles = rng.uniform(-1, 1, 64) * scale
    xs = [scale * random_quaternion(rng) for _ in range(64)]
    fast = os_.nbody_multieval(poles, xs)
    naive = os_.nbody_naive(poles, xs)
    for f, w in zip(fast, naive):
        assert ((f - w) * scale).norm() <= 1e-7 * (w * scale).norm()
    near = Quaternion(poles[3] + 5e-10 * float(np.max(np.abs(poles))))
    with pytest.raises(PoleCollision):
        os_.nbody_multieval(poles, [near])


def test_multieval_naive_matches_literal_sums():
    rng = np.random.default_rng(14)
    p = os_.random_two_sided(9, rng)
    xs = [random_quaternion(rng) for _ in range(20)]
    for x, got in zip(xs, os_.multieval_naive(p, xs)):
        want = Quaternion()
        power = ONE
        for l in range(len(p)):
            if l:
                power = power * x
            a, b = p.term(l)
            want = want + a * power * b
        assert got == want


def test_vandermonde_invertible_stays_finite_for_large_systems():
    # the raw determinant of a 48x48 power matrix overflows doubles; the
    # log-domain comparison must still return a clean verdict
    rng = np.random.default_rng(13)
    xs = [2.0 * random_quaternion(rng) for _ in range(24)]
    verdict = os_.vandermonde_invertible(xs)
    assert verdict in (True, False)
    # desk-scale set stays decisively invertible
    xs6 = [random_quaternion(rng) for _ in range(6)]
    assert os_.vandermonde_invertible(xs6)
    bad = [xs6[0], apply_automorphism(Quaternion(1, 2, 3, 4), xs6[0]),
           apply_automorphism(Quaternion(-1, 1, 0, 2), xs6[0])]
    assert not os_.interpolation_feasible(bad)
    assert not os_.vandermonde_invertible(bad)


@pytest.mark.parametrize("entry", ["multieval", "nbody", "multieval of zero", "nbody, no poles"])
def test_non_finite_points_raise(entry):
    # the points are refused as the oracles refuse them, also where the
    # polynomial or the pole set is empty
    call = {"multieval": lambda xs: os_.multieval_fast(x2_plus_1(), xs),
            "nbody": lambda xs: os_.nbody_multieval([0.0, 0.5], xs),
            "multieval of zero": lambda xs: os_.multieval_fast(os_.OneSidedPoly(), xs),
            "nbody, no poles": lambda xs: os_.nbody_multieval([], xs)}[entry]
    # |Im x| of the last point is 2.1e308, past the double range
    for bad in (Quaternion(0.1, np.inf, 0, 0.2), Quaternion(np.nan, 0, 0, 0),
                Quaternion(0.3, 0, 0, -np.inf), Quaternion(0, 1.5e308, 1.5e308, 0)):
        xs = [Quaternion(0.3, 0.1, 0.2, 0), bad]
        for pts in (xs, np.array([x.components() for x in xs])):
            with pytest.raises(NonFiniteValue):
                call(pts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("oracle", ["multieval_naive", "nbody_naive", "multieval_naive of zero",
                                    "nbody_naive, no poles"])
def test_oracles_reject_non_finite_points(oracle):
    call = {"multieval_naive": lambda xs: os_.multieval_naive(x2_plus_1(), xs),
            "nbody_naive": lambda xs: os_.nbody_naive([0.0, 0.5], xs),
            "multieval_naive of zero": lambda xs: os_.multieval_naive(os_.OneSidedPoly(), xs),
            "nbody_naive, no poles": lambda xs: os_.nbody_naive([], xs)}[oracle]
    for bad in (Quaternion(np.inf, 1), Quaternion(0.1, np.nan, 0, 0),
                Quaternion(0.3, 0, 0, -np.inf)):
        xs = [Quaternion(0.3, 0.1, 0.2, 0), bad]
        for pts in (xs, np.array([x.components() for x in xs])):
            with pytest.raises(NonFiniteValue, match="point 1"):
                call(pts)


@pytest.mark.filterwarnings("error")
def test_non_finite_values_raise():
    # |y|^4095 overflows at |y| = 1.2, so the value is not representable;
    # the library error comes without numpy warnings on the way
    rng = np.random.default_rng(16)
    y = 1.2 * np.exp(0.7j)
    p = os_.random_one_sided(4096, rng)
    xs = [Quaternion(0.1, 0.2, 0.3, 0.1), Quaternion(y.real, y.imag)]
    with pytest.raises(NonFiniteValue):
        os_.multieval_fast(p, xs)
    # the oracle refuses the same value, naming its point
    with pytest.raises(NonFiniteValue, match="value at point 1"):
        os_.multieval_naive(p, xs)
    # and so does the two-sided evaluation at that one point
    with pytest.raises(NonFiniteValue, match="value at point 0"):
        os_.TwoSidedPoly.from_one_sided(p).two_sided_eval(xs[1])
    # and so does the root-form evaluation
    with pytest.raises(NonFiniteValue, match="value at point 0"):
        os_.RootFormPoly(Quaternion(1e300), [Quaternion(-1e300)] * 3).root_form_eval(
            Quaternion(1e300))
    # the N-body oracle refuses the poles the fast kernel refuses
    for kernel in (os_.nbody_multieval, os_.nbody_naive):
        for poles, culprit in (([0.0, np.nan], "pole 1"), ([np.inf], "pole 0")):
            with pytest.raises(NonFiniteValue, match=culprit):
                kernel(poles, [Quaternion(0.3, 0.1, 0.2, 0)])
        # poles are a 1-D sequence: a scalar or a 2-D array is not read as one
        for poles in (0.5, [[0.0, 0.5]], np.zeros((2, 1))):
            with pytest.raises(ValueError, match="1-D"):
                kernel(poles, [Quaternion(0.3, 0.1, 0.2, 0)])


def test_fast_paths_and_oracles_agree_on_empty_inputs():
    rng = np.random.default_rng(23)
    x = Quaternion(0.3, 0.1, 0.2, 0.4)
    polys = (os_.OneSidedPoly(), os_.TwoSidedPoly(),
             os_.random_one_sided(3, rng), os_.random_two_sided(3, rng))
    for p in polys:
        assert os_.multieval_fast(p, []) == os_.multieval_naive(p, []) == []
    for p in polys[:2]:
        assert os_.multieval_fast(p, [x]) == os_.multieval_naive(p, [x]) == [Quaternion()]
    assert os_.nbody_multieval([0.5, -0.5], []) == os_.nbody_naive([0.5, -0.5], []) == []
    assert os_.nbody_multieval([], [x]) == os_.nbody_naive([], [x]) == [Quaternion()]
    assert len(os_.interpolate([], [])) == 0
    empty = sp.QSeq()
    assert sp.convolve_fast(empty, empty) == sp.convolve_naive(empty, empty) == empty


def _two_sided(pts):
    if isinstance(pts, np.ndarray):
        return os_.TwoSidedPoly(left=pts, right=pts[::-1])
    return os_.TwoSidedPoly(list(zip(pts, pts[::-1])))


def _comps(qs):
    return np.array([q.components() for q in qs])


INTAKE = {
    "QSeq": lambda pts: sp.QSeq(pts).comps,
    "OneSidedPoly": lambda pts: os_.OneSidedPoly(pts).comps,
    "TwoSidedPoly": lambda pts: np.stack([_two_sided(pts).left, _two_sided(pts).right]),
    "multieval_fast": lambda pts: _comps(os_.multieval_fast(_two_sided(pts), pts)),
    "multieval_naive": lambda pts: _comps(os_.multieval_naive(_two_sided(pts), pts)),
    "nbody_multieval": lambda pts: _comps(os_.nbody_multieval([-1.5, 0.25, 1.5], pts)),
    "nbody_naive": lambda pts: _comps(os_.nbody_naive([-1.5, 0.25, 1.5], pts)),
    "interpolate": lambda pts: os_.interpolate(pts, pts[::-1]).comps,
    "interpolation_feasible": lambda pts: bool(os_.interpolation_feasible(pts)),
    "double_determinant": os_.double_determinant,
    "vandermonde_invertible": os_.vandermonde_invertible,
}


@pytest.mark.parametrize("name", sorted(INTAKE))
def test_quaternion_lists_and_component_arrays_read_alike(name):
    # every argument of quaternions is an iterable of Quaternion or its
    # (n, 4) component array, read the same way
    arr = np.random.default_rng(42).uniform(-1.0, 1.0, (6, 4))
    np.testing.assert_array_equal(INTAKE[name](to_quaternions(arr)), INTAKE[name](arr))
