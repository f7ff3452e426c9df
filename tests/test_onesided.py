import numpy as np
import pytest

from quatpoly import onesided as os_
from quatpoly.errors import InfeasiblePoints, PoleCollision
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
        x = random_quaternion(rng, 1.5)
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
    fast = os_.multieval_fast(p, xs)
    naive = os_.multieval_naive(p, xs)
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


def test_double_determinant_examples():
    assert abs(os_.double_determinant([Quaternion(0), Quaternion(1)]) - 1.0) <= 1e-12
    assert os_.double_determinant([I, J, K]) <= 1e-9
    assert os_.double_determinant([I, I]) <= 1e-12
    assert not os_.vandermonde_invertible([I, J, K])
    assert os_.vandermonde_invertible([Quaternion(0), Quaternion(1)])


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


def test_nbody_pole_collision():
    with pytest.raises(PoleCollision):
        os_.nbody_multieval([0.5], [Quaternion(0.5, 1e-12, 0, 0)])
    # guard applies to the reduced point, not the raw coordinates
    os_.nbody_multieval([0.5], [Quaternion(0.5, 0.3, 0.2, 0.1)])


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
    xs = [random_quaternion(rng, 2.0) for _ in range(24)]
    verdict = os_.vandermonde_invertible(xs)
    assert verdict in (True, False)
    # desk-scale set stays decisively invertible
    xs6 = [random_quaternion(rng) for _ in range(6)]
    assert os_.vandermonde_invertible(xs6)
    bad = [xs6[0], apply_automorphism(Quaternion(1, 2, 3, 4), xs6[0]),
           apply_automorphism(Quaternion(-1, 1, 0, 2), xs6[0])]
    assert not os_.interpolation_feasible(bad)
    assert not os_.vandermonde_invertible(bad)
