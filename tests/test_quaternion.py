import math

import numpy as np
import pytest

from quatpoly.errors import ParseError, ZeroConjugator
from quatpoly.qarray import qmul, qmul_into
from quatpoly.quaternion import (
    BASIS, I, J, K, ONE, Quaternion, apply_automorphism, auto_equivalent,
    format_quaternion, parse_quaternion, random_quaternion, rotation_to_complex,
)


def test_basis_multiplication_table():
    # i^2 = j^2 = k^2 = -1, ij = k and cyclic, anti-commuting
    expected = {
        ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
        ("i", "j"): K, ("j", "i"): -K,
        ("j", "k"): I, ("k", "j"): -I,
        ("k", "i"): J, ("i", "k"): -J,
    }
    units = {"i": I, "j": J, "k": K}
    for (a, b), want in expected.items():
        assert units[a] * units[b] == want
    assert I * J * K == -ONE


def test_mul_examples():
    x = Quaternion(0.3, -1.2, 0.5, 2.0)
    assert ONE * x == x
    assert x * ONE == x
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_norm_multiplicative_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        a = random_quaternion(rng, 2.0)
        b = random_quaternion(rng, 2.0)
        lhs = (a * b).norm()
        rhs = a.norm() * b.norm()
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1e-300)


def test_associativity():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        a, b, c = (random_quaternion(rng, 2.0) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1e-300)


def test_conj_norm_inverse_examples():
    q = Quaternion(1, 2, 3, 4)
    assert q.conj() == Quaternion(1, -2, -3, -4)
    assert Quaternion(1, 1, 1, 1).norm() == pytest.approx(2.0)
    assert I.inverse() == -I
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def test_inverse_law():
    rng = np.random.default_rng(3)
    for _ in range(500):
        a = random_quaternion(rng, 3.0)
        if a.norm() < 1e-6:
            continue
        assert (a * a.inverse() - ONE).norm() <= 1e-12
        assert (a.inverse() * a - ONE).norm() <= 1e-12


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e100, 1e200])
def test_inverse_and_imag_norm_are_scale_free(scale):
    # |x|^2 over- or underflows at these scales; the inverse of the scaled
    # quaternion is the inverse of the unit one scaled back
    rng = np.random.default_rng(19)
    for _ in range(50):
        a = random_quaternion(rng, 3.0)
        want = a.inverse() * (1.0 / scale)
        got = (a * scale).inverse()
        assert (got - want).norm() <= 1e-15 * want.norm()
        assert (a * scale).imag_norm() == pytest.approx(a.imag_norm() * scale, rel=1e-15)
    assert Quaternion(scale).inverse() == Quaternion(1.0 / scale)
    assert Quaternion(0, 0, -scale).inverse() == Quaternion(0, 0, 1.0 / scale)
    y = rotation_to_complex(Quaternion(0.5, scale, scale, 0))[1]
    assert y.re == 0.5 and y.imag_norm() == pytest.approx(math.sqrt(2) * scale, rel=1e-15)


def test_inverse_equals_unscaled_formula_in_range():
    # the power-of-two scaling is exact, so in range nothing changes
    rng = np.random.default_rng(20)
    for _ in range(500):
        a = Quaternion(*(rng.standard_normal(4) * 10.0 ** rng.integers(-8, 8)))
        n2 = a.norm_sq()
        assert a.inverse() == Quaternion(a.re / n2, -a.im_i / n2, -a.im_j / n2, -a.im_k / n2)


def test_reals_commute_exactly():
    rng = np.random.default_rng(4)
    for _ in range(200):
        alpha = Quaternion(rng.uniform(-5, 5))
        x = random_quaternion(rng, 5.0)
        assert (alpha * x - x * alpha) == Quaternion()


def test_auto_equivalent_examples():
    assert auto_equivalent(I, J)
    assert not auto_equivalent(I, ONE + I)
    assert auto_equivalent(Quaternion(2, 3), Quaternion(2, 0, 3))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-10, 1.0, 1e100, 1e200])
def test_auto_equivalent_is_scale_free(scale):
    # the invariants are compared against TOL_EQ times the larger norm: a
    # relative difference of 1e-12 is equivalence at every scale, imaginary
    # norms 1 and 3 never are
    assert auto_equivalent(I * scale, J * scale)
    assert auto_equivalent(Quaternion(2, 3) * scale, Quaternion(2, 0, 3 + 3e-12) * scale)
    assert not auto_equivalent(Quaternion(0, 1) * scale, Quaternion(0, 0, 3) * scale)
    assert not auto_equivalent(I * scale, (ONE + I) * scale)


def test_auto_equivalent_is_equivalence_on_conjugates():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_quaternion(rng)
        samples = [a]
        for _ in range(3):
            w = random_quaternion(rng)
            if w.norm() < 1e-3:
                continue
            samples.append(apply_automorphism(w, a))
        for s in samples:
            assert auto_equivalent(s, s)
        for s in samples:
            for t in samples:
                assert auto_equivalent(s, t) == auto_equivalent(t, s)
                assert auto_equivalent(s, t)


def test_apply_automorphism_laws():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = random_quaternion(rng)
        if u.norm() < 1e-3:
            continue
        x = random_quaternion(rng, 2.0)
        y = random_quaternion(rng, 2.0)
        fx, fy = apply_automorphism(u, x), apply_automorphism(u, y)
        fxy = apply_automorphism(u, x * y)
        fsum = apply_automorphism(u, x + y)
        assert (fxy - fx * fy).norm() <= 1e-12 * max(1.0, fxy.norm())
        assert (fsum - (fx + fy)).norm() <= 1e-12 * max(1.0, fsum.norm())
        alpha = Quaternion(rng.uniform(-3, 3))
        assert (apply_automorphism(u, alpha) - alpha).norm() <= 1e-12 * max(1.0, alpha.norm())
    assert apply_automorphism(ONE, I) == I
    assert (apply_automorphism(J, -I) - I).norm() <= 1e-15
    with pytest.raises(ZeroConjugator):
        apply_automorphism(Quaternion(), I)


def test_rotation_examples():
    u, y = rotation_to_complex(Quaternion(5))
    assert u == ONE and y == Quaternion(5)
    u, y = rotation_to_complex(J)
    assert (u - Quaternion(0, 1 / math.sqrt(2), 1 / math.sqrt(2))).norm() <= 1e-15
    assert (y - I).norm() <= 1e-15
    x = Quaternion(2, 0, 0, -2)
    u, y = rotation_to_complex(x)
    assert (y - Quaternion(2, 2)).norm() <= 1e-12
    assert (apply_automorphism(u, x) - y).norm() <= 1e-12 * y.norm()


def test_rotation_randoms_and_degenerate_directions():
    rng = np.random.default_rng(7)
    cases = [random_quaternion(rng, 2.0) for _ in range(300)]
    cases += [Quaternion(0.5, -0.8, 0, 0),              # already complex, negative i
              Quaternion(0.1, -1.0, 1e-13, 0),          # near the -i direction
              Quaternion(0.1, -1.0, 0, 1e-13),
              Quaternion(-2, -3, 0, 0),
              Quaternion(4)]
    for x in cases:
        u, y = rotation_to_complex(x)
        assert abs(u.norm() - 1.0) <= 1e-12
        assert abs(y.im_j) <= 1e-12 and abs(y.im_k) <= 1e-12
        back = apply_automorphism(u, x)
        assert (back - y).norm() <= 1e-12 * max(1.0, y.norm())


def test_parse_and_format_round_trips():
    samples = ["1-2k", "i", "0", "-j", "1+2i+3j+4k", "0.5i-0.25", "2e-3k+1e2"]
    for text in samples:
        q = parse_quaternion(text)
        again = parse_quaternion(format_quaternion(q))
        assert q == again
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = random_quaternion(rng, 10.0)
        assert parse_quaternion(format_quaternion(q)) == q
        assert parse_quaternion(format_quaternion(q, digits=17)) == q


def test_parse_examples_and_errors():
    assert parse_quaternion("1 - 2 k") == Quaternion(1, 0, 0, -2)
    assert parse_quaternion("i+i") == Quaternion(0, 2)
    for bad in ["", "1+", "x", "2.5.3", "1 2", "+"]:
        with pytest.raises(ParseError):
            parse_quaternion(bad)


def test_parse_rejects_numbers_beyond_double_range():
    for bad in ["1e400", "-1e400j", "1e308+1e308"]:
        with pytest.raises(ParseError):
            parse_quaternion(bad)


def test_format_styles():
    assert format_quaternion(Quaternion()) == "0"
    assert format_quaternion(Quaternion(0, -1)) == "-i"
    assert format_quaternion(Quaternion(1.5, 0, 0, -1)) == "1.5-k"
    assert format_quaternion(BASIS[2]) == "j"


def test_qmul_complex_components_bilinear():
    # spectra carry complex components: qmul must keep them and stay
    # bilinear over the complex numbers in each argument
    rng = np.random.default_rng(18)
    a, a2, b, b2 = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
                    for _ in range(4))
    s, t = 0.7 - 1.3j, -0.2 + 2.1j
    out = qmul(a, b)
    assert out.dtype == np.complex128
    assert np.allclose(qmul(s * a + t * a2, b), s * out + t * qmul(a2, b), atol=1e-12)
    assert np.allclose(qmul(a, s * b + t * b2), s * out + t * qmul(a, b2), atol=1e-12)
    # real and imaginary parts split into four real products
    want = (qmul(a.real, b.real) - qmul(a.imag, b.imag)
            + 1j * (qmul(a.real, b.imag) + qmul(a.imag, b.real)))
    assert np.allclose(out, want, atol=1e-12)
    assert qmul([0, 1, 0, 0], [0, 0, 1, 0]).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_qmul_is_the_scalar_product():
    # the oracles and the fast paths share qmul's sign table, so it is
    # pinned, exactly, to the independent scalar Quaternion product
    rng = np.random.default_rng(22)
    pairs = [(x, y) for x in BASIS for y in BASIS]
    pairs += [(random_quaternion(rng), random_quaternion(rng)) for _ in range(100)]
    for x, y in pairs:
        assert np.array_equal(qmul(x.components(), y.components()), (x * y).components())


def test_qmul_into_is_qmul_component_first():
    # bit-identical to qmul on the component-last arrays, with `out` a
    # fresh buffer or either factor, across block boundaries
    rng = np.random.default_rng(21)
    for shape in [(1,), (7, 3), (4097,), (3, 5000)]:
        a, b = (rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
                for _ in range(2))
        want = np.moveaxis(qmul(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)), -1, 0)
        assert np.array_equal(qmul_into(a, b, np.empty_like(a)), want)
        left, right = a.copy(), b.copy()
        assert qmul_into(left, b, left) is left and np.array_equal(left, want)
        assert qmul_into(a, right, right) is right and np.array_equal(right, want)
        real = a.real.copy()
        assert np.array_equal(qmul_into(real, real, np.empty_like(real)),
                              np.moveaxis(qmul(np.moveaxis(real, 0, -1),
                                               np.moveaxis(real, 0, -1)), -1, 0))
