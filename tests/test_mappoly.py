import tracemalloc

import numpy as np
import pytest

from quatpoly import mappoly as mp
from quatpoly import onesided as os_
from quatpoly import seqpoly as sp
from quatpoly.errors import EmptySampleSet, NonFiniteValue, ParseError, SingularTransform
from quatpoly.qarray import qmul
from quatpoly.quaternion import I, J, K, Quaternion, random_quaternion

ONE = Quaternion(1)


def ordered(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = out.mul_fast(f)
    return out


def vanishing_combination():
    # X X i X i + i X X i X - i X i X X - X i X X i, identically zero
    var = mp.QuadruplePoly.variable()
    ci = mp.QuadruplePoly.constant(I)
    t1 = ordered(var, var, ci, var, ci)
    t2 = ordered(ci, var, var, ci, var)
    t3 = ordered(ci, var, ci, var, var)
    t4 = ordered(var, ci, var, var, ci)
    return t1 + t2 - t3 - t4, (t1, t2, t3, t4)


def test_constant_and_variable():
    rng = np.random.default_rng(0)
    var = mp.QuadruplePoly.variable()
    a = random_quaternion(rng)
    const = mp.QuadruplePoly.constant(a)
    for _ in range(20):
        x = 2.0 * random_quaternion(rng)
        assert (var.evaluate(x) - x).norm() <= 1e-14 * max(1.0, x.norm())
        assert (const.evaluate(x) - a).norm() <= 1e-14
    assert var.degree == 1
    assert const.degree == 0 or a.is_zero()
    assert mp.QuadruplePoly.zero().degree == float("-inf")


def test_mul_is_order_sensitive():
    var = mp.QuadruplePoly.variable()
    ci = mp.QuadruplePoly.constant(I)
    assert mp.max_coeff_diff(var.mul_naive(ci), ci.mul_naive(var)) > 0.5
    p = mp.random_quadruple(2, np.random.default_rng(1))
    assert mp.max_coeff_diff(p.mul_naive(mp.QuadruplePoly.constant(ONE)), p) <= 1e-15


def test_mul_naive_is_the_sum_over_coefficient_pairs():
    # either factor may have the fewer live coefficients: both orders are
    # the literal sum of scalar Quaternion products
    rng = np.random.default_rng(26)
    p, q = mp.random_quadruple(1, rng), mp.random_quadruple(2, rng)
    for a, b in ((p, q), (q, p)):
        want = np.zeros(tuple(x + y - 1 for x, y in zip(a.extents, b.extents)) + (4,))
        for e in np.argwhere(np.any(a.table, axis=-1)):
            for f in np.argwhere(np.any(b.table, axis=-1)):
                prod = Quaternion(*a.table[tuple(e)]) * Quaternion(*b.table[tuple(f)])
                want[tuple(e + f)] += prod.components()
        assert np.max(np.abs(a.mul_naive(b).table - want)) <= 1e-15
        ra, rb = a.comps[1], b.comps[3]
        want = np.zeros(want.shape[:4])
        for e in np.argwhere(ra.table):
            for f in np.argwhere(rb.table):
                want[tuple(e + f)] += ra.table[tuple(e)] * rb.table[tuple(f)]
        assert np.max(np.abs(ra.mul_naive(rb).table - want)) <= 1e-15


def test_oracle_memory_is_proportional_to_the_output():
    # the schoolbook products allocate the product table and temporaries
    # of the size of one factor; no pair of coefficients is materialized
    rng = np.random.default_rng(27)
    p, q = mp.random_quadruple(8, rng), mp.random_quadruple(8, rng)
    for mul, a, b in [(mp.QuadruplePoly.mul_naive, p, q),
                      (mp.RPoly4.mul_naive, p.comps[1], q.comps[2])]:
        tracemalloc.start()
        try:
            out = mul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.table.nbytes


def test_ring_operations_are_pointwise():
    rng = np.random.default_rng(2)
    p = mp.random_quadruple(2, rng)
    q = mp.random_quadruple(3, rng)
    pq = p.mul_naive(q)
    psum = p + q
    for _ in range(100):
        x = random_quaternion(rng)
        want = p.evaluate(x) * q.evaluate(x)
        got = pq.evaluate(x)
        _, bound = pq.evaluate_with_bound(x)
        assert (got - want).norm() <= 1e-9 * max(bound, 1e-300)
        add_want = p.evaluate(x) + q.evaluate(x)
        assert (psum.evaluate(x) - add_want).norm() <= 1e-12 * max(1.0, add_want.norm())


def test_mul_fast_matches_naive():
    rng = np.random.default_rng(3)
    for da, db in [(3, 4), (0, 5), (2, 2), (6, 1)]:
        p = mp.random_quadruple(da, rng)
        q = mp.random_quadruple(db, rng)
        fast = p.mul_fast(q)
        naive = p.mul_naive(q)
        scale = mp.coeff_scale(naive)
        assert mp.max_coeff_diff(fast, naive) <= 1e-8 * scale
    z = mp.QuadruplePoly.zero()
    assert mp.random_quadruple(3, rng).mul_fast(z).is_zero()


@pytest.mark.filterwarnings("error")
def test_mul_fast_overflow_raises():
    p = mp.QuadruplePoly.constant(Quaternion(1e200, 0, 1e200, 0))
    with pytest.raises(NonFiniteValue, match="overflow"):
        p.mul_fast(p.mul_fast(mp.QuadruplePoly.variable()))


def test_mul_fast_unequal_and_prime_extents():
    # product boxes (3, 4, 3, 5) and (11, 2, 5, 13): mostly prime extents
    rng = np.random.default_rng(17)
    for ea, eb in [((3, 1, 2, 5), (1, 4, 2, 1)), ((7, 2, 3, 6), (5, 1, 3, 8))]:
        # components of one factor with different boxes of their own,
        # stored zero-padded to their common box
        parts = [mp.RPoly4(rng.uniform(-1, 1, e)) for e in (ea, eb, (1, 1, 1, 1), ea)]
        p = mp.QuadruplePoly(parts)
        box = tuple(map(max, ea, eb))
        assert p.table.shape == box + (4,)
        for part, comp in zip(parts, p.comps):
            assert np.array_equal(comp.table, part.padded(box))
            assert np.shares_memory(comp.table, p.table)
        q = mp.QuadruplePoly([mp.RPoly4(rng.uniform(-1, 1, e))
                              for e in (eb, eb, ea, (2, 1, 1, 3))])
        naive = p.mul_naive(q)
        assert mp.max_coeff_diff(p.mul_fast(q), naive) <= 1e-12 * mp.coeff_scale(naive)


@pytest.mark.filterwarnings("error")
def test_every_product_raises_on_overflow():
    big = mp.QuadruplePoly.constant(Quaternion(1e200, 0, 1e200, 0))
    p = big.mul_fast(mp.QuadruplePoly.variable())
    r = mp.RPoly4(np.full((2, 2, 2, 2), 1e200))
    for mul, a in [(mp.QuadruplePoly.mul_fast, p), (mp.QuadruplePoly.mul_naive, p),
                   (mp.RPoly4.mul_naive, r)]:
        with pytest.raises(NonFiniteValue, match="overflow"):
            mul(a, a)


def fold_points(su, sv, degree):
    return np.nonzero(np.add.outer(np.arange(su), np.arange(sv)) <= degree)


@pytest.mark.parametrize("degree", range(41))
def test_fold_is_injective_on_the_product_triangle(degree):
    full = (degree + 1, degree + 1)
    for su, sv in [full, (degree + 1, degree // 2 + 1), (degree // 3 + 1, degree + 1)]:
        n, a = mp._fold(su, sv, degree)
        u, v = fold_points(su, sv, degree)
        assert np.unique((u + a * v) % n).size == u.size, (su, sv)
        assert n <= su * sv
        if degree >= su + sv - 2:
            assert (n, a) == (su * sv, su)
    if degree % 2 == 0:
        # 3 D^2 / 4 + 3 D / 2 + 1 is the least N of any fold of the full
        # triangle (every N from |P| up scanned for even D <= 30); it is
        # attained at A = 3 D / 2 + 2
        least = 3 * degree * degree // 4 + 3 * degree // 2 + 1
        n, _ = mp._fold(*full, degree)
        assert least <= n <= 1.2 * least
        u, v = fold_points(*full, degree)
        assert np.unique((u + (3 * degree // 2 + 2) * v) % least).size == u.size


def degree_sums(shape):
    return np.indices(shape[:4]).sum(axis=0)


def test_mul_fast_is_the_unpruned_product_on_the_simplex_and_zero_beyond():
    rng = np.random.default_rng(23)
    for da, db in [(10, 10), (3, 7), (5, 2), (1, 1)]:
        p, q = mp.random_quadruple(da, rng), mp.random_quadruple(db, rng)
        got, naive = p.mul_fast(q).table, p.mul_naive(q).table
        on = degree_sums(got.shape) <= da + db
        assert got.shape == naive.shape
        assert np.max(np.abs(got[on] - naive[on])) <= 1e-13 * np.max(np.abs(naive))
        assert not np.any(got[~on])


@pytest.mark.parametrize("ea, eb", [((3, 3, 3, 3), (2, 2, 2, 2)),
                                    ((7, 2, 3, 6), (5, 1, 3, 8)),
                                    ((1, 5, 1, 2), (4, 1, 2, 1)),
                                    ((1, 1, 1, 1), (2, 3, 2, 2)),
                                    ((6, 1, 1, 1), (1, 1, 1, 6))])
def test_mul_fast_box_dense_tables(ea, eb):
    # every entry of both boxes is set, far off the simplex of the largest
    # extent; prime product extents 11, 2, 5 and 13 included
    rng = np.random.default_rng(24)
    p = mp.QuadruplePoly(rng.uniform(-1, 1, ea + (4,)))
    q = mp.QuadruplePoly(rng.uniform(-1, 1, eb + (4,)))
    naive = p.mul_naive(q)
    fast = p.mul_fast(q)
    assert fast.extents == naive.extents
    assert mp.max_coeff_diff(fast, naive) <= 1e-12 * mp.coeff_scale(naive)
    assert mp._support_degree(fast.table) == sum(ea) + sum(eb) - 8


def test_mul_fast_keeps_a_tiny_top_degree_entry():
    # 1e-300 X0^3 lies below the degree trim, yet it is in the support: a
    # transform pruned to the trimmed degree 0 would drop its fibre
    table = np.zeros((4, 1, 1, 1, 4))
    table[0, 0, 0, 0] = (1.0, 0.5, 0.0, 0.0)
    table[3, 0, 0, 0, 2] = 1e-300
    p = mp.QuadruplePoly(table)
    assert p.degree == 0 and mp._support_degree(table) == 3
    # the folded spectrum of component j is that of 1e-300 at the fold of
    # (3, 0, 0, 0), which survives the constant's other components
    folds = mp._folds((7, 4, 4, 4), 6)
    (n1, _), (n2, _) = folds
    grid = np.zeros((n1, n2))
    grid[3 % n1, 0] = 1e-300
    spec = mp._pack(table, 3, folds)
    assert np.array_equal(spec[2], np.fft.rfft2(grid))
    assert np.max(np.abs(spec[2])) == 1e-300
    q = mp.random_quadruple(3, np.random.default_rng(25))
    got, naive = p.mul_fast(q), p.mul_naive(q)
    assert mp._support_degree(got.table) == 6
    assert mp.max_coeff_diff(got, naive) <= 1e-12 * mp.coeff_scale(naive)
    tiny = mp.QuadruplePoly(np.where(degree_sums(table.shape)[..., None] == 3, table, 0.0))
    assert np.max(np.abs(tiny.mul_fast(q).table - tiny.mul_naive(q).table)) <= 1e-312


@pytest.mark.filterwarnings("error")
def test_nan_coefficient_counts_for_the_support():
    # NaN at X0^2 compares false against any floor; a scan that skipped it
    # would prune its fibre from the transform and return a finite product
    table = np.zeros((3, 1, 1, 1, 4))
    table[0, 0, 0, 0, 0] = 1.0
    table[2, 0, 0, 0, 1] = np.nan
    assert mp._support_degree(table) == 2
    with pytest.raises(NonFiniteValue):
        mp.QuadruplePoly(table).mul_fast(mp.QuadruplePoly.variable())


def test_mul_fast_constant_factor_is_the_broadcast_product():
    rng = np.random.default_rng(26)
    p = mp.random_quadruple(4, rng)
    c = mp.QuadruplePoly.constant(random_quaternion(rng))
    assert np.array_equal(c.mul_fast(p).table, qmul(c.table, p.table))
    assert np.array_equal(p.mul_fast(c).table, qmul(p.table, c.table))
    assert np.array_equal(c.mul_fast(c).table, qmul(c.table, c.table))
    assert c.mul_fast(mp.QuadruplePoly.zero()).is_zero()


@pytest.mark.parametrize("shape", [(2, 2, 2, 2, 3), (2, 2, 2, 4), (2, 2, 2, 2, 2, 4)])
def test_table_must_be_five_dimensional_with_four_components(shape):
    with pytest.raises(ValueError):
        mp.QuadruplePoly(np.zeros(shape))
    # and a component table has four exponent axes, a quadruple four components
    with pytest.raises(ValueError, match="4-dimensional"):
        mp.RPoly4(np.zeros(shape[:3]))
    with pytest.raises(ValueError, match="four RPoly4"):
        mp.QuadruplePoly([mp.RPoly4(np.zeros(shape[:4]))] * 3)


def test_degree_examples_and_additivity():
    rng = np.random.default_rng(4)
    # product shaped a1 + X a2 X X a3 + a4 X X X a5 has degree 3
    var = mp.QuadruplePoly.variable()
    consts = [mp.QuadruplePoly.constant(random_quaternion(rng)) for _ in range(5)]
    e = consts[0] + ordered(var, consts[1], var, var, consts[2]) \
        + ordered(consts[3], var, var, var, consts[4])
    assert e.degree == 3
    for _ in range(40):
        da, db = rng.integers(0, 5, size=2)
        p = mp.random_quadruple(int(da), rng)
        q = mp.random_quadruple(int(db), rng)
        assert p.mul_fast(q).degree == int(da) + int(db)


def test_four_squares_identity():
    # the norm N(p) = p conj(p), the sum of the squared components, is
    # multiplicative: N(pq) = N(p) N(q)
    rng = np.random.default_rng(5)

    def norm(quad):
        conj = mp.QuadruplePoly(quad.table * (1.0, -1.0, -1.0, -1.0))
        return quad.mul_fast(conj)

    for _ in range(5):
        p = mp.random_quadruple(2, rng)
        q = mp.random_quadruple(3, rng)
        lhs = norm(p.mul_fast(q))
        rhs = norm(p).mul_fast(norm(q))
        assert np.max(np.abs(lhs.table[..., 1:])) <= 1e-12 * mp.coeff_scale(lhs)
        assert mp.max_coeff_diff(lhs, rhs) <= 1e-12 * mp.coeff_scale(rhs)


def test_component_projections_from_ring_operations():
    # (X - iXi - jXj - kXk)/4 realizes the first-component projection,
    # and multiplying by basis constants walks it through the others
    var = mp.QuadruplePoly.variable()
    units = [mp.QuadruplePoly.constant(q) for q in (I, J, K)]
    re_proj = (var - ordered(units[0], var, units[0])
               - ordered(units[1], var, units[1])
               - ordered(units[2], var, units[2])).scale(0.25)
    target = mp.QuadruplePoly([mp.RPoly4.axis_variable(0), mp.RPoly4.zero(),
                               mp.RPoly4.zero(), mp.RPoly4.zero()])
    assert mp.max_coeff_diff(re_proj, target) <= 1e-12
    # Im_i extraction is the real part of -i X; check pointwise
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = random_quaternion(rng)
        assert abs(re_proj.evaluate(x).re - x.re) <= 1e-12
        v = (mp.QuadruplePoly.constant(-I).mul_fast(var)).evaluate(x)
        assert abs(v.re - x.im_i) <= 1e-12


def test_vanishing_combination_is_zero():
    z, terms = vanishing_combination()
    scale = max(mp.coeff_scale(t) for t in terms)
    assert mp.coeff_scale(z) <= 1e-9 * scale
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = random_quaternion(rng)
        v, bound = z.evaluate_with_bound(x)
        # the bound of the cancelled quadruple is tiny; judge against terms
        tscale = sum(t.evaluate_with_bound(x)[1] for t in terms)
        assert v.norm() <= 1e-9 * max(tscale, 1e-300)


def test_evaluate_examples():
    target = mp.QuadruplePoly([mp.RPoly4.axis_variable(0), mp.RPoly4.zero(),
                               mp.RPoly4.zero(), mp.RPoly4.zero()])
    assert (target.evaluate(Quaternion(2, 3, -1, 0)) - Quaternion(2)).norm() <= 1e-15


def test_grid_multieval_examples():
    var = mp.QuadruplePoly.variable()
    grid = var.grid_multieval([[0.0, 1.0]] * 4)
    assert grid.shape == (2, 2, 2, 2, 4)
    for idx in np.ndindex(2, 2, 2, 2):
        assert np.allclose(grid[idx], idx, atol=1e-14)
    a = Quaternion(0.5, -1, 0, 2)
    const = mp.QuadruplePoly.constant(a)
    g = const.grid_multieval([[0.1, 7.0, -3.0], [0.0], [1.0, 2.0], [5.0]])
    assert g.shape == (3, 1, 2, 1, 4)
    assert np.allclose(g, np.array(a.components()), atol=1e-14)


def test_grid_multieval_matches_pointwise():
    rng = np.random.default_rng(8)
    random_case = mp.random_quadruple(3, rng), [rng.uniform(-1, 1, 3) for _ in range(4)]
    # integer abscissae are read as float: an int64 Vandermonde matrix
    # wraps at 3^40, inside these 45 coefficients
    integer_case = (mp.QuadruplePoly(rng.uniform(-1, 1, (45, 2, 3, 1, 4))),
                    [np.array([3, -2, 1]), np.array([2]), [0.5, -1.0], np.array([-1, 0])])
    for p, axes in (random_case, integer_case):
        grid = p.grid_multieval(axes)
        # real axes give a real, C-ordered grid
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        assert grid.shape == tuple(len(a) for a in axes) + (4,)
        for idx in np.ndindex(grid.shape[:4]):
            x = Quaternion(*(axes[m][idx[m]] for m in range(4)))
            want, bound = p.evaluate_with_bound(x)
            err = np.max(np.abs(grid[idx] - want.components()))
            assert err <= 1e-8 * max(1.0, max(map(abs, want.components())))
            assert err <= 1e-12 * bound


def test_affine_substitute():
    rng = np.random.default_rng(9)
    p = mp.random_quadruple(4, rng)
    assert mp.max_coeff_diff(p.affine_substitute(np.eye(4), np.zeros(4)), p) <= 1e-14
    # translating the first-component linear form adds the offset
    x0 = mp.QuadruplePoly([mp.RPoly4.axis_variable(0), mp.RPoly4.zero(),
                           mp.RPoly4.zero(), mp.RPoly4.zero()])
    y = np.array([0.7, 0.0, 0.0, 0.0])
    shifted = x0.affine_substitute(np.eye(4), y)
    want = mp.QuadruplePoly([mp.RPoly4.axis_variable(0) + mp.RPoly4.constant(0.7),
                             mp.RPoly4.zero(), mp.RPoly4.zero(), mp.RPoly4.zero()])
    assert mp.max_coeff_diff(shifted, want) <= 1e-14
    # the zero matrix leaves the constant p(offset)
    off = rng.uniform(-1, 1, 4)
    const = p.affine_substitute(np.zeros((4, 4)), off)
    assert const.degree == 0
    value = p.evaluate(Quaternion(*off))
    assert mp.max_coeff_diff(const, mp.QuadruplePoly.constant(value)) <= 1e-14 * value.norm()


def _affine_matrices():
    rng = np.random.default_rng(16)
    rand = rng.uniform(-1, 1, (4, 4))
    return {
        # unit lower with |l_ij| < 1: partial pivoting leaves P = U = I
        "lower": np.eye(4) + np.tril(rng.uniform(-0.9, 0.9, (4, 4)), -1),
        "upper": np.triu(rng.uniform(-1, 1, (4, 4))),
        # a 4-cycle, so a permutation applied inverted shows
        "permutation": np.eye(4)[[2, 0, 3, 1]],
        "zeros": np.zeros((4, 4)),
        "rank2": rng.uniform(-1, 1, (4, 2)) @ rng.uniform(-1, 1, (2, 4)),
        "small": 5e-4 * np.eye(4),
        "random": rand,
        "random+2I": rand + 2.0 * np.eye(4),
    }


AFFINE_MATRICES = _affine_matrices()


def _lu_inputs():
    rng = np.random.default_rng(19)
    randoms = [(f"random {k}", rng.uniform(-1, 1, (4, 4))) for k in range(200)]
    return list(AFFINE_MATRICES.items()) + randoms + [
        # a pivot too small to invert: its multipliers are divided by it
        ("subnormal", 1e-310 * AFFINE_MATRICES["random"]),
        ("huge", 1e300 * AFFINE_MATRICES["random"]),
    ]


def test_lu_factor_contract():
    import scipy.linalg

    for name, matrix in _lu_inputs():
        order, lower, upper = mp._lu(matrix)
        assert sorted(order) == list(range(4)), name
        assert np.array_equal(np.triu(lower), np.eye(4)), name
        assert np.max(np.abs(lower)) <= 1.0, name
        assert np.array_equal(np.triu(upper), upper), name
        scale = max(np.max(np.abs(matrix)), np.finfo(float).tiny)
        err = np.max(np.abs(lower @ upper - matrix[order]))
        assert err <= 8 * np.finfo(float).eps * scale, name
        # LAPACK's factors of a subnormal matrix do not reproduce it
        if name != "subnormal" and abs(np.linalg.det(matrix / scale)) > 1e-12:
            perm = scipy.linalg.lu(matrix)[0]
            assert np.array_equal(order, perm.argmax(axis=0)), name


@pytest.mark.parametrize("degree", [6, 16])
@pytest.mark.parametrize("name", sorted(AFFINE_MATRICES))
def test_affine_substitute_matches_pointwise(name, degree):
    # a shear applied in the wrong order still gives a plausible table,
    # so compare values of p(t.z + off), not shapes
    t = AFFINE_MATRICES[name]
    rng = np.random.default_rng(17)
    p = mp.random_quadruple(degree, rng)
    off = rng.uniform(-1, 1, 4)
    sub = p.affine_substitute(t, off)
    for _ in range(20):
        z = rng.uniform(-1, 1, 4)
        got = sub.evaluate(Quaternion(*z))
        want = p.evaluate(Quaternion(*(t @ z + off)))
        assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())


@pytest.mark.parametrize("name", sorted(AFFINE_MATRICES))
def test_affine_substitute_coefficient_oracle(name):
    # sum_e c_e prod_m L_m^e_m with L_m = off_m + sum_j t[m, j] X_j,
    # multiplied out by schoolbook products
    t = AFFINE_MATRICES[name]
    rng = np.random.default_rng(18)
    degree = 4
    p = mp.random_quadruple(degree, rng)
    off = rng.uniform(-1, 1, 4)
    powers = []
    for m in range(4):
        lin = mp.RPoly4.constant(off[m])
        for j in range(4):
            lin = lin + mp.RPoly4.axis_variable(j).scale(t[m, j])
        pw = [mp.RPoly4.constant(1.0)]
        for _ in range(degree):
            pw.append(pw[-1].mul_naive(lin))
        powers.append(pw)
    want = [mp.RPoly4.zero() for _ in range(4)]
    for e in np.ndindex((degree + 1,) * 4):
        if sum(e) > degree:
            continue
        mono = powers[0][e[0]]
        for m in range(1, 4):
            mono = mono.mul_naive(powers[m][e[m]])
        for k, comp in enumerate(p.comps):
            want[k] = want[k] + mono.scale(comp.table[e])
    want = mp.QuadruplePoly(want)
    got = p.affine_substitute(t, off)
    assert mp.max_coeff_diff(got, want) <= 1e-12 * mp.coeff_scale(want)


def test_affine_grid_multieval():
    rng = np.random.default_rng(10)
    p = mp.random_quadruple(3, rng)
    axes = [rng.uniform(-1, 1, 2) for _ in range(4)]
    ident = p.affine_grid_multieval(np.eye(4), np.zeros(4), axes)
    assert np.max(np.abs(ident - p.grid_multieval(axes))) <= 1e-12
    t = rng.uniform(-1, 1, (4, 4)) + 2.0 * np.eye(4)
    off = rng.uniform(-1, 1, 4)
    grid = p.affine_grid_multieval(t, off, axes)
    for idx in np.ndindex(2, 2, 2, 2):
        g = np.array([axes[m][idx[m]] for m in range(4)])
        x = Quaternion(*(t @ g + off))
        want = np.array(p.evaluate(x).components())
        assert np.max(np.abs(grid[idx] - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
    with pytest.raises(SingularTransform):
        p.affine_grid_multieval(np.zeros((4, 4)), np.zeros(4), axes)


def test_affine_grid_singularity_is_scale_free():
    rng = np.random.default_rng(19)
    p = mp.random_quadruple(3, rng)
    axes = [rng.uniform(-1, 1, 2) for _ in range(4)]
    off = rng.uniform(-1, 1, 4)
    # condition number 1, determinant 6.25e-14
    small = 5e-4 * np.eye(4)
    grid = p.affine_grid_multieval(small, off, axes)
    for idx in np.ndindex(2, 2, 2, 2):
        g = np.array([axes[m][idx[m]] for m in range(4)])
        want = np.array(p.evaluate(Quaternion(*(small @ g + off))).components())
        assert np.max(np.abs(grid[idx] - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))
    # condition number 2e13, determinant 1e11
    near = 1e6 * np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1e-13]])
    for t in (near, np.zeros((4, 4))):
        with pytest.raises(SingularTransform):
            p.affine_grid_multieval(t, off, axes)


@pytest.mark.filterwarnings("error")
def test_affine_non_finite_input_raises():
    p = mp.random_quadruple(2, np.random.default_rng(20))
    axes = [np.linspace(-1, 1, 3) for _ in range(4)]
    bad_matrix = np.eye(4)
    bad_matrix[1, 2] = np.nan
    bad_axes = [axes[0], axes[1], np.array([0.0, np.inf, 1.0]), axes[3]]
    with pytest.raises(NonFiniteValue, match="matrix"):
        p.affine_substitute(bad_matrix, np.zeros(4))
    with pytest.raises(NonFiniteValue, match="offset"):
        p.affine_substitute(np.eye(4), [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteValue, match="matrix"):
        p.affine_grid_multieval(bad_matrix, np.zeros(4), axes)
    with pytest.raises(NonFiniteValue, match="offset"):
        p.affine_grid_multieval(np.eye(4), [np.inf, 0.0, 0.0, 0.0], axes)
    with pytest.raises(NonFiniteValue, match="grid axis 2"):
        p.affine_grid_multieval(np.eye(4), np.zeros(4), bad_axes)
    # cond = 1, but the substituted coefficients overflow
    huge = 1e200 * np.eye(4)
    with pytest.raises(NonFiniteValue, match="overflow"):
        p.affine_substitute(huge, np.zeros(4))
    with pytest.raises(NonFiniteValue, match="overflow"):
        p.affine_grid_multieval(huge, np.zeros(4), axes)


@pytest.mark.parametrize("call", [
    lambda p, axes: p.affine_substitute(np.arange(16.0).reshape(2, 8), np.zeros((2, 2))),
    lambda p, axes: p.affine_substitute(np.eye(4), np.zeros(5)),
    lambda p, axes: p.affine_substitute(np.eye(4).ravel(), np.zeros(4)),
    lambda p, axes: p.affine_grid_multieval(np.eye(4), np.zeros((4, 1)), axes),
    lambda p, axes: p.affine_grid_multieval(np.eye(4), np.zeros(4), axes[:3]),
    lambda p, axes: p.grid_multieval([np.zeros((2, 2))] * 4),
    lambda p, axes: p.grid_multieval([0.5, *axes[1:]]),
    lambda p, axes: p.grid_multieval(axes + axes[:1]),
], ids=["matrix and offset", "offset", "flat matrix", "grid offset", "three axes",
        "2-D axes", "scalar axis", "five axes"])
def test_affine_maps_and_grid_axes_are_never_reshaped(call):
    # a (2, 8) matrix and a (2, 2) offset once substituted as a mapping,
    # four (2, 2) axes once gave a (2, 2, 2, 2, 4) grid
    axes = [np.linspace(-1.0, 1.0, 3) for _ in range(4)]
    with pytest.raises(ValueError):
        call(mp.QuadruplePoly.variable(), axes)


def test_grid_multieval_long_axis_matches_pointwise():
    # a long, thin table on a 64-point axis: 300 powers per abscissa
    rng = np.random.default_rng(31)
    p = mp.QuadruplePoly(rng.uniform(-1, 1, (300, 1, 1, 1, 4)))
    axis = rng.uniform(-1, 1, 64)
    grid = p.grid_multieval([axis, [0.5], [-0.25], [2.0]])
    assert grid.shape == (64, 1, 1, 1, 4)
    for l, x0 in enumerate(axis):
        want, bound = p.evaluate_with_bound(Quaternion(x0, 0.5, -0.25, 2.0))
        assert np.max(np.abs(grid[l, 0, 0, 0] - want.components())) <= 1e-12 * bound


@pytest.mark.filterwarnings("error")
def test_grid_multieval_non_finite_raises():
    p = mp.random_quadruple(2, np.random.default_rng(21))
    with pytest.raises(NonFiniteValue, match="grid axis 0"):
        p.grid_multieval([[np.inf], [0.5], [0.1], [0.2]])
    with pytest.raises(NonFiniteValue, match="overflow"):
        p.grid_multieval([[1e200], [0.5], [0.1], [0.2]])
    # the pointwise evaluations refuse the same point
    x = Quaternion(1e200, 0.5, 0.1, 0.2)
    with pytest.raises(NonFiniteValue, match="value at point"):
        p.evaluate(x)
    with pytest.raises(NonFiniteValue, match="value at point"):
        p.evaluate_with_bound(x)
    # a finite value whose magnitude bound overflows is refused too, as
    # expr.eval_with_bound refuses it: 1e300 x0 - 1e300 x1 at x0 = x1 = 1e8
    t = np.zeros((2, 2, 1, 1, 4))
    t[1, 0, 0, 0, 0], t[0, 1, 0, 0, 0] = 1e300, -1e300
    cancel = mp.QuadruplePoly(t)
    assert cancel.evaluate(Quaternion(1e8, 1e8, 0, 0)).is_zero()
    with pytest.raises(NonFiniteValue, match="bound at point"):
        cancel.evaluate_with_bound(Quaternion(1e8, 1e8, 0, 0))


def test_random_zero_witness():
    rng = np.random.default_rng(11)
    z = mp.QuadruplePoly.zero()
    pt, val = mp.random_zero_witness(z, [0.0, 1.0], rng)
    assert val.is_zero()
    var = mp.QuadruplePoly.variable()
    pt, val = mp.random_zero_witness(var, [1.0, 2.0], rng)
    assert val == pt and all(c in (1.0, 2.0) for c in pt.components())
    with pytest.raises(EmptySampleSet):
        mp.random_zero_witness(var, [], rng)
    # the samples are a 1-D real sequence, read as the N-body poles are
    with pytest.raises(ValueError, match="1-D"):
        mp.random_zero_witness(var, [[0.0, 1.0], [2.0, 3.0]], rng)
    with pytest.raises(NonFiniteValue, match="sample 1 is not finite"):
        mp.random_zero_witness(var, [0.0, np.nan], rng)


def test_zero_witness_hits_nonzero_often():
    # iX - Xi + 1 maps x to 1 + 2 x2 k - 2 x3 j, never zero
    var = mp.QuadruplePoly.variable()
    ci = mp.QuadruplePoly.constant(I)
    p = ci.mul_fast(var) - var.mul_fast(ci) + mp.QuadruplePoly.constant(ONE)
    rng = np.random.default_rng(12)
    pool = mp.default_sample_set(p)
    hits = 0
    for _ in range(200):
        x, val = mp.random_zero_witness(p, pool, rng)
        _, bound = p.evaluate_with_bound(x)
        if val.norm() > 1e-9 * max(bound, 1e-300):
            hits += 1
    assert hits >= 100


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    p = mp.random_quadruple(3, rng)
    assert np.array_equal(mp.QuadruplePoly.from_text(p.to_text()).table, p.table)
    z = mp.QuadruplePoly.zero()
    assert mp.QuadruplePoly.from_text(z.to_text()).is_zero()


def test_from_text_rejects_negative_header():
    with pytest.raises(ParseError):
        mp.QuadruplePoly.from_text("-1\n")
    # as it rejects every other malformed text: empty, a header that is
    # not an integer, a short row, a field that is not a number and an
    # exponent beyond the header
    for text in ("", " \n\n", "1.5\n", "1\n1 0 0 0 1 0 0\n", "1\n1 0 0 0 1 x 0 0\n",
                 "1\n2 0 0 0 1 0 0 0\n"):
        with pytest.raises(ParseError):
            mp.QuadruplePoly.from_text(text)


def test_from_text_sizes_tables_from_rows():
    # the header only bounds exponents; a huge bound must not allocate
    p = mp.QuadruplePoly.from_text("1000000\n2 0 1 0 1 0 0 -3\n")
    assert all(c.extents == (3, 1, 2, 1) for c in p.comps)
    assert p.evaluate(Quaternion(2, 0, 5, 0)) == Quaternion(20, 0, 0, -60)


def test_from_text_rejects_duplicate_rows():
    with pytest.raises(ParseError):
        mp.QuadruplePoly.from_text("1\n1 0 0 0 1 0 0 0\n1 0 0 0 2 0 0 0\n")


def test_from_text_rejects_non_finite_coefficients():
    with pytest.raises(ParseError):
        mp.QuadruplePoly.from_text("1\n1 0 0 0 nan 0 0 0\n")


def test_grid_multieval_complex_abscissae():
    rng = np.random.default_rng(14)
    p = mp.random_quadruple(2, rng)
    all_complex = [rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2) for _ in range(4)]
    # one complex axis among real ones makes the whole grid complex
    mixed = [a if m == 1 else a.real for m, a in enumerate(all_complex)]
    for axes in (all_complex, mixed):
        grid = p.grid_multieval(axes)
        assert np.iscomplexobj(grid)
        # formal substitution oracle on one entry
        idx = (1, 0, 1, 1)
        coords = [axes[m][idx[m]] for m in range(4)]
        for m, comp in enumerate(p.comps):
            pw = [np.asarray(coords[ax]) ** np.arange(comp.extents[ax]) for ax in range(4)]
            want = np.einsum("abcd,a,b,c,d->", comp.table.astype(complex), *pw)
            assert abs(grid[idx][m] - want) <= 1e-10 * max(1.0, abs(want))


def test_affine_substitute_high_degree():
    rng = np.random.default_rng(15)
    p = mp.random_quadruple(7, rng)
    t = rng.uniform(-1, 1, (4, 4))
    off = rng.uniform(-1, 1, 4)
    sub = p.affine_substitute(t, off)
    assert sub.degree <= 7
    for _ in range(40):
        z = rng.uniform(-1, 1, 4)
        got = sub.evaluate(Quaternion(*z))
        want = p.evaluate(Quaternion(*(t @ z + off)))
        assert (got - want).norm() <= 1e-7 * max(1.0, want.norm())


def test_affine_keeps_entries_below_the_degree_trim():
    # 1e-10 X0^3 lies below the degree trim of 1, but at X0 = 1e3 it adds 0.1
    table = np.zeros((4, 1, 1, 1, 4))
    table[0, 0, 0, 0, 0] = 1.0
    table[3, 0, 0, 0, 0] = 1e-10
    p = mp.QuadruplePoly(table)
    assert p.degree == 0
    off = (1e3, 0.0, 0.0, 0.0)
    shifted = p.affine_substitute(np.eye(4), off)
    assert mp._support_degree(shifted.table) == 3
    assert abs(shifted.evaluate(Quaternion(0)).re - 1.1) <= 1e-12
    grid = p.affine_grid_multieval(np.eye(4), off, [[0.0]] * 4)
    assert abs(grid[0, 0, 0, 0, 0] - 1.1) <= 1e-12
    assert not np.any(grid[0, 0, 0, 0, 1:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_degree_of_non_finite_table_raises(value):
    # a mapping with an infinite or NaN coefficient is never built, so it
    # has no degree to report
    with pytest.raises(NonFiniteValue, match="overflow"):
        mp.QuadruplePoly.constant(Quaternion(1.0, value, 0.0, 0.0))
    with pytest.raises(NonFiniteValue, match="overflow"):
        mp.RPoly4.constant(value)


CONTAINERS = {
    "RPoly4": lambda v: mp.RPoly4(np.full((2, 1, 1, 1), v)),
    "QuadruplePoly": lambda v: mp.QuadruplePoly(np.full((1, 2, 1, 1, 4), v)),
    "QSeq": lambda v: sp.QSeq([Quaternion(0.5), Quaternion(v)]),
    "OneSidedPoly": lambda v: os_.OneSidedPoly.from_components([[v, 0, 0, 0]]),
    "TwoSidedPoly": lambda v: os_.TwoSidedPoly(left=[Quaternion(v)], right=[ONE]),
    "RootFormPoly": lambda v: os_.RootFormPoly(ONE, [Quaternion(0.5), Quaternion(0, v)]),
    "RootFormPoly lead": lambda v: os_.RootFormPoly(Quaternion(v), [ONE]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CONTAINERS))
def test_containers_reject_non_finite_coefficients(name):
    CONTAINERS[name](1.0)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValue, match="overflow"):
            CONTAINERS[name](value)


NODES = [Quaternion(0.5), Quaternion(0.1, 0.2)]

MISSHAPEN_READERS = {
    "QSeq": sp.QSeq,
    "OneSidedPoly": os_.OneSidedPoly,
    "QSeq.from_components": sp.QSeq.from_components,
    "OneSidedPoly.from_components": os_.OneSidedPoly.from_components,
    "TwoSidedPoly": lambda arr: os_.TwoSidedPoly(left=arr, right=arr),
    "multieval_fast": lambda arr: os_.multieval_fast(os_.OneSidedPoly(NODES), arr),
    "multieval_naive": lambda arr: os_.multieval_naive(os_.OneSidedPoly(NODES), arr),
    "nbody_multieval": lambda arr: os_.nbody_multieval([0.0, 2.0], arr),
    "nbody_naive": lambda arr: os_.nbody_naive([0.0, 2.0], arr),
    "interpolate nodes": lambda arr: os_.interpolate(arr, NODES),
    "interpolate values": lambda arr: os_.interpolate(NODES, arr),
    "interpolation_feasible": os_.interpolation_feasible,
    "double_determinant": os_.double_determinant,
    "vandermonde_invertible": os_.vandermonde_invertible,
}


@pytest.mark.parametrize("make", MISSHAPEN_READERS.values(), ids=MISSHAPEN_READERS)
@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 4, 1), (2, 6)])
def test_containers_reject_misshapen_component_arrays(make, shape):
    # an array of coefficients, points, nodes or values must be (n, 4), for
    # every fast path as for its oracle; the CLI maps ValueError to exit 2
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        make(np.ones(shape))


@pytest.mark.filterwarnings("error")
def test_sums_that_overflow_raise():
    big = mp.QuadruplePoly.constant(Quaternion(1e308))
    real = mp.RPoly4.constant(1e308)
    seq = sp.QSeq([Quaternion(1e308)])
    for overflow in (lambda: big + big, lambda: big - big.scale(-1.0),
                     lambda: big.scale(10.0), lambda: real + real,
                     lambda: sp.add(seq, seq), lambda: seq + seq):
        with pytest.raises(NonFiniteValue, match="overflow"):
            overflow()
