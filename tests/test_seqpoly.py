import numpy as np
import pytest

from quatpoly.errors import NonFiniteValue
from quatpoly.quaternion import I, J, K, Quaternion
from quatpoly.seqpoly import QSeq, add, convolve_fast, convolve_naive, random_qseq

ONE = Quaternion(1)


def rel_diff(a: QSeq, b: QSeq) -> float:
    assert len(a) == len(b)
    if len(a) == 0:
        return 0.0
    scale = max(np.max(np.abs(a.comps)), 1e-300)
    return float(np.max(np.abs(a.comps - b.comps)) / scale)


def test_add_examples():
    a = QSeq([ONE, I])
    b = QSeq([J])
    assert add(a, b) == QSeq([ONE + J, I])
    z = QSeq()
    assert add(a, z) == a
    rng = np.random.default_rng(0)
    x, y = random_qseq(9, rng), random_qseq(5, rng)
    assert add(x, y) == add(y, x)


def test_convolve_naive_examples():
    a = QSeq([ONE, I])
    b = QSeq([ONE, J])
    c = convolve_naive(a, b)
    assert c == QSeq([ONE, I + J, K])
    assert convolve_naive(a, QSeq([ONE])) == a
    assert convolve_naive(QSeq([I]), QSeq([J])) == QSeq([K])
    assert convolve_naive(QSeq([J]), QSeq([I])) == QSeq([-K])


def test_convolve_lengths():
    rng = np.random.default_rng(1)
    a, b = random_qseq(7, rng), random_qseq(12, rng)
    assert len(convolve_naive(a, b)) == 18
    assert len(convolve_fast(a, b)) == 18
    assert len(convolve_fast(a, QSeq())) == 0


def test_convolve_fast_matches_naive():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5, 8, 16, 33, 64, 127, 256, 512):
        a = random_qseq(n, rng)
        b = random_qseq(max(1, n // 2), rng)
        assert rel_diff(convolve_fast(a, b), convolve_naive(a, b)) <= 1e-9
    # n + m - 1 = 2^k + 1, one past a power of two, in both orders
    for n, m in ((17, 17), (20, 14), (3, 31), (257, 257), (313, 201)):
        a, b = random_qseq(n, rng), random_qseq(m, rng)
        assert rel_diff(convolve_fast(a, b), convolve_naive(a, b)) <= 1e-9


@pytest.mark.parametrize("n, m", [(1, 1), (1, 15), (15, 3), (3, 5), (31, 33),
                                  (129, 127), (1025, 1), (1023, 1025)])
def test_convolve_fast_matches_naive_at_odd_lengths(n, m):
    # lengths 1, 3 x 5 and 2^k +- 1: the real transform's half length is odd
    # or even and the product block is not a power of two
    rng = np.random.default_rng(22)
    a, b = random_qseq(n, rng), random_qseq(m, rng)
    fast = convolve_fast(a, b)
    assert fast.comps.flags["C_CONTIGUOUS"]
    assert rel_diff(fast, convolve_naive(a, b)) <= 1e-13


def test_unit_identity_fast():
    rng = np.random.default_rng(3)
    a = random_qseq(40, rng)
    out = convolve_fast(a, QSeq([ONE]))
    assert np.max(np.abs(out.comps - a.comps)) <= 1e-12 * np.max(np.abs(a.comps))


def test_ring_laws():
    rng = np.random.default_rng(4)
    a, b, c = (random_qseq(n, rng) for n in (6, 9, 4))
    lhs = convolve_fast(convolve_fast(a, b), c)
    rhs = convolve_fast(a, convolve_fast(b, c))
    assert rel_diff(lhs, rhs) <= 1e-9
    lhs = convolve_fast(a, add(b, QSeq(np.pad(c.comps, ((0, 5), (0, 0))))))
    rhs = add(convolve_fast(a, b), convolve_fast(a, c))
    # pad the shorter product before comparing
    m = max(len(lhs), len(rhs))
    lc = np.pad(lhs.comps, ((0, m - len(lhs)), (0, 0)))
    rc = np.pad(rhs.comps, ((0, m - len(rhs)), (0, 0)))
    assert np.max(np.abs(lc - rc)) <= 1e-9 * max(np.max(np.abs(lc)), 1e-300)


def test_real_sequences_commute():
    rng = np.random.default_rng(5)
    ac = np.zeros((8, 4))
    bc = np.zeros((11, 4))
    ac[:, 0] = rng.uniform(-1, 1, 8)
    bc[:, 0] = rng.uniform(-1, 1, 11)
    a, b = QSeq.from_components(ac), QSeq.from_components(bc)
    assert rel_diff(convolve_fast(a, b), convolve_fast(b, a)) <= 1e-12


def test_non_commutativity_witness():
    a, b = QSeq([I]), QSeq([J])
    assert convolve_naive(a, b) != convolve_naive(b, a)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("conv", [convolve_fast, convolve_naive])
def test_convolve_overflow_raises(conv):
    # 1e200 * 1e200 leaves the double range: a library error, not inf or
    # NaN coefficients with a numpy warning
    a = QSeq([Quaternion(1e200), Quaternion(1e200)])
    b = QSeq([Quaternion(0, 1e200), Quaternion(0, 1e200)])
    with pytest.raises(NonFiniteValue):
        conv(a, b)
    big = QSeq([Quaternion(1e150, 1e150)])
    assert (conv(big, big)[0] - Quaternion(0, 2e300)).norm() <= 1e-15 * 2e300
