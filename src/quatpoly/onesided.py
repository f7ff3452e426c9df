"""One- and two-sided coefficient polynomials as quaternion mappings.

A one-sided polynomial keeps every coefficient to the left of its power,
sum a_l X^l; the two-sided form carries a pair per power, sum a_l X^l b_l.
Neither class is closed under multiplication, so no product is offered;
what they do support is fast multi-evaluation, interpolation, root-form
evaluation, and the real-pole N-body kernel.

Fast multi-evaluation reduces quaternion points to complex ones: conjugation
by a unit u rotates x into the span of 1 and i while fixing the reals, so a
real-coefficient polynomial satisfies q(x) = u^-1 q(y) u.  With w = u^-1 i u,
the unit pure quaternion along Im x, that is Re q(y) + Im q(y) w: the way
back is linear in the complex values.  A two-sided polynomial splits over
the basis into at most sixteen real-coefficient polynomials q[s, t], each
multi-evaluated on the rotated points with the classical complex
machinery; one matrix product with the basis triples e_s e_m e_t lifts
all of them back at once.

Interpolation checks its nodes by their conjugation invariants, then solves
the 2n x 2n complex representation of the quaternion Vandermonde system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import complexpoly
from .errors import InfeasiblePoints, NumericallySingular, PoleCollision
from .qarray import from_quaternions  # noqa: F401  qpbench/layers.py binds this name
from .qarray import finite, qmul, rows, to_quaternions
from .quaternion import TOL_EQ, Quaternion, rotation_to_complex
from .seqpoly import Rows

#: |det| below 1e-9 x (Hadamard row bound) counts as a vanishing determinant
TOL_DET_REL = 1e-9

#: a reduced point within this fraction of max |a_l| of a pole a_l collides
TOL_POLE = 1e-9

#: LU pivot ratio below this raises NumericallySingular
TOL_PIVOT = 1e-12

#: interpolation residual above this fraction of max |y_l| raises
#: NumericallySingular
TOL_RESIDUAL = 1e-8


class OneSidedPoly(Rows):
    """sum a_l X^l with left coefficients; degree -1 for the zero polynomial."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        nz = np.nonzero(np.any(self.comps != 0.0, axis=1))[0]
        return int(nz[-1]) if nz.size else -1

    def horner_eval(self, x: Quaternion) -> Quaternion:
        """Right-nested Horner; x only ever multiplies from the right."""
        acc = Quaternion()
        for l in range(len(self) - 1, -1, -1):
            acc = acc * x + self[l]
        return acc


class TwoSidedPoly:
    """sum a_l X^l b_l; entry l of each side belongs to power l.  Built from
    (a_l, b_l) pairs of Quaternion, or from `left` and `right` component
    arrays.  Infinite or NaN coefficients raise NonFiniteValue, a side not
    of shape (n, 4) ValueError."""

    __slots__ = ("left", "right")

    def __init__(self, pairs=(), *, left=None, right=None):
        if left is not None or right is not None:
            self.left = rows(np.asarray(left, dtype=float))
            self.right = rows(np.asarray(right, dtype=float))
        else:
            pairs = list(pairs)
            self.left = rows(q for q, _ in pairs)
            self.right = rows(q for _, q in pairs)
        if self.left.shape != self.right.shape:
            raise ValueError("left/right coefficient counts differ")

    @classmethod
    def from_one_sided(cls, p: OneSidedPoly) -> "TwoSidedPoly":
        right = np.zeros_like(p.comps)
        right[:, 0] = 1.0
        return cls(left=p.comps, right=right)

    def __len__(self):
        return self.left.shape[0]

    def term(self, l):
        return Quaternion(*self.left[l]), Quaternion(*self.right[l])

    def two_sided_eval(self, x: Quaternion) -> Quaternion:
        """Value at x by the literal power sums; NonFiniteValue when it overflows."""
        return Quaternion(*_power_sums(self, np.array([x.components()]))[0])

    def __repr__(self):
        return f"TwoSidedPoly(n_terms={len(self)})"


class RootFormPoly:
    """a0 (X - a1) ... (X - an), evaluated literally left to right.
    Infinite or NaN coefficients raise NonFiniteValue."""

    __slots__ = ("lead", "roots")

    def __init__(self, lead: Quaternion, roots=()):
        self.lead = lead
        self.roots = list(roots)
        rows([lead, *self.roots])

    def root_form_eval(self, x: Quaternion) -> Quaternion:
        """Value at x; NonFiniteValue when it overflows."""
        acc = self.lead
        for r in self.roots:
            acc = acc * (x - r)
        finite(np.array([acc.components()]), "value at point")
        return acc

    def __repr__(self):
        return f"RootFormPoly(lead={self.lead}, n_roots={len(self.roots)})"


def decompose_to_real(p: TwoSidedPoly) -> np.ndarray:
    """(4, 4, n) table of real coefficient rows q[s, t].

    Expanding both coefficient sides over the basis and commuting the real
    scalars through the powers leaves p(x) = sum_(s,t) e_s q[s,t](x) e_t.
    """
    return np.einsum("ls,lt->stl", p.left, p.right)


#: _TRIPLES[4 s + t, m] holds the components of e_s e_m e_t
_TRIPLES = qmul(qmul(np.eye(4)[:, None, None], np.eye(4)), np.eye(4)[:, None]).reshape(16, 4, 4)


def multieval_fast(p, xs) -> list:
    """Values of p at every point by rotation reduction.

    Accepts a TwoSidedPoly or OneSidedPoly.  Each point is conjugated into
    the complex plane, the nonzero real component polynomials q[s, t] are
    multi-evaluated there in one batch, and the values are lifted back
    with their basis factors.  Raises NonFiniteValue for a point that is
    not finite, whatever the polynomial.  The points are an iterable of
    Quaternion or an (n, 4) component array.
    """
    if isinstance(p, OneSidedPoly):
        p = TwoSidedPoly.from_one_sided(p)
    ws, ys = _rotate_to_complex(xs)
    if len(p) == 0 or ys.size == 0:
        return [Quaternion() for _ in ys]
    cells = decompose_to_real(p).reshape(16, -1)
    live = np.flatnonzero(np.any(cells != 0.0, axis=1))
    # a value that overflows raises NonFiniteValue in _lift
    with np.errstate(over="ignore", invalid="ignore"):
        vals = complexpoly._multieval_rows(cells[live].astype(np.complex128), ys)
    return to_quaternions(_lift(vals, ws, _TRIPLES[live]))


def _rotate_to_complex(xs):
    """Directions w = u^-1 i u as an (n, 4) array and the complex images
    y = u x u^-1 of the quaternion points `xs`, for the unit conjugators u.

    x = Re y + Im y * w: w is the unit pure quaternion along Im x, or i
    where x already lies in the span of 1 and i.  `xs` is an iterable of
    Quaternion or an (n, 4) array, whose rows are rotated as Quaternion
    too.  Raises NonFiniteValue for a point that is not finite, or whose
    imaginary norm overflows.
    """
    # one rotation_to_complex call per point: qpbench/layers.py counts them
    xs = to_quaternions(rows(xs, "point")) if isinstance(xs, np.ndarray) else list(xs)
    us = np.empty((len(xs), 4))
    ys = np.empty(len(xs), dtype=np.complex128)
    for l, x in enumerate(xs):
        u, y = rotation_to_complex(x)
        us[l] = u.components()
        ys[l] = complex(y.re, y.im_i)
    finite(ys, "point")
    uinv = us * (1.0, -1.0, -1.0, -1.0)  # unit conjugators: inverse is the conjugate
    return qmul(qmul(uinv, (0.0, 1.0, 0.0, 0.0)), us), ys


def _lift(vals, ws, triples):
    """sum_c e_s (Re v_c + Im v_c w) e_t for the values `vals` (cells, n)
    of the real polynomials q[s, t] at the points y, as an (n, 4) array.

    By u^-1 (a + b i) u = a + b w, this is the two-sided value at x.
    `triples` holds the products e_s e_m e_t of each cell, so the lift is
    one matrix product over cells and the basis coordinates of 1 and w.
    Raises NonFiniteValue when a value overflowed.
    """
    finite(vals.T, "value at point")
    coords = np.empty(vals.shape[::-1] + (4,))
    coords[..., 0] = vals.real.T
    np.multiply(vals.imag.T[..., None], ws[:, None, 1:], out=coords[..., 1:])
    return coords.reshape(coords.shape[0], -1) @ triples.reshape(-1, 4)


def multieval_naive(p, xs) -> list:
    """Evaluation oracle: the literal sums of a_l x^l b_l at every point.

    Powers are summed directly, independently of the rotation path, and
    vectorized over the points only.  Takes the points `multieval_fast`
    takes, and raises NonFiniteValue for a point that is not finite or a
    value that overflows, as it does.
    """
    if isinstance(p, OneSidedPoly):
        p = TwoSidedPoly.from_one_sided(p)
    return to_quaternions(_power_sums(p, rows(xs, "point")))


def _power_sums(p: TwoSidedPoly, pts: np.ndarray) -> np.ndarray:
    """sum_l a_l x^l b_l for every row x of the (n_pts, 4) array `pts`.

    Raises NonFiniteValue when a value overflows.
    """
    acc = np.zeros_like(pts)
    power = np.zeros_like(pts)
    power[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(len(p)):
            if l:
                power = qmul(power, pts)
            acc += qmul(qmul(p.left[l], power), p.right[l])
    return finite(acc, "value at point")


# -- interpolation -------------------------------------------------------------

@dataclass
class Feasibility:
    feasible: bool
    reason: str = ""

    def __bool__(self):
        return self.feasible


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, 4) array, by hypot: no squared
    component over- or underflows."""
    return np.hypot(np.hypot(rows[:, 0], rows[:, 1]), np.hypot(rows[:, 2], rows[:, 3]))


def interpolation_feasible(xs) -> Feasibility:
    """Pairwise distinct and no three points mutually conjugate-equivalent.

    `xs` is an iterable of Quaternion or an (n, 4) component array.  Two
    points are equivalent when their conjugation invariants, the real part
    and the imaginary norm, agree within `TOL_EQ` times the largest node
    norm, and coincide when their distance is that small, so the verdict
    does not change when every node is scaled.  Coinciding points are
    equivalent, so only equivalent pairs are measured; and a chain of
    equivalences holds three points exactly when one point has two
    equivalent partners.  Raises NonFiniteValue for a node that is not
    finite, ValueError for an array not of shape (n, 4).
    """
    pts = rows(xs, "node")
    with np.errstate(over="ignore", invalid="ignore"):
        re = pts[:, 0]
        # hypot throughout: no squared component over- or underflows
        im = np.hypot(np.hypot(pts[:, 1], pts[:, 2]), pts[:, 3])
        tol = TOL_EQ * np.max(np.hypot(re, im), initial=0.0)
        equiv = ((np.abs(re[:, None] - re) <= tol)
                 & (np.abs(im[:, None] - im) <= tol))
        np.fill_diagonal(equiv, False)
        first, second = np.nonzero(np.triu(equiv))
        close = np.flatnonzero(_norms(pts[first] - pts[second]) <= tol)
    if close.size:
        a, b = first[close[0]], second[close[0]]
        return Feasibility(False, f"points {a} and {b} coincide")
    crowded = np.flatnonzero(np.sum(equiv, axis=1) >= 2)
    if crowded.size:
        a = crowded[0]
        members = sorted([a, *np.flatnonzero(equiv[a])[:2]])
        return Feasibility(
            False,
            "three points are automorphically equivalent: "
            + ", ".join(str(m) for m in members))
    return Feasibility(True)


def _vandermonde(pts: np.ndarray) -> np.ndarray:
    """(n, n, 4) power table of the (n, 4) nodes, row l holding 1, x_l, x_l^2, ...

    Raises NonFiniteValue when a power overflows.
    """
    n = pts.shape[0]
    v = np.zeros((n, n, 4))
    v[:, :1, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n):
            v[:, m] = qmul(v[:, m - 1], pts)
    return finite(v, "a power of node")


def _complex_rep(v: np.ndarray) -> np.ndarray:
    """Standard 2x2 complex block representation chi of a quaternion matrix."""
    z1 = v[..., 0] + 1j * v[..., 1]
    z2 = v[..., 2] + 1j * v[..., 3]
    n, m = z1.shape
    out = np.empty((2 * n, 2 * m), dtype=np.complex128)
    out[0::2, 0::2] = z1
    out[0::2, 1::2] = z2
    out[1::2, 0::2] = -np.conj(z2)
    out[1::2, 1::2] = np.conj(z1)
    return out


def double_determinant(xs) -> float:
    """|det| of the complex representation of the power matrix (x_l^m).

    Vanishes exactly when the quaternion Vandermonde matrix is singular,
    i.e. when interpolation through the points fails.  Raises
    NonFiniteValue for a node that is not finite or whose powers overflow.
    """
    return float(abs(np.linalg.det(_complex_rep(_vandermonde(rows(xs, "node"))))))


def vandermonde_invertible(xs) -> bool:
    """Thresholded form of the determinant criterion.

    The cutoff is TOL_DET_REL times the Hadamard bound (product of row
    norms), which makes the test scale-free; everything is compared in
    logarithms so large systems cannot overflow the comparison.  Power
    matrices condition themselves out of double precision as the point
    count grows, so as a feasibility test this is a small-set tool; the
    node criterion in `interpolation_feasible` has no such limit.  Raises
    NonFiniteValue for a node that is not finite or whose powers overflow.
    """
    rep = _complex_rep(_vandermonde(rows(xs, "node")))
    sign, logdet = np.linalg.slogdet(rep)
    if sign == 0.0 or not np.isfinite(logdet):
        return False
    norms = np.linalg.norm(rep, axis=1)
    if np.any(norms == 0.0):
        return False
    log_hadamard = float(np.sum(np.log(norms)))
    return bool(logdet > np.log(TOL_DET_REL) + log_hadamard)


def interpolate(xs, ys) -> OneSidedPoly:
    """The unique p with deg p < n and p(x_l) = y_l.

    With z1 = a0 + i a1 and z2 = a2 + i a3, (z1, z2) is the first row of
    chi(a) = [[z1, z2], [-conj z2, conj z1]], the block `_complex_rep`
    builds.  As chi is multiplicative, the equations sum_m a_m x_l^m = y_l
    become r W = (z1(y_0), z2(y_0), z1(y_1), ...) for r = (z1(a_0), z2(a_0),
    z1(a_1), ...), where block (m, l) of the 2n x 2n matrix W is chi(x_l^m).
    This is the real 4n x 4n system written over C, singular exactly when
    that one is; W^T is factored once with partial pivoting.

    The system is solved for b_m = a_m 2^(em) on the nodes x_l 2^-e, where
    2^e is the power of two nearest the largest node norm: the scaling is
    exact, and the scaled powers neither grow nor shrink geometrically, so
    the verdicts do not depend on the scale of the nodes.
    Nodes and values are iterables of Quaternion or (n, 4) component
    arrays.  Raises NonFiniteValue for a node or value that is not finite
    or a node whose powers overflow, InfeasiblePoints when the node
    criterion fails and NumericallySingular when the factorization
    degenerates anyway or the residual max_l |p(x_l) - y_l| of the
    computed solution, on the unscaled powers, exceeds TOL_RESIDUAL times
    max_l |y_l|.
    """
    nodes, values = rows(xs, "node"), rows(ys, "value")
    if len(nodes) != len(values):
        raise ValueError("point and value counts differ")
    n = len(nodes)
    if n == 0:
        return OneSidedPoly()
    powers = _vandermonde(nodes)
    feas = interpolation_feasible(nodes)
    if not feas:
        raise InfeasiblePoints(feas.reason)
    import scipy.linalg  # deferred: it costs every CLI start about 0.3 s

    # 2^e, the power of two nearest the largest node norm, divides exactly
    mant, e = np.frexp(np.max(_norms(nodes)))
    e = int(e) - int(mant < 0.5 ** 0.5)
    scaled = powers if e == 0 else _vandermonde(np.ldexp(nodes, -e))
    lu, piv = scipy.linalg.lu_factor(_complex_rep(scaled.transpose(1, 0, 2)).T)
    diag = np.abs(np.diag(lu))
    if np.min(diag) <= TOL_PIVOT * max(np.max(diag), 1e-300):
        raise NumericallySingular(
            f"pivot ratio {np.min(diag) / max(np.max(diag), 1e-300):.2e} "
            "below tolerance despite feasible nodes")
    # viewed as complex, each component row (a0, a1, a2, a3) is (z1, z2)
    r = scipy.linalg.lu_solve((lu, piv), values.view(np.complex128).ravel())
    sol = np.ldexp(r.view(np.float64).reshape(n, 4), -e * np.arange(n)[:, None])
    resid = np.sum(qmul(sol, powers), axis=1) - values
    worst = float(np.max(_norms(resid)))
    scale = float(np.max(_norms(values)))
    if not worst <= TOL_RESIDUAL * scale:
        raise NumericallySingular(
            f"interpolation residual {worst:.2e} exceeds {TOL_RESIDUAL:g} "
            f"of the largest value {scale:.2e}")
    return OneSidedPoly.from_components(sol)


# -- N-body kernel --------------------------------------------------------------

def nbody_multieval(poles, xs) -> list:
    """sum_l (x - a_l)^-1 for real poles a_l at quaternion points x.

    Rotating x into the complex plane commutes with inversion and fixes the
    reals, so the value is Re S(y) + Im S(y) w with the complex partial-fraction
    sum S(y) = sum_l (y - a_l)^-1, which equals q'(y)/q(y) for the pole
    polynomial q = prod (Z - a_l).  The sum is carried out on the actual
    pole distances (hierarchically for large inputs): forming q and
    dividing the evaluations would lose every significant digit wherever
    the product of distances is small against q's coefficients, which is
    exactly the near-interval region the kernel is about.  Raises
    PoleCollision for a point that reduces within TOL_POLE * max |a_l| of
    a pole, an exact hit included, and NonFiniteValue for a pole or point
    that is not finite.  Poles and points are read as `nbody_naive` reads
    them.
    """
    poles = _read_poles(poles)
    ws, ys = _rotate_to_complex(xs)
    if poles.size == 0 or ys.size == 0:
        return [Quaternion() for _ in ys]
    # the nearest real pole to y is a neighbour of Re(y) in sorted order
    srt = np.sort(poles)
    right = np.minimum(np.searchsorted(srt, ys.real), srt.size - 1)
    left = np.maximum(right - 1, 0)
    dist = np.minimum(np.abs(ys - srt[left]), np.abs(ys - srt[right]))
    tol = TOL_POLE * float(np.max(np.abs(poles)))
    bad = np.nonzero(dist <= tol)[0]
    if bad.size:
        raise PoleCollision(f"point {bad[0]} reduces within {tol:.3g} of a pole")

    ratio = complexpoly.cauchy_line_sum(poles, np.ones_like(poles), ys)
    return to_quaternions(_lift(ratio[None], ws, _TRIPLES[:1]))


def nbody_naive(poles, xs) -> list:
    """Direct summation oracle for the N-body kernel: one pole at a time,
    (x - a)^-1 is added for every point of the (n, 4) array at once.

    Each difference is inverted as `Quaternion.inverse` does, scaled by the
    power of two of its largest |component|, so a point 1e-170 from a pole
    gives a finite sum.  The poles are a 1-D real array or sequence, the
    points an iterable of Quaternion or an (n, 4) component array.  A
    point equal to a pole raises ZeroDivisionError, a pole or point that
    is not finite NonFiniteValue, poles of another shape ValueError.
    """
    poles = _read_poles(poles)
    pts = rows(xs, "point")
    acc = np.zeros_like(pts)
    for a in poles:
        diff = pts.copy()
        diff[:, 0] -= a
        big = np.max(np.abs(diff), axis=1)
        if not np.all(big):
            raise ZeroDivisionError(f"point {int(np.argmin(big))} is the pole {float(a)!r}")
        shift = -np.frexp(big)[1][:, None]
        diff = np.ldexp(diff, shift)
        diff[:, 1:] *= -1.0
        acc += np.ldexp(diff / np.sum(diff * diff, axis=1, keepdims=True), shift)
    return to_quaternions(acc)


def _read_poles(poles) -> np.ndarray:
    """The real poles as a 1-D float array: ValueError for another shape,
    NonFiniteValue for a pole that is not finite."""
    poles = np.asarray(poles, dtype=float)
    if poles.ndim != 1:
        raise ValueError(f"expected a 1-D array of real poles, got shape {poles.shape}")
    return finite(poles, "pole")


# -- random generators -----------------------------------------------------------

def random_one_sided(n: int, rng) -> OneSidedPoly:
    return OneSidedPoly.from_components(rng.uniform(-1.0, 1.0, size=(n, 4)))


def random_two_sided(n: int, rng) -> TwoSidedPoly:
    return TwoSidedPoly(left=rng.uniform(-1.0, 1.0, size=(n, 4)),
                        right=rng.uniform(-1.0, 1.0, size=(n, 4)))
