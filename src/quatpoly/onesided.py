"""One- and two-sided coefficient polynomials as quaternion mappings.

A one-sided polynomial keeps every coefficient to the left of its power,
sum a_l X^l; the two-sided form carries a pair per power, sum a_l X^l b_l.
Neither class is closed under multiplication, so no product is offered;
what they do support is fast multi-evaluation, interpolation with the
Vandermonde feasibility criterion, root-form evaluation, and the
real-pole N-body kernel.

Fast multi-evaluation reduces quaternion points to complex ones: conjugation
by a unit u rotates x into the span of 1 and i while fixing the reals, so a
real-coefficient polynomial satisfies q(x) = u^-1 q(y) u.  A two-sided
polynomial splits over the basis into at most sixteen real-coefficient
polynomials, each multi-evaluated on the rotated points with the classical
complex machinery and recombined per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import complexpoly
from .errors import InfeasiblePoints, NumericallySingular, PoleCollision
from .qarray import from_quaternions, qmul, to_quaternions
from .quaternion import TOL_EQ, Quaternion, auto_equivalent, rotation_to_complex

#: |det| below 1e-9 x (Hadamard row bound) counts as a vanishing determinant
TOL_DET_REL = 1e-9

#: minimum allowed distance between a reduced point and a pole
TOL_POLE = 1e-9

#: LU pivot ratio below this raises NumericallySingular
TOL_PIVOT = 1e-12


class OneSidedPoly:
    """sum a_l X^l with left coefficients; degree -1 for the zero polynomial."""

    __slots__ = ("comps",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2 and coeffs.shape[1] == 4:
            self.comps = np.array(coeffs, dtype=float)
        else:
            self.comps = from_quaternions(coeffs)

    @classmethod
    def from_components(cls, arr) -> "OneSidedPoly":
        return cls(np.asarray(arr, dtype=float).reshape(-1, 4))

    def __len__(self):
        return self.comps.shape[0]

    def __getitem__(self, l) -> Quaternion:
        return Quaternion(*self.comps[l])

    def __iter__(self):
        return iter(to_quaternions(self.comps))

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

    def __repr__(self):
        return f"OneSidedPoly({[str(q) for q in self]})"


class TwoSidedPoly:
    """sum a_l X^l b_l; entry l of each side belongs to power l."""

    __slots__ = ("left", "right")

    def __init__(self, pairs=(), *, left=None, right=None):
        if left is not None or right is not None:
            self.left = np.array(left, dtype=float).reshape(-1, 4)
            self.right = np.array(right, dtype=float).reshape(-1, 4)
        else:
            pairs = list(pairs)
            self.left = from_quaternions(q for q, _ in pairs)
            self.right = from_quaternions(q for _, q in pairs)
        if self.left.shape != self.right.shape:
            raise ValueError("left/right coefficient counts differ")

    @classmethod
    def from_one_sided(cls, p: OneSidedPoly) -> "TwoSidedPoly":
        right = np.zeros_like(p.comps)
        right[:, 0] = 1.0
        return cls(left=p.comps.copy(), right=right)

    def __len__(self):
        return self.left.shape[0]

    def term(self, l):
        return Quaternion(*self.left[l]), Quaternion(*self.right[l])

    def two_sided_eval(self, x: Quaternion) -> Quaternion:
        return Quaternion(*_power_sums(self, np.array([x.components()]))[0])

    def __repr__(self):
        return f"TwoSidedPoly(n_terms={len(self)})"


class RootFormPoly:
    """a0 (X - a1) ... (X - an), evaluated literally left to right."""

    __slots__ = ("lead", "roots")

    def __init__(self, lead: Quaternion, roots=()):
        self.lead = lead
        self.roots = list(roots)

    def root_form_eval(self, x: Quaternion) -> Quaternion:
        acc = self.lead
        for r in self.roots:
            acc = acc * (x - r)
        return acc

    def __repr__(self):
        return f"RootFormPoly(lead={self.lead}, n_roots={len(self.roots)})"


def decompose_to_real(p: TwoSidedPoly) -> np.ndarray:
    """(4, 4, n) table of real coefficient rows q[s, t].

    Expanding both coefficient sides over the basis and commuting the real
    scalars through the powers leaves p(x) = sum_(s,t) e_s q[s,t](x) e_t.
    """
    return np.einsum("ls,lt->stl", p.left, p.right)


_BASIS_ARR = np.eye(4)


def multieval_fast(p, xs) -> list:
    """Values of p at every point by rotation reduction.

    Accepts a TwoSidedPoly or OneSidedPoly.  Each point is conjugated into
    the complex plane, the nonzero real component polynomials are
    multi-evaluated there in one batch, and the values are conjugated back
    and recombined with the basis factors.
    """
    if isinstance(p, OneSidedPoly):
        p = TwoSidedPoly.from_one_sided(p)
    xs = list(xs)
    n_pts = len(xs)
    if n_pts == 0:
        return []
    if len(p) == 0:
        return [Quaternion() for _ in range(n_pts)]

    us = np.empty((n_pts, 4))
    ys = np.empty(n_pts, dtype=np.complex128)
    for l, x in enumerate(xs):
        u, y = rotation_to_complex(x)
        us[l] = u.components()
        ys[l] = complex(y.re, y.im_i)
    uinv = us.copy()
    uinv[:, 1:] = -uinv[:, 1:]  # unit conjugators: inverse is the conjugate

    cells = decompose_to_real(p)
    live = [(s, t) for s in range(4) for t in range(4)
            if np.any(cells[s, t] != 0.0)]
    rows = np.array([cells[s, t] for s, t in live], dtype=np.complex128)
    vals = complexpoly._multieval_rows(rows, ys)

    out = np.zeros((n_pts, 4))
    emb = np.zeros((n_pts, 4))
    for idx, (s, t) in enumerate(live):
        emb[:, 0] = vals[idx].real
        emb[:, 1] = vals[idx].imag
        w = qmul(qmul(uinv, emb), us)
        out += qmul(qmul(_BASIS_ARR[s], w), _BASIS_ARR[t])
    return to_quaternions(out)


def multieval_naive(p, xs) -> list:
    """Evaluation oracle: the literal sums of a_l x^l b_l at every point.

    Powers are summed directly, independently of the rotation path, and
    vectorized over the points only.
    """
    if isinstance(p, OneSidedPoly):
        p = TwoSidedPoly.from_one_sided(p)
    return to_quaternions(_power_sums(p, from_quaternions(xs)))


def _power_sums(p: TwoSidedPoly, pts: np.ndarray) -> np.ndarray:
    """sum_l a_l x^l b_l for every row x of the (n_pts, 4) array `pts`."""
    acc = np.zeros_like(pts)
    power = np.zeros_like(pts)
    power[:, 0] = 1.0
    for l in range(len(p)):
        if l:
            power = qmul(power, pts)
        acc += qmul(qmul(p.left[l], power), p.right[l])
    return acc


# -- interpolation -------------------------------------------------------------

@dataclass
class Feasibility:
    feasible: bool
    reason: str = ""

    def __bool__(self):
        return self.feasible


def interpolation_feasible(xs, tol: float = TOL_EQ) -> Feasibility:
    """Pairwise distinct and no three points mutually conjugate-equivalent."""
    xs = list(xs)
    n = len(xs)
    for a in range(n):
        for b in range(a + 1, n):
            if (xs[a] - xs[b]).norm() <= tol:
                return Feasibility(False, f"points {a} and {b} coincide")
    # group by the conjugation invariants (real part, imaginary norm)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if auto_equivalent(xs[a], xs[b], tol):
                parent[find(a)] = find(b)
    sizes: dict[int, int] = {}
    for a in range(n):
        r = find(a)
        sizes[r] = sizes.get(r, 0) + 1
        if sizes[r] >= 3:
            members = [b for b in range(n) if find(b) == r]
            return Feasibility(
                False,
                "three points are automorphically equivalent: "
                + ", ".join(str(m) for m in members[:3]))
    return Feasibility(True)


def _vandermonde(xs) -> np.ndarray:
    """(n, n, 4) power table, row l holding 1, x_l, x_l^2, ..."""
    n = len(xs)
    v = np.zeros((n, n, 4))
    for l, x in enumerate(xs):
        power = Quaternion(1.0)
        for m in range(n):
            if m:
                power = power * x
            v[l, m] = power.components()
    return v


def _complex_rep(v: np.ndarray) -> np.ndarray:
    """Standard 2x2 complex block representation of a quaternion matrix."""
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
    i.e. when interpolation through the points fails.
    """
    xs = list(xs)
    if not xs:
        return 1.0
    return float(abs(np.linalg.det(_complex_rep(_vandermonde(xs)))))


def vandermonde_invertible(xs) -> bool:
    """Thresholded form of the determinant criterion.

    The cutoff is TOL_DET_REL times the Hadamard bound (product of row
    norms), which makes the test scale-free; everything is compared in
    logarithms so large systems cannot overflow the comparison.  Power
    matrices condition themselves out of double precision as the point
    count grows, so as a feasibility test this is a small-set tool; the
    node criterion in `interpolation_feasible` has no such limit.
    """
    xs = list(xs)
    if not xs:
        return True
    rep = _complex_rep(_vandermonde(xs))
    sign, logdet = np.linalg.slogdet(rep)
    if sign == 0.0 or not np.isfinite(logdet):
        return False
    norms = np.linalg.norm(rep, axis=1)
    if np.any(norms == 0.0):
        return False
    log_hadamard = float(np.sum(np.log(norms)))
    return logdet > np.log(TOL_DET_REL) + log_hadamard


def _right_mul_matrix(q: Quaternion) -> np.ndarray:
    """Matrix R with vec(a * q) = R @ vec(a)."""
    q0, q1, q2, q3 = q.components()
    return np.array([
        [q0, -q1, -q2, -q3],
        [q1, q0, q3, -q2],
        [q2, -q3, q0, q1],
        [q3, q2, -q1, q0],
    ])


def interpolate(xs, ys) -> OneSidedPoly:
    """The unique p with deg p < n and p(x_l) = y_l.

    The n quaternion equations sum_m a_m x_l^m = y_l are real-linearized
    into a 4n x 4n system over the coefficient components and solved with
    partial pivoting.  Raises InfeasiblePoints when the node criterion
    fails and NumericallySingular when the factorization degenerates
    anyway.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError("point and value counts differ")
    n = len(xs)
    if n == 0:
        return OneSidedPoly()
    feas = interpolation_feasible(xs)
    if not feas:
        raise InfeasiblePoints(feas.reason)
    powers = _vandermonde(xs)
    system = np.zeros((4 * n, 4 * n))
    for l in range(n):
        for m in range(n):
            system[4 * l:4 * l + 4, 4 * m:4 * m + 4] = \
                _right_mul_matrix(Quaternion(*powers[l, m]))
    rhs = from_quaternions(ys).ravel()
    lu, piv = scipy.linalg.lu_factor(system)
    diag = np.abs(np.diag(lu))
    if np.min(diag) <= TOL_PIVOT * max(np.max(diag), 1e-300):
        raise NumericallySingular(
            f"pivot ratio {np.min(diag) / max(np.max(diag), 1e-300):.2e} "
            "below tolerance despite feasible nodes")
    sol = scipy.linalg.lu_solve((lu, piv), rhs)
    return OneSidedPoly.from_components(sol.reshape(n, 4))


# -- N-body kernel --------------------------------------------------------------

def nbody_multieval(poles, xs) -> list:
    """sum_l (x - a_l)^-1 for real poles a_l at quaternion points x.

    Rotating x into the complex plane commutes with inversion and fixes the
    reals, so the value is u^-1 S(y) u with the complex partial-fraction
    sum S(y) = sum_l (y - a_l)^-1, which equals q'(y)/q(y) for the pole
    polynomial q = prod (Z - a_l).  The sum is carried out on the actual
    pole distances (hierarchically for large inputs): forming q and
    dividing the evaluations would lose every significant digit wherever
    the product of distances is small against q's coefficients, which is
    exactly the near-interval region the kernel is about.
    """
    poles = np.asarray(list(poles), dtype=float)
    xs = list(xs)
    if poles.size == 0:
        return [Quaternion() for _ in xs]
    if not xs:
        return []
    us = np.empty((len(xs), 4))
    ys = np.empty(len(xs), dtype=np.complex128)
    for l, x in enumerate(xs):
        u, y = rotation_to_complex(x)
        us[l] = u.components()
        ys[l] = complex(y.re, y.im_i)
    # the nearest real pole to y is a neighbour of Re(y) in sorted order
    srt = np.sort(poles)
    right = np.minimum(np.searchsorted(srt, ys.real), srt.size - 1)
    left = np.maximum(right - 1, 0)
    dist = np.minimum(np.abs(ys - srt[left]), np.abs(ys - srt[right]))
    bad = np.nonzero(dist < TOL_POLE)[0]
    if bad.size:
        raise PoleCollision(
            f"point {bad[0]} reduces within {TOL_POLE} of a pole")

    ratio = complexpoly.cauchy_line_sum(poles, np.ones_like(poles), ys)

    uinv = us.copy()
    uinv[:, 1:] = -uinv[:, 1:]
    emb = np.zeros((len(xs), 4))
    emb[:, 0] = ratio.real
    emb[:, 1] = ratio.imag
    return to_quaternions(qmul(qmul(uinv, emb), us))


def nbody_naive(poles, xs) -> list:
    """Direct summation oracle for the N-body kernel."""
    out = []
    for x in xs:
        acc = Quaternion()
        for a in poles:
            acc = acc + (x - Quaternion(a)).inverse()
        out.append(acc)
    return out


# -- random generators -----------------------------------------------------------

def random_one_sided(n: int, rng, scale: float = 1.0) -> OneSidedPoly:
    return OneSidedPoly.from_components(rng.uniform(-scale, scale, size=(n, 4)))


def random_two_sided(n: int, rng, scale: float = 1.0) -> TwoSidedPoly:
    return TwoSidedPoly(left=rng.uniform(-scale, scale, size=(n, 4)),
                        right=rng.uniform(-scale, scale, size=(n, 4)))
