"""Seeded inputs, requests and output checks for the three workloads.

A workload is a fixed list of requests; one round runs every request once,
in order.  Each request calls quatpoly's public API on inputs drawn from
the workload seed and is checked, outside the timed window, against a
naive oracle at the acceptance-suite tolerances (all relative):
convolution 1e-9, mapping products 1e-8, multi-evaluation, N-body and
interpolation residuals 1e-7.

Two documented seed defects stay in as inputs and are counted as failures
every round they occur (`Request.known_defect` names the failure kind they
are expected to show):

* expanding ``(X·i·X·j)^4 - (j·X·i·X)^4`` reports degree 32 for a degree-8
  mapping, because ``RPoly4.degree`` trims each component against its own
  peak and the cancelled components hold only rounding noise;
* ``1e20·X·X - 1e20·X·X + 1`` tests "zero" although it is the constant 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

from quatpoly import cli, expr, mappoly, onesided, seqpoly
from quatpoly.fileio import format_quaternion_lines, read_quaternion_file
from quatpoly.qarray import qmul
from quatpoly.quaternion import Quaternion, parse_quaternion

TOL_CONVOLVE = 1e-9
TOL_MAPPING = 1e-8
TOL_EVAL = 1e-7

WORKLOADS = ("ring_algebra", "bulk_eval", "small_calls")

#: op name -> end-user metric name of the time a round spends in it
OP_METRICS = {
    "convolve": "convolve_s",
    "mul": "mul1_s",
    "expand": "expand_s",
    "affine_grid": "affine_grid_s",
    "multieval1": "multieval1_s",
    "multieval2": "multieval2_s",
    "nbody": "nbody_s",
    "interpolate": "interpolate_s",
    "zero_test": "zerotest_s",
    "cli": "cli_s",
}

VANISHING = "X·X·i·X·i + i·X·X·i·X - i·X·i·X·X - X·i·X·X·i"
ROOTLESS = "i·X-X·i+1"
HUGE_CANCEL = "1e20·X·X - 1e20·X·X + 1"
CANCELLING = [(1, ["X", "i", "X", "j"] * 4), (-1, ["j", "X", "i", "X"] * 4)]

ZERO_TEST_EPSILON = 1e-6


class Request:
    """One API call of a round plus its oracle check.

    `call()` is the timed part.  `prepare()` computes the oracle values;
    it runs once, after set-up and before the first round.  `check(out)`
    returns ``(failure_kind or None, relative error or None)``.
    """

    def __init__(self, op, label, call, prepare, check, known_defect=None, inputs=()):
        self.op = op
        self.label = label
        self.call = call
        self.prepare = prepare
        self.check = check
        self.known_defect = known_defect
        #: the generated inputs (arrays or text), for reproducibility checks
        self.inputs = tuple(inputs)


class Workload:
    def __init__(self, name, requests, points=(), two_sided=()):
        self.name = name
        self.requests = requests
        #: (n, 4) arrays of every multi-evaluation point set, for the band shares
        self.points = list(points)
        #: (left, right) coefficient arrays of the evaluated polynomials
        self.two_sided = list(two_sided)

    def prepare(self):
        for req in self.requests:
            req.prepare()

    def fingerprint(self) -> str:
        """Digest of every generated input, in request order."""
        h = hashlib.sha256()
        for req in self.requests:
            h.update(req.label.encode())
            for item in req.inputs:
                h.update(item.encode() if isinstance(item, str)
                         else np.ascontiguousarray(item, dtype=float).tobytes())
        return h.hexdigest()

    def input_stats(self) -> dict:
        """Band shares of the evaluation points and the live real cells."""
        stats = {"input.share_deep": 0.0, "input.share_annulus": 0.0,
                 "input.share_outer": 0.0, "input.live_cells": 0}
        if self.points:
            rho = np.linalg.norm(np.concatenate(self.points), axis=1)
            stats["input.share_deep"] = float(np.mean(rho < 0.5))
            stats["input.share_annulus"] = float(np.mean((rho >= 0.5) & (rho <= 1.0)))
            stats["input.share_outer"] = float(np.mean(rho > 1.0))
        for left, right in self.two_sided:
            cells = np.einsum("ls,lt->st", left != 0.0, right != 0.0)
            stats["input.live_cells"] = max(stats["input.live_cells"],
                                            int(np.count_nonzero(cells)))
        return stats


# -- input generation -----------------------------------------------------------

def _directions(rng, n):
    d = rng.standard_normal((n, 4))
    return d / np.linalg.norm(d, axis=1)[:, None]


def shell_points(rng, n, lo, hi) -> np.ndarray:
    """n points with |x| uniform in [lo, hi] and uniform direction."""
    return _directions(rng, n) * rng.uniform(lo, hi, n)[:, None]


def ball_points(rng, n, radius) -> np.ndarray:
    """n points uniform in the 4-ball of the given radius."""
    return _directions(rng, n) * (radius * rng.uniform(0.0, 1.0, n) ** 0.25)[:, None]


def quats(arr) -> list:
    return [Quaternion(*row) for row in np.asarray(arr, dtype=float)]


def comps(qs) -> np.ndarray:
    return np.array([q.components() for q in qs], dtype=float).reshape(-1, 4)


def random_quadruple(rng, degree) -> mappoly.QuadruplePoly:
    idx = np.indices((degree + 1,) * 4).sum(axis=0)
    return mappoly.QuadruplePoly([
        mappoly.RPoly4(np.where(idx <= degree,
                                rng.uniform(-1.0, 1.0, (degree + 1,) * 4), 0.0))
        for _ in range(4)])


def random_product(rng, n_factors) -> list:
    """Half X, half random constants c, ci, cj or ck, in random order; the
    fixed X count keeps the degree, and so the cost, the same for every seed."""
    factors = ["X"] * (n_factors // 2)
    for _ in range(n_factors - len(factors)):
        unit = ("", "i", "j", "k")[int(rng.integers(0, 4))]
        factors.append(f"{rng.uniform(0.5, 2.0):.3f}{unit}")
    return [factors[k] for k in rng.permutation(n_factors)]


# -- checks ------------------------------------------------------------------------

def _left_only(coeffs):
    """A one-sided polynomial as (left, right) pairs with right factor 1."""
    right = np.zeros_like(coeffs)
    right[:, 0] = 1.0
    return coeffs, right


def _verdict(err, tol):
    return (None if err <= tol else "value"), err


def pointwise_error(got, want) -> float:
    """Worst |got - want| / max(|want|, 1e-9 * scale) over (n, 4) arrays."""
    norms = np.linalg.norm(want, axis=1)
    floor = 1e-9 * max(float(np.max(norms)), 1e-300)
    return float(np.max(np.linalg.norm(got - want, axis=1) / np.maximum(norms, floor)))


def _padded_diff(ta, tb):
    shape = tuple(map(max, zip(ta.shape, tb.shape)))
    pa = np.pad(ta, [(0, s - c) for s, c in zip(shape, ta.shape)])
    pb = np.pad(tb, [(0, s - c) for s, c in zip(shape, tb.shape)])
    return float(np.max(np.abs(pa - pb)))


def coeff_error(got: mappoly.QuadruplePoly, want: mappoly.QuadruplePoly) -> float:
    diff = max(_padded_diff(a.table, b.table) for a, b in zip(got.comps, want.comps))
    scale = max(float(np.max(np.abs(c.table))) for c in want.comps)
    return diff / max(scale, 1e-300)


def naive_ordered_product(terms) -> mappoly.QuadruplePoly:
    """Expansion oracle: every product term multiplied left to right with
    the schoolbook product, terms added with their signs."""
    acc = mappoly.QuadruplePoly.zero()
    for sign, factors in terms:
        prod = None
        for f in factors:
            q = (mappoly.QuadruplePoly.variable() if f == "X" else
                 mappoly.QuadruplePoly.constant(parse_quaternion(f)))
            prod = q if prod is None else prod.mul_naive(q)
        acc = acc + prod if sign > 0 else acc - prod
    return acc


def terms_text(terms) -> str:
    text = ""
    for sign, factors in terms:
        text += ("" if not text and sign > 0 else " - " if sign < 0 else " + ")
        text += "·".join(factors)
    return text


# -- workloads ----------------------------------------------------------------------

def build(name: str, seed: int, workdir: str | None = None) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return {"ring_algebra": _ring_algebra, "bulk_eval": _bulk_eval,
            "small_calls": _small_calls}[name](rng, seed, workdir)


def _convolve_request(rng, n, window=256, n_mid=64):
    a = seqpoly.QSeq.from_components(rng.uniform(-1.0, 1.0, (n, 4)))
    b = seqpoly.QSeq.from_components(rng.uniform(-1.0, 1.0, (n, 4)))
    mid = np.sort(rng.choice(np.arange(window, 2 * n - 1 - window), n_mid, replace=False))
    ref = {}

    def prepare():
        # the first `window` outputs depend only on the first `window`
        # inputs, the last ones only on the last; middle entries by the
        # defining sum c_l = sum_t a_t b_(l-t)
        ref["head"] = seqpoly.convolve_naive(
            seqpoly.QSeq.from_components(a.comps[:window]),
            seqpoly.QSeq.from_components(b.comps[:window])).comps[:window]
        ref["tail"] = seqpoly.convolve_naive(
            seqpoly.QSeq.from_components(a.comps[-window:]),
            seqpoly.QSeq.from_components(b.comps[-window:])).comps[-window:]
        rows = []
        for l in mid:
            t = np.arange(max(0, l - n + 1), min(l, n - 1) + 1)
            rows.append(qmul(a.comps[t], b.comps[l - t]).sum(axis=0))
        ref["mid"] = np.array(rows)

    def check(out):
        got = out.comps
        if got.shape != (2 * n - 1, 4):
            return "shape", None
        want = np.concatenate([ref["head"], ref["mid"], ref["tail"]])
        have = np.concatenate([got[:window], got[mid], got[-window:]])
        err = float(np.max(np.abs(have - want))) / max(float(np.max(np.abs(want))), 1e-300)
        return _verdict(err, TOL_CONVOLVE)

    return Request("convolve", f"convolve {n}x{n}",
                   lambda: seqpoly.convolve_fast(a, b), prepare, check,
                   inputs=(a.comps, b.comps, mid))


def _mul_request(rng, degree):
    p = random_quadruple(rng, degree)
    q = random_quadruple(rng, degree)
    ref = {}

    def prepare():
        ref["want"] = p.mul_naive(q)

    def check(out):
        return _verdict(coeff_error(out, ref["want"]), TOL_MAPPING)

    return Request("mul", f"mul_fast degree {degree}",
                   lambda: p.mul_fast(q), prepare, check,
                   inputs=[c.table for c in p.comps + q.comps])


def _expand_request(terms, label, known_defect=None):
    parsed = expr.parse_expression(terms_text(terms))
    ref = {}

    def prepare():
        ref["want"] = naive_ordered_product(terms)

    def check(out):
        err = coeff_error(out, ref["want"])
        if err > TOL_MAPPING:
            return "value", err
        if out.degree != ref["want"].degree:
            return "degree", err
        return None, err

    return Request("expand", label, lambda: expr.expand(parsed), prepare, check,
                   known_defect=known_defect, inputs=(terms_text(terms),))


def _affine_request(rng, degree, side, n_check=32):
    p = random_quadruple(rng, degree)
    while True:
        t = rng.uniform(-1.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
        if abs(np.linalg.det(t)) > 1e-3:
            break
    off = rng.uniform(-1.0, 1.0, 4)
    axes = [rng.uniform(-1.0, 1.0, side) for _ in range(4)]
    picks = rng.integers(0, side, (n_check, 4))
    ref = {}

    def prepare():
        ref["want"] = np.array([
            p.evaluate(Quaternion(*(t @ np.array([axes[m][i[m]] for m in range(4)]) + off)))
            .components() for i in picks])

    def check(out):
        if out.shape != (side,) * 4 + (4,):
            return "shape", None
        have = out[tuple(picks.T)]
        want = ref["want"]
        scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
        err = float(np.max(np.max(np.abs(have - want), axis=1) / scale))
        return _verdict(err, TOL_EVAL)

    return Request("affine_grid", f"affine_grid_multieval degree {degree} on {side}^4",
                   lambda: p.affine_grid_multieval(t, off, axes), prepare, check,
                   inputs=[c.table for c in p.comps] + [t, off, picks] + axes)


def _multieval_request(op, poly, xs, label, check_idx):
    sub = [xs[i] for i in check_idx]
    ref = {}

    def prepare():
        ref["want"] = comps(onesided.multieval_naive(poly, sub))

    def check(out):
        if len(out) != len(xs):
            return "shape", None
        return _verdict(pointwise_error(comps([out[i] for i in check_idx]), ref["want"]),
                        TOL_EVAL)

    coeffs = ((poly.comps,) if isinstance(poly, onesided.OneSidedPoly)
              else (poly.left, poly.right))
    return Request(op, label, lambda: onesided.multieval_fast(poly, xs), prepare, check,
                   inputs=coeffs + (comps(xs), check_idx))


def _nbody_request(poles, xs, label, check_idx):
    sub = [xs[i] for i in check_idx]
    ref = {}

    def prepare():
        ref["want"] = comps(onesided.nbody_naive(poles, sub))

    def check(out):
        if len(out) != len(xs):
            return "shape", None
        return _verdict(pointwise_error(comps([out[i] for i in check_idx]), ref["want"]),
                        TOL_EVAL)

    return Request("nbody", label, lambda: onesided.nbody_multieval(poles, xs),
                   prepare, check, inputs=(poles, comps(xs), check_idx))


def _ring_algebra(rng, seed, workdir):
    requests = [
        _convolve_request(rng, 1 << 15),
        _mul_request(rng, 10),
        _expand_request([(1, random_product(rng, 16))], "expand 16-factor product"),
        _expand_request(CANCELLING, "expand (X·i·X·j)^4 - (j·X·i·X)^4",
                        known_defect="degree"),
        _affine_request(rng, 6, 12),
    ]
    return Workload("ring_algebra", requests)


def _bulk_eval(rng, seed, workdir):
    # Sizes are large enough that every evaluation takes the multipole far
    # field and the N-body collision check builds its dense points x poles
    # matrix (about 0.4 GB of peak memory), yet small enough for about
    # twenty rounds in a 30-second run.
    n1, n2 = 1 << 14, 1 << 12
    p1 = onesided.OneSidedPoly.from_components(rng.uniform(-1.0, 1.0, (n1, 4)))
    x1 = shell_points(rng, n1, 0.5, 1.0)
    p2 = onesided.TwoSidedPoly(left=rng.uniform(-1.0, 1.0, (n2, 4)),
                               right=rng.uniform(-1.0, 1.0, (n2, 4)))
    x2 = shell_points(rng, n2, 0.5, 1.0)
    poles = rng.uniform(-1.0, 1.0, n2)
    x3 = ball_points(rng, n2, 1.0)
    pick = lambda n: np.sort(rng.choice(n, 8, replace=False))  # noqa: E731
    requests = [
        _multieval_request("multieval1", p1, quats(x1), "one-sided 2^14 at 2^14 points",
                           pick(n1)),
        _multieval_request("multieval2", p2, quats(x2), "two-sided 2^12 at 2^12 points",
                           pick(n2)),
        _nbody_request(poles, quats(x3), "2^12 poles at 2^12 points", pick(n2)),
    ]
    return Workload("bulk_eval", requests, points=[x1, x2],
                    two_sided=[_left_only(p1.comps), (p2.left, p2.right)])


def _interpolate_request(rng, n, label):
    xs = quats(ball_points(rng, n, 0.9))
    ys = quats(ball_points(rng, n, 1.0))
    return Request("interpolate", label, lambda: onesided.interpolate(xs, ys), lambda: None,
                   lambda out: interpolation_residual(out, xs, ys),
                   inputs=(comps(xs), comps(ys)))


def interpolation_residual(poly, xs, ys):
    got = comps([poly.horner_eval(x) for x in xs])
    want = comps(ys)
    err = float(np.max(np.linalg.norm(got - want, axis=1))) / max(
        float(np.max(np.linalg.norm(want, axis=1))), 1e-300)
    return _verdict(err, TOL_EVAL)


def _zero_test_request(text, expected, stream, known_defect=None):
    def call():
        return expr.zero_test(expr.parse_expression(text), ZERO_TEST_EPSILON,
                              np.random.default_rng(stream))

    def check(out):
        return (None if out == expected else "verdict"), None

    return Request("zero_test", f"zero_test {text}", call, lambda: None, check,
                   known_defect=known_defect, inputs=(text, np.array(stream)))


#: copies of the small_calls request mix in one round, each on its own
#: inputs; a round of about 0.2 s gives about a hundred rounds per run, so
#: the tail percentile rests on rounds that each average many requests
SMALL_COPIES = 4


def _small_calls(rng, seed, workdir):
    if workdir is None:
        raise ValueError("small_calls needs a work directory for its CLI files")
    requests = []
    points = []
    one_sided = []
    for copy in range(SMALL_COPIES):
        for k in range(4):
            requests.append(_interpolate_request(rng, 12, f"interpolate 12 nodes #{k}"))
        for k, (text, expected, known) in enumerate((
                (VANISHING, "zero", None),
                (ROOTLESS, "non-zero", None),
                (HUGE_CANCEL, "non-zero", "verdict"))):
            requests.append(_zero_test_request(text, expected, [seed, 7, copy, k], known))
        for k in range(4):
            p = onesided.OneSidedPoly.from_components(rng.uniform(-1.0, 1.0, (64, 4)))
            xs = np.concatenate([shell_points(rng, 21, 0.0, 0.5),
                                 shell_points(rng, 21, 0.5, 1.0),
                                 shell_points(rng, 22, 1.0, 1.5)])
            points.append(xs)
            one_sided.append(p.comps)
            requests.append(_multieval_request("multieval1", p, quats(xs),
                                               f"64 coefficients at 64 points #{k}",
                                               np.arange(64)))
        for k in range(2):
            poles = rng.uniform(-1.0, 1.0, 256)
            requests.append(_nbody_request(poles, quats(ball_points(rng, 256, 1.0)),
                                           f"256 poles at 256 points #{k}",
                                           np.sort(rng.choice(256, 32, replace=False))))
        requests += _cli_requests(rng, os.path.join(workdir, str(copy)), seed + copy,
                                  points, one_sided)
    return Workload("small_calls", requests, points=points,
                    two_sided=[_left_only(c) for c in one_sided])


def _write(path, qs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_quaternion_lines(qs))


def _cli_requests(rng, workdir, seed, points, one_sided):
    os.makedirs(workdir, exist_ok=True)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    coeffs = rng.uniform(-1.0, 1.0, (256, 4))
    xs = ball_points(rng, 256, 1.0)
    points.append(xs)
    one_sided.append(coeffs)
    ix = quats(ball_points(rng, 12, 0.9))
    iy = quats(ball_points(rng, 12, 1.0))
    _write(path("poly.txt"), quats(coeffs))
    _write(path("points.txt"), quats(xs))
    _write(path("nodes.txt"), ix)
    _write(path("values.txt"), iy)
    ref = {}

    def prepare():
        # the oracle sees the coefficients and points as the CLI parses them
        poly = onesided.OneSidedPoly(read_quaternion_file(path("poly.txt")))
        ref["multieval"] = comps(onesided.multieval_naive(
            poly, read_quaternion_file(path("points.txt"))))

    def run_multieval():
        return cli.main(["multieval", "-p", path("poly.txt"), "-x", path("points.txt"),
                         "-o", path("multieval.out")])

    def check_multieval(code):
        if code != 0:
            return "exit", None
        got = comps(read_quaternion_file(path("multieval.out")))
        if got.shape != ref["multieval"].shape:
            return "shape", None
        return _verdict(pointwise_error(got, ref["multieval"]), TOL_EVAL)

    def run_interpolate():
        return cli.main(["interpolate", "-x", path("nodes.txt"), "-y", path("values.txt"),
                         "-o", path("interpolate.out")])

    def check_interpolate(code):
        if code != 0:
            return "exit", None
        poly = onesided.OneSidedPoly(read_quaternion_file(path("interpolate.out")))
        return interpolation_residual(poly, ix, iy)

    def run_zerotest():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["zerotest", "-e", ROOTLESS, "--epsilon",
                             str(ZERO_TEST_EPSILON), "--seed", str(seed)])
        return code, buf.getvalue().strip()

    def check_zerotest(out):
        return (None if out == (0, "non-zero") else "verdict"), None

    return [
        Request("cli", "cli multieval 256x256 via files", run_multieval, prepare,
                check_multieval, inputs=(coeffs, xs, comps(ix), comps(iy))),
        Request("cli", "cli interpolate 12 via files", run_interpolate, lambda: None,
                check_interpolate),
        Request("cli", "cli zerotest", run_zerotest, lambda: None, check_zerotest),
    ]
