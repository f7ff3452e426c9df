"""Command-line front end.

Exit codes: 0 on success (including a "non-zero" zero-test verdict), 1 on
domain errors such as infeasible interpolation nodes, 2 on usage, syntax,
or file problems.  Randomized commands take --seed and default to a fixed
seed, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import expr as expr_mod
from . import fileio, mappoly, onesided, seqpoly
from .errors import NonFiniteValue, ParseError, QuatPolyError
from .qarray import to_quaternions
from .quaternion import format_quaternion, parse_quaternion, random_quaternion


def _write_output(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_eval(args):
    e = expr_mod.parse_expression(args.expr)
    x = parse_quaternion(args.point)
    print(format_quaternion(expr_mod.eval_at(e, x), digits=17))
    return 0


def _cmd_expand(args):
    e = expr_mod.parse_expression(args.expr)
    quad = expr_mod.expand(e)
    _write_output(quad.to_text(), args.output)
    return 0


def _cmd_zerotest(args):
    e = expr_mod.parse_expression(args.expr)
    rng = np.random.default_rng(args.seed)
    print(expr_mod.zero_test(e, args.epsilon, rng))
    return 0


def _cmd_convolve(args):
    a = seqpoly.QSeq(fileio.read_quaternion_file(args.a))
    b = seqpoly.QSeq(fileio.read_quaternion_file(args.b))
    conv = seqpoly.convolve_naive(a, b) if args.naive else seqpoly.convolve_fast(a, b)
    _write_output(fileio.format_quaternion_lines(conv), args.output)
    return 0


def _cmd_multieval(args):
    p = onesided.OneSidedPoly(fileio.read_quaternion_file(args.poly))
    xs = fileio.read_quaternion_file(args.points)
    if args.naive:
        values = onesided.multieval_naive(p, xs)
    else:
        values = onesided.multieval_fast(p, xs)
    _write_output(fileio.format_quaternion_lines(values), args.output)
    return 0


def _cmd_interpolate(args):
    xs = fileio.read_quaternion_file(args.points)
    ys = fileio.read_quaternion_file(args.values)
    p = onesided.interpolate(xs, ys)
    _write_output(fileio.format_quaternion_lines(p), args.output)
    return 0


def _cmd_nbody(args):
    poles = fileio.read_reals_file(args.poles)
    xs = fileio.read_quaternion_file(args.points)
    if args.naive:
        values = onesided.nbody_naive(poles, xs)
    else:
        values = onesided.nbody_multieval(poles, xs)
    _write_output(fileio.format_quaternion_lines(values), args.output)
    return 0


def _bench_convolve(n, rng):
    a = seqpoly.random_qseq(n, rng)
    b = seqpoly.random_qseq(n, rng)
    return lambda: seqpoly.convolve_fast(a, b)


def _bench_multieval(n, rng):
    p = onesided.random_one_sided(n, rng)
    # points clamped into the unit ball: at bench degrees, values at
    # larger points overflow doubles no matter the algorithm
    xs = []
    for _ in range(n):
        x = random_quaternion(rng)
        norm = x.norm()
        xs.append(x / norm if norm > 1.0 else x)
    return lambda: onesided.multieval_fast(p, xs)


def _bench_mul1(n, rng):
    p = mappoly.random_quadruple(n, rng)
    q = mappoly.random_quadruple(n, rng)
    return lambda: p.mul_fast(q)


def _bench_expand(n, rng):
    # the alternating product X·c1·X·c2···X·cn of degree n, constants along
    # random units; balanced expansion multiplies many of its partial
    # products by a constant
    factors = []
    for _ in range(n):
        unit = ("", "i", "j", "k")[int(rng.integers(0, 4))]
        factors += ["X", f"{rng.uniform(0.5, 2.0):.3f}{unit}"]
    e = expr_mod.parse_expression("·".join(factors))
    return lambda: expr_mod.expand(e)


def _bench_affine(n, rng):
    p = mappoly.random_quadruple(n, rng)
    t = rng.uniform(-1.0, 1.0, (4, 4)) + 2.0 * np.eye(4)
    off = rng.uniform(-1.0, 1.0, 4)
    return lambda: p.affine_substitute(t, off)


def _unit_ball(n, rng):
    """n quaternions uniform in the unit 4-ball: random directions at radius U^(1/4)."""
    pts = rng.standard_normal((n, 4))
    pts *= (rng.uniform(0.0, 1.0, n) ** 0.25 / np.linalg.norm(pts, axis=1))[:, None]
    return to_quaternions(pts)


def _bench_nbody(n, rng):
    poles = rng.uniform(-1.0, 1.0, n)
    xs = _unit_ball(n, rng)
    return lambda: onesided.nbody_multieval(poles, xs)


def _bench_interpolate(n, rng):
    # nodes cos(2 pi k/n) + sin(2 pi k/n) w_k for random unit pure w_k:
    # complex images on the unit circle, at most two nodes per class
    ang = 2.0 * np.pi * np.arange(n) / n
    w = rng.standard_normal((n, 3))
    w /= np.linalg.norm(w, axis=1)[:, None]
    xs = to_quaternions(np.column_stack([np.cos(ang), np.sin(ang)[:, None] * w]))
    ys = _unit_ball(n, rng)
    return lambda: onesided.interpolate(xs, ys)


_BENCH_OPS = {
    "affine": _bench_affine,
    "convolve": _bench_convolve,
    "expand": _bench_expand,
    "interpolate": _bench_interpolate,
    "multieval": _bench_multieval,
    "mul1": _bench_mul1,
    "nbody": _bench_nbody,
}


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)
    runners = []
    for n in sizes:
        run = _BENCH_OPS[args.op](n, rng)
        t0 = time.perf_counter()
        run()  # warm caches and calibrate the loop count
        warm = time.perf_counter() - t0
        # aggregate at least ~0.2 s per timed run so small sizes are not
        # dominated by timer noise; reported seconds are still per call
        runners.append((n, run, max(1, round(0.2 / max(warm, 1e-9)))))
    # interleave the repeats across sizes so machine-load drift hits every
    # size alike instead of skewing whichever ran last
    samples = {n: [] for n in sizes}
    for _ in range(args.repeats):
        for n, run, loops in runners:
            t0 = time.perf_counter()
            for _ in range(loops):
                run()
            samples[n].append((time.perf_counter() - t0) / loops)
    lines = ["size,seconds"]
    for n in sizes:
        lines.append(f"{n},{np.median(samples[n]):.8f}")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatpoly",
        description="quaternion polynomial arithmetic: evaluation, expansion, "
                    "zero testing, convolution, multi-evaluation, interpolation, "
                    "N-body sums, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a point")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-x", "--point", required=True, help="quaternion literal")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("expand", help="expand a bracket-free expression into a "
                                      "component-table file")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("zerotest", help="randomized zero test (one-sided error)")
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_zerotest)

    p = sub.add_parser("convolve", help="convolve two coefficient files")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--naive", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("multieval", help="evaluate a left-coefficient polynomial "
                                         "at many points")
    p.add_argument("-p", "--poly", required=True, help="coefficient file")
    p.add_argument("-x", "--points", required=True, help="points file")
    p.add_argument("--naive", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_multieval)

    p = sub.add_parser("interpolate", help="fit the unique low-degree polynomial "
                                           "through point/value pairs")
    p.add_argument("-x", "--points", required=True)
    p.add_argument("-y", "--values", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("nbody", help="sum of inverses against real poles")
    p.add_argument("-a", "--poles", required=True)
    p.add_argument("-x", "--points", required=True)
    p.add_argument("--naive", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_nbody)

    p = sub.add_parser("bench", help="time an operation over a size list, CSV out")
    p.add_argument("--op", choices=sorted(_BENCH_OPS), required=True)
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process; parsing leaves it as
    it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, NonFiniteValue, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: cannot read {err.filename}", file=sys.stderr)
        return 2
    except (QuatPolyError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
