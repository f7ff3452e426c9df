"""One workload in one process: set-up, timed rounds, checks.

Started by run.py with BLAS and OpenMP pinned to one thread.  Writes JSON
lines to its standard output: ``{"event": "ready"}`` once imports, input
generation and one warm-up call of every request are done (the parent
times set-up up to that line), then one ``{"event": "result", ...}`` line.
Anything the library prints goes to standard error instead.

Modes:
  run    rounds with tracing off until --seconds have passed;
  trace  alternate untraced and traced rounds, so that the traced run
         yields per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".qpbench_work")

sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import quatpoly  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import OP_METRICS  # noqa: E402

#: fewest rounds a run makes, whatever --seconds says
MIN_ROUNDS = 3


def run_round(workload, tracer=None):
    """Time every request of one round; check the outputs afterwards, with
    the tracer (if any) removed so that checks do not count as work."""
    clock = time.perf_counter
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        for req in workload.requests:
            span = tracer.op(req.op) if tracer is not None else contextlib.nullcontext()
            start = clock()
            try:
                with span:
                    out = req.call()
                raised = None
            except Exception as exc:  # a library error is a failed request
                out, raised = None, exc
            outputs.append((req, clock() - start, out, raised))
    finally:
        if tracer is not None:
            tracer.uninstall()
    per_op = {name: 0.0 for name in OP_METRICS.values()}
    failures = []
    errors = []
    for req, took, out, raised in outputs:
        per_op[OP_METRICS[req.op]] += took
        if raised is not None:
            kind, err = f"raised {type(raised).__name__}", None
        else:
            try:
                kind, err = req.check(out)
            except Exception as exc:  # an output of the wrong type or shape
                kind, err = f"check raised {type(exc).__name__}", None
        if err is not None:
            errors.append(err)
        if kind is not None:
            failures.append((req.label, kind, kind == req.known_defect))
    return sum(per_op.values()), per_op, failures, errors


def measure(wl, seconds, traced):
    tracer = Tracer(layers.BOUNDARIES) if traced else None
    ops = sorted({OP_METRICS[req.op] for req in wl.requests})
    rounds, traced_rounds = [], []
    op_rounds = {name: [] for name in ops}
    failures = {}
    attempted = 0
    worst = 0.0
    start = time.perf_counter()
    k = 0
    while k < MIN_ROUNDS * (2 if traced else 1) or time.perf_counter() - start < seconds:
        gc.collect()
        with_trace = traced and k % 2 == 1
        took, per_op, failed, errors = run_round(wl, tracer if with_trace else None)
        attempted += len(wl.requests)
        for label, kind, known in failed:
            entry = failures.setdefault(f"{label}: {kind}", {"count": 0, "known_defect": known})
            entry["count"] += 1
        worst = max([worst] + errors)
        if with_trace:
            traced_rounds.append(took)
        else:
            rounds.append(took)
            for name in ops:
                op_rounds[name].append(per_op[name])
        k += 1
    result = {"rounds": rounds, "op_rounds": op_rounds, "attempted": attempted,
              "failures": failures, "worst_err": worst}
    if tracer is not None:
        result.update(
            traced_rounds=traced_rounds,
            layers=layers.layer_metrics(tracer, len(traced_rounds)),
            layer_units=layers.layer_units(),
            absent=tracer.absent,
            coverage=tracer.coverage(),
            overhead_frac=statistics.median(traced_rounds) / statistics.median(rounds) - 1.0)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(quatpoly.__file__)) != os.path.join(SRC, "quatpoly"):
        print(f"error: imported quatpoly from {quatpoly.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        for req in wl.requests:
            try:
                req.call()
            except Exception:  # counted as a failure when the rounds run it
                pass
        emit({"event": "ready"})
        wl.prepare()
        result = measure(wl, args.seconds, args.mode == "trace")
        result.update(event="result", input=wl.input_stats(),
                      versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        emit(result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
