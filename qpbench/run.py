"""quatpoly benchmark entry point.

Usage, from the root of a checkout:

    python3 qpbench/run.py --workload ring_algebra --seed 1 --seconds 20 --trace 0

Each workload runs in worker processes (qpbench/worker.py) that run that
workload only, with one closed-loop caller and BLAS/OpenMP pinned to one
thread.  With --trace 0 the end-to-end metrics are reported: three
workers run one after the other, each for a third of --seconds, and their
rounds are pooled; set-up time is the median of their three set-ups, each
timed from process start until imports, input generation and one warm-up
call of every request are done.  With --trace 1 one worker alternates
untraced and traced rounds and the per-layer metrics are reported.  Every output is checked against a naive oracle.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and record the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ring_algebra", "bulk_eval", "small_calls")

#: workers per --trace 0 run; each measures an equal share of --seconds
WORKERS = 3

#: relative errors below this count as exact in accuracy_digits
ERR_FLOOR = 1e-17

#: the whole run is stopped after this many seconds
DEADLINE_S = 175.0

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "round_s": "s",
    "round_tail_s": "s",
    "passed_frac": "ratio",
    "accuracy_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

OP_METRICS = ("convolve_s", "mul1_s", "expand_s", "affine_grid_s", "multieval1_s",
              "multieval2_s", "nbody_s", "interpolate_s", "zerotest_s", "cli_s")

KNOWN_BEHAVIOUR = (
    "with 2 OpenBLAS threads, grid_multieval at degree 6 on a 12^4 grid is bimodal "
    "(p25 2.5 ms, p75 63 ms; 1 thread: 1.8 and 2.1 ms); threads are pinned to 1 here "
    "and the multi-thread behaviour is left for a later issue")


class BenchError(Exception):
    pass


def _read_proc(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _read_proc("/proc/cpuinfo", "model name"),
        "ram": _read_proc("/proc/meminfo", "MemTotal"),
    }


class Worker:
    """One worker process; `ready_s` is the time from spawn to its ready line."""

    def __init__(self, args, mode, seconds, deadline):
        env = dict(os.environ)
        env.update({name: "1" for name in PINNED_THREADS})
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--mode", mode]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                     text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()
        try:
            self._expect("ready")
        except BenchError:
            self._abandon()
            raise
        self.ready_s = time.perf_counter() - start

    def _expect(self, event):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended before its {event!r} line "
                             f"(exit code {self.proc.wait()})")
        try:
            msg = json.loads(line)
        except ValueError:
            raise BenchError(f"worker sent a line that is not JSON: {line[:200]!r}") from None
        if msg.get("event") != event:
            raise BenchError(f"worker sent {msg.get('event')!r}, expected {event!r}")
        return msg

    def result(self):
        try:
            msg = self._expect("result")
        except BenchError:
            self._abandon()
            raise
        self.close()
        return msg

    def _abandon(self):
        """Stop a worker that already failed, keeping the first error."""
        self.proc.kill()
        with contextlib.suppress(BenchError):
            self.close()

    def close(self):
        try:
            self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum below 11 samples."""
    s = sorted(samples, reverse=True)
    n = len(s)
    if n < 11:
        return s[0], 100.0, 0
    return s[10], 100.0 * (n - 10) / n, 10


def _metric(value, unit):
    return {"value": value, "unit": unit}


def failed_count(res):
    return sum(f["count"] for f in res["failures"].values())


def end_to_end(res, setup_times):
    rounds = res["rounds"]
    value, pct, beyond = tail(rounds)
    failed = failed_count(res)
    worst = max(res["worst_err"], ERR_FLOOR)
    metrics = {
        "round_s": statistics.median(rounds),
        "round_tail_s": value,
        "passed_frac": (res["attempted"] - failed) / res["attempted"],
        "accuracy_digits": -math.log10(worst),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [f"round_tail_s is p{pct:.2f} of {len(rounds)} rounds "
             f"({beyond} rounds beyond it)",
             f"failed_frac {failed / res['attempted']!r} ratio "
             f"({failed} of {res['attempted']} requests)",
             f"setup_s is the median of {len(setup_times)} worker set-ups: "
             + ", ".join(f"{t:.4f}" for t in setup_times)]
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def op_times(res):
    """Median over rounds of the time a round spends in each op; 0 for ops
    the workload does not run."""
    return {name: statistics.median(res["op_rounds"][name]) if name in res["op_rounds"]
            else 0.0 for name in OP_METRICS}


def pooled(results):
    """One result from the runs of several workers of the same workload."""
    out = dict(results[0])
    out["rounds"] = [x for r in results for x in r["rounds"]]
    out["op_rounds"] = {name: [x for r in results for x in r["op_rounds"][name]]
                        for name in results[0]["op_rounds"]}
    out["attempted"] = sum(r["attempted"] for r in results)
    out["worst_err"] = max(r["worst_err"] for r in results)
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    failures = {}
    for r in results:
        for key, f in r["failures"].items():
            entry = failures.setdefault(key, {"count": 0, "known_defect": f["known_defect"]})
            entry["count"] += f["count"]
    out["failures"] = failures
    return out


def per_layer(res):
    layer_units = res["layer_units"]
    metrics = {k: _metric(v, layer_units[k]) for k, v in res["layers"].items()}
    for name, value in op_times(res).items():
        metrics[name] = _metric(value, "s")
    metrics["failed_frac"] = _metric(failed_count(res) / res["attempted"], "ratio")
    for name, value in res["input"].items():
        metrics[name] = _metric(value, "count" if name == "input.live_cells" else "ratio")
    metrics["trace.overhead_frac"] = _metric(res["overhead_frac"], "ratio")
    metrics["trace.coverage"] = _metric(res["coverage"], "ratio")
    metrics["trace.absent"] = _metric(len(res["absent"]), "count")
    notes = [f"per-layer values are per traced round, over {len(res['traced_rounds'])} "
             f"traced rounds; op times are medians over {len(res['rounds'])} untraced "
             "rounds run alternately with them",
             "work counts (unit computed_count) are computed from argument shapes",
             "absent boundaries: " + (", ".join(res["absent"]) or "none")]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "quatpoly", "__init__.py")):
        print(f"error: no quatpoly sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            worker = Worker(args, "trace", args.seconds, deadline)
            res = worker.result()
            metrics, notes = per_layer(res)
        else:
            # the run is split over several workers, one after the other:
            # their set-up times give setup_s, and pooling their rounds
            # averages out what differs from one process to the next
            results, setup_times = [], []
            for _ in range(WORKERS):
                worker = Worker(args, "run", args.seconds / WORKERS, deadline)
                setup_times.append(worker.ready_s)
                results.append(worker.result())
            res = pooled(results)
            metrics, notes = end_to_end(res, setup_times)
            notes.append("op times: " + ", ".join(
                f"{k} {v:.6f} s" for k, v in op_times(res).items() if v))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    env = environment()
    env.update(res["versions"])
    unexpected = [k for k, f in res["failures"].items() if not f["known_defect"]]
    print(f"# qpbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}, ram {env['ram']}")
    print(f"# threads pinned to 1: {', '.join(PINNED_THREADS)}; one closed-loop caller")
    print(f"# known behaviour: {KNOWN_BEHAVIOUR}")
    for key, f in res["failures"].items():
        tag = "known seed defect" if f["known_defect"] else "UNEXPECTED"
        print(f"# failure ({tag}): {key} x{f['count']}")
    for note in notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": res["attempted"],
                      "failed": failed_count(res), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
