"""Run the benchmark over several seeds and report each metric's spread.

    python3 qpbench/spread.py --workloads ring_algebra,bulk_eval,small_calls \
        --seeds 1-10 --seconds 20 [--trace 0|1] [--out qpbench/results/x.json]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --out the per-seed values and the summary are saved
under the key trace0 or trace1 of that JSON file, replacing only the
workloads this call ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("#")], took


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res, notes, took = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "wall_s": took, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "notes": notes})
            print(f"{workload} seed {seed}: {took:.1f} s wall, correct={res['correct']}",
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            med, rel = spread([r["metrics"][name] for r in runs])
            summary[name] = {"median": med, "iqr_frac": rel, "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  OK" if rel < bound / 3 else "  WIDE" if rel < bound else "  OVER")
            print(f"  {name:40s} median {med:.6g}  spread {rel:.4f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        # runs with tracing off and on are kept side by side in one file
        saved = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                saved = json.load(fh)
        merged = saved.setdefault(f"trace{args.trace}", report)
        merged["workloads"].update(report["workloads"])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
