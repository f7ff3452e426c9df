"""Tests of the benchmark itself: metric names, the tracer's wrappers,
absent boundaries, seeded inputs and the refusal to run without sources.

    PYTHONPATH=src python3 -m pytest -q qpbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Boundary, Tracer  # noqa: E402

from quatpoly import complexpoly, onesided  # noqa: E402
from quatpoly.quaternion import Quaternion  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_unique():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            assert NAME_RE.match(m["name"]), m["name"]
            assert UNIT_RE.match(m["unit"]), m["unit"]
            assert m["better"] in ("lower", "higher")
            names.append(m["name"])
        keys = {"name", "unit", "better", "bound"} if group == "end_to_end" else \
            {"name", "unit", "better"}
        assert all(set(m) == keys for m in spec[group])
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_spec_matches_what_the_runs_report():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    fake = {
        "layers": {k: 0.0 for k in layers.layer_units()},
        "layer_units": layers.layer_units(),
        "op_rounds": {name: [1.0] for name in workloads.OP_METRICS.values()},
        "rounds": [1.0], "traced_rounds": [1.0], "attempted": 1, "failures": {},
        "input": {"input.share_deep": 0.0, "input.share_annulus": 0.0,
                  "input.share_outer": 0.0, "input.live_cells": 0},
        "overhead_frac": 0.0, "coverage": 1.0, "absent": [],
    }
    metrics, _ = run.per_layer(fake)
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(workloads.OP_METRICS.values()) == set(run.OP_METRICS)


def test_wrappers_install_and_remove_cleanly():
    originals = {}
    for b in layers.BOUNDARIES:
        for binding in b.bindings:
            module, _, path = binding.partition(":")
            owner = __import__(module, fromlist=["_"])
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            originals[binding] = (owner, attr, vars(owner)[attr])
    tracer = Tracer(layers.BOUNDARIES)
    tracer.install()
    try:
        assert tracer.absent == []
        for owner, attr, original in originals.values():
            assert getattr(owner, attr) is not original
        rng = np.random.default_rng(0)
        p = onesided.OneSidedPoly.from_components(rng.uniform(-1, 1, (64, 4)))
        xs = [Quaternion(*row) for row in workloads.shell_points(rng, 64, 0.5, 1.0)]
        with tracer.op("multieval1"):
            onesided.multieval_fast(p, xs)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original
    assert tracer.stats["quaternion.rotation"].calls == 64
    assert tracer.stats["complexpoly.fft"].calls >= 1
    # 64 targets against the 128 circle nodes of a 64-coefficient polynomial
    assert tracer.stats["complexpoly.dense"].work == 64 * 128
    assert 0.0 < tracer.coverage() <= 1.0
    calls = tracer.stats["complexpoly.fft"].calls
    complexpoly.fft(np.ones(8))
    assert tracer.stats["complexpoly.fft"].calls == calls


def test_absent_boundary_is_reported_not_raised():
    fft = complexpoly.fft
    tracer = Tracer([
        Boundary("gone.fn", ("quatpoly.complexpoly:no_such_function",)),
        Boundary("gone.module", ("quatpoly.no_such_module:fn",)),
        Boundary("gone.method", ("quatpoly.mappoly:NoSuchClass.mul_fast",)),
        Boundary("complexpoly.fft", ("quatpoly.complexpoly:fft",)),
    ])
    tracer.install()
    try:
        assert tracer.absent == ["quatpoly.complexpoly:no_such_function",
                                 "quatpoly.no_such_module:fn",
                                 "quatpoly.mappoly:NoSuchClass.mul_fast"]
        assert complexpoly.fft is not fft
    finally:
        tracer.uninstall()
    assert complexpoly.fft is fft
    complexpoly.fft(np.ones(8))
    assert tracer.stats["complexpoly.fft"].calls == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    dirs = [tmp_path / str(k) for k in range(3)]
    for d in dirs:
        d.mkdir()
    a = workloads.build(name, 5, str(dirs[0]))
    b = workloads.build(name, 5, str(dirs[1]))
    c = workloads.build(name, 6, str(dirs[2]))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert [r.label for r in a.requests] == [r.label for r in b.requests]
    if name == "small_calls":
        files = sorted(f.relative_to(dirs[0]) for f in dirs[0].rglob("*") if f.is_file())
        assert files
        for f in files:
            assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()


def test_known_defects_are_checked_not_dropped(tmp_path):
    ring = workloads.build("ring_algebra", 1)
    small = workloads.build("small_calls", 1, str(tmp_path))
    known = {(r.label, r.known_defect) for r in ring.requests + small.requests
             if r.known_defect}
    assert known == {("expand (X·i·X·j)^4 - (j·X·i·X)^4", "degree"),
                     ("zero_test 1e20·X·X - 1e20·X·X + 1", "verdict")}
    req = next(r for r in small.requests if r.known_defect)
    assert req.check("zero") == ("verdict", None)
    assert req.check("non-zero") == (None, None)


def test_tail_has_ten_samples_beyond():
    samples = list(range(1, 101))
    value, pct, beyond = run.tail(samples)
    assert sum(s > value for s in samples) == beyond == 10
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "qpbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "qpbench/run.py", "--workload", "ring_algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
