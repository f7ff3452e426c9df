"""The traced layer boundaries and the end-to-end metrics each should move.

Every boundary is wrapped at the binding its caller looks up: for example
``quatpoly.onesided:rotation_to_complex`` (the name onesided imported),
not only the defining ``quatpoly.quaternion`` one.  Work counts are
computed from argument shapes, not measured.
"""

from __future__ import annotations

import numpy as np

from tracer import Boundary

Q = "quatpoly."


def _size(value) -> int:
    return int(np.size(value))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


BOUNDARIES = (
    Boundary("complexpoly.fft", (Q + "complexpoly:fft",),
             ("calls", "self_s", "points"),
             ("points", lambda a, k: _size(_arg(a, k, 0, "values"))),
             "convolve_s, mul1_s, expand_s", "ring_algebra; flat on bulk_eval"),
    Boundary("complexpoly.multieval", (Q + "complexpoly:_multieval_rows",),
             ("calls", "self_s"), None,
             "multieval1_s, multieval2_s", "bulk_eval"),
    Boundary("complexpoly.far_field", (Q + "complexpoly:_cauchy_multipole",),
             ("self_s", "targets"),
             ("targets", lambda a, k: _size(_arg(a, k, 2, "ys"))),
             "multieval1_s, multieval2_s", "bulk_eval; 0 calls on small_calls"),
    Boundary("complexpoly.dense", (Q + "complexpoly:_cauchy_dense",),
             ("self_s", "pairs"),
             ("pairs", lambda a, k: _size(_arg(a, k, 2, "ys"))
              * _size(_arg(a, k, 1, "nodes"))),
             "multieval1_s", "small_calls"),
    Boundary("complexpoly.horner", (Q + "complexpoly:_horner_rows",),
             ("self_s", "points"),
             ("points", lambda a, k: _size(_arg(a, k, 1, "pts"))),
             "multieval1_s", "small_calls"),
    Boundary("complexpoly.line_sum", (Q + "complexpoly:cauchy_line_sum",),
             ("self_s", "targets"),
             ("targets", lambda a, k: _size(_arg(a, k, 2, "ys"))),
             "nbody_s", "bulk_eval"),
    Boundary("quaternion.rotation", (Q + "onesided:rotation_to_complex",),
             ("calls", "self_s"), None,
             "multieval1_s, multieval2_s, nbody_s", "bulk_eval"),
    Boundary("quaternion.parse", (Q + "fileio:parse_quaternion",
                                  Q + "cli:parse_quaternion"),
             ("calls", "self_s"), None, "cli_s", "small_calls"),
    Boundary("qarray.qmul", (Q + "onesided:qmul", Q + "seqpoly:qmul"),
             ("calls", "self_s"), None,
             "multieval1_s, nbody_s", "bulk_eval"),
    Boundary("qarray.to_quaternions", (Q + "onesided:to_quaternions",
                                       Q + "seqpoly:to_quaternions"),
             ("self_s",), None, "multieval1_s, nbody_s", "bulk_eval"),
    Boundary("qarray.from_quaternions", (Q + "onesided:from_quaternions",
                                         Q + "seqpoly:from_quaternions"),
             ("self_s",), None, "convolve_s, interpolate_s", "ring_algebra, small_calls"),
    Boundary("seqpoly.convolve", (Q + "seqpoly:convolve_fast",),
             ("self_s",), None, "convolve_s", "ring_algebra"),
    Boundary("mappoly.mul", (Q + "mappoly:QuadruplePoly.mul_fast",),
             ("self_s",), None, "mul1_s, expand_s", "ring_algebra"),
    Boundary("mappoly.pack", (Q + "mappoly:_pack",),
             ("self_s",), None, "mul1_s, expand_s", "ring_algebra"),
    Boundary("mappoly.unpack", (Q + "mappoly:_unpack",),
             ("self_s",), None, "mul1_s, expand_s", "ring_algebra"),
    Boundary("mappoly.subst", (Q + "mappoly:_subst_table",),
             ("self_s",), None, "affine_grid_s", "ring_algebra"),
    Boundary("mappoly.eval_axis", (Q + "mappoly:_eval_axis",),
             ("self_s",), None, "affine_grid_s", "ring_algebra"),
    Boundary("onesided.multieval", (Q + "onesided:multieval_fast",),
             ("self_s",), None, "multieval1_s, multieval2_s", "bulk_eval, small_calls"),
    Boundary("onesided.nbody", (Q + "onesided:nbody_multieval",),
             ("self_s",), None, "nbody_s, peak_rss_mb", "bulk_eval, small_calls"),
    Boundary("onesided.interpolate", (Q + "onesided:interpolate",),
             ("self_s",), None, "interpolate_s", "small_calls"),
    Boundary("onesided.feasible", (Q + "onesided:interpolation_feasible",),
             ("self_s",), None, "interpolate_s", "small_calls"),
    Boundary("onesided.vandermonde", (Q + "onesided:_vandermonde",),
             ("self_s",), None, "interpolate_s", "small_calls"),
    Boundary("onesided.lu", ("scipy.linalg:lu_factor", "scipy.linalg:lu_solve"),
             ("self_s",), None, "interpolate_s", "small_calls"),
    Boundary("expr.parse", (Q + "expr:parse_expression",),
             ("self_s",), None, "zerotest_s", "small_calls"),
    Boundary("expr.eval_bound", (Q + "expr:eval_with_bound",),
             ("self_s",), None, "zerotest_s", "small_calls"),
    Boundary("expr.zero_test", (Q + "expr:zero_test",),
             ("self_s",), None, "zerotest_s", "small_calls"),
    Boundary("expr.expand", (Q + "expr:expand",),
             ("self_s",), None, "expand_s", "ring_algebra"),
    Boundary("fileio.read", (Q + "fileio:read_quaternion_file",),
             ("self_s",), None, "cli_s", "small_calls"),
    Boundary("fileio.format", (Q + "fileio:format_quaternion_lines",),
             ("self_s",), None, "cli_s", "small_calls"),
    Boundary("cli.main", (Q + "cli:main",),
             ("self_s",), None, "cli_s", "small_calls"),
)


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round values of every boundary quantity; 0 for absent ones."""
    out = {}
    rounds = max(rounds, 1)
    for b in BOUNDARIES:
        st = tracer.stats[b.layer]
        for q in b.quantities:
            if q == "calls":
                value = st.calls / rounds
            elif q == "self_s":
                value = st.self_s / rounds
            else:
                value = st.work / rounds
            out[f"{b.layer}.{q}"] = value
    return out


def layer_units() -> dict:
    units = {"calls": "count", "self_s": "s"}
    return {f"{b.layer}.{q}": units.get(q, "computed_count")
            for b in BOUNDARIES for q in b.quantities}
