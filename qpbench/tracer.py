"""Outside-in layer tracing by run-time wrapping of module bindings.

A `Boundary` names a layer and the bindings its callers look up, written
``module:attr`` or ``module:Class.attr``.  `Tracer.install` replaces each
binding with a timing wrapper and `Tracer.uninstall` puts the original
back; nothing under the program's own source changes.  A binding that no
longer exists (a later commit renamed or deleted it) is recorded in
`Tracer.absent` instead of raising.

Each wrapped call is a span.  Its self time is its duration minus the
time covered by wrapped calls made inside it; the benchmark's own op
spans (`Tracer.op`) sit at the root, so the share of op time that lands
in no named layer gives the coverage.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    layer: str
    bindings: tuple
    #: quantities reported as ``<layer>.<quantity>``: calls, self_s, or the
    #: name of the work count
    quantities: tuple = ("self_s",)
    #: name and function of a work count computed from the call arguments
    work: tuple | None = None
    #: end-to-end metrics this layer should move, and on which workloads
    moves: str = ""
    workloads: str = ""


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def _resolve(binding: str):
    """(owner object, attribute name) of a ``module:attr`` or
    ``module:Class.attr`` binding; raises LookupError when absent."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as err:
        raise LookupError(binding) from err
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise LookupError(binding)
    if attr not in vars(owner):
        raise LookupError(binding)
    return owner, attr


class Tracer:
    def __init__(self, boundaries):
        self.boundaries = tuple(boundaries)
        self.stats = {b.layer: LayerStats() for b in self.boundaries}
        self.ops: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        # child-time accumulators of the open spans, innermost last
        self._stack: list[list[float]] = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        absent = []
        for b in self.boundaries:
            for binding in b.bindings:
                try:
                    owner, attr = _resolve(binding)
                except LookupError:
                    absent.append(binding)
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, b))
        self.absent = absent

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, boundary: Boundary):
        stats = self.stats[boundary.layer]
        stack = self._stack
        work = boundary.work[1] if boundary.work else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                stats.calls += 1
                stats.busy_s += took
                stats.self_s += took - children[0]
                if work is not None:
                    stats.work += work(args, kwargs)

        return traced

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one op call made by the benchmark."""
        stats = self.ops.setdefault(name, LayerStats())
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self._stack.pop()
            stats.calls += 1
            stats.busy_s += took
            stats.self_s += took - children[0]

    def coverage(self) -> float:
        """Share of the traced op time spent inside some named boundary."""
        total = sum(s.busy_s for s in self.ops.values())
        if total <= 0.0:
            return 0.0
        return 1.0 - sum(s.self_s for s in self.ops.values()) / total
