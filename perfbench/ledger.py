"""The traced run's per-layer ledger.

Each layer is timed from outside: the benchmark replaces the layer's
public entry point, at the name its caller looks up, with a wrapper that
records a span (layer, start, end, parent span, request id) and, from
the returned object, the layer's work counts. A layer's self time is its
spans' durations minus the time their child spans cover. Spans stay in
memory and are written out when the run ends.

The wrappers exist only while a :class:`Ledger` is installed, which the
benchmark does only in its separate traced run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.frontend
import repro.fsam.analysis
import repro.service.incremental
import repro.service.runner
from repro.fsam.query import QueryEngine
from repro.fsam.solver import SparseSolver
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.runner import QueryRunner


def _instrs(ledger, module, args) -> None:
    ledger.count("frontend.ir_instrs",
                 sum(1 for _ in module.all_instructions()))


def _callgraph(ledger, andersen, args) -> None:
    cg = andersen.callgraph
    ledger.count("andersen.callgraph_edges",
                 sum(len(cg.callees(site)) for site in cg.call_sites()))


def _dug(ledger, value, args) -> None:
    dug, _builder = value
    ledger.count("memssa.dug_nodes", len(dug.nodes))
    ledger.count("memssa.mem_edges", dug.num_mem_edges())


def _threads(ledger, model, args) -> None:
    ledger.count("mt.threads.count", len(model.threads))


def _mhp(ledger, mhp, args) -> None:
    # MHP pairs are queried later, by value flow and the solver: read
    # the tally when the operation ends.
    ledger.deferred.append(
        lambda: ledger.count("mt.mhp.pair_queries", mhp.pair_queries))


def _valueflow(ledger, stats, args) -> None:
    ledger.count("mt.valueflow.thread_edges", len(args[0].thread_edges))


def _solve(ledger, value, args) -> None:
    solver = args[0]
    ledger.count("fsam.iterations", solver.iterations)
    ledger.count("fsam.pts_entries", solver.points_to_entries())


def _query(ledger, answer, args) -> None:
    ledger.count("fsam.query.slice_nodes", answer.slice_nodes)


def _incremental(ledger, outcome, args) -> None:
    incr = outcome.artifact.summary.get("incremental")
    if incr:
        ledger.count("service.incremental.seeded_nodes",
                     incr["seeded_nodes"])
        ledger.count("service.incremental.dug_nodes", incr["dug_nodes"])


#: (owner, attribute, layer, counter) for every wrapped entry point.
#: The owner is the namespace the caller resolves the name in: the
#: pipeline imports its stages into ``repro.fsam.analysis``.
ENTRY_POINTS: List[Tuple[object, str, str, Optional[Callable]]] = [
    (repro.frontend, "compile_source", "frontend", _instrs),
    (repro.service.runner, "compile_source", "frontend", _instrs),
    (repro.fsam.analysis, "run_andersen", "andersen", _callgraph),
    (repro.fsam.analysis, "ICFG", "cfg", None),
    (repro.fsam.analysis, "build_dug", "memssa", _dug),
    (repro.fsam.analysis, "ThreadModel", "mt.threads", _threads),
    (repro.fsam.analysis, "InterleavingAnalysis", "mt.mhp", _mhp),
    (repro.fsam.analysis, "LockAnalysis", "mt.locks", None),
    (repro.fsam.analysis, "add_thread_aware_edges", "mt.valueflow",
     _valueflow),
    (SparseSolver, "solve", "fsam.solve", _solve),
    (SparseSolver, "solve_incremental", "fsam.solve", _solve),
    (QueryEngine, "query", "fsam.query", _query),
    (ArtifactCache, "get", "service.cache", None),
    (ArtifactCache, "put", "service.cache", None),
    (FuncArtifactStore, "get", "service.cache", None),
    (FuncArtifactStore, "put", "service.cache", None),
    (QueryArtifactStore, "get", "service.cache", None),
    (QueryArtifactStore, "put", "service.cache", None),
    (repro.service.incremental, "build_plan", "service.incremental", None),
    (repro.service.runner, "run_request_inline", "service.runner",
     _incremental),
    (QueryRunner, "run", "service.runner", None),
]

#: Layers whose entry points run inside the benchmark process.
ANALYSIS_LAYERS = ("frontend", "andersen", "cfg", "memssa", "mt.threads",
                   "mt.mhp", "mt.locks", "mt.valueflow", "fsam.solve",
                   "fsam.query")
SERVICE_LAYERS = ("service.cache", "service.incremental", "service.runner")


class _Span:
    __slots__ = ("layer", "start", "end", "parent", "request", "covered")

    def __init__(self, layer: str, parent: Optional[int],
                 request: Optional[str]) -> None:
        self.layer = layer
        self.parent = parent
        self.request = request
        self.start = time.perf_counter()
        self.end = 0.0
        self.covered = 0.0   # time of child spans and of count reads


class Ledger:
    """Installs the wrappers, collects spans and counts."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.request: Optional[str] = None
        self.counts: Dict[str, int] = defaultdict(int)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.fired: set = set()
        self.deferred: List[Callable[[], None]] = []
        self.counting = True

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer, counter in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn, counter):
        ledger = self

        def wrapper(*args, **kwargs):
            index = len(ledger.spans)
            span = _Span(layer, ledger._stack[-1] if ledger._stack else None,
                         ledger.request)
            ledger.spans.append(span)
            ledger._stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                ledger._stack.pop()
                ledger.fired.add(layer)
                ledger.self_seconds[layer] += \
                    span.end - span.start - span.covered
                if span.parent is not None:
                    ledger.spans[span.parent].covered += span.end - span.start
            if counter is not None and ledger.counting:
                began = time.perf_counter()
                counter(ledger, value, args)
                if span.parent is not None:
                    ledger.spans[span.parent].covered += \
                        time.perf_counter() - began
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    # -- bookkeeping -------------------------------------------------------

    def add_span(self, layer: str, start: float, end: float,
                 request: str) -> None:
        """Record a span timed outside any wrapper (a client request)."""
        span = _Span(layer, None, request)
        span.start, span.end = start, end
        self.spans.append(span)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def end_operation(self) -> None:
        """Read the tallies that settle only when an operation ends."""
        for read in self.deferred:
            if self.counting:
                read()
        self.deferred.clear()

    def check_fired(self, layers) -> None:
        silent = sorted(set(layers) - self.fired)
        if silent:
            raise RuntimeError(
                "wrapped entry points never fired: " + ", ".join(silent))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.layer, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request}) + "\n")
