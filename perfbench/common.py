"""Shared pieces of the benchmark: statistics, program sources, seeded
edits, the correctness oracle and the soundness oracle.

Every timing statistic here follows one rule: a latency is a median over
repeats of one operation on one program, and programs are combined by
geometric mean or by the sum of their medians. Percentiles over a mix of
programs or request kinds are never formed.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import re
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.fsam.config import FSAMConfig
from repro.fsam.query import resolve_temps
from repro.interp import ExecutionLimit, Interpreter
from repro.ir.instructions import Load
from repro.service.artifacts import artifact_from_result
from repro.workloads import get_workload, source_loc, workload_names

from calibration import calibrated, probe  # noqa: F401 - re-exported

#: Scale of every program on the cold_suite workload. The Table 1
#: bench scales put raytrace alone at ~7 s per cold analysis, which
#: leaves room for too few repeats per run to give a steady median.
SUITE_SCALE = 2

#: Scale of every program on edit_session and gateway_mix (the
#: harness's smoke scale).
SMOKE_SCALE = 1

#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The only analysis configuration the benchmark runs: defaults, with
#: the in-process profiler off so timings are un-instrumented.
CONFIG = FSAMConfig(profile=False)

#: Soundness oracle: interpreter schedules per program and the step
#: budget of each. The schedules are fixed (not drawn from --seed), so
#: the observed facts of a program do not depend on the run's seed.
ORACLE_SCHEDULES = (0, 1)
ORACLE_STEPS = 20000

#: Top-level MiniC function headers (return type at column 0).
_HEADER = re.compile(r"^[A-Za-z_][\w \*]*?([A-Za-z_]\w*)\s*\(.*\)\s*\{\s*$")


# -- statistics --------------------------------------------------------------


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The *q* quantile (0 < q < 1) of *values*, refused unless at least
    ten samples lie beyond it."""
    ordered = sorted(values)
    beyond = int(len(ordered) * (1.0 - q))
    if beyond < 10:
        raise ValueError(
            f"p{q * 100:g} needs ten samples beyond it; {len(ordered)} "
            f"samples leave {beyond}")
    index = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
    return ordered[index]


def per_program_medians(samples: Dict[str, List[float]]) -> Dict[str, float]:
    missing = [name for name, values in samples.items() if not values]
    if missing:
        raise RuntimeError(f"no samples for {', '.join(missing)}")
    return {name: statistics.median(values)
            for name, values in samples.items()}


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scratch_dir() -> str:
    """The directory (inside the checkout) for caches, spans and the
    count-determinism records."""
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


@contextmanager
def phase(label: str):
    """Log how long one stage of the benchmark run took (standard
    error), so the run's own time budget can be checked."""
    start = time.perf_counter()
    yield
    print(f"  [{label}: {time.perf_counter() - start:.1f}s]", file=sys.stderr)


def settle() -> None:
    """Run before each timed operation, after the previous result was
    dropped, so no collection of old garbage lands inside the timing."""
    gc.collect()


# -- programs and edits ------------------------------------------------------


def base_sources(scale: int) -> Dict[str, str]:
    return {name: get_workload(name).source(scale)
            for name in workload_names()}


def kloc(sources: Dict[str, str]) -> Dict[str, float]:
    return {name: source_loc(src) / 1000.0 for name, src in sources.items()}


def functions(source: str) -> List[str]:
    return [m.group(1) for line in source.split("\n")
            if (m := _HEADER.match(line))]


def apply_edit(source: str, fn: str, tag: str) -> str:
    """Insert an address-taken store through fresh locals at the top of
    *fn*: mem2reg cannot erase it, so the function's IR changes and the
    program digest with it. *tag* keeps the locals of successive edits
    distinct."""
    stmt = (f"    int z_{tag}; int *p_{tag}; p_{tag} = &z_{tag}; "
            f"*p_{tag} = 1;")
    lines = source.split("\n")
    for i, line in enumerate(lines):
        m = _HEADER.match(line)
        if m and m.group(1) == fn:
            return "\n".join(lines[:i + 1] + [stmt] + lines[i + 1:])
    raise ValueError(f"function {fn!r} not found")


def pointer_params(source: str, name: str) -> List[str]:
    """Sorted names (``function.param``) of the pointer-typed parameters
    of a program: the demand query candidates. Unlike compiler temps,
    whose names carry lowering counters that an edit shifts, they name
    the same variable in every edited version."""
    module = compile_source(source, name=name)
    return sorted({param.name for fn in module.functions.values()
                   for param in fn.params if param.type.is_pointer()})


# -- correctness oracle ------------------------------------------------------


def answer_digest(result) -> str:
    """Canonical digest of a whole-program answer (the artifact payload:
    canonical ``pts_top`` and ``mem`` masks, object table, store
    classes). Equal digests mean bit-identical answers."""
    return artifact_from_result("", result).payload_digest()


def expected_query(result, var: str) -> List[str]:
    """Whole-program answer to ``pt(var)``: the object names in the
    union of the points-to sets of every temp named *var*."""
    names = set()
    for tid in resolve_temps(result.module, var):
        pts = result.solver.pts_top.get(tid)
        if pts is not None:
            names.update(obj.name for obj in pts)
    return sorted(names)


#: Worker processes that compute the oracle (the box has two cores).
ORACLE_WORKERS = 2


def cold_answer(job) -> Tuple[str, Dict[str, List[str]], int, int]:
    """One oracle job, ``(name, source, query_vars, soundness)``: the
    cold in-process answer's digest, the expected answer of each query
    variable, and, when asked, the observed and missing load facts."""
    name, source, query_vars, soundness = job
    module = compile_source(source, name=name)
    result = FSAM(module, CONFIG).run()
    facts = missing = 0
    if soundness:
        facts, missing = _unsound_facts(module, result)
    return (answer_digest(result),
            {var: expected_query(result, var) for var in query_vars},
            facts, missing)


class Oracle:
    """Cold in-process answers, computed outside every timed region.

    ``check_*`` compare an answer from any path (cold, service,
    incremental, query, gateway) against the cold answer for the same
    source. For jobs marked for soundness, ``repro.interp`` runs under
    fixed schedules and the distinct (load, object) facts it observes
    that are missing from the cold answer are counted."""

    def __init__(self, jobs) -> None:
        self._digest: Dict[str, str] = {}
        self._queries: Dict[Tuple[str, str], List[str]] = {}
        self.facts = 0
        self.missing = 0
        self.missing_by_program: Dict[str, int] = {}
        jobs = list(jobs)
        # Forked workers: the spawn and forkserver methods also start a
        # resource-tracker process that outlives this one briefly, and
        # every process the benchmark starts must be gone when it exits.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(ORACLE_WORKERS, mp_context=context) as pool:
            answers = list(pool.map(cold_answer, jobs))
        for (name, source, _, _), (digest, queries, facts, missing) \
                in zip(jobs, answers):
            self._digest[source] = digest
            for var, names in queries.items():
                self._queries[(source, var)] = names
            self.facts += facts
            self.missing += missing
            self.missing_by_program[name] = \
                self.missing_by_program.get(name, 0) + missing

    def check_answer(self, source: str, digest: Optional[str]) -> bool:
        return digest is not None and self._digest[source] == digest

    def check_query(self, source: str, var: str,
                    names: Optional[Sequence[str]]) -> bool:
        return names is not None \
            and self._queries[(source, var)] == sorted(names)

    @property
    def unsound_frac(self) -> float:
        return self.missing / self.facts if self.facts else 0.0

    def findings(self) -> Tuple[int, int, Dict[str, int]]:
        """(missing facts, observed facts, missing facts per program)."""
        return self.missing, self.facts, dict(self.missing_by_program)


def _unsound_facts(module, result) -> Tuple[int, int]:
    facts = set()
    for seed in ORACLE_SCHEDULES:
        interp = Interpreter(module, seed=seed, max_steps=ORACLE_STEPS)
        try:
            interp.run()
        except ExecutionLimit:
            pass  # a truncated execution still yields valid observations
        facts.update((o.load.id, o.target.name)
                     for o in interp.observations)
    loads = {instr.id: instr for instr in module.all_instructions()
             if isinstance(instr, Load)}
    missing = sum(1 for load_id, target in facts
                  if target not in {obj.name
                                    for obj in result.pts(loads[load_id].dst)})
    return len(facts), missing
