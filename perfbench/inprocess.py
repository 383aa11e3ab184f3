"""The two closed-loop, single-client, in-process workloads.

``cold_suite`` analyzes the ten Table 1 programs cold through the public
pipeline (``compile_source`` then ``FSAM(...).run()``) and asks one
demand query of each fresh answer. ``edit_session`` plays an IDE user:
each round applies a seeded one-function edit to every program,
re-analyzes it through the calls ``repro serve`` makes (artifact cache
lookup, ``run_request_inline`` with a ``FuncArtifactStore``, cache
write), then asks one demand query of the edited version through
``QueryRunner.run``.

Both visit the programs round-major in a seeded order, so a slow spell
hits one repeat of each program rather than every repeat of one.
"""

from __future__ import annotations

import itertools
import random
import shutil
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional

import repro.frontend
import repro.fsam.analysis
import repro.service.runner
from repro.service.cache import (
    ArtifactCache, FuncArtifactStore, QueryArtifactStore,
)
from repro.service.requests import AnalysisRequest, QueryRequest

import common
from ledger import ANALYSIS_LAYERS, SERVICE_LAYERS, Ledger

#: Per-kind latency limits (seconds) for goodput_rps.
LIMITS = {
    "cold_suite": {"analyze": 10.0, "query": 2.0},
    "edit_session": {"analyze": 10.0, "query": 10.0},
}

#: Every run measures at least this many rounds, however slow the box.
MIN_ROUNDS = 3


class Tally:
    """Per-program latencies and correctness records of one workload."""

    def __init__(self, names: List[str]) -> None:
        self.latency = {kind: {name: [] for name in names}
                        for kind in ("analyze", "query")}
        self.traced = {kind: {name: [] for name in names}
                       for kind in ("analyze", "query")}
        self.answers: List[tuple] = []   # (kind, seconds, source, var, got)

    def record(self, kind: str, name: str, seconds: float, traced: bool,
               source: str, var: Optional[str], got) -> None:
        (self.traced if traced else self.latency)[kind][name].append(seconds)
        self.answers.append((kind, seconds, source, var, got))

    def judge(self, oracle: common.Oracle, limits: Dict[str, float]):
        ok = good = 0
        for kind, seconds, source, var, got in self.answers:
            correct = oracle.check_answer(source, got) if kind == "analyze" \
                else oracle.check_query(source, var, got)
            ok += correct
            good += correct and seconds <= limits[kind]
        return ok, good, len(self.answers)


def _metrics(tally: Tally, oracle: common.Oracle, klocs: Dict[str, float],
             limits: Dict[str, float]) -> Dict[str, float]:
    analyze = common.per_program_medians(tally.latency["analyze"])
    query = common.per_program_medians(tally.latency["query"])
    ok, good, attempted = tally.judge(oracle, limits)
    # Closed loop: a round issues one analyze and one query per program
    # and lasts the sum of their medians.
    round_s = sum(analyze.values()) + sum(query.values())
    return {
        "answer_ms_gm": common.geomean(analyze.values()) * 1000.0,
        "kloc_per_s": sum(klocs.values()) / sum(analyze.values()),
        "query_ms_gm": common.geomean(query.values()) * 1000.0,
        "goodput_rps": good / attempted * 2 * len(analyze) / round_s,
        "ok_frac": ok / attempted,
        "sound_frac": 1.0 - oracle.unsound_frac,
        "_attempted": attempted,
        "_failed": attempted - ok,
    }


def _rounds(seconds: float):
    """Round indices for a closed loop that runs whole rounds until
    *seconds* have passed (and at least MIN_ROUNDS)."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        yield index
        index += 1


def _rotation(rng: random.Random, values: List[str]):
    values = list(values)
    rng.shuffle(values)
    return itertools.cycle(values)


def _trace_round(ledger: Optional[Ledger], index: int) -> bool:
    """Traced runs alternate wrapped and bare rounds; the bare rounds
    give the tracing overhead. Counts come from the first round only,
    so they do not depend on how many rounds fit in the run."""
    if ledger is None:
        return False
    traced = index % 2 == 0
    if traced:
        ledger.counting = index == 0
        ledger.install()
    else:
        ledger.uninstall()
    return traced


def cold_suite(seed: int, seconds: float, ledger: Optional[Ledger]):
    rng = random.Random(seed)
    sources = common.base_sources(common.SUITE_SCALE)
    names = list(sources)
    query_vars = {name: _rotation(rng, common.pointer_params(src, name))
                  for name, src in sources.items()}
    asked: Dict[str, set] = defaultdict(set)
    tally = Tally(names)
    for index in _rounds(seconds):
        traced = _trace_round(ledger, index)
        order = list(names)
        rng.shuffle(order)
        for name in order:
            source = sources[name]
            var = next(query_vars[name])
            asked[name].add(var)
            if ledger is not None:
                ledger.request = f"r{index}/{name}"
            common.settle()
            before = common.probe()
            start = time.perf_counter()
            module = repro.frontend.compile_source(source, name=name)
            result = repro.fsam.analysis.FSAM(module, common.CONFIG).run()
            analyzed = time.perf_counter()
            between = common.probe()
            queried = time.perf_counter()
            answer = result.query(var)
            done = time.perf_counter()
            after = common.probe()
            if ledger is not None:
                ledger.end_operation()
            tally.record("analyze", name, common.calibrated(
                analyzed - start, before, between), traced, source, None,
                common.answer_digest(result))
            tally.record("query", name, common.calibrated(
                done - queried, between, after), traced, source, var,
                answer.names())
            del module, result, answer
    if ledger is not None:
        ledger.uninstall()
    with common.phase("oracle"):
        oracle = common.Oracle(
            (name, source, sorted(asked[name]), True)
            for name, source in sources.items())
    return tally, oracle, common.kloc(sources), ANALYSIS_LAYERS


def edit_session(seed: int, seconds: float, ledger: Optional[Ledger]):
    rng = random.Random(seed)
    sources = common.base_sources(common.SMOKE_SCALE)
    names = list(sources)
    query_vars = {name: _rotation(rng, common.pointer_params(src, name))
                  for name, src in sources.items()}
    edit_sites = {name: [fn for fn in common.functions(src) if fn != "main"]
                  for name, src in sources.items()}
    root = tempfile.mkdtemp(prefix="edit-", dir=common.scratch_dir())
    try:
        cache = ArtifactCache(root)
        funcstore = FuncArtifactStore(root)
        runner = repro.service.runner.QueryRunner(
            querystore=QueryArtifactStore(root))
        # The IDE opened every file: the base versions are analyzed and
        # cached before the first timed edit.
        for name, source in sources.items():
            request = AnalysisRequest(name=name, source=source,
                                      config=common.CONFIG)
            outcome = repro.service.runner.run_request_inline(
                request, funcstore=funcstore)
            cache.put(request.digest(), outcome.artifact)
        baseline = _store_stats(cache, funcstore, runner)
        current = dict(sources)
        versions: Dict[str, List[tuple]] = defaultdict(list)
        tally = Tally(names)
        for index in _rounds(seconds):
            traced = _trace_round(ledger, index)
            order = list(names)
            rng.shuffle(order)
            for name in order:
                source = common.apply_edit(
                    current[name], rng.choice(edit_sites[name]), f"e{index}")
                current[name] = source
                var = next(query_vars[name])
                versions[name].append((source, var))
                request = AnalysisRequest(name=name, source=source,
                                          config=common.CONFIG)
                if ledger is not None:
                    ledger.request = f"r{index}/{name}"
                common.settle()
                before = common.probe()
                start = time.perf_counter()
                digest = request.digest()
                artifact = cache.get(digest)
                if artifact is None:
                    artifact = repro.service.runner.run_request_inline(
                        request, funcstore=funcstore).artifact
                    cache.put(digest, artifact)
                edited = time.perf_counter()
                between = common.probe()
                queried = time.perf_counter()
                payload = runner.run(QueryRequest(request=request, var=var))
                done = time.perf_counter()
                after = common.probe()
                if ledger is not None:
                    ledger.end_operation()
                if ledger is not None and ledger.counting:
                    stats = _store_stats(cache, funcstore, runner)
                    for key, value in stats.items():
                        ledger.counts[key] = value - baseline[key]
                got = None if artifact.degraded else artifact.payload_digest()
                tally.record("analyze", name, common.calibrated(
                    edited - start, before, between), traced, source, None,
                    got)
                tally.record("query", name, common.calibrated(
                    done - queried, between, after), traced, source, var,
                    payload["pts"] if payload.get("status") == "ok" else None)
                del artifact, payload
        if ledger is not None:
            ledger.uninstall()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    # Soundness is checked on each program's round-0 version, which the
    # seed fixes; later versions depend on how many rounds fit the run.
    with common.phase("oracle"):
        oracle = common.Oracle(
            (name, source, [var], i == 0)
            for name, edits in versions.items()
            for i, (source, var) in enumerate(edits))
    return tally, oracle, common.kloc(sources), \
        ANALYSIS_LAYERS + SERVICE_LAYERS


def _store_stats(cache, funcstore, runner) -> Dict[str, int]:
    stats = cache.stats()
    qstats = runner.querystore.stats()
    fstats = funcstore.stats()
    return {
        "service.cache.hits": stats["hits"] + qstats["query_hits"],
        "service.cache.lookups": stats["hits"] + stats["misses"]
        + qstats["query_hits"] + qstats["query_misses"],
        "service.func.hits": fstats["func_hits"],
        "service.func.lookups": fstats["func_hits"] + fstats["func_misses"],
    }


WORKLOADS = {"cold_suite": cold_suite, "edit_session": edit_session}


def run(workload: str, seed: int, seconds: float, traced: bool):
    """Run one in-process workload; returns (end-to-end metrics,
    ledger or None)."""
    ledger = Ledger() if traced else None
    tally, oracle, klocs, layers = WORKLOADS[workload](seed, seconds, ledger)
    metrics = _metrics(tally, oracle, klocs, LIMITS[workload])
    metrics["peak_rss_mb"] = common.peak_rss_mb()
    metrics["_unsound"] = oracle.findings()
    if ledger is not None:
        ledger.check_fired(layers)
        wrapped, bare = (common.geomean(common.per_program_medians(
            samples["analyze"]).values())
            for samples in (tally.traced, tally.latency))
        metrics["_overhead_ms"] = (wrapped - bare) * 1000.0
    return metrics, ledger
