"""Metric assembly: names and units come from ``BENCHMARK.json``."""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

import common

with open(os.path.join(common.ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: Per-layer figures that depend on request timing (how many new
#: versions the closed-loop submitter got through, whether a request
#: found an identical one in flight), so they are reported but left out
#: of the count-determinism check.
TIMING_DEPENDENT = {"gateway.requests", "gateway.misses",
                    "gateway.coalesced", "gateway.shed",
                    "gateway.hot_hit_ratio"}


def _pack(values: Dict[str, float], group: str) -> Dict[str, dict]:
    out = {}
    for metric in SPEC[group]:
        name = metric["name"]
        if name not in values:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def end_to_end(measured: Dict[str, object]) -> Dict[str, dict]:
    return _pack(measured, "end_to_end")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(measured: Dict[str, object], ledger
              ) -> Tuple[Dict[str, dict], Dict[str, object]]:
    """The per-layer figures (zero for a layer the workload does not
    run in the benchmark process) and the subset that must repeat
    exactly across runs of the same code and seed."""
    values: Dict[str, float] = {}
    counts: Dict[str, object] = {}
    for metric in SPEC["per_layer"]:
        values[metric["name"]] = 0
    if ledger is not None:
        for layer, seconds in ledger.self_seconds.items():
            values[f"{layer}.self_s"] = seconds
        c = ledger.counts
        for name in ("frontend.ir_instrs", "andersen.callgraph_edges",
                     "memssa.dug_nodes", "memssa.mem_edges",
                     "mt.threads.count", "mt.mhp.pair_queries",
                     "mt.valueflow.thread_edges", "fsam.iterations",
                     "fsam.pts_entries", "fsam.query.slice_nodes"):
            values[name] = c.get(name, 0)
        values["service.cache.hit_ratio"] = _ratio(
            c.get("service.cache.hits", 0), c.get("service.cache.lookups", 0))
        values["service.func_hit_ratio"] = _ratio(
            c.get("service.func.hits", 0), c.get("service.func.lookups", 0))
        values["service.incremental.seeded_frac"] = _ratio(
            c.get("service.incremental.seeded_nodes", 0),
            c.get("service.incremental.dug_nodes", 0))
        counts.update(c)
    values["ledger.overhead_ms"] = measured.get("_overhead_ms", 0.0)
    missing, facts, _ = measured["_unsound"]
    values["oracle.unsound_frac"] = _ratio(missing, facts)
    values["oracle.facts"] = facts
    counts["oracle.missing"] = missing
    counts["oracle.facts"] = facts
    for name, value in measured.get("_gateway", {}).items():
        values[name] = value
        if name not in TIMING_DEPENDENT and isinstance(value, int):
            counts[name] = value
    return _pack(values, "per_layer"), counts


def summary(workload: str, measured: Dict[str, object]) -> str:
    """A human-readable line (standard error) with what the JSON result
    leaves out: the soundness defect's size and where it lives."""
    missing, facts, by_program = measured["_unsound"]
    where = ", ".join(f"{name} {count}"
                      for name, count in sorted(by_program.items()) if count)
    return (f"{workload}: unsound_frac {_ratio(missing, facts):.4f} "
            f"({missing} of {facts} observed load facts missing"
            f"{': ' + where if where else ''}); "
            f"ok {measured['_attempted'] - measured['_failed']}/"
            f"{measured['_attempted']}")
