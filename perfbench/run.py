"""The benchmark of record: one command, three seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
ledger. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
exits non-zero when any answer differs from the cold in-process oracle.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cold_suite", "edit_session", "gateway_mix")

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


def _reexec_pinned() -> None:
    """Re-run this script with a pinned hash seed and ``src`` on the
    path, so set iteration orders (and the counts they drive) repeat
    across runs and the gateway's processes inherit both."""
    env = dict(os.environ)
    if env.get("PYTHONHASHSEED") == "0" and SRC in sys.path:
        return
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _setup_probe(workload: str) -> float:
    """One cold set-up, in a fresh interpreter: import the entry modules,
    generate and compile the workload's programs, and on gateway_mix
    start the gateway and wait until it answers (its shutdown is not
    set-up). Returns the calibrated time, each step scaled by the probes
    on either side of it."""
    from calibration import calibrated, probe
    probes = [probe()]
    total = 0.0

    def step(began: float) -> float:
        elapsed = time.perf_counter() - began
        probes.append(probe())
        return calibrated(elapsed, probes[-2], probes[-1])

    began = time.perf_counter()
    import common
    import repro.service.serve  # noqa: F401 - part of the cold import cost
    if workload == "gateway_mix":
        import gateway_mix
    total += step(began)
    scale = common.SUITE_SCALE if workload == "cold_suite" \
        else common.SMOKE_SCALE
    for name in common.workload_names():
        began = time.perf_counter()
        source = common.get_workload(name).source(scale)
        common.compile_source(source, name=name)
        total += step(began)
    if workload == "gateway_mix":
        gateway = gateway_mix.GatewayProcess()
        began = time.perf_counter()
        gateway.start()
        try:
            total += step(began)
        finally:
            gateway.stop()
    return total


def _setup_seconds(workload: str, seed: int) -> float:
    """Median calibrated time of SETUP_REPEATS set-ups, each in a fresh
    interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def _code_hash() -> str:
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def _check_counts(workload: str, seed: int, counts: dict) -> None:
    """Counts must repeat exactly: the first traced run of a (code,
    workload, seed) records them, every later one must match."""
    import common
    path = os.path.join(common.scratch_dir(),
                        f"counts-{workload}-{seed}-{_code_hash()}.json")
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        differ = sorted(key for key in set(previous) | set(counts)
                        if previous.get(key) != counts.get(key))
        if differ:
            raise RuntimeError(
                "per-layer counts differ from the previous traced run: "
                + ", ".join(f"{k} {previous.get(k)} -> {counts.get(k)}"
                            for k in differ))
    else:
        with open(path, "w") as handle:
            json.dump(counts, handle, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    _reexec_pinned()

    if args.setup_probe:
        print(_setup_probe(args.workload))
        return 0

    import common
    import metrics
    with common.phase("setup x3"):
        setup_s = _setup_seconds(args.workload, args.seed)
    if args.workload == "gateway_mix":
        import gateway_mix
        measured, ledger = gateway_mix.run(args.seed, args.seconds,
                                           bool(args.trace))
    else:
        import inprocess
        measured, ledger = inprocess.run(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    measured["setup_s"] = setup_s
    print(metrics.summary(args.workload, measured), file=sys.stderr)
    if args.trace:
        if ledger is not None:
            ledger.write(os.path.join(
                common.scratch_dir(),
                f"spans-{args.workload}-{args.seed}.jsonl"))
        values, counts = metrics.per_layer(measured, ledger)
        _check_counts(args.workload, args.seed, counts)
    else:
        values = metrics.end_to_end(measured)
    failed = measured["_failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": measured["_attempted"],
        "failed": failed,
        "metrics": values,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
