"""The gateway workload: ``repro gateway`` under repeat and new traffic.

The gateway runs as a CLI subprocess (``--workers 2``, ephemeral port,
a temporary cache inside the checkout, ``--metrics-out``). One asyncio
client shares two persistent JSONL connections between two streams:

- repeat traffic, an open loop: a seeded Poisson schedule of requests
  drawn by ``repro.gateway.trace.TraceGenerator`` (zipf) from a
  catalogue of seeded one-function-edit versions of the ten programs,
  sent when due whatever the replies are doing. The first occurrence of
  every catalogue key is sent before the measured window, so every
  request in the window repeats an earlier one: a hit by position;
- new traffic, one closed-loop submitter: fresh versions, each asked
  once (analyze or query), the next sent when the previous answer
  arrives: a miss by position. In an open loop on two shards and two
  cores, misses overlapping each other decided their latency more than
  the analysis did, and with a few misses per program that made the
  medians unsteady.

The class of a request comes from its trace position, never from what
the server reports. A repeat is timed from when it was due, a new
request from when it was sent.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.gateway.trace import TraceGenerator

import common
from ledger import Ledger

#: Offered repeat load (requests/s), client connections, and the
#: catalogue shape of the repeat traffic.
HIT_RATE = 50.0
CONNECTIONS = 2
VERSIONS = 2
QUERY_FRACTION = 0.3

#: New traffic runs at least this many cycles over the programs, so
#: every program has analyze and query samples however slow the box.
MIN_CYCLES = 2

#: A calibration probe blocks the client's event loop for ~6 ms; it is
#: timed only when no repeat is due within this many seconds.
QUIET = 0.015

#: Per-kind latency limits (seconds) for goodput_rps.
LIMITS = {"hit": 0.5, "analyze": 5.0, "query": 5.0}


class GatewayProcess:
    """``repro gateway`` as a child process, from start to a checked
    exit."""

    def __init__(self) -> None:
        self.root = tempfile.mkdtemp(prefix="gateway-",
                                     dir=common.scratch_dir())
        self.metrics_path = os.path.join(self.root, "metrics.jsonl")
        self.programs = os.path.join(self.root, "programs")
        os.makedirs(self.programs)
        self.log_path = os.path.join(self.root, "stderr.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "gateway", "--port", "0",
                 "--workers", "2", "--cache",
                 os.path.join(self.root, "cache"),
                 "--metrics-out", self.metrics_path,
                 "--base-dir", self.programs],
                cwd=common.ROOT, stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith("gateway listening on "):
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
                        # The line is printed before the SIGTERM handler
                        # is installed; a served request means the loop
                        # runs, so the handler is in place.
                        self.metrics()
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.stop(check=False)
        raise RuntimeError("gateway did not start: " + self._log())

    def _log(self) -> str:
        with open(self.log_path) as log:
            return log.read()[-2000:]

    def shard_pids(self) -> List[int]:
        pids = []
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "children")) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident set of the gateway and its shards (VmHWM)."""
        total = 0.0
        for pid in [self.proc.pid] + self.shard_pids():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def metrics(self) -> Dict[str, object]:
        url = f"http://127.0.0.1:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.load(response)

    def stop(self, check: bool = True) -> Dict[str, object]:
        """SIGTERM, wait for the drain, and check the exit: status 0,
        no shard left alive. Returns the final metrics snapshot."""
        try:
            if self.proc is None:
                return {}
            shards = self.shard_pids() if self.proc.poll() is None else []
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("gateway ignored SIGTERM")
            if not check:
                return {}
            if code != 0:
                raise RuntimeError(f"gateway exited {code}: {self._log()}")
            deadline = time.monotonic() + 10
            alive = shards
            while alive and time.monotonic() < deadline:
                alive = [pid for pid in alive if _alive(pid)]
                time.sleep(0.05)
            if alive:
                raise RuntimeError(f"shard processes survived: {alive}")
            with open(self.metrics_path) as handle:
                lines = [line for line in handle if line.strip()]
            return json.loads(lines[-1])
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# -- the trace ---------------------------------------------------------------


class Traffic:
    """The requests of one run, from its seed. Clients name versions by
    file (under the gateway's ``--base-dir``), so a repeat costs the
    gateway a memo lookup instead of re-parsing the source."""

    def __init__(self, seed: int, seconds: float, directory: str) -> None:
        self.seed = seed
        self.directory = directory
        #: file name -> source of every program version sent.
        self.sources: Dict[str, str] = {}
        rng = random.Random(seed)
        self.base = common.base_sources(common.SMOKE_SCALE)
        self.klocs = common.kloc(self.base)
        self.order = list(self.base)
        rng.shuffle(self.order)
        self.sites = {name: [fn for fn in common.functions(src)
                             if fn != "main"]
                      for name, src in self.base.items()}
        params = {name: common.pointer_params(src, name)
                  for name, src in self.base.items()}
        #: The variable asked of every version of a program.
        self.var = {name: rng.choice(params[name]) for name in self.order}
        self.catalogue = [self._version(name, f"c{v}", rng)
                          for v in range(VERSIONS) for name in self.order]
        self.warmup: List[Dict[str, object]] = []
        for program in self.catalogue:
            self.warmup += [program, _as_query(program)]
        self.due = _poisson(rng, HIT_RATE, seconds)
        by_file = {p["file"]: p for p in self.catalogue}
        self.repeats = [
            _as_query(by_file[e["file"]]) if e.get("op") == "query"
            else by_file[e["file"]]
            for e in TraceGenerator(
                [dict(p, query_vars=[p["var"]]) for p in self.catalogue],
                seed=seed, query_fraction=QUERY_FRACTION,
            ).generate(len(self.due))]
        self.new: List[Dict[str, object]] = []

    def _version(self, name: str, tag: str,
                 rng: random.Random) -> Dict[str, object]:
        path = f"{name}-{tag}.mc"
        source = common.apply_edit(self.base[name],
                                   rng.choice(self.sites[name]), tag)
        self.sources[path] = source
        with open(os.path.join(self.directory, path), "w") as handle:
            handle.write(source)
        return {"file": path, "name": name, "config": {"profile": False},
                "var": self.var[name]}

    def next_new(self) -> Dict[str, object]:
        """The next fresh version: programs in the seeded order,
        analyze and query cycles alternating, so both kinds get about
        as many samples per program."""
        i = len(self.new)
        cycle, slot = divmod(i, len(self.order))
        program = self._version(self.order[slot], f"n{i}",
                                random.Random(f"{self.seed}/{i}"))
        entry = _as_query(program) if cycle % 2 == 1 else program
        self.new.append(entry)
        return entry


def _as_query(program: Dict[str, object]) -> Dict[str, object]:
    return dict(program, op="query")


def _request(entry: Dict[str, object], rid: int) -> bytes:
    """The wire form: analyze entries do not carry the query variable."""
    wire = dict(entry, id=rid)
    if wire.get("op") != "query":
        del wire["var"]
    return (json.dumps(wire) + "\n").encode("utf-8")


def _poisson(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """``rate * seconds`` arrival times with exponential gaps, scaled to
    end inside the window: a Poisson process conditioned on its count,
    so every seed offers the same number of requests."""
    gaps = [rng.expovariate(rate) for _ in range(int(rate * seconds) + 1)]
    scale = seconds / sum(gaps)
    out, due = [], 0.0
    for gap in gaps[:-1]:
        due += gap * scale
        out.append(due)
    return out


# -- the client --------------------------------------------------------------

#: Request ids of new traffic start here; repeats use their index.
NEW_IDS = 1 << 20


class _Client:
    """Two pipelined JSONL connections and the final frames they
    returned, keyed by request id."""

    def __init__(self) -> None:
        self.conns: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []
        self.done: Dict[int, Tuple[float, Dict[str, object]]] = {}
        self.sent: Dict[int, float] = {}
        self.waiters: Dict[int, asyncio.Future] = {}
        self.tasks: List[asyncio.Task] = []

    async def open(self, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 24)
            self.conns.append((reader, writer))
            self.tasks.append(asyncio.ensure_future(self._read(reader)))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            frame = json.loads(line)
            if frame.get("final"):
                self.done[frame["id"]] = (time.perf_counter(), frame)
                waiter = self.waiters.pop(frame["id"], None)
                if waiter is not None:
                    waiter.set_result(None)

    def send(self, entry: Dict[str, object], rid: int) -> asyncio.Future:
        waiter = asyncio.get_event_loop().create_future()
        self.waiters[rid] = waiter
        _, writer = self.conns[rid % CONNECTIONS]
        writer.write(_request(entry, rid))
        self.sent[rid] = time.perf_counter()
        return waiter

    async def close(self) -> None:
        for task in self.tasks:
            task.cancel()
        await asyncio.gather(*self.tasks, return_exceptions=True)
        for _, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass


async def _warm(port: int, entries: List[Dict[str, object]]) -> None:
    client = _Client()
    await client.open(port)
    try:
        waiters = [client.send(entry, i) for i, entry in enumerate(entries)]
        await asyncio.wait_for(asyncio.gather(*waiters), 120)
    finally:
        await client.close()


async def _window(port: int, traffic: Traffic, seconds: float):
    """Run both streams for *seconds*, then collect the outstanding
    repeats. New requests are calibrated like the in-process closed
    loops: by the probes timed right before each is sent and right
    after its answer arrives, when no new request is in flight.
    Returns (start, client, probes by request id)."""
    client = _Client()
    await client.open(port)
    probes: Dict[int, Tuple[float, float]] = {}
    start = time.perf_counter()

    async def quiet_probe() -> float:
        # Wait for a gap in the repeat schedule, so the probe delays no
        # repeat that falls due.
        while True:
            now = time.perf_counter() - start
            i = bisect.bisect_left(traffic.due, now)
            if i == len(traffic.due) or traffic.due[i] - now > QUIET:
                return common.probe()
            await asyncio.sleep(traffic.due[i] - now + 0.001)

    async def repeats() -> None:
        for i, entry in enumerate(traffic.repeats):
            wait = start + traffic.due[i] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            client.send(entry, i)
            if i % 16 == 0:
                await client.conns[i % CONNECTIONS][1].drain()

    async def news() -> None:
        before = await quiet_probe()
        while time.perf_counter() - start < seconds \
                or len(traffic.new) < MIN_CYCLES * len(traffic.order):
            rid = NEW_IDS + len(traffic.new)
            await client.send(traffic.next_new(), rid)
            after = await quiet_probe()
            probes[rid] = (before, after)
            before = after

    try:
        await asyncio.wait_for(asyncio.gather(repeats(), news()),
                               seconds + 60)
        await asyncio.wait_for(
            asyncio.gather(*list(client.waiters.values())), 60)
    finally:
        await client.close()
    return start, client, probes


# -- the workload ------------------------------------------------------------


def _delta(after: Dict[str, object], before: Dict[str, object],
           name: str) -> int:
    return int(after["counters"].get(name, 0)) \
        - int(before["counters"].get(name, 0))


def run(seed: int, seconds: float, traced: bool):
    gateway = GatewayProcess()
    with common.phase("traffic"):
        traffic = Traffic(seed, seconds, gateway.programs)
    gateway.start()
    try:
        with common.phase("warm-up"):
            asyncio.run(_warm(gateway.port, traffic.warmup))
        before = gateway.metrics()
        with common.phase("window"):
            start, client, probes = asyncio.run(
                _window(gateway.port, traffic, seconds))
        after = gateway.metrics()
        rss = gateway.peak_rss_mb()
    finally:
        with common.phase("stop"):
            final = gateway.stop()
    requests = [(i, entry) for i, entry in enumerate(traffic.repeats)] \
        + [(NEW_IDS + j, entry) for j, entry in enumerate(traffic.new)]
    if _delta(final, before, "gateway.requests") != len(requests):
        raise RuntimeError("the gateway's final metrics miss requests")

    # Soundness is checked on each program's first catalogue version.
    programs = {entry["file"]: entry for entry in
                traffic.catalogue + traffic.new}
    with common.phase("oracle"):
        oracle = common.Oracle(
            (entry["name"], traffic.sources[path], [entry["var"]],
             rank < len(traffic.klocs))
            for rank, (path, entry) in enumerate(programs.items()))
    miss = {op: {name: [] for name in traffic.order}
            for op in ("analyze", "query")}
    hits: List[float] = []
    transport: List[float] = []
    overhead: List[float] = []
    ok = good = 0
    for rid, entry in requests:
        if rid not in client.done:
            continue
        arrived, frame = client.done[rid]
        body = frame.get("body", {})
        source = traffic.sources[entry["file"]]
        op = entry.get("op", "analyze")
        if op == "analyze":
            correct = body.get("status") == "ok" and oracle.check_answer(
                source, body.get("payload_digest"))
        else:
            correct = body.get("status") == "ok" and oracle.check_query(
                source, entry["var"], body.get("pts"))
        ok += correct
        rtt = arrived - client.sent[rid]
        if rid < NEW_IDS:
            latency = arrived - (start + traffic.due[rid])
            good += correct and latency <= LIMITS["hit"]
            hits.append(latency)
        else:
            good += correct and rtt <= LIMITS[op]
            miss[op][entry["name"]].append(
                common.calibrated(rtt, *probes[rid]))
            overhead.append(rtt - float(body.get("seconds", 0.0)))
        if body.get("cache") == "hot":
            transport.append(rtt)
    analyze = common.per_program_medians(miss["analyze"])
    query = common.per_program_medians(miss["query"])
    last = max((at for at, _ in client.done.values()), default=start)
    measured: Dict[str, object] = {
        "answer_ms_gm": common.geomean(analyze.values()) * 1000.0,
        "kloc_per_s": sum(traffic.klocs.values()) / sum(analyze.values()),
        "query_ms_gm": common.geomean(query.values()) * 1000.0,
        "goodput_rps": good / max(last - start, seconds),
        "ok_frac": ok / len(requests),
        "sound_frac": 1.0 - oracle.unsound_frac,
        "peak_rss_mb": common.peak_rss_mb() + rss,
        "_attempted": len(requests),
        "_failed": len(requests) - ok,
        "_unsound": oracle.findings(),
    }
    ledger = None
    if traced:
        ledger = Ledger()
        for rid, entry in requests:
            if rid in client.done:
                ledger.add_span("gateway.request", client.sent[rid],
                                client.done[rid][0],
                                f"{rid}:{entry.get('op', 'analyze')}")
        transport_p50 = statistics.median(transport)
        late = [client.sent[i] - (start + due)
                for i, due in enumerate(traffic.due)]
        total = _delta(after, before, "gateway.requests")
        measured["_gateway"] = {
            "gateway.hit_ms_p50": statistics.median(hits) * 1000.0,
            "gateway.hit_ms_p99": common.tail_percentile(hits, 0.99) * 1000.0,
            "gateway.transport_ms_p50": transport_p50 * 1000.0,
            "gateway.queue_wait_ms_p50": (statistics.median(overhead)
                                          - transport_p50) * 1000.0,
            "gateway.requests": total,
            "gateway.misses": len(traffic.new),
            "gateway.coalesced": _delta(after, before,
                                        "gateway.coalesce_attach"),
            "gateway.shed": _delta(after, before, "gateway.shed"),
            "gateway.hot_hit_ratio": _delta(after, before,
                                            "gateway.hot_hits") / total,
            "loadgen.late_ms_p99": common.tail_percentile(late, 0.99)
            * 1000.0,
        }
    return measured, ledger
