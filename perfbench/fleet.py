"""The ``fleet-tcp`` workload: a real fleet service under an open loop.

The benchmark starts ``python -m repro fleet serve --chassis 2
--replicas 0`` on an ephemeral port (batching at its default, off) and
drives it over two persistent JSON-lines connections with an
open-loop, Poisson-like stream: requests are sent when they are due,
whether or not earlier ones were answered, and each is timed from its
due time.  The stream is generated here; the run's seed draws what
each request asks, and the program only receives the queries.

Every answer is checked against an in-process replay of the same
queries through ``ChassisCompute`` (``answer`` then ``snapshot``, as
the worker does), which is deterministic per query.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import selectors
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    OUT_DIR,
    Children,
    Spans,
    child_pids,
    median,
    percentile,
    vm_hwm_mb,
)

N_CHASSIS = 2
N_CONNECTIONS = 2
#: The light rate: at 5 q/s the 200-request light phase takes 40 s,
#: which keeps a fleet run near a minute.
LIGHT_QPS = 5.0
BUSY_QPS = 12.0
#: Requests at the light and busy rates: p95 then has ten samples
#: beyond it.
REQUESTS_PER_RATE = 200
#: Requests per ladder step above the busy rate, enough to tell a
#: passing step from an overloaded one.
REQUESTS_PER_STEP = 100
#: Requests in the traced run's untraced reference phase.
REFERENCE_REQUESTS = 100
#: Ladder steps after the busy rate (24, 48, ... q/s) at most.
MAX_LADDER_STEPS = 5
LATENCY_LIMIT_MS = 200.0
MIN_ACHIEVED_SHARE = 0.9
PLACEMENT_SHARE = 0.75
N_STATES = 3
#: A run whose generator sent its p99 request later than this is invalid.
LATE_LIMIT_MS = 50.0
SETUP_REPEATS = 3
#: How long after its last due time a phase may take to be answered.
DRAIN_S = 30.0


# -- the stream ---------------------------------------------------------


def utilization_pools(seed: int, sockets: Dict[str, int]) -> dict:
    """Per chassis: the base state (``None``) plus ``N_STATES`` loads."""
    rng = random.Random(seed)
    return {
        cid: [None]
        + [
            [round(rng.uniform(0.2, 0.9), 3) for _ in range(n)]
            for _ in range(N_STATES)
        ]
        for cid, n in sorted(sockets.items())
    }


def make_stream(
    seed: int, phase: int, rate: float, n: int, pools: dict
) -> List[tuple]:
    """``n`` Poisson arrivals at ``rate``: ``(offset_s, query)`` pairs.

    The schedule (when each request is due, its chassis and its kind)
    is the load's shape and is the same for every seed; the seed draws
    what each request asks.  Tail latencies from 200 requests swing by
    a third between independently drawn Poisson schedules, more than
    any bound a regression check could use, so only the contents vary.

    Each chassis gets an equal share of the rate.  Its gaps are the
    exponential quantiles of that share's mean gap, in shuffled order,
    and ``PLACEMENT_SHARE`` of its requests are placements.  Placement
    queries (interactive) draw their utilization from the chassis'
    pool, so the warm-field cache can be hit; what-if queries (batch)
    carry 1-3 random scenarios, so the memo cache is not.
    """
    shape = random.Random(1009 + phase)
    rng = random.Random(seed * 1009 + phase)
    chassis = sorted(pools)
    arrivals = []
    for cid in chassis:
        # Each chassis is its own queue, so each gets its own stream.
        n_c = n // len(chassis)
        quantiles = [-math.log(1.0 - (k + 0.5) / n_c) for k in range(n_c)]
        scale = n_c / (rate / len(chassis)) / sum(quantiles)
        gaps = [q * scale for q in quantiles]
        shape.shuffle(gaps)
        n_place = round(PLACEMENT_SHARE * n_c)
        placement = [k < n_place for k in range(n_c)]
        shape.shuffle(placement)
        t = 0.0
        for gap, is_placement in zip(gaps, placement):
            t += gap
            arrivals.append((t, cid, is_placement))
    arrivals.sort(key=lambda a: a[0])
    stream = []
    for t, cid, is_placement in arrivals:
        if is_placement:
            query = {
                "kind": "placement",
                "chassis": cid,
                "job_power_w": rng.uniform(5.0, 20.0),
                "request_class": "interactive",
            }
            util = rng.choice(pools[cid])
            if util is not None:
                query["utilization"] = util
        else:
            query = {
                "kind": "what_if",
                "chassis": cid,
                "scenarios": [
                    [rng.uniform(0.2, 0.9), rng.uniform(6.0, 18.0)]
                    for _ in range(rng.randint(1, 3))
                ],
                "request_class": "batch",
            }
        stream.append((t, query))
    return stream


def warmup_queries() -> List[dict]:
    """One base-state placement per connection, chassis in turn."""
    return [
        {"kind": "placement", "chassis": f"c{i % N_CHASSIS}",
         "job_power_w": 10.0, "request_class": "interactive"}
        for i in range(N_CONNECTIONS)
    ]


# -- the server ---------------------------------------------------------


class Server:
    """One ``repro fleet serve`` process and its two client connections."""

    def __init__(self, children: Children, telemetry: Optional[Path]):
        self.children = children
        self.telemetry = telemetry
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.conns: List["Connection"] = []
        self.t_spawn = 0.0

    def spawn(self, timeout_s: float = 60.0) -> None:
        args = ["-m", "repro", "fleet", "serve", "--chassis",
                str(N_CHASSIS), "--replicas", "0", "--port", "0"]
        if self.telemetry is not None:
            args += ["--telemetry", str(self.telemetry)]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.t_spawn = time.monotonic()
        with open(OUT_DIR / "fleet-server.log", "ab") as log:
            self.proc = self.children.spawn(
                [sys.executable, *args],
                stdout=subprocess.PIPE,
                stderr=log,
            )
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            deadline = self.t_spawn + timeout_s
            line = b""
            while b"serving on" not in line:
                if not sel.select(max(0.0, deadline - time.monotonic())):
                    raise RuntimeError("fleet server did not start")
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("fleet server exited at start")
        self.port = int(line.rsplit(b",", 1)[1].strip(b" )\n"))

    async def connect(self) -> float:
        """Open the connections and warm up; return set-up seconds."""
        for _ in range(N_CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
            self.conns.append(Connection(reader, writer))
        records = [
            conn.send(query, time.monotonic(), ("warmup", i))
            for i, (conn, query) in enumerate(
                zip(self.conns, warmup_queries())
            )
        ]
        await wait_answered(records, time.monotonic() + 60.0)
        if any(r.get("answer", {}).get("status") != "ok" for r in records):
            raise RuntimeError("fleet warm-up failed")
        return max(r["recv"] for r in records) - self.t_spawn

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the server and its workers."""
        pid = self.proc.pid
        return vm_hwm_mb(pid) + sum(vm_hwm_mb(c) for c in child_pids(pid))

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []
        if self.proc is not None:
            self.children.stop(self.proc)
            self.proc = None


class Connection:
    """A persistent JSON-lines connection; answers arrive in send order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()
        self.n_sent = 0
        self.task = asyncio.ensure_future(self._read())

    def send(self, query: dict, due: float, key) -> dict:
        record = {"key": key, "query": query, "due": due,
                  "sent": time.monotonic()}
        self.pending.append(record)
        self.n_sent += 1
        self.writer.write(json.dumps(query).encode() + b"\n")
        return record

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            record = self.pending.popleft()
            record["recv"] = time.monotonic()
            record["answer"] = json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


async def wait_answered(records: List[dict], deadline: float) -> bool:
    while any("recv" not in r for r in records):
        if time.monotonic() > deadline:
            return False
        await asyncio.sleep(0.005)
    return True


async def run_phase(server: Server, name: str, stream: List[tuple]) -> dict:
    """Send ``stream`` open-loop and await every answer."""
    t0 = time.monotonic() + 0.05
    records = []
    for i, (offset, query) in enumerate(stream):
        due = t0 + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        # Each request goes to the connection with the fewest answers
        # outstanding, as a client with a small connection pool would.
        conn = min(server.conns, key=lambda c: (len(c.pending), c.n_sent))
        records.append(conn.send(query, due, (name, i)))
    drained = await wait_answered(records, t0 + stream[-1][0] + DRAIN_S)
    return {"name": name, "records": records, "drained": drained}


# -- the oracle ---------------------------------------------------------


class Replay:
    """Per-chassis ``ChassisCompute``, fed the stream as a worker is."""

    def __init__(self) -> None:
        from repro.fleet import demo_fleet
        from repro.fleet.compute import ChassisCompute

        registry = demo_fleet(n_chassis=N_CHASSIS, replicas=0)
        self.topology_s = 0.0
        self.computes = {}
        for cid, spec in sorted(registry.chassis.items()):
            t0 = time.perf_counter()
            topology = spec.build_topology()
            self.topology_s += time.perf_counter() - t0
            compute = ChassisCompute(spec, topology=topology)
            compute.snapshot()
            self.computes[cid] = compute

    def answer(self, query: dict) -> tuple:
        """``(payload, seconds)`` for one wire query."""
        from repro.fleet.service import query_from_json

        parsed = query_from_json(query)
        compute = self.computes[parsed.chassis]
        t0 = time.perf_counter()
        payload = compute.answer(parsed)
        compute.snapshot(getattr(parsed, "utilization", None))
        elapsed = time.perf_counter() - t0
        return json.loads(json.dumps(payload, sort_keys=True)), elapsed

    def warm_counts(self) -> tuple:
        hits = sum(c.warm.hits for c in self.computes.values())
        misses = sum(c.warm.misses for c in self.computes.values())
        return hits, hits + misses


def check_answers(records: List[dict], expected: List[dict]) -> dict:
    """``key -> reason`` for every request that failed.

    A request fails when it has no answer, a status other than ``ok``
    or a payload that differs from the replay's.
    """
    failures = {}
    for record, payload in zip(records, expected):
        answer = record.get("answer")
        if answer is None:
            failures[record["key"]] = "no answer"
        elif answer.get("status") != "ok":
            failures[record["key"]] = (
                f"status {answer.get('status')} ({answer.get('reason')})"
            )
        elif answer.get("payload") != payload:
            failures[record["key"]] = "payload differs from replay"
    return failures


# -- the run ------------------------------------------------------------


def phase_summary(phase: dict, failed_keys: set) -> dict:
    records = phase["records"]
    answered = [r for r in records if "recv" in r]
    lat = [1000.0 * (r["recv"] - r["due"]) for r in answered]
    by_kind = {
        kind: [1000.0 * (r["recv"] - r["due"]) for r in answered
               if r["query"]["kind"] == kind]
        for kind in ("placement", "what_if")
    }
    first_due = records[0]["due"]
    last_due = records[-1]["due"]
    offered = (len(records) - 1) / max(last_due - first_due, 1e-9)
    span = max(r["recv"] for r in answered) - first_due if answered else 0
    achieved = (len(answered) - 1) / span if span > 0 else 0.0
    failed = sum(1 for r in records if r["key"] in failed_keys)
    p95 = percentile(lat, 95.0)
    return {
        "n": len(records),
        "p50_ms": median(lat),
        "p95_ms": p95,
        "place_p50_ms": median(by_kind["placement"]),
        "n_place": len(by_kind["placement"]),
        "whatif_p50_ms": median(by_kind["what_if"]),
        "n_whatif": len(by_kind["what_if"]),
        "offered_qps": offered,
        "achieved_qps": achieved,
        "failed": failed,
        "passes": (
            p95 <= LATENCY_LIMIT_MS
            and achieved >= MIN_ACHIEVED_SHARE * offered
            and failed == 0
            and phase["drained"]
        ),
    }


def measured_wall(phases: List[dict]) -> float:
    """First due time to last answer over ``phases``, seconds."""
    records = [r for p in phases for r in p["records"]]
    return max(r.get("recv", r["due"]) for r in records) - records[0]["due"]


def highest_rate(phases: List[dict], summaries: dict) -> float:
    """Where the ladder's p95-against-rate line crosses the limit.

    Steps pass while p95 stays within ``LATENCY_LIMIT_MS``, the achieved
    rate keeps up and no request fails.  Between the last passing step
    and the first failing one the p95 is interpolated linearly in rate,
    so the figure moves smoothly with the measured tails.  A step that
    fails with its p95 within the limit ends the ladder at the last
    passing rate; a failing first step gives 0.
    """
    passed = None
    for phase in phases:
        summary = summaries[phase["name"]]
        if summary["passes"]:
            passed = (phase["rate"], summary["p95_ms"])
            continue
        if passed is None:
            return 0.0
        rate0, p95_0 = passed
        p95_1 = summary["p95_ms"]
        if summary["failed"] or p95_1 <= LATENCY_LIMIT_MS:
            return rate0
        return rate0 + (LATENCY_LIMIT_MS - p95_0) * (
            phase["rate"] - rate0
        ) / (p95_1 - p95_0)
    return passed[0] if passed else 0.0


async def drive(server: Server, seed: int, pools: dict) -> List[dict]:
    """Light, busy, then the doubling ladder until a step fails."""
    phases = []
    rates = [("light", LIGHT_QPS), ("busy", BUSY_QPS)] + [
        (f"x{BUSY_QPS * 2 ** k:g}", BUSY_QPS * 2 ** k)
        for k in range(1, MAX_LADDER_STEPS + 1)
    ]
    for index, (name, rate) in enumerate(rates):
        n = REQUESTS_PER_RATE if index < 2 else REQUESTS_PER_STEP
        stream = make_stream(seed, index, rate, n, pools)
        phase = await run_phase(server, name, stream)
        phase["rate"] = rate
        phases.append(phase)
        if not phase["drained"]:
            break
        if index >= 1 and not quick_pass(phase):
            break
    return phases


def quick_pass(phase: dict) -> bool:
    """The ladder's stop rule, before the oracle has run."""
    return phase_summary(phase, set())["passes"] and all(
        r.get("answer", {}).get("status") == "ok" for r in phase["records"]
    )


def read_telemetry(path: Path) -> Dict[int, tuple]:
    """``request_id -> (submit t, answer t)`` from the fleet event log."""
    submit: Dict[int, float] = {}
    spans: Dict[int, tuple] = {}
    if not path.exists():
        return spans
    for line in path.read_text().splitlines():
        event = json.loads(line)
        if event.get("type") == "fleet_submit":
            submit[event["request_id"]] = event["t"]
        elif event.get("type") == "fleet_answer":
            rid = event["request_id"]
            if rid in submit:
                spans[rid] = (submit[rid], event["t"])
    return spans


def run(seed: int, traced: bool, children: Children, spans: Spans) -> dict:
    """One ``fleet-tcp`` run; returns counts, metrics and notes."""
    replay = Replay()
    sockets = {cid: c.topology.n_sockets
               for cid, c in replay.computes.items()}
    pools = utilization_pools(seed, sockets)
    return asyncio.run(_run(seed, traced, children, spans, replay, pools))


async def _run(seed, traced, children, spans, replay, pools) -> dict:
    notes = [
        f"load: open loop, Poisson-like arrivals on a fixed schedule with "
        f"seeded contents, over {N_CONNECTIONS} persistent connections; "
        f"light {LIGHT_QPS:g} q/s, busy "
        f"{BUSY_QPS:g} q/s ({REQUESTS_PER_RATE} requests each), then "
        f"doubling ({REQUESTS_PER_STEP} per step); "
        f"{PLACEMENT_SHARE:.0%} placement / "
        f"{1 - PLACEMENT_SHARE:.0%} what-if; latency from due time"
    ]
    out: dict = {"notes": notes}
    reference_p50 = None
    setups = []
    if traced:
        # Untraced reference for the tracing overhead.
        server = Server(children, None)
        try:
            server.spawn()
            await server.connect()
            stream = make_stream(seed, 0, LIGHT_QPS, REFERENCE_REQUESTS,
                                 pools)
            reference = await run_phase(server, "reference", stream)
        finally:
            await server.close()
        reference_p50 = phase_summary(reference, set())["p50_ms"]
        telemetry = OUT_DIR / f"fleet-telemetry-{seed}"
        if telemetry.exists():
            for old in telemetry.iterdir():
                old.unlink()
        server = Server(children, telemetry)
        server.spawn()
    else:
        for _ in range(SETUP_REPEATS - 1):
            server = Server(children, None)
            try:
                server.spawn()
                setups.append(await server.connect())
            finally:
                await server.close()
        server = Server(children, None)
        server.spawn()
    try:
        setups.append(await server.connect())
        phases = await drive(server, seed, pools)
        out["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        await server.close()

    # The oracle: replay warm-ups and every request in due order.
    for query in warmup_queries():
        replay.answer(query)
    failures = {}
    compute_us = {"placement": [], "what_if": []}
    for phase in phases:
        expected = []
        for record in phase["records"]:
            payload, elapsed = replay.answer(record["query"])
            expected.append(payload)
            record["compute_s"] = elapsed
            if phase["name"] == "light":
                compute_us[record["query"]["kind"]].append(1e6 * elapsed)
        failures.update(check_answers(phase["records"], expected))
    failed_keys = set(failures)
    summaries = {p["name"]: phase_summary(p, failed_keys) for p in phases}
    attempted = sum(len(p["records"]) for p in phases)
    max_qps = highest_rate(phases, summaries)
    late = [1000.0 * (r["sent"] - r["due"])
            for p in phases for r in p["records"]]
    late_p99 = percentile(late, 99.0)
    valid = late_p99 <= LATE_LIMIT_MS
    if not valid:
        notes.append(
            f"INVALID: the generator fell behind (late p99 "
            f"{late_p99:.1f} ms > {LATE_LIMIT_MS:g} ms)"
        )
    out.update(
        attempted=attempted,
        failed=len(failed_keys),
        failures=[f"{k}: {v}" for k, v in list(failures.items())[:20]],
        valid=valid,
        summaries=summaries,
    )
    if setups:
        notes.append("set-up samples (s): "
                     + ", ".join(f"{v:.3f}" for v in setups))
    light = summaries.get("light", {})
    busy = summaries.get("busy", {})
    records = [r for p in phases for r in p["records"]]
    out["e2e"] = {
        "setup_s": median(setups),
        "success_rate": 1.0 - len(failed_keys) / attempted,
        "peak_rss_mb": out["peak_rss_mb"],
        "sweep_scaled_s": measured_wall(phases[:2]),
        "light_p50_ms": light.get("p50_ms", 0.0),
        "light_p95_ms": light.get("p95_ms", 0.0),
        "busy_p50_ms": busy.get("p50_ms", 0.0),
        "busy_p95_ms": busy.get("p95_ms", 0.0),
        "place_p50_ms": light.get("place_p50_ms", 0.0),
        "whatif_p50_ms": light.get("whatif_p50_ms", 0.0),
        "max_qps": max_qps,
    }
    statuses = {}
    for record in records:
        status = record.get("answer", {}).get("status", "missing")
        statuses[status] = statuses.get(status, 0) + 1
    hits, lookups = replay.warm_counts()
    layers = {
        "server.topology_s": replay.topology_s,
        "fleet.compute.place_us_p50": median(compute_us["placement"]),
        "fleet.compute.whatif_us_p50": median(compute_us["what_if"]),
        "fleet.compute.warm_hit_ratio": hits / lookups if lookups else 0.0,
        "fleet.answers.ok": statuses.get("ok", 0),
        "fleet.answers.degraded": statuses.get("degraded", 0),
        "fleet.answers.shed": statuses.get("shed", 0),
        "fleet.answers.failed": sum(
            v for k, v in statuses.items()
            if k not in ("ok", "degraded", "shed")
        ),
        "loadgen.late_p99_ms": late_p99,
    }
    notes.append(f"warm-field cache: {hits} hits / {lookups} lookups")
    if traced:
        layers.update(trace_layers(server.telemetry, phases, spans))
        layers["trace_overhead"] = (
            light.get("p50_ms", 0.0) / reference_p50 - 1.0
            if reference_p50 else 0.0
        )
    out["layers"] = layers
    return out


def trace_layers(telemetry: Path, phases: List[dict], spans: Spans):
    """Service and wire times from the server's own event log."""
    events = read_telemetry(telemetry / "fleet.jsonl")
    # The service clock starts at an unknown epoch; every request was
    # admitted after it was sent, which bounds the epoch from below.
    pairs = [
        (r, events[r["answer"]["request_id"]])
        for p in phases for r in p["records"]
        if "answer" in r and r["answer"].get("request_id") in events
    ]
    epoch = max((r["sent"] - s for r, (s, _) in pairs), default=0.0)
    service_ms = []
    wire_ms = []
    for record, (submit_t, answer_t) in pairs:
        trace_id = f"{record['key'][0]}:{record['key'][1]}"
        root = spans.add("request", record["due"], record["recv"], trace_id,
                         kind=record["query"]["kind"])
        spans.add("admit_to_answer", epoch + submit_t, epoch + answer_t,
                  trace_id, parent=root)
        spans.add("compute", 0.0, record["compute_s"], trace_id,
                  parent=root, timeline="in-process replay")
        if record["key"][0] == "light":
            service = 1000.0 * (answer_t - submit_t)
            service_ms.append(service)
            wire_ms.append(1000.0 * (record["recv"] - record["sent"])
                           - service)
    return {
        "fleet.service.admit_to_answer_ms_p50": median(service_ms),
        "fleet.service.admit_to_answer_ms_p95": percentile(service_ms, 95),
        "fleet.wire_ms_p50": median(wire_ms),
    }
