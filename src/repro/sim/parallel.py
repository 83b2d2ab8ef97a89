"""Parallel sweep execution over a process pool, with memoisation.

Every figure in the paper is a sweep over (scheduler x benchmark set x
load) and each point is an independent simulation, so the sweep is
embarrassingly parallel.  This module fans the points of a sweep out
over a :class:`concurrent.futures.ProcessPoolExecutor` while keeping
the results bit-identical to serial execution:

- each point's workload stream is derived deterministically from the
  simulation parameters' seed (never from worker identity, submission
  order or wall-clock), so a point computes the same result no matter
  which process runs it or when;
- results are collected back in submission order;
- execution falls back to the serial path when ``max_workers <= 1``,
  when there is only one point to run, when the platform cannot
  ``fork`` (the only start method that is both cheap and inherits the
  loaded modules), or when the pool fails to come up.

Points run in lockstep chunks (:func:`~repro.sim.engine.run_lockstep`):
the physics of a chunk's points advances together over ``(K, n)``
slabs, bit-identical to running the points one by one.  The pending
points split into chunks of at most :data:`LOCKSTEP_CHUNK` points, in
point order; the serial path runs the chunks one after another and
pool workers each take one chunk at a time.  A chunk's points all
finish on its last step and are recorded (cache, checkpoint) before
the next chunk starts, so a kill loses at most the chunk in flight
and live memory holds at most one chunk per process.

The pool path is additionally *crash-resilient*: a worker that dies
(OOM kill, segfault) breaks the pool, and the harness rebuilds it and
retries only the unfinished points, with exponential backoff, up to
``max_retries`` rounds before falling back to in-process serial
execution for whatever is left.  Deterministic failures — anything in
the :class:`~repro.errors.ReproError` hierarchy, such as an
:class:`~repro.sim.invariants.InvariantViolation` — propagate
immediately: re-running a deterministic simulation cannot change its
outcome.  An optional per-point ``timeout_s`` bounds hung workers.

A process-wide :class:`SweepCache` memoises results keyed on the full
configuration (topology, parameters, scheduler name, benchmark set,
load, fault schedule), so repeated figure runs in one process — e.g.
Figure 14 and Figure 15 share their entire grid — skip identical
configurations.  The cache holds at most ``REPRO_CACHE_MAX`` entries
(least-recently-used eviction), bounding sweep memory on large grids.
Cached results are returned by reference; callers must treat
:class:`~repro.sim.results.SimulationResult` objects as read-only
(which every experiment already does).  For durability *across*
processes, pass a :class:`~repro.sim.checkpoint.SweepCheckpoint`:
every finished point is persisted as soon as its chunk ends, so an
interrupted sweep resumes bit-identically.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config.parameters import SimulationParameters
from ..errors import ConfigurationError, ReproError, SimulationError
from ..server.topology import ServerTopology
from ..workloads.benchmark import BenchmarkSet
from .checkpoint import SweepCheckpoint
from .invariants import DEFAULT_INTERVAL_STEPS
from .results import SimulationResult

#: One sweep point: (scheduler name, benchmark set, load).
SweepPoint = Tuple[str, BenchmarkSet, float]

#: Environment variable bounding the in-process sweep cache.
ENV_CACHE_MAX = "REPRO_CACHE_MAX"

#: Default cache bound when ``REPRO_CACHE_MAX`` is unset.
DEFAULT_CACHE_MAX = 256

#: Most points one lockstep chunk runs together.  Per-point throughput
#: grows with the chunk while numpy call overhead dominates; past a
#: dozen points the gain is small, and each point's run state (queues,
#: running jobs, telemetry writer) stays live until its chunk ends.
LOCKSTEP_CHUNK = 12


def topology_token(topology: ServerTopology) -> bytes:
    """A stable byte string identifying a topology's full geometry.

    Two topologies with equal tokens produce identical simulations for
    equal parameters: the token covers the grid shape, the processor,
    the per-socket sink arrays and the assembled coupling matrix.
    """
    scalars = (
        type(topology).__name__,
        topology.n_rows,
        topology.lanes_per_row,
        topology.chain_length,
        topology.sockets_per_cartridge_depth,
        topology.socket_airflow_cfm,
        topology.mixing_factor,
        topology.intra_cartridge_decay,
        topology.inter_cartridge_decay,
        repr(topology.processor),
    )
    parts = [repr(scalars).encode()]
    for array in (
        topology.r_ext_array,
        topology.theta_offset_array,
        topology.theta_slope_array,
        topology.tdp_array,
        topology.gated_power_array,
        topology.coupling.matrix,
    ):
        parts.append(array.tobytes())
    return b"|".join(parts)


def config_key(
    topology: ServerTopology,
    params: SimulationParameters,
    scheduler_name: str,
    benchmark_set: BenchmarkSet,
    load: float,
    fault_schedule=None,
    room=None,
) -> str:
    """Memo-cache key for one fully specified sweep point.

    Args:
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` active for the point; its content fingerprint
            joins the key, so faulted and fault-free runs of the same
            grid point never collide in the cache or on disk.
        room: Optional room-layer inputs (an object exposing
            ``token() -> bytes``, e.g. :class:`~repro.room.capacity.
            RoomKey` carrying the room fingerprint — chassis mix plus
            recirculation matrix — and the CRAC setpoint).  Joins the
            key only when present, so every chassis-only key is
            unchanged while room sweeps can never alias chassis-only
            cache or checkpoint entries.
    """
    digest = hashlib.sha256()
    digest.update(topology_token(topology))
    digest.update(repr(params).encode())
    digest.update(
        f"|{scheduler_name}|{benchmark_set.value}|{load!r}".encode()
    )
    if fault_schedule is not None:
        digest.update(b"|faults:")
        digest.update(fault_schedule.fingerprint().encode())
    if room is not None:
        digest.update(b"|room:")
        digest.update(room.token())
    return digest.hexdigest()


def _env_cache_max() -> Optional[int]:
    """Cache bound from ``REPRO_CACHE_MAX`` (``<= 0`` means unbounded)."""
    raw = os.environ.get(ENV_CACHE_MAX)
    if raw is None:
        return DEFAULT_CACHE_MAX
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{ENV_CACHE_MAX} must be an integer, got {raw!r}"
        ) from exc
    return value if value > 0 else None


class SweepCache:
    """Bounded, process-local LRU memo cache for sweep results.

    Entries are keyed by :func:`config_key`, so engine sweep results
    and room-layer solutions (:mod:`repro.room.capacity`, keyed with
    the ``room=`` inputs) share the bound without ever aliasing.

    Holds at most ``max_entries`` results, evicting the least recently
    *used* entry (both hits and inserts refresh recency) when full — a
    month-long grid of large result objects cannot grow memory without
    bound.

    Attributes:
        max_entries: Capacity; ``None`` means unbounded.
        hits: Lookups answered from the cache.
        misses: Lookups that fell through to a simulation run.
        evictions: Entries dropped to respect ``max_entries``.
    """

    def __init__(self, max_entries: Optional[int] = -1):
        if max_entries is not None and not isinstance(max_entries, int):
            raise ConfigurationError(
                f"cache max_entries must be an int or None, got "
                f"{type(max_entries).__name__} ({max_entries!r})"
            )
        if max_entries == -1:
            # The -1 sentinel defers to the environment (REPRO_CACHE_MAX,
            # default DEFAULT_CACHE_MAX); it is the only negative value
            # with a meaning.
            max_entries = _env_cache_max()
        elif max_entries is not None and max_entries < -1:
            raise ConfigurationError(
                f"cache max_entries must be positive, None (unbounded), "
                f"or the -1 sentinel (use {ENV_CACHE_MAX}); got "
                f"{max_entries}"
            )
        elif max_entries is not None and max_entries == 0:
            raise ConfigurationError(
                "cache max_entries of 0 would cache nothing; use a "
                "positive bound, or None to run unbounded"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[str, SimulationResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, counting the lookup."""
        result = self._store.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
            self._store.move_to_end(key)
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result under its configuration key, evicting LRU."""
        self._store[key] = result
        self._store.move_to_end(key)
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def keys(self) -> List[str]:
        """Cached keys, least recently used first."""
        return list(self._store)

    def __len__(self) -> int:
        return len(self._store)


#: Shared per-process cache used by ``use_cache=True`` sweeps.
shared_cache = SweepCache()


def clear_shared_cache() -> None:
    """Empty the process-wide sweep cache (tests, memory pressure)."""
    shared_cache.clear()


def _run_points(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[SweepPoint],
    audit: bool,
    audit_interval: int,
    fault_schedule=None,
    telemetry=None,
    profile: bool = False,
    point_keys: Optional[Sequence[Optional[str]]] = None,
) -> list:
    """Execute one lockstep chunk of sweep points.

    Runs in the serial path and in pool workers alike.  Each
    scheduler is constructed *inside* the executing process from its
    registered name, so stateful policies always start fresh and no
    policy object ever crosses a process boundary.  The telemetry config is a frozen value object, so it
    crosses the fork boundary by construction; each point writes its
    own ``point-<key>`` log and manifest, named by the configuration
    key so artifacts from different points can never collide.

    Returns:
        One outcome per point, in order: its result, or the exception
        that ended it (see :func:`~repro.sim.engine.run_lockstep`).
    """
    from ..core import get_scheduler  # local import: avoids cycle
    from .engine import run_lockstep
    from .runner import point_simulation, save_point_manifest

    simulations = []

    def runs():
        # A generator, so no job stream outlives its point's set-up.
        for i, (name, benchmark_set, load) in enumerate(points):
            auditor = None
            if audit:
                from .invariants import InvariantAuditor

                auditor = InvariantAuditor(interval_steps=audit_interval)
            key = point_keys[i] if point_keys is not None else None
            simulation, jobs = point_simulation(
                topology,
                params,
                get_scheduler(name),
                benchmark_set,
                load,
                auditor=auditor,
                fault_schedule=fault_schedule,
                telemetry=telemetry,
                profile=profile,
                run_name="run" if key is None else f"point-{key[:12]}",
            )
            simulations.append(simulation)
            yield simulation, jobs

    outcomes = run_lockstep(runs())
    for simulation, point, outcome in zip(simulations, points, outcomes):
        if isinstance(outcome, SimulationResult):
            save_point_manifest(
                simulation, point[1], point[2], fault_schedule, outcome
            )
    return outcomes


def _chunks(indices: Sequence[int], workers: int) -> List[List[int]]:
    """Split point indices into lockstep chunks, keeping point order.

    At least one chunk per worker, at most :data:`LOCKSTEP_CHUNK`
    points per chunk, sizes differing by at most one.
    """
    if not indices:
        return []
    count = max(min(workers, len(indices)), -(-len(indices) // LOCKSTEP_CHUNK))
    size, extra = divmod(len(indices), count)
    chunks, start = [], 0
    for c in range(count):
        end = start + size + (c < extra)
        chunks.append(list(indices[start:end]))
        start = end
    return chunks


def _fork_available() -> bool:
    """Whether the cheap ``fork`` start method exists on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def execute_sweep(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[SweepPoint],
    max_workers: int = 1,
    audit: bool = False,
    audit_interval: int = DEFAULT_INTERVAL_STEPS,
    cache: Optional[SweepCache] = None,
    fault_schedule=None,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.25,
    checkpoint: Optional[SweepCheckpoint] = None,
    telemetry=None,
    profile: bool = False,
) -> List[SimulationResult]:
    """Run every sweep point, in parallel where possible.

    Args:
        topology: Server geometry shared by every point.
        params: Simulation parameters shared by every point (each
            point's workload is re-derived from ``params.seed``, so
            results are independent of execution order).
        points: The (scheduler name, benchmark set, load) grid.
        max_workers: Process count; ``1`` forces the serial path.
            The pool gets at least one lockstep chunk per worker.
        audit: Run each point under a fresh
            :class:`~repro.sim.invariants.InvariantAuditor`.
        audit_interval: Audit cadence in engine steps.
        cache: Optional memo cache consulted before and filled after
            execution.
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` replayed in every point (the schedule also
            joins the cache/checkpoint key).
        timeout_s: Optional per-point wall-clock bound in the pool
            path (a chunk of k points gets k times it); the points of
            a chunk that exceeds it count a failed attempt each and
            are never retried serially (a hung simulation would hang
            the parent too).
        max_retries: Pool rounds re-attempted after worker crashes or
            timeouts before falling back to serial execution of the
            leftover points.  Deterministic
            :class:`~repro.errors.ReproError` failures are never
            retried.
        retry_backoff_s: Base of the exponential sleep between retry
            rounds.
        checkpoint: Optional :class:`~repro.sim.checkpoint.
            SweepCheckpoint`; finished points load from it up front and
            every newly computed point persists to it as soon as its
            lockstep chunk ends, before the next chunk starts, so a
            sweep killed mid-flight resumes bit-identically.  Every
            persisted point gets a ``.manifest.json`` provenance
            sidecar recording the full recipe and result fingerprint.
        telemetry: Optional :class:`~repro.obs.session.TelemetryConfig`
            (or bare directory).  The harness appends its own events
            (``sweep_start``, ``cache_hit``, ``point_done``,
            ``checkpoint_write``, ``pool_retry``, ``pool_timeout``,
            ``sweep_end``) to ``sweep.jsonl`` in that directory —
            append mode, so an interrupted-and-resumed sweep keeps one
            continuous harness log — and each executed point records
            its own per-run event log and manifest there.
        profile: Attach per-component wall-clock accounting to every
            point's ``result.profile``.

    Returns:
        One :class:`~repro.sim.results.SimulationResult` per point, in
        the order given.

    Raises:
        SimulationError: propagated from any point (including
            :class:`~repro.sim.invariants.InvariantViolation` raised
            inside a worker process), or raised for points that
            exhausted their timeout attempts.  Every point of a chunk
            that finished is recorded before the chunk's first failure
            in point order propagates; later chunks do not run.
    """
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if retry_backoff_s < 0:
        raise ConfigurationError("retry_backoff_s must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be positive")

    if telemetry is not None:
        from ..obs.session import TelemetryConfig

        telemetry = TelemetryConfig.coerce(telemetry, profile=profile)
        profile = telemetry.profile

    results: List[Optional[SimulationResult]] = [None] * len(points)
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(points)
    need_keys = (
        cache is not None
        or checkpoint is not None
        or telemetry is not None
    )
    for i, point in enumerate(points):
        if need_keys:
            keys[i] = config_key(
                topology,
                params,
                *point,
                fault_schedule=fault_schedule,
            )
        # A stored result without a profile cannot serve a profiled
        # request: the point re-runs and its entries are overwritten.
        if cache is not None:
            hit = cache.get(keys[i])
            if hit is not None and (hit.profile is not None or not profile):
                results[i] = hit
                continue
        if checkpoint is not None:
            loaded = checkpoint.load(keys[i])
            if loaded is not None and (
                loaded.profile is not None or not profile
            ):
                results[i] = loaded
                if cache is not None:
                    cache.put(keys[i], loaded)
                continue
        pending.append(i)

    session = None
    if telemetry is not None:
        from pathlib import Path

        from ..obs.session import TelemetrySession

        # One continuous harness log per directory: append mode keeps
        # a killed-and-resumed sweep's rounds in a single stream.
        session = TelemetrySession(
            Path(telemetry.directory) / "sweep.jsonl",
            buffer_lines=telemetry.buffer_lines,
            append=True,
        )
        session.emit(
            "sweep_start",
            n_points=len(points),
            n_resolved=len(points) - len(pending),
        )
        for i in range(len(points)):
            if results[i] is not None:
                session.emit("cache_hit", index=i, key=keys[i])

    def record(i: int, result: SimulationResult) -> None:
        results[i] = result
        if checkpoint is not None:
            from ..obs.manifest import manifest_for_point

            # Every persisted point carries its provenance sidecar, so
            # any figure built from a checkpoint directory can be
            # re-run and verified from the artifacts alone.
            manifest = manifest_for_point(
                topology,
                params,
                points[i][0],
                points[i][1],
                points[i][2],
                fault_schedule=fault_schedule,
                result=result,
                profile=result.profile,
            )
            checkpoint.save(keys[i], result, manifest=manifest)
            if session is not None:
                session.emit("checkpoint_write", index=i, key=keys[i])
        if cache is not None:
            cache.put(keys[i], result)
        if session is not None:
            name, benchmark_set, load = points[i]
            session.emit(
                "point_done",
                index=i,
                scheduler=name,
                benchmark_set=benchmark_set.value,
                load=float(load),
            )

    def settle(chunk: Sequence[int], outcomes: list) -> None:
        # Every finished point of the chunk is kept (cache, checkpoint)
        # before its first failure in point order propagates, so a
        # resumed sweep re-runs no finished point.
        failures = []
        for i, outcome in zip(chunk, outcomes):
            if isinstance(outcome, Exception):
                failures.append(outcome)
            else:
                record(i, outcome)
        if failures:
            raise failures[0]

    def chunk_args(chunk: Sequence[int]) -> tuple:
        return (
            topology,
            params,
            [points[i] for i in chunk],
            audit,
            audit_interval,
            fault_schedule,
            telemetry,
            profile,
            [keys[i] for i in chunk],
        )

    try:
        serial = list(pending)
        workers = min(int(max_workers), len(pending))
        if workers > 1 and _fork_available():
            serial = _run_pool(
                serial,
                workers,
                chunk_args,
                settle,
                timeout_s,
                max_retries,
                retry_backoff_s,
                session=session,
            )
        for chunk in _chunks(serial, 1):
            settle(chunk, _run_points(*chunk_args(chunk)))
        if session is not None:
            session.emit("sweep_end", n_points=len(points))
    finally:
        if session is not None:
            session.close()
    return results  # type: ignore[return-value]


def _run_pool(
    pending: Sequence[int],
    workers: int,
    chunk_args: Callable[[Sequence[int]], tuple],
    settle: Callable[[Sequence[int], list], None],
    timeout_s: Optional[float],
    max_retries: int,
    retry_backoff_s: float,
    session=None,
) -> List[int]:
    """Fan lockstep chunks out over a fork-based process pool.

    Runs up to ``1 + max_retries`` pool rounds.  Each round splits the
    still-unfinished points into chunks (:func:`_chunks`) and each
    worker runs :func:`_run_points` on one chunk at a time.  A chunk's
    outcomes go to ``settle`` as soon as it is collected: its finished
    points are recorded (checkpoint durability) and its first
    deterministic failure propagates.  Crash-type failures (broken
    pool, timeout, pickling trouble) leave the chunk's points for the
    next round.  ``timeout_s`` is a per-point budget, so a chunk of k
    points may take k times it.  Returns the indices still unfinished
    after the last round, for the caller's serial fallback — except
    points whose chunk *timed out*, which raise instead: a simulation
    that outlived its budget in a worker would also hang the parent
    process.
    """
    context = multiprocessing.get_context("fork")
    remaining: List[int] = list(pending)
    timed_out: Dict[int, int] = {}
    for round_no in range(1 + max_retries):
        if not remaining:
            break
        if round_no:
            if session is not None:
                session.emit(
                    "pool_retry",
                    round=round_no,
                    remaining=len(remaining),
                )
            if retry_backoff_s > 0:
                time.sleep(retry_backoff_s * 2 ** (round_no - 1))
        chunks = _chunks(remaining, workers)
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                mp_context=context,
            )
        except (OSError, PermissionError):
            return remaining  # sandboxed: no new processes at all
        hung = False
        try:
            try:
                futures = [
                    pool.submit(_run_points, *chunk_args(chunk))
                    for chunk in chunks
                ]
            except ReproError:
                raise  # deterministic: a retry cannot change it
            except Exception:
                # Submission itself failed (e.g. a BrokenProcessPool
                # before any work was accepted).  Crash-type failure
                # for the whole round: every point stays in
                # ``remaining`` for the next round — or the caller's
                # serial fallback — instead of escaping the retry
                # machinery entirely.
                continue
            still: List[int] = []
            order = iter(zip(chunks, futures))
            for chunk, future in order:
                budget = None if timeout_s is None else timeout_s * len(chunk)
                try:
                    outcomes = future.result(timeout=budget)
                except ReproError:
                    raise  # deterministic: a retry cannot change it
                except FutureTimeoutError:
                    hung = True
                    still.extend(chunk)
                    for i in chunk:
                        timed_out[i] = timed_out.get(i, 0) + 1
                        if session is not None:
                            session.emit(
                                "pool_timeout",
                                index=i,
                                attempt=timed_out[i],
                            )
                    # The pool is wedged on the hung worker.  Harvest
                    # whatever already finished, requeue the rest, and
                    # abandon the round.
                    for other, done in order:
                        if done.done() and done.exception() is None:
                            settle(other, done.result())
                        else:
                            still.extend(other)
                    break
                except Exception:
                    # Crash-type failure (broken pool, pickling, OS):
                    # leave the chunk's points for the next round.
                    still.extend(chunk)
                else:
                    settle(chunk, outcomes)
            remaining = sorted(still)
        finally:
            if hung:
                # Do not wait on the hung worker; kill the pool.
                for proc in getattr(pool, "_processes", {}).values():
                    proc.terminate()
            pool.shutdown(wait=not hung, cancel_futures=True)
    hopeless = [i for i in remaining if timed_out.get(i, 0) > 0]
    if hopeless:
        raise SimulationError(
            f"sweep points {hopeless} exceeded the {timeout_s:g}s "
            f"per-point timeout in {max(timed_out.values())} attempt(s); "
            "not retrying serially (a hung point would hang the parent)"
        )
    return remaining
