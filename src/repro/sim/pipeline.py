"""The step-pipeline decomposition of the simulation engine.

Historically every cross-cutting concern of a run — arrivals, placement,
migration, DVFS, coupled thermals, fan control, metrics, tracing,
auditing — was hand-inlined in one monolithic ``Simulation.run`` loop,
so each new feature meant another ``if step % k == 0`` branch threaded
through 350 lines.  This module decomposes that loop into explicit,
ordered :class:`StepComponent` objects driven by a slim
:class:`~repro.sim.engine.Engine` that owns nothing but the clock.

Component ordering is a *contract*, not a convenience: the pipeline is
bit-identical to the historical monolith only because each phase reads
exactly the values its predecessor produced within the same step.  The
fixed order is::

    ArrivalAdmitter   admit arrivals into the central queue
    FaultInjector     (optional) apply due fault transitions
    Placer            scheduling decisions over idle sockets
    Migrator          (optional) periodic thermal-aware migration
    PowerManager      DVFS selection and electrical power draw
    WorkRetirer       retire work, interpolate completions
    FanControl        (optional) airflow scale for *this* step's thermals
    ThermalUpdater    coupling chain + two-node transient advance
    MetricsAccumulator measurement-window metric accumulation
    Tracer            (optional) time-series sampling
    Auditor           (optional) read-only invariant checks

Notably ``FanControl`` runs *before* ``ThermalUpdater`` (the airflow
scale it computes applies to the same step's coupling), and
``MetricsAccumulator`` runs *after* ``ThermalUpdater`` (the
max-chip-temperature metric sees post-advance temperatures).  See
``docs/architecture.md`` for the full contract and a recipe for adding
components.

The engine advances a batch of K points in lockstep, and the order
splits into three bands.  The decision phases before the physics
(admission, faults, placement, migration) are :class:`StepComponent`
objects run once per point; the physics from ``PowerManager`` to
``MetricsAccumulator`` are :class:`BatchPhase` objects run once per
step over the :class:`LockstepBatch`, whose ``(K, n)`` slabs hold
every point's state as rows; the observers after them run once per
point again.  A single run is the batch of one.

Every component implements a three-hook protocol:

- ``on_run_start`` — reset per-run state (pointers, cadences);
- ``on_step`` — advance one engine step;
- ``on_run_end`` — finalise results (counters, derived metrics).

A :class:`StepComponent` receives its point's :class:`EngineContext`,
a :class:`BatchPhase` the :class:`LockstepBatch`.  Components
communicate only through those (engine state, scratch arrays,
per-step scalars), never directly with each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional, Sequence

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..thermal.dynamics import TwoNodeThermalState
from ..workloads.job import Job
from .power_manager import SelectionWorkspace, select_frequencies
from .results import SimulationResult
from .state import SimulationState, StateSlabs
from .view import SchedulerView


@dataclass
class EngineContext:
    """Everything one simulation run shares across its components.

    Bundles the mutable :class:`~repro.sim.state.SimulationState`, the
    read-only :class:`~repro.sim.view.SchedulerView` handed to
    policies, precomputed topology arrays, the run RNG, the
    accumulating :class:`~repro.sim.results.SimulationResult`, and the
    per-step scratch values the pipeline phases hand to each other.

    Attributes:
        topology: Server geometry.
        params: Simulation parameters.
        scheduler: Placement policy.
        state: Mutable engine state (components own all mutation).
        view: Read-only state view handed to policies.
        rng: Run RNG (seeded from ``params.seed``); policies draw from
            it in decision order, which fixes the draw sequence.
        result: Accumulating run result.
        ordered_jobs: Jobs not yet admitted, sorted by
            ``(arrival_s, job_id)``; admission pops them, so the run
            holds no job it no longer needs.
        queue: Central FIFO of admitted-but-unplaced jobs.
        dt: Engine step, seconds (the power-manager interval).
        dt_ms: Engine step, milliseconds.
        n_steps: Total steps to the configured horizon.
        warmup_s: Measurement-window start time, seconds.
        history_alpha: Per-step EMA weight of the temperature history.
        r_ext: Per-socket external (sink) thermal resistance, degC/W.
        theta_offset: Per-socket Equation 1 offset, degC.
        theta_slope: Per-socket Equation 1 slope, degC/W.
        gated_power: Per-socket idle (power-gated) draw, W.
        tdp: Per-socket TDP, W.
        inlet_c: Server inlet air temperature, degC.
        max_mhz: Top ladder frequency, MHz.
        span_mhz: Ladder frequency span, MHz.
        sustained_mhz: Highest non-boost frequency, MHz.
        step: Current step index (engine-owned).
        time_s: Current simulation time (engine-owned), seconds.
        in_window: Whether the current step is past warm-up.
        power: This step's per-socket power draw, W (written by
            :class:`PowerManager`, completion-adjusted by
            :class:`WorkRetirer`; aliases ``state.power_w``).
        retired: This step's per-socket retired work, ms (written by
            :class:`WorkRetirer`).
        busy_frac: Fraction of this step each socket was busy (written
            by :class:`WorkRetirer`).  These three are the point's rows
            of the :class:`LockstepBatch` slabs, bound at run start.
        airflow_scale: Relative airflow this step (1.0 without fan
            control).
        fan_power_w: Electrical fan power this step, W.
        fan_active: Whether a fan controller is part of the pipeline.
        components: The point's pipeline, in contract order.
        profiler: Optional :class:`repro.obs.profiler.StepProfiler`
            accounting the point's share of the engine's wall-clock.
    """

    topology: ServerTopology
    params: SimulationParameters
    scheduler: object
    state: SimulationState
    view: SchedulerView
    rng: np.random.Generator
    result: SimulationResult
    ordered_jobs: deque
    queue: deque = field(default_factory=deque)

    # Clock constants.
    dt: float = 0.0
    dt_ms: float = 0.0
    n_steps: int = 0
    warmup_s: float = 0.0
    history_alpha: float = 0.0

    # Precomputed topology arrays.
    r_ext: np.ndarray = None
    theta_offset: np.ndarray = None
    theta_slope: np.ndarray = None
    gated_power: np.ndarray = None
    tdp: np.ndarray = None
    inlet_c: float = 0.0

    # Ladder constants.
    max_mhz: float = 0.0
    span_mhz: float = 0.0
    sustained_mhz: float = 0.0

    # Engine-owned clock state.
    step: int = 0
    time_s: float = 0.0
    in_window: bool = False

    # Per-step scratch handed between phases.
    power: np.ndarray = None
    retired: np.ndarray = None
    busy_frac: np.ndarray = None
    airflow_scale: float = 1.0
    fan_power_w: float = 0.0
    fan_active: bool = False

    # Fault machinery (a repro.faults.injector.FaultState when a fault
    # schedule is configured).  Every fault hook in the pipeline is
    # gated on this being non-None, which keeps fault-free runs
    # bit-identical to the pre-fault engine.
    fault_state: Optional[object] = None

    # Telemetry stream (a repro.obs.session.TelemetrySession while a
    # run records telemetry, bound by the TelemetryRecorder component).
    # Every emission site is gated on this being non-None and only
    # *reads* state, which keeps telemetry-off runs bit-identical to
    # telemetry-on runs.
    telemetry: Optional[object] = None

    # The point's pipeline in contract order, and its optional
    # repro.obs.profiler.StepProfiler (both set by Simulation.prepare).
    components: List[object] = field(default_factory=list)
    profiler: Optional[object] = None

    # Profiling sub-buckets (non-None only on profiled runs): the bound
    # StepProfiler's ``name -> [calls, total_s]`` accumulator dict and
    # its clock.  Components opt in to finer-than-component accounting
    # through these (e.g. the Placer's per-policy ``place:*`` bucket);
    # like the profiler itself they only read the clock, so bucketed
    # runs stay bit-identical to plain ones.
    profile_buckets: Optional[dict] = None
    profile_clock: Optional[object] = None

    @classmethod
    def create(
        cls,
        topology: ServerTopology,
        params: SimulationParameters,
        scheduler,
        ordered_jobs: List[Job],
        n_jobs_submitted: int,
    ) -> "EngineContext":
        """Build a fully initialised context for one run."""
        state = SimulationState(topology, params)
        rng = np.random.default_rng(params.seed + 0x5EED)
        ladder = state.ladder
        dt = params.power_manager_interval_s
        result = SimulationResult(
            scheduler_name=getattr(scheduler, "name", "unknown"),
            params=params,
            topology=topology,
            n_jobs_submitted=n_jobs_submitted,
            measured_span_s=params.measured_span_s,
        )
        return cls(
            topology=topology,
            params=params,
            scheduler=scheduler,
            state=state,
            view=SchedulerView(state),
            rng=rng,
            result=result,
            ordered_jobs=deque(ordered_jobs),
            dt=dt,
            dt_ms=dt * 1000.0,
            n_steps=int(round(params.sim_time_s / dt)),
            warmup_s=params.warmup_s,
            history_alpha=1.0 - np.exp(-dt / params.history_tau_s),
            r_ext=topology.r_ext_array,
            theta_offset=topology.theta_offset_array,
            theta_slope=topology.theta_slope_array,
            gated_power=topology.gated_power_array,
            tdp=topology.tdp_array,
            inlet_c=params.inlet_c,
            max_mhz=float(ladder.max_mhz),
            span_mhz=float(ladder.max_mhz - ladder.min_mhz),
            sustained_mhz=float(ladder.sustained_mhz),
        )


class StepComponent:
    """One ordered phase of the simulation step pipeline.

    Subclasses override any of the three hooks; the defaults do
    nothing, so pure observers only implement what they need.  A
    component must confine its writes to its own phase's outputs (see
    the module docstring for the ordering contract) and must reset all
    per-run state in :meth:`on_run_start` so engine objects can be
    reused across runs.
    """

    def on_run_start(self, ctx: EngineContext) -> None:
        """Reset per-run state before the first step."""

    def on_step(self, ctx: EngineContext) -> None:
        """Advance this component's phase by one engine step."""

    def on_run_end(self, ctx: EngineContext) -> None:
        """Finalise results after the last step."""


class ArrivalAdmitter(StepComponent):
    """Admit jobs whose arrival time has come into the central queue.

    Jobs are popped from ``ctx.ordered_jobs`` (sorted by
    ``(arrival_s, job_id)`` — the id tie-break makes results
    independent of the caller's list order for same-timestamp
    arrivals).
    """

    def on_run_start(self, ctx: EngineContext) -> None:
        ctx.queue.clear()

    def on_step(self, ctx: EngineContext) -> None:
        ordered = ctx.ordered_jobs
        t = ctx.time_s
        queue = ctx.queue
        while ordered and ordered[0].arrival_s <= t:
            queue.append(ordered.popleft())
        if len(queue) > ctx.result.max_queue_length:
            ctx.result.max_queue_length = len(queue)


class Placer(StepComponent):
    """Drain the queue onto idle sockets via the scheduling policy.

    The policy sees only the read-only :class:`~repro.sim.view.
    SchedulerView`; all mutation (the actual assignment) happens here
    through the engine-owned state.  Killed sockets are excluded from
    the idle set, so a policy can never be offered a dead socket.
    """

    def __init__(self) -> None:
        self._bucket = None
        self._clock = None

    def on_run_start(self, ctx: EngineContext) -> None:
        ctx.scheduler.reset(ctx.view, ctx.rng)
        # Per-policy placement bucket (profiled runs only): this step
        # component opts in to sub-component accounting, attributing
        # each step's drain (dominated by select_socket scoring) to
        # "place:<policy name>" with a placement count.  Resolved once
        # per run so the step hook only pays two clock reads.
        buckets = ctx.profile_buckets
        self._bucket = None
        if buckets is not None:
            scheduler = ctx.scheduler
            name = getattr(scheduler, "name", type(scheduler).__name__)
            self._bucket = buckets.setdefault(f"place:{name}", [0, 0.0])
            self._clock = ctx.profile_clock

    def on_step(self, ctx: EngineContext) -> None:
        queue = ctx.queue
        if not queue:
            return
        state = ctx.state
        scheduler = ctx.scheduler
        view = ctx.view
        idle = state.idle_socket_ids()
        faults = ctx.fault_state
        if faults is not None and faults.any_dead:
            idle = idle[faults.alive[idle]]
        telemetry = ctx.telemetry
        acc = self._bucket
        if acc is not None:
            # Timing the drain once per step instead of per placement
            # keeps the profiler's <2% overhead bound intact.
            clock = self._clock
            placed = 0
            started = clock()
            while queue and idle.size:
                job = queue.popleft()
                socket_id = int(scheduler.select_socket(job, idle, view))
                state.assign(job, socket_id)
                idle = idle[idle != socket_id]
                placed += 1
                if telemetry is not None:
                    telemetry.emit(
                        "placement",
                        step=ctx.step,
                        t=ctx.time_s,
                        job_id=int(job.job_id),
                        socket=socket_id,
                    )
            acc[1] += clock() - started
            acc[0] += placed
            return
        while queue and idle.size:
            job = queue.popleft()
            socket_id = int(scheduler.select_socket(job, idle, view))
            state.assign(job, socket_id)
            idle = idle[idle != socket_id]
            if telemetry is not None:
                telemetry.emit(
                    "placement",
                    step=ctx.step,
                    t=ctx.time_s,
                    job_id=int(job.job_id),
                    socket=socket_id,
                )


class Migrator(StepComponent):
    """Periodically consult the migration policy and apply its moves.

    Registered only when a :class:`repro.core.migration.
    MigrationPolicy` is configured.  Fires every
    ``policy.interval_s`` (skipping step 0 — nothing has run yet).
    """

    def __init__(self, policy) -> None:
        self.policy = policy
        self._interval_steps = 1
        self._migrations = 0

    def on_run_start(self, ctx: EngineContext) -> None:
        self._interval_steps = max(
            int(round(self.policy.interval_s / ctx.dt)), 1
        )
        self._migrations = 0

    def on_step(self, ctx: EngineContext) -> None:
        step = ctx.step
        if step == 0 or step % self._interval_steps != 0:
            return
        state = ctx.state
        telemetry = ctx.telemetry
        for source, destination in self.policy.propose(ctx.view):
            state.migrate(source, destination, self.policy.cost_ms)
            self._migrations += 1
            if telemetry is not None:
                telemetry.emit(
                    "migration",
                    step=ctx.step,
                    t=ctx.time_s,
                    source=int(source),
                    destination=int(destination),
                )

    def on_run_end(self, ctx: EngineContext) -> None:
        ctx.result.n_migrations = self._migrations


class BatchPhase:
    """One physics phase advancing every point of a batch per step.

    Where a :class:`StepComponent` sees one point's context, a batch
    phase sees the whole :class:`LockstepBatch` and works on its
    ``(K, n)`` slabs, so one numpy call advances all K points.  Only
    data-dependent work (completions, fault overrides, airflow scales,
    the coupling product) loops over rows.

    ``on_run_start`` also receives ``members``: the same-position
    phase of every point's pipeline, row by row, so a phase can read
    per-point configuration (the fan controller) from its peers.  The
    engine drives the first point's instance.
    """

    def on_run_start(
        self, batch: "LockstepBatch", members: Sequence["BatchPhase"]
    ) -> None:
        """Reset per-run state before the first step."""

    def on_step(self, batch: "LockstepBatch") -> None:
        """Advance this phase by one engine step for every point."""

    def on_run_end(self, batch: "LockstepBatch") -> None:
        """Finalise results after the last step."""


class LockstepBatch:
    """K points over one topology and one parameter set, in lockstep.

    Stacks the points' state arrays and result accumulators into
    ``(K, n)`` slabs (see :class:`~repro.sim.state.StateSlabs`), binds
    each context's per-step scratch (``power``, ``retired``,
    ``busy_frac``) to its row, and holds the constants and clock the
    batch phases share.

    Elementwise physics runs on ``flat``: the slabs viewed as
    ``(K * n,)`` vectors, against per-socket constants tiled K times.
    One flat vector costs numpy less per call than a ``(K, n)`` array
    broadcast against an ``(n,)`` constant, and for K = 1 it is the
    single point's own ``(n,)`` layout.  Row work (reductions, the
    coupling product, fault overrides) indexes the 2-D ``slabs``.

    Attributes:
        contexts: The points' contexts, in row order.
        slabs: The stacked state and result arrays, ``(K, n)`` each.
        flat: The same arrays as flat ``(K * n,)`` views, plus this
            step's ``retired`` work (ms) and ``busy_frac`` per socket.
        thermal: Two-node thermal state over the flat ``sink_c`` and
            ``chip_c``.
        r_ext, theta_offset, theta_slope, gated_power, tdp: Per-socket
            constants tiled to ``(K * n,)``.
        step, time_s, in_window: The shared clock (engine-owned).
    """

    def __init__(self, contexts: Sequence[EngineContext]) -> None:
        first = contexts[0]
        for ctx in contexts[1:]:
            if ctx.topology is not first.topology or ctx.params != first.params:
                raise SimulationError(
                    "a lockstep batch needs one topology and one "
                    "parameter set for all of its points"
                )
        self.contexts = list(contexts)
        self.topology = first.topology
        self.params = first.params
        self.ladder = first.state.ladder
        self.shape = (len(self.contexts), self.topology.n_sockets)
        for name in (
            "dt", "dt_ms", "history_alpha", "inlet_c", "max_mhz",
            "span_mhz", "sustained_mhz",
        ):
            setattr(self, name, getattr(first, name))
        for name in (
            "r_ext", "theta_offset", "theta_slope", "gated_power", "tdp"
        ):
            setattr(self, name, np.tile(getattr(first, name), self.n_points))
        self.min_mhz = float(self.ladder.min_mhz)
        self.slabs = StateSlabs(
            [ctx.state for ctx in self.contexts],
            [ctx.result for ctx in self.contexts],
        )
        retired = np.zeros(self.shape)
        busy_frac = np.zeros(self.shape)
        self.flat = SimpleNamespace(
            retired=retired.reshape(-1),
            busy_frac=busy_frac.reshape(-1),
            **{
                name: slab.reshape(-1)
                for name, slab in vars(self.slabs).items()
            },
        )
        self.thermal = TwoNodeThermalState(
            self.flat.sink_c,
            self.flat.chip_c,
            chip_tau_s=self.params.chip_tau_s,
            socket_tau_s=self.params.socket_tau_s,
        )
        for k, ctx in enumerate(self.contexts):
            ctx.power = self.slabs.power_w[k]
            ctx.retired = retired[k]
            ctx.busy_frac = busy_frac[k]
        self.step = 0
        self.time_s = 0.0
        self.in_window = False

    @property
    def n_points(self) -> int:
        """Rows in the batch."""
        return self.shape[0]

    def retire_row(self, k: int) -> None:
        """Take a failed point's row out of play.

        The physics phases keep advancing every row, so the failed
        point's row is neutralised instead of removed: its sockets go
        idle (no completion can touch its jobs again) and it stops
        emitting telemetry.
        """
        self.slabs.busy[k] = False
        self.contexts[k].telemetry = None


class PowerManager(BatchPhase):
    """Select per-socket DVFS states and compute electrical power.

    Runs the batched frequency selection (see
    :func:`repro.sim.power_manager.select_frequencies`), then derives
    socket power: dynamic + leakage while busy, the gated floor while
    idle.  The leakage vector is computed once and shared with the
    frequency selection — both need the identical quantity.

    Under a fault schedule this phase is also the graceful-degradation
    seat: for each faulted row it advances the thermal-trip machine on
    the **true** chip temperatures, applies wedged-ladder / power-cap /
    trip frequency overrides before power is derived, and zeroes the
    draw of killed sockets (see :class:`repro.faults.injector.
    FaultState`).
    """

    def __init__(self) -> None:
        self._leak: Optional[np.ndarray] = None
        self._busy_power: Optional[np.ndarray] = None
        self._workspace: Optional[SelectionWorkspace] = None
        self._fault_rows: List[tuple] = []
        self._last_throttled: List[int] = []

    def on_run_start(self, batch, members) -> None:
        size = batch.tdp.size
        self._leak = np.empty(size)
        self._busy_power = np.empty(size)
        self._workspace = SelectionWorkspace.for_ladder(batch.ladder, size)
        n = batch.shape[1]
        self._fault_rows = [
            (slice(k * n, (k + 1) * n), ctx.fault_state)
            for k, ctx in enumerate(batch.contexts)
            if ctx.fault_state is not None
        ]
        self._last_throttled = [0] * batch.n_points

    def on_step(self, batch) -> None:
        flat = batch.flat
        chip = flat.chip_c
        min_mhz = batch.min_mhz
        leak = _leakage_into(chip, batch.tdp, self._leak)
        freq = select_frequencies(
            sink_c=flat.sink_c,
            chip_c=chip,
            dyn_max_w=flat.dyn_max_w,
            dyn_exp=flat.dyn_exp,
            tdp_w=batch.tdp,
            theta_offset=batch.theta_offset,
            theta_slope=batch.theta_slope,
            ladder=batch.ladder,
            params=batch.params,
            leakage_w=leak,
            workspace=self._workspace,
        )
        for row, faults in self._fault_rows:
            faults.update_trips(chip[row], batch.step, batch.dt)
            freq[row] = faults.override_frequencies(freq[row], min_mhz)
        busy = flat.busy
        freq_mhz = flat.freq_mhz
        np.copyto(freq_mhz, np.where(busy, freq, min_mhz))
        # busy_power = dyn_max * (freq / max) ** exp + leak, in place
        # (see dynamic_power; commutative reorder only).
        busy_power = np.divide(
            freq_mhz, batch.max_mhz, out=self._busy_power
        )
        busy_power **= flat.dyn_exp
        busy_power *= flat.dyn_max_w
        busy_power += leak
        power = flat.power_w
        np.copyto(power, np.where(busy, busy_power, batch.gated_power))
        for row, faults in self._fault_rows:
            faults.zero_dead_power(power[row])
        for k, ctx in enumerate(batch.contexts):
            if ctx.telemetry is not None:
                self._emit(
                    ctx, batch.slabs.busy[k], batch.slabs.freq_mhz[k], k
                )

    def _emit(self, ctx, busy, freq_mhz, k: int) -> None:
        """This step's trip and throttle events of one point."""
        telemetry = ctx.telemetry
        faults = ctx.fault_state
        if faults is not None:
            # trip_step == step picks exactly this step's new trips.
            for socket_id in np.nonzero(faults.trip_step == ctx.step)[0]:
                telemetry.emit(
                    "thermal_trip",
                    step=ctx.step,
                    t=ctx.time_s,
                    socket=int(socket_id),
                )
        # Edge-triggered: one event whenever the number of busy sockets
        # held below the sustained frequency changes.
        n_throttled = int(
            np.count_nonzero(busy & (freq_mhz < ctx.sustained_mhz))
        )
        if n_throttled != self._last_throttled[k]:
            self._last_throttled[k] = n_throttled
            telemetry.emit(
                "dvfs_throttle",
                step=ctx.step,
                t=ctx.time_s,
                n_throttled=n_throttled,
            )


class WorkRetirer(BatchPhase):
    """Retire work at the granted frequency; interpolate completions.

    A completing socket's final sub-step is interpolated: the job
    retires exactly its remaining work, the socket counts as busy for
    the matching fraction of the step, and its power blends toward the
    gated floor for the remainder.  Completed jobs inside the
    measurement window are appended to their point's result in socket
    order.
    """

    def __init__(self) -> None:
        self._done_ms: Optional[np.ndarray] = None
        self._completing: Optional[np.ndarray] = None

    def on_run_start(self, batch, members) -> None:
        self._done_ms = np.empty(batch.tdp.size)
        self._completing = np.empty(batch.tdp.size, dtype=bool)

    def on_step(self, batch) -> None:
        flat = batch.flat
        span_mhz = batch.span_mhz if batch.span_mhz > 0 else 1.0
        # done_ms = (1 - perf_drop * (max - freq) / span) * dt_ms,
        # accumulated in place (commutative reorder only).
        done_ms = np.subtract(
            batch.max_mhz, flat.freq_mhz, out=self._done_ms
        )
        done_ms *= flat.perf_drop
        done_ms /= span_mhz
        np.subtract(1.0, done_ms, out=done_ms)
        done_ms *= batch.dt_ms
        busy = flat.busy
        busy_frac = flat.busy_frac
        np.copyto(busy_frac, busy)
        # retired = where(busy, done_ms, 0) == busy * done_ms exactly
        # (1.0 * x and 0.0 * x are exact for finite positive work).
        retired = np.multiply(busy, done_ms, out=flat.retired)
        remaining = flat.remaining_work_ms
        completing = np.less_equal(
            remaining, done_ms, out=self._completing
        )
        completing &= busy
        if completing.any():
            # Flat indices are row-major: each point's completions
            # come out in socket order.
            ids = np.nonzero(completing)[0]
            left = remaining[ids]
            frac = left / done_ms[ids]
            retired[ids] = left
            busy_frac[ids] = frac
            power = flat.power_w
            power[ids] = (
                power[ids] * frac + batch.gated_power[ids] * (1.0 - frac)
            )
            t = batch.time_s
            dt = batch.dt
            n = batch.shape[1]
            in_window = batch.in_window
            contexts = batch.contexts
            for index, part in zip(ids.tolist(), frac.tolist()):
                row, socket_id = divmod(index, n)
                ctx = contexts[row]
                job = ctx.state.release(socket_id)
                job.finish_s = t + part * dt
                if in_window:
                    ctx.result.completed_jobs.append(job)
        # Completions already released; subtract in place only where
        # still running (masked ufunc instead of fancy-index copies).
        np.subtract(remaining, done_ms, out=remaining, where=busy)


class FanControl(BatchPhase):
    """Modulate delivered airflow with each point's heat load.

    Registered only when a :class:`repro.thermal.fan_control.
    FanController` is configured.  Runs *before* the thermal update:
    the scale computed from this step's power applies to this step's
    coupling (less airflow strengthens coupling as 1/scale) and its
    cubic electrical power is charged to this step's cooling energy.
    Each point keeps its own controller, cadence and scale.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self._rows: List[tuple] = []

    def on_run_start(self, batch, members) -> None:
        self._rows = []
        for ctx, member in zip(batch.contexts, members):
            controller = member.controller
            ctx.fan_active = True
            ctx.airflow_scale = 1.0
            ctx.fan_power_w = controller.fan_power_w(1.0)
            interval = max(int(round(controller.interval_s / batch.dt)), 1)
            self._rows.append((ctx, controller, interval))

    def on_step(self, batch) -> None:
        step = batch.step
        heat = None
        for k, (ctx, controller, interval) in enumerate(self._rows):
            if step % interval != 0:
                continue
            if heat is None:
                heat = batch.slabs.power_w.sum(axis=1)
            scale = controller.airflow_scale(float(heat[k]))
            ctx.airflow_scale = scale
            ctx.fan_power_w = controller.fan_power_w(scale)


class ThermalUpdater(BatchPhase):
    """Advance the coupling chain and the two-node thermal model.

    Computes each sink's heat output into the air stream, maps it
    through the coupling matrix to per-socket entry temperatures
    (scaled by each point's airflow), and relaxes the sink and chip
    nodes toward their new targets with precomputed per-run decay
    factors.  Also maintains the smoothed temperature history and
    utilisation EMAs that policies consume.

    The coupling product runs one matrix-vector product per row: a
    single stacked matrix-matrix product (dgemm) does not round like
    the per-point matrix-vector product (dgemv), so it would change
    trajectories.
    """

    def __init__(self) -> None:
        self._sink_decay = 1.0
        self._chip_decay = 1.0
        self._scratch: Optional[np.ndarray] = None
        self._theta: Optional[np.ndarray] = None
        self._ema: Optional[np.ndarray] = None
        self._matrix: Optional[np.ndarray] = None
        self._pairs: List[tuple] = []
        self._fan_rows: List[tuple] = []
        self._fault_rows: List[tuple] = []

    def on_run_start(self, batch, members) -> None:
        thermal = batch.thermal
        self._sink_decay = float(np.exp(-batch.dt / thermal.socket_tau_s))
        self._chip_decay = float(np.exp(-batch.dt / thermal.chip_tau_s))
        size = batch.tdp.size
        self._scratch = np.empty(size)
        self._theta = np.empty(size)
        self._ema = np.empty(size)
        self._matrix = batch.topology.coupling.matrix
        ambient = batch.slabs.ambient_c
        self._pairs = list(zip(self._scratch.reshape(batch.shape), ambient))
        self._fan_rows = [
            (ambient[k], ctx)
            for k, ctx in enumerate(batch.contexts)
            if ctx.fan_active
        ]
        self._fault_rows = [
            (ambient[k], ctx.fault_state)
            for k, ctx in enumerate(batch.contexts)
            if ctx.fault_state is not None
        ]

    def on_step(self, batch) -> None:
        flat = batch.flat
        power = flat.power_w
        inlet = batch.inlet_c
        thermal = batch.thermal
        ambient = flat.ambient_c
        thermal.sink_heat_output_w(ambient, batch.r_ext, out=self._scratch)
        # entry = inlet + M @ heat; the rise over inlet is divided by
        # the airflow scale and re-based on the inlet.  The round-trip
        # through the rise is kept even at scale 1.0 (the rounded
        # subtraction is part of the historical trajectory); only the
        # exact division by 1.0 is skipped.
        # ndarray.dot reaches the same dgemv as np.matmul at a third
        # of the call overhead.
        dot = self._matrix.dot
        for heat, entry in self._pairs:
            dot(heat, out=entry)
        ambient += inlet
        ambient -= inlet
        for entry, ctx in self._fan_rows:
            if ctx.airflow_scale != 1.0:
                entry /= ctx.airflow_scale
        for entry, faults in self._fault_rows:
            if faults.airflow_degraded:
                # Degraded fan lanes amplify their sockets' entry
                # rises as 1/residual-airflow, on top of any global
                # fan-control scale.
                entry /= faults.airflow_factor
        ambient += inlet
        theta = np.multiply(batch.theta_slope, power, out=self._theta)
        theta += batch.theta_offset
        thermal.step_decayed(
            self._sink_decay,
            self._chip_decay,
            ambient,
            power,
            batch.params.r_int,
            batch.r_ext,
            theta,
            scratch=self._scratch,
        )
        # history += alpha * (chip - history), accumulated in place.
        alpha = batch.history_alpha
        ema = np.subtract(flat.chip_c, flat.history_c, out=self._ema)
        ema *= alpha
        flat.history_c += ema
        np.subtract(flat.busy, flat.busy_ema, out=ema)
        ema *= alpha
        flat.busy_ema += ema


class MetricsAccumulator(BatchPhase):
    """Accumulate measurement-window metrics into the run results.

    Pure observer over the step's final state: energy, cooling energy,
    retired work, busy/boost time, the frequency-time product and the
    per-socket temperature high-water mark.  The per-socket metrics
    accumulate in the result slabs; the energy scalars per point.
    """

    def __init__(self) -> None:
        self._buf: Optional[np.ndarray] = None
        self._results: List[SimulationResult] = []
        self._fan_rows: List[tuple] = []
        self._scale_time: List[float] = []

    def on_run_start(self, batch, members) -> None:
        self._buf = np.empty(batch.tdp.size)
        self._results = [ctx.result for ctx in batch.contexts]
        self._fan_rows = [
            (k, ctx) for k, ctx in enumerate(batch.contexts)
            if ctx.fan_active
        ]
        self._scale_time = [0.0] * batch.n_points

    def on_step(self, batch) -> None:
        if not batch.in_window:
            return
        flat = batch.flat
        dt = batch.dt
        busy_frac = flat.busy_frac
        buf = self._buf
        # A C-contiguous slab reduces each row with the same pairwise
        # summation as the row on its own, so these sums are the
        # per-point sums bit for bit.
        energy = batch.slabs.power_w.sum(axis=1).tolist()
        for result, joules in zip(self._results, energy):
            result.energy_j += joules * dt
        scale_time = self._scale_time
        for k, ctx in self._fan_rows:
            ctx.result.cooling_energy_j += ctx.fan_power_w * dt
            scale_time[k] += ctx.airflow_scale * dt
        flat.work_done += flat.retired
        np.multiply(busy_frac, dt, out=buf)
        flat.busy_time_s += buf
        # freq_time += (freq / max) * busy_frac * dt, in place.
        np.divide(flat.freq_mhz, batch.max_mhz, out=buf)
        buf *= busy_frac
        buf *= dt
        flat.freq_time_product += buf
        boosting = (flat.freq_mhz > batch.sustained_mhz) & (
            busy_frac > 0
        )
        np.multiply(boosting, busy_frac, out=buf)
        buf *= dt
        flat.boost_time_s += buf
        np.maximum(flat.max_chip_c, flat.chip_c, out=flat.max_chip_c)

    def on_run_end(self, batch) -> None:
        span = batch.params.measured_span_s
        if span > 0:
            for k, ctx in enumerate(batch.contexts):
                ctx.result.mean_airflow_scale = (
                    self._scale_time[k] / span if ctx.fan_active else 1.0
                )


class Tracer(StepComponent):
    """Sample aggregate state into a fresh per-run time-series trace.

    Registered only when a :class:`repro.sim.tracing.TraceConfig` is
    configured.  Each run gets its own
    :class:`~repro.sim.tracing.SimulationTrace`, so reusing the engine
    never concatenates traces across runs.
    """

    def __init__(self, config) -> None:
        self.config = config
        self._interval_steps = 1
        self._trace = None

    def reset(self) -> None:
        """Drop any trace left from a previous (possibly aborted) run.

        ``on_run_start`` already builds a fresh trace per run; this
        exists for the engine-reuse contract shared with the telemetry
        recorder, so harnesses can scrub observers between runs without
        knowing their types.
        """
        self._trace = None

    def on_run_start(self, ctx: EngineContext) -> None:
        from .tracing import SimulationTrace

        self.reset()
        self._interval_steps = max(
            int(round(self.config.interval_s / ctx.dt)), 1
        )
        self._trace = SimulationTrace()
        ctx.result.trace = self._trace

    def on_step(self, ctx: EngineContext) -> None:
        if ctx.step % self._interval_steps != 0:
            return
        self._trace.sample(ctx.state, len(ctx.queue), ctx.max_mhz)
        if self.config.per_zone:
            self._trace.sample_zones(ctx.state)


class Auditor(StepComponent):
    """Periodically check physical invariants of the full state.

    Registered only when an :class:`repro.sim.invariants.
    InvariantAuditor` is configured.  The auditor is reset at run
    start, so reusing a `Simulation` across runs audits each run
    independently instead of silently accumulating energy baselines.
    Auditing reads state only — an audited run is bit-identical to an
    unaudited one.
    """

    def __init__(self, auditor) -> None:
        self.auditor = auditor

    def on_run_start(self, ctx: EngineContext) -> None:
        self.auditor.reset()

    def on_step(self, ctx: EngineContext) -> None:
        if ctx.step % self.auditor.interval_steps != 0:
            return
        self.auditor.check(
            ctx.state,
            ctx.step,
            ctx.result.energy_j,
            airflow_scale=ctx.airflow_scale,
            faults=ctx.fault_state,
        )


def build_pipeline(
    migrator=None,
    fan_controller=None,
    trace_config=None,
    auditor=None,
    fault_injector=None,
    extra_components: Sequence[StepComponent] = (),
) -> List[StepComponent]:
    """The standard component pipeline in contract order.

    ``ArrivalAdmitter``, ``Placer``, ``PowerManager``, ``WorkRetirer``,
    ``ThermalUpdater`` and ``MetricsAccumulator`` are always present;
    ``Migrator``, ``FanControl``, ``Tracer``, ``Auditor`` and the
    ``fault_injector`` (a :class:`repro.faults.injector.FaultInjector`)
    join only when configured.  The fault injector is spliced between
    ``ArrivalAdmitter`` and ``Placer``: fault transitions must land
    before any placement decision so a socket killed at time t never
    receives a job at time t, and the injector's view swap must happen
    before the placer hands the view to the scheduler's ``reset``.
    ``extra_components`` are appended after the standard pipeline —
    safe for read-only observers; components that mutate state must
    instead be spliced in explicitly at the right phase (see
    ``docs/architecture.md``).  The :class:`BatchPhase` physics must
    stay one contiguous band: the engine runs what precedes it per
    point, then the band over the whole batch, then the rest per
    point.
    """
    components: List[StepComponent] = [ArrivalAdmitter()]
    if fault_injector is not None:
        components.append(fault_injector)
    components.append(Placer())
    if migrator is not None:
        components.append(Migrator(migrator))
    components.append(PowerManager())
    components.append(WorkRetirer())
    if fan_controller is not None:
        components.append(FanControl(fan_controller))
    components.append(ThermalUpdater())
    components.append(MetricsAccumulator())
    if trace_config is not None:
        components.append(Tracer(trace_config))
    if auditor is not None:
        components.append(Auditor(auditor))
    components.extend(extra_components)
    return components


def _leakage_into(
    chip_c: np.ndarray, tdp_w: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Vectorised leakage with per-socket TDP, into a reused buffer.

    Performs ``leakage_power(chip_c, 1.0) * tdp_w`` (see
    :func:`repro.workloads.power_model.leakage_power`) with the
    identical per-element operation order, accumulated in place —
    reorderings are limited to commutative multiplies, so the result
    is bit-identical to the composed public functions.
    """
    from ..workloads.power_model import (
        LEAKAGE_FLOOR_FRACTION,
        LEAKAGE_REFERENCE_C,
        LEAKAGE_TDP_FRACTION,
        LEAKAGE_TEMP_COEFF,
    )

    factor = np.subtract(chip_c, LEAKAGE_REFERENCE_C, out=out)
    factor *= LEAKAGE_TEMP_COEFF
    factor += 1.0
    np.maximum(factor, LEAKAGE_FLOOR_FRACTION, out=factor)
    factor *= LEAKAGE_TDP_FRACTION
    factor *= tdp_w
    return factor
