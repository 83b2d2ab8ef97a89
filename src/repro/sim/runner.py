"""Convenience entry points for running simulations and sweeps."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..config.parameters import SimulationParameters
from ..errors import ConfigurationError
from ..server.topology import ServerTopology
from ..workloads.arrivals import ArrivalProcess
from ..workloads.benchmark import BenchmarkSet
from ..workloads.job import Job
from .engine import Simulation
from .invariants import DEFAULT_INTERVAL_STEPS
from .results import SimulationResult


def run_once(
    topology: ServerTopology,
    params: SimulationParameters,
    scheduler,
    benchmark_set: BenchmarkSet,
    load: float,
    auditor=None,
    fault_schedule=None,
    telemetry=None,
    profile: bool = False,
    run_name: str = "run",
) -> SimulationResult:
    """Run one (scheduler, benchmark set, load) configuration.

    The job stream is generated from the parameters' seed, so every
    scheduler evaluated with the same ``params`` sees the *identical*
    workload — the paper's comparison methodology.

    Args:
        topology: Server geometry.
        params: Simulation parameters (the seed fixes the workload).
        scheduler: Placement policy instance.
        benchmark_set: Workload set to draw jobs from.
        load: Offered load in (0, 1].
        auditor: Optional fresh :class:`~repro.sim.invariants.
            InvariantAuditor` checking physical invariants during the
            run.
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` replayed deterministically during the run.
        telemetry: Optional :class:`~repro.obs.session.TelemetryConfig`
            (or bare directory): record a structured JSONL event log
            plus a ``.manifest.json`` provenance record for the run.
            Strictly observational — results stay bit-identical.
        profile: Attach per-component wall-clock accounting to
            ``result.profile`` (implied by ``telemetry.profile``).
        run_name: Base name for the run's telemetry artifacts.
    """
    simulation, jobs = point_simulation(
        topology,
        params,
        scheduler,
        benchmark_set,
        load,
        auditor=auditor,
        fault_schedule=fault_schedule,
        telemetry=telemetry,
        profile=profile,
        run_name=run_name,
    )
    result = simulation.run(jobs)
    save_point_manifest(
        simulation, benchmark_set, load, fault_schedule, result
    )
    return result


def point_simulation(
    topology: ServerTopology,
    params: SimulationParameters,
    scheduler,
    benchmark_set: BenchmarkSet,
    load: float,
    auditor=None,
    fault_schedule=None,
    telemetry=None,
    profile: bool = False,
    run_name: str = "run",
) -> Tuple[Simulation, List[Job]]:
    """The simulation and job stream of one sweep point, not yet run.

    Takes the arguments of :func:`run_once`; a caller running many
    points hands the pairs to :func:`~repro.sim.engine.run_lockstep`.
    """
    arrivals = ArrivalProcess(
        benchmark_set=benchmark_set,
        load=load,
        n_sockets=topology.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    simulation = Simulation(
        topology,
        params,
        scheduler,
        auditor=auditor,
        fault_schedule=fault_schedule,
        telemetry=telemetry,
        profile=profile,
        run_name=run_name,
    )
    return simulation, jobs


def save_point_manifest(
    simulation: Simulation,
    benchmark_set: BenchmarkSet,
    load: float,
    fault_schedule,
    result: SimulationResult,
) -> None:
    """Write a telemetry run's ``<run_name>.manifest.json`` sidecar.

    Does nothing when the simulation records no telemetry.
    """
    if simulation.telemetry is None:
        return
    from pathlib import Path

    from ..obs.manifest import manifest_for_point

    manifest = manifest_for_point(
        simulation.topology,
        simulation.params,
        getattr(simulation.scheduler, "name", "unknown"),
        benchmark_set,
        load,
        fault_schedule=fault_schedule,
        result=result,
        profile=result.profile,
    )
    manifest.save(
        Path(simulation.telemetry.directory)
        / f"{simulation.run_name}.manifest.json"
    )


def run_sweep(
    topology: ServerTopology,
    params: SimulationParameters,
    scheduler_names: Sequence[str],
    benchmark_sets: Sequence[BenchmarkSet],
    loads: Sequence[float],
    max_workers: int = 1,
    audit: bool = False,
    audit_interval: int = DEFAULT_INTERVAL_STEPS,
    use_cache: bool = False,
    cache=None,
    fault_schedule=None,
    timeout_s=None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.25,
    checkpoint_dir=None,
    telemetry=None,
    profile: bool = False,
    # Kept only for perfbench/sweep_child.py, which passes both through.
    stepping: str = "fixed",
    backend: str = "numpy",
) -> Dict[Tuple[str, BenchmarkSet, float], SimulationResult]:
    """Run the full cross product of schedulers, sets and loads.

    Each grid point is an independent simulation whose workload derives
    only from ``params.seed``, so the sweep parallelises without
    changing a single bit of any result: ``max_workers=4`` returns
    metrics identical to the serial path (see
    :mod:`repro.sim.parallel`).

    Args:
        topology: Server geometry shared by every point.
        params: Simulation parameters shared by every point.
        scheduler_names: Registered policy names to evaluate.
        benchmark_sets: Workload sets to evaluate.
        loads: Load levels in (0, 1].
        max_workers: Simulations to run concurrently; ``1`` (default)
            keeps the classic serial loop.
        audit: Run every point under a fresh
            :class:`~repro.sim.invariants.InvariantAuditor`.
        audit_interval: Audit cadence in engine steps.
        use_cache: Memoise results in the process-wide
            :data:`repro.sim.parallel.shared_cache` so repeated sweeps
            over identical configurations skip the simulation.
        cache: Explicit :class:`~repro.sim.parallel.SweepCache`
            overriding ``use_cache``.
        fault_schedule: Optional :class:`~repro.faults.schedule.
            FaultSchedule` replayed deterministically in *every* grid
            point (it also joins the cache/checkpoint key).
        timeout_s: Optional per-point wall-clock bound in the parallel
            path (see :func:`~repro.sim.parallel.execute_sweep`).
        max_retries: Pool rounds re-attempted after worker crashes
            before the leftover points fall back to serial execution.
        retry_backoff_s: Base of the exponential sleep between retry
            rounds.
        checkpoint_dir: Optional directory; every finished point is
            persisted there immediately (atomic per-point pickles with
            ``.manifest.json`` provenance sidecars), and a re-run with
            the same configuration resumes bit-identically from
            whatever completed.
        telemetry: Optional :class:`~repro.obs.session.TelemetryConfig`
            (or bare directory): record a sweep-level ``sweep.jsonl``
            harness log plus one per-point event log and manifest.
        profile: Attach per-component wall-clock accounting to every
            point's ``result.profile``.
        stepping: Must be ``"fixed"``; multi-rate stepping was removed.
        backend: Must be ``"numpy"``; the array-backend seam was
            removed.

    Returns:
        Mapping from ``(scheduler name, benchmark set, load)`` to the
        run's :class:`SimulationResult`.

    Raises:
        ConfigurationError: if ``stepping`` or ``backend`` names a
            removed engine path.
    """
    from .checkpoint import SweepCheckpoint
    from .parallel import execute_sweep, shared_cache

    if stepping != "fixed":
        raise ConfigurationError(
            f"stepping={stepping!r}: multi-rate stepping was removed; "
            "only fixed 1 ms stepping remains"
        )
    if backend != "numpy":
        raise ConfigurationError(
            f"backend={backend!r}: the array-backend seam was removed; "
            "only the numpy engine remains"
        )

    points = [
        (name, benchmark_set, load)
        for benchmark_set in benchmark_sets
        for load in loads
        for name in scheduler_names
    ]
    if cache is None and use_cache:
        cache = shared_cache
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = SweepCheckpoint(checkpoint_dir)
    results = execute_sweep(
        topology,
        params,
        points,
        max_workers=max_workers,
        audit=audit,
        audit_interval=audit_interval,
        cache=cache,
        fault_schedule=fault_schedule,
        timeout_s=timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        checkpoint=checkpoint,
        telemetry=telemetry,
        profile=profile,
    )
    return dict(zip(points, results))
