"""The lockstep engine: many points stepped together, each bit-exact.

A batch advances K points over shared ``(K, n)`` slabs.  Every point
must come out exactly as it does alone: the two 19-point golden
matrices run as one batch each and must reproduce the committed
digests, and a batch mixing faults, auditing, telemetry, profiling,
tracing, migration and fan control must match each point's batch of
one.  Also covered: one point failing without taking the others down
(in the engine and in a checkpointed sweep), and how a batch's
wall-clock is split over its points' profiles.
"""

import pytest
from golden_oracle import (
    ORACLE_SEED,
    POLICY_CONFIGS,
    SCHEDULER_CONFIGS,
    golden,
    make_policy,
    policy_id,
    scheduler_id,
)

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.core.migration import MigrationPolicy
from repro.errors import SimulationError
from repro.faults import FaultSchedule
from repro.faults.events import (
    DVFSStuckFault,
    FanLaneFault,
    PowerCapFault,
    SensorFault,
    SensorFaultMode,
    SocketKillFault,
)
from repro.metrics.obs_report import obs_report, render
from repro.obs.profiler import StepProfiler
from repro.obs.session import TelemetryConfig
from repro.obs.writer import read_events
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.engine import Engine, Simulation, run_lockstep
from repro.sim.fingerprint import result_fingerprint
from repro.sim.invariants import InvariantAuditor, InvariantViolation
from repro.sim.parallel import execute_sweep
from repro.sim.runner import point_simulation
from repro.sim.tracing import TraceConfig
from repro.thermal.fan_control import FanController
from repro.workloads.benchmark import BenchmarkSet

COMPUTATION = BenchmarkSet.COMPUTATION
STORAGE = BenchmarkSet.STORAGE


def _oracle_run(topology, scheduler, benchmark_set, load):
    return point_simulation(
        topology, smoke(seed=ORACLE_SEED), scheduler, benchmark_set, load
    )


class TestGoldenMatricesAsBatches:
    def test_scheduler_matrix(self, small_sut):
        outcomes = run_lockstep(
            [
                _oracle_run(small_sut, get_scheduler(name), bset, load)
                for name, bset, load in SCHEDULER_CONFIGS
            ]
        )
        assert len(outcomes) == 19
        for config, result in zip(SCHEDULER_CONFIGS, outcomes):
            assert result_fingerprint(result) == golden(
                scheduler_id(*config)
            ), scheduler_id(*config)

    def test_policy_matrix(self, small_sut):
        outcomes = run_lockstep(
            [
                _oracle_run(
                    small_sut, make_policy(policy, kwargs), bset, load
                )
                for policy, kwargs, bset, load in POLICY_CONFIGS
            ]
        )
        assert len(outcomes) == 19
        for config, result in zip(POLICY_CONFIGS, outcomes):
            assert result_fingerprint(result) == golden(
                policy_id(*config)
            ), policy_id(*config)


def _rich_schedule(topology):
    ladder = topology.processor.ladder
    return FaultSchedule(
        events=(
            FanLaneFault(row=0, lane=1, scale=0.4, start_s=0.4, end_s=2.2),
            SocketKillFault(socket_id=3, start_s=0.8, end_s=1.9),
            SensorFault(
                socket_id=5,
                mode=SensorFaultMode.BIAS,
                bias_c=12.0,
                start_s=0.3,
            ),
            SensorFault(
                socket_id=9, mode=SensorFaultMode.DROPOUT, start_s=1.1
            ),
            DVFSStuckFault(
                socket_id=7,
                stuck_mhz=float(ladder.states_mhz[1]),
                start_s=0.6,
                end_s=2.5,
            ),
            PowerCapFault(
                cap_mhz=float(ladder.states_mhz[2]), start_s=1.0, end_s=1.6
            ),
        )
    )


#: Mixed points: (name, scheduler, set, load, toggles).  ``faults``
#: replays the rich schedule, ``audit`` checks invariants every 10
#: steps, ``telemetry`` records an event log, ``profile`` accounts
#: wall-clock, ``trace`` samples a time series, ``migrate`` runs the
#: migration policy.
MIXED = (
    ("plain", "CF", COMPUTATION, 0.5, ()),
    ("faults", "CP", COMPUTATION, 0.7, ("faults",)),
    ("audit", "HF", STORAGE, 0.6, ("audit",)),
    ("telemetry", "Predictive", COMPUTATION, 0.4, ("telemetry",)),
    ("profile", "Balanced", STORAGE, 0.8, ("profile",)),
    (
        "everything",
        "CP",
        STORAGE,
        0.9,
        ("faults", "audit", "telemetry", "profile", "trace", "migrate"),
    ),
)


def _mixed_run(topology, directory, point, fan):
    label, name, benchmark_set, load, toggles = point
    params = smoke(seed=3)
    _, jobs = point_simulation(
        topology, params, get_scheduler(name), benchmark_set, load
    )
    simulation = Simulation(
        topology,
        params,
        get_scheduler(name),
        migrator=MigrationPolicy() if "migrate" in toggles else None,
        fan_controller=FanController() if fan else None,
        trace_config=TraceConfig() if "trace" in toggles else None,
        auditor=(
            InvariantAuditor(interval_steps=10) if "audit" in toggles else None
        ),
        fault_schedule=(
            _rich_schedule(topology) if "faults" in toggles else None
        ),
        telemetry=(
            TelemetryConfig(directory=str(directory), profile=False)
            if "telemetry" in toggles
            else None
        ),
        profile="profile" in toggles,
        run_name=label,
    )
    return simulation, jobs


@pytest.mark.parametrize("fan", [False, True], ids=["fixed-air", "fan"])
def test_mixed_batch_matches_each_point_alone(tmp_path, small_sut, fan):
    alone_dir = tmp_path / "alone"
    batch_dir = tmp_path / "batch"
    alone = []
    for point in MIXED:
        simulation, jobs = _mixed_run(small_sut, alone_dir, point, fan)
        alone.append(simulation.run(jobs))
    batch = run_lockstep(
        [_mixed_run(small_sut, batch_dir, point, fan) for point in MIXED]
    )
    for point, single, batched in zip(MIXED, alone, batch):
        label, toggles = point[0], point[4]
        assert result_fingerprint(batched) == result_fingerprint(
            single
        ), label
        assert (batched.profile is not None) == ("profile" in toggles)
        if "faults" in toggles:
            assert batched.fault_summary == single.fault_summary
        if "migrate" in toggles:
            assert batched.n_migrations == single.n_migrations > 0
        if "trace" in toggles:
            assert batched.trace.times_s == single.trace.times_s
            assert batched.trace.mean_chip_c == single.trace.mean_chip_c
        if fan:
            assert batched.cooling_energy_j == single.cooling_energy_j > 0
    for point in MIXED:
        if "telemetry" in point[4]:
            log = f"{point[0]}-r0.jsonl"
            assert list(read_events(batch_dir / log)) == list(
                read_events(alone_dir / log)
            )


class _FailAt:
    """An observer that raises at one step, ending its point."""

    def __init__(self, step, error):
        self.step = step
        self.error = error

    def on_run_start(self, ctx):
        pass

    def on_step(self, ctx):
        if ctx.step == self.step:
            raise self.error

    def on_run_end(self, ctx):
        pass


class TestFailures:
    def _runs(self, topology, extra=None):
        runs = []
        for i, name in enumerate(("CF", "HF", "CP", "Balanced")):
            _, jobs = point_simulation(
                topology, smoke(seed=3), get_scheduler(name), COMPUTATION, 0.6
            )
            components = (extra,) if extra is not None and i == 1 else ()
            runs.append(
                (
                    Simulation(
                        topology,
                        smoke(seed=3),
                        get_scheduler(name),
                        extra_components=components,
                    ),
                    jobs,
                )
            )
        return runs

    def test_one_failing_point_leaves_the_others_exact(self, small_sut):
        clean = run_lockstep(self._runs(small_sut))
        violation = InvariantViolation(
            "finite chip temperature", 40, 2, float("nan"), "injected"
        )
        outcomes = run_lockstep(self._runs(small_sut, _FailAt(40, violation)))
        assert outcomes[1] is violation
        for i in (0, 2, 3):
            assert result_fingerprint(outcomes[i]) == result_fingerprint(
                clean[i]
            )

    def test_batch_of_one_raises_the_point_error(self, small_sut):
        error = InvariantViolation("x", 5, 0, 1.0, "injected")
        simulation, jobs = self._runs(small_sut, _FailAt(5, error))[1]
        with pytest.raises(InvariantViolation) as excinfo:
            simulation.run(jobs)
        assert excinfo.value is error

    def test_point_without_completions_fails_alone(self, small_sut):
        runs = self._runs(small_sut)
        simulation, _ = runs[2]
        runs[2] = (simulation, [])
        outcomes = run_lockstep(runs)
        assert isinstance(outcomes[2], SimulationError)
        assert "no jobs completed" in str(outcomes[2])
        assert all(outcomes[i].completed_jobs for i in (0, 1, 3))

    def test_shared_objects_rejected(self, small_sut):
        runs = self._runs(small_sut)
        with pytest.raises(SimulationError, match="job object"):
            run_lockstep([runs[0], (runs[1][0], runs[0][1])])
        with pytest.raises(SimulationError, match="simulation"):
            run_lockstep([runs[0], (runs[0][0], runs[1][1])])
        shared = {
            "auditor": InvariantAuditor(interval_steps=10),
            "migrator": MigrationPolicy(),
            "fan_controller": FanController(),
        }
        for attribute, owner in shared.items():
            runs = self._runs(small_sut)[:2]
            for simulation, _ in runs:
                setattr(simulation, attribute, owner)
            what = attribute.replace("_", " ")
            with pytest.raises(SimulationError, match=f"share an? {what}"):
                run_lockstep(runs)

    def test_incompatible_batches_rejected(self, small_sut):
        with pytest.raises(SimulationError, match="at least one context"):
            Engine().run([])
        runs = self._runs(small_sut)
        other, jobs = point_simulation(
            small_sut, smoke(seed=4), get_scheduler("CF"), COMPUTATION, 0.6
        )
        with pytest.raises(SimulationError, match="parameter set"):
            run_lockstep([runs[0], (other, jobs)])
        fan, jobs = point_simulation(
            small_sut, smoke(seed=3), get_scheduler("CF"), COMPUTATION, 0.6
        )
        fan.fan_controller = FanController()
        with pytest.raises(SimulationError, match="physics phases"):
            run_lockstep([runs[0], (fan, jobs)])

    def test_physics_band_must_be_contiguous(self, small_sut):
        simulation, jobs = self._runs(small_sut)[0]
        ctx = simulation.prepare(jobs)
        ctx.components.insert(-1, _FailAt(-1, None))
        with pytest.raises(SimulationError, match="contiguous"):
            Engine().run([ctx])

    def test_failure_in_a_profiled_batch(self, small_sut):
        runs = self._runs(
            small_sut, _FailAt(40, InvariantViolation("x", 40, 0, 1.0, "i"))
        )
        for simulation, _ in runs:
            simulation.profile = True
        outcomes = run_lockstep(runs)
        assert isinstance(outcomes[1], InvariantViolation)
        for i in (0, 2, 3):
            assert outcomes[i].profile.n_steps > 40

    def test_resumed_sweep_reruns_only_the_failed_point(
        self, tmp_path, small_sut, monkeypatch
    ):
        """Finished points are checkpointed before the error surfaces.

        HF's run raises mid-way; the other three points of the batch
        still land in the checkpoint (with manifests), and the resume
        runs HF alone.
        """
        params = smoke(seed=2)
        points = [
            (name, COMPUTATION, 0.5) for name in ("CF", "HF", "CP", "RoundRobin")
        ]
        real_build = Simulation.build_components

        def failing_build(self):
            components = real_build(self)
            if self.scheduler.name == "HF":
                components.append(
                    _FailAt(30, InvariantViolation("x", 30, 0, 1.0, "boom"))
                )
            return components

        monkeypatch.setattr(Simulation, "build_components", failing_build)
        checkpoint = SweepCheckpoint(tmp_path)
        with pytest.raises(InvariantViolation):
            execute_sweep(small_sut, params, points, checkpoint=checkpoint)
        assert len(checkpoint) == 3
        assert len(list(tmp_path.glob("*.manifest.json"))) == 3

        monkeypatch.setattr(Simulation, "build_components", real_build)
        ran = []
        real_prepare = Simulation.prepare

        def counting_prepare(self, jobs):
            ran.append(self.scheduler.name)
            return real_prepare(self, jobs)

        monkeypatch.setattr(Simulation, "prepare", counting_prepare)
        resumed_cp = SweepCheckpoint(tmp_path)
        resumed = execute_sweep(
            small_sut, params, points, checkpoint=resumed_cp
        )
        assert ran == ["HF"]
        assert resumed_cp.loads == 3
        fresh = execute_sweep(small_sut, params, points)
        assert [result_fingerprint(r) for r in resumed] == [
            result_fingerprint(r) for r in fresh
        ]


class _FakeClock:
    """A deterministic monotonic clock: +1.0 s per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestProfileAttribution:
    NAMES = ("CF", "CP", "HF")

    def _profiled_runs(self, topology, clock):
        runs = []
        for name in self.NAMES:
            simulation, jobs = point_simulation(
                topology, smoke(seed=1), get_scheduler(name), COMPUTATION, 0.6,
                profile=True,
            )
            simulation._profiler = StepProfiler(clock=clock)
            runs.append((simulation, jobs))
        return runs

    def test_points_sum_to_the_batch(self, small_sut):
        clock = _FakeClock()
        runs = self._profiled_runs(small_sut, clock)
        before = clock.now
        outcomes = run_lockstep(runs)
        # The engine's first reading starts the run; its last ends it.
        measured = clock.now - before - 1.0
        profiles = [result.profile for result in outcomes]
        assert sum(p.engine_elapsed_s for p in profiles) == pytest.approx(
            measured
        )
        n_steps = profiles[0].n_steps
        by_name = [
            {c.name: c for c in p.components} for p in profiles
        ]
        # One reading per physics hook call, split evenly over the
        # three points.
        for phase in ("PowerManager", "WorkRetirer", "ThermalUpdater",
                      "MetricsAccumulator"):
            shares = [entry[phase].total_s for entry in by_name]
            assert shares == pytest.approx([(n_steps + 2) / 3] * 3)
            assert all(entry[phase].calls == n_steps + 2 for entry in by_name)
        # Per-point hooks are charged to their own point only.
        for entry in by_name:
            assert entry["ArrivalAdmitter"].total_s == n_steps + 2
        for profile in profiles:
            assert profile.total_component_s <= profile.engine_elapsed_s

    def test_placement_buckets_stay_per_point(self, small_sut):
        batch = run_lockstep(self._profiled_runs(small_sut, _FakeClock()))
        for name, result in zip(self.NAMES, batch):
            simulation, jobs = point_simulation(
                small_sut, smoke(seed=1), get_scheduler(name), COMPUTATION,
                0.6, profile=True,
            )
            alone = simulation.run(jobs)
            (bucket,) = result.profile.buckets
            (alone_bucket,) = alone.profile.buckets
            assert bucket.name == f"place:{name}"
            assert bucket.calls == alone_bucket.calls > 0

    def test_obs_report_renders_a_batch_run(self, tmp_path, small_sut):
        telemetry = TelemetryConfig(directory=str(tmp_path), profile=True)
        points = [(name, COMPUTATION, 0.5) for name in ("CF", "CP", "HF")]
        results = execute_sweep(
            small_sut, smoke(seed=1), points, telemetry=telemetry
        )
        report = obs_report(tmp_path)
        assert report.profile is not None
        assert report.profile.engine_elapsed_s == pytest.approx(
            sum(r.profile.engine_elapsed_s for r in results)
        )
        text = render(report)
        assert "PowerManager" in text
        assert "place:CP" in text
