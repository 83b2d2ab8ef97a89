"""Bit-identity oracle: telemetry and profiling are pure observers.

The observability layer touches the hottest paths of the engine (the
step driver is swapped for an instrumented variant, emission sites are
threaded through placement, DVFS, thermals and faults).  Its cardinal
contract is that a run with telemetry *and* profiling fully enabled
reproduces the exact float trajectory of a bare run.

This suite pins that contract over the same 19 scheduler points as
``test_fault_free_identity`` (:data:`golden_oracle.SCHEDULER_CONFIGS`)
— every registered scheduler, every benchmark set and the load
extremes — comparing full content fingerprints against the committed
goldens of the bare runs.
"""

import pytest
from golden_oracle import SCHEDULER_CONFIGS, golden, run_point, scheduler_id

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.obs.session import TelemetryConfig
from repro.obs.writer import read_events
from repro.sim.runner import run_once
from repro.sim.fingerprint import result_fingerprint
from repro.workloads.benchmark import BenchmarkSet


def test_oracle_covers_nineteen_configs():
    assert len(SCHEDULER_CONFIGS) == 19


@pytest.mark.parametrize(
    "scheme,benchmark_set,load",
    SCHEDULER_CONFIGS,
    ids=lambda value: getattr(value, "value", value),
)
def test_telemetry_run_is_bit_identical(
    tmp_path, small_sut, scheme, benchmark_set, load
):
    observed = run_point(
        small_sut,
        get_scheduler(scheme),
        benchmark_set,
        load,
        telemetry=TelemetryConfig(directory=str(tmp_path), profile=True),
    )
    # The machinery ran: a validated event log and a profile exist...
    events = read_events(
        tmp_path / "run-r0.jsonl", strict=True, validate=True
    )
    assert events[0]["type"] == "run_start"
    assert events[-1]["type"] == "run_end"
    assert observed.profile is not None
    assert observed.profile.n_steps > 0
    # ...but the trajectory is the bare one, to the last bit.
    assert result_fingerprint(observed) == golden(
        scheduler_id(scheme, benchmark_set, load)
    )


def test_two_telemetry_runs_write_identical_bytes(tmp_path, small_sut):
    """Determinism of the stream itself: same configuration, same
    bytes (modulo the run-name field, identical here by construction)."""
    params = smoke(seed=4)
    logs = []
    for sub in ("a", "b"):
        directory = tmp_path / sub
        run_once(
            small_sut,
            params,
            get_scheduler("CF"),
            BenchmarkSet.COMPUTATION,
            0.5,
            telemetry=str(directory),
        )
        logs.append((directory / "run-r0.jsonl").read_bytes())
    assert logs[0] == logs[1]
