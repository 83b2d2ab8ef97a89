"""The committed golden matrix: default runs and inert toggles.

``test_kernel_identity``, ``test_fault_free_identity`` and
``test_obs_identity`` assert their toggles against the committed
goldens over one matrix each.  This suite closes the matrix: the
default path of every scheduler point must reproduce its golden, and
every inert toggle — an empty fault schedule, telemetry alone,
profiling alone — must reproduce the golden of every policy point.
"""

import pytest
from golden_oracle import (
    POLICY_CONFIGS,
    SCHEDULER_CONFIGS,
    all_keys,
    golden,
    load_goldens,
    make_policy,
    policy_id,
    run_point,
    scheduler_id,
)

from repro.core import get_scheduler
from repro.faults import FaultSchedule
from repro.obs.session import TelemetryConfig
from repro.sim.fingerprint import result_fingerprint


def test_goldens_cover_the_oracle_matrix():
    assert sorted(load_goldens()) == sorted(all_keys())
    assert len(all_keys()) == 38


@pytest.mark.parametrize(
    "scheme,benchmark_set,load",
    SCHEDULER_CONFIGS,
    ids=[scheduler_id(*c).split(":", 1)[1] for c in SCHEDULER_CONFIGS],
)
def test_default_run(small_sut, scheme, benchmark_set, load):
    result = run_point(small_sut, get_scheduler(scheme), benchmark_set, load)
    assert result.profile is None
    assert result.fault_summary is None
    assert result_fingerprint(result) == golden(
        scheduler_id(scheme, benchmark_set, load)
    )


TOGGLES = ("faults", "telemetry", "profile")


def _toggle_kwargs(toggle, directory):
    if toggle == "faults":
        return {"fault_schedule": FaultSchedule()}
    if toggle == "telemetry":
        return {
            "telemetry": TelemetryConfig(
                directory=str(directory), profile=False
            )
        }
    return {"profile": True}


@pytest.mark.parametrize(
    "policy,kwargs,benchmark_set,load",
    POLICY_CONFIGS,
    ids=[policy_id(*c).split(":", 1)[1] for c in POLICY_CONFIGS],
)
@pytest.mark.parametrize("toggle", TOGGLES)
def test_toggle(
    tmp_path, small_sut, toggle, policy, kwargs, benchmark_set, load
):
    result = run_point(
        small_sut,
        make_policy(policy, kwargs),
        benchmark_set,
        load,
        **_toggle_kwargs(toggle, tmp_path),
    )
    assert (result.profile is not None) == (toggle == "profile")
    if toggle == "telemetry":
        assert (tmp_path / "run-r0.jsonl").stat().st_size > 0
    assert result_fingerprint(
        result, include_fault_summary=False
    ) == golden(policy_id(policy, kwargs, benchmark_set, load))
