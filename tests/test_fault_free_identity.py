"""Bit-identity oracle: the fault machinery is inert when unused.

The fault subsystem threads hooks through the hottest paths of the
engine (placement, DVFS selection, power accounting, thermal update,
the scheduler view).  Its cardinal contract is that a run with an
*empty* :class:`~repro.faults.schedule.FaultSchedule` — the machinery
fully installed but with nothing to inject — reproduces the exact
float trajectory of a run with no fault machinery at all.

This suite pins that contract over the 19 scheduler points of
:data:`golden_oracle.SCHEDULER_CONFIGS` — every registered scheduler,
every benchmark set and the load extremes — comparing full content
fingerprints (every metric array, scalar and completion record; see
:mod:`repro.sim.fingerprint`) against the committed goldens of the
fault-free runs.
"""

import pytest
from golden_oracle import SCHEDULER_CONFIGS, golden, run_point, scheduler_id

from repro.core import get_scheduler
from repro.faults import FaultSchedule
from repro.sim.fingerprint import result_fingerprint


def test_oracle_covers_nineteen_configs():
    assert len(SCHEDULER_CONFIGS) == 19


@pytest.mark.parametrize(
    "scheme,benchmark_set,load",
    SCHEDULER_CONFIGS,
    ids=lambda value: getattr(value, "value", value),
)
def test_empty_schedule_is_bit_identical(
    small_sut, scheme, benchmark_set, load
):
    inert = run_point(
        small_sut,
        get_scheduler(scheme),
        benchmark_set,
        load,
        fault_schedule=FaultSchedule(),
    )
    # The machinery ran (it attaches its inert summary)...
    assert inert.fault_summary is not None
    assert inert.fault_summary["n_events"] == 0
    assert inert.fault_summary["n_trips"] == 0
    # ...but the trajectory is the fault-free one, to the last bit.
    assert result_fingerprint(
        inert, include_fault_summary=False
    ) == golden(scheduler_id(scheme, benchmark_set, load))
