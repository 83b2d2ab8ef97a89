"""Unit tests for the runtime invariant auditor."""

import pickle

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import SimulationError
from repro.sim.invariants import InvariantAuditor, InvariantViolation
from repro.sim.runner import run_once
from repro.sim.state import SimulationState
from repro.workloads.benchmark import BenchmarkSet


@pytest.fixture
def state(small_sut):
    return SimulationState(small_sut, smoke())


def audit(state, step=120, energy_j=0.0, **kwargs):
    InvariantAuditor(**kwargs).check(state, step, energy_j)


class TestCleanState:
    def test_fresh_state_passes(self, state):
        audit(state)

    def test_audit_counter_increments(self, state):
        auditor = InvariantAuditor()
        auditor.check(state, 0, 0.0)
        auditor.check(state, 50, 1.0)
        assert auditor.n_audits == 2

    def test_full_run_zero_violations(self, small_sut):
        auditor = InvariantAuditor(interval_steps=10)
        run_once(
            small_sut,
            smoke(seed=1),
            get_scheduler("CP"),
            BenchmarkSet.COMPUTATION,
            0.7,
            auditor=auditor,
        )
        assert auditor.n_audits > 100


class TestViolations:
    def test_nan_chip_temperature(self, state):
        state.thermal.chip_c[3] = float("nan")
        with pytest.raises(SimulationError) as excinfo:
            audit(state, step=120)
        violation = excinfo.value
        assert isinstance(violation, InvariantViolation)
        assert violation.step == 120
        assert violation.socket_id == 3
        assert "chip temperature" in violation.invariant
        assert "step 120" in str(violation)
        assert "socket 3" in str(violation)

    def test_infinite_sink_temperature(self, state):
        state.thermal.sink_c[0] = float("inf")
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.socket_id == 0
        assert "sink" in excinfo.value.invariant

    def test_negative_remaining_work(self, state):
        state.busy[5] = True
        state.remaining_work_ms[5] = -0.25
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state, step=77)
        violation = excinfo.value
        assert violation.step == 77
        assert violation.socket_id == 5
        assert violation.invariant == "remaining work >= 0"
        assert violation.value == pytest.approx(-0.25)
        assert "socket 5" in str(violation)

    def test_idle_socket_with_leftover_work(self, state):
        state.remaining_work_ms[2] = 4.0  # busy[2] stays False
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.socket_id == 2
        assert "idle" in excinfo.value.invariant

    def test_ambient_below_inlet(self, state):
        state.ambient_c[1] = state.params.inlet_c - 3.0
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.socket_id == 1

    def test_chip_far_below_sink(self, state):
        state.thermal.chip_c[4] = state.thermal.sink_c[4] - 50.0
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.socket_id == 4

    def test_lag_tolerance_absorbs_small_inversion(self, state):
        state.thermal.chip_c[4] = state.thermal.sink_c[4] - 1.0
        audit(state, lag_tolerance_c=5.0)

    def test_sink_lag_bound_scales_with_airflow(self, state):
        # A slowed fan (scale << 1) amplifies entry-air rises by
        # 1/scale; the sink-lag check compares against the
        # design-airflow rise, so the same state passes at low scale.
        state.ambient_c = state.ambient_c + 30.0
        auditor = InvariantAuditor()
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.check(state, 10, 0.0)
        assert excinfo.value.invariant == "sink >= ambient - lag"
        auditor.reset()
        auditor.check(state, 10, 0.0, airflow_scale=0.1)

    def test_power_above_envelope(self, state):
        state.power_w[7] = 10_000.0
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.socket_id == 7
        assert "tdp" in excinfo.value.invariant

    def test_power_below_gated_floor(self, state):
        state.power_w[0] = 0.0
        with pytest.raises(InvariantViolation) as excinfo:
            audit(state)
        assert excinfo.value.invariant == "power >= gated"

    def test_energy_regression(self, state):
        auditor = InvariantAuditor()
        auditor.check(state, 10, 100.0)
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.check(state, 20, 99.0)
        violation = excinfo.value
        assert violation.invariant == "energy monotone"
        assert violation.socket_id is None
        assert "global" in str(violation)


class TestConstruction:
    def test_rejects_zero_interval(self):
        with pytest.raises(SimulationError):
            InvariantAuditor(interval_steps=0)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(SimulationError):
            InvariantAuditor(lag_tolerance_c=-1.0)

    def test_violation_survives_pickling(self):
        original = InvariantViolation(
            "finite chip temperature", 120, 3, float("nan"), "chip is nan"
        )
        clone = pickle.loads(pickle.dumps(original))
        assert clone.invariant == original.invariant
        assert clone.step == 120
        assert clone.socket_id == 3
        assert str(clone) == str(original)


class TestEngineIntegration:
    def test_engine_raises_on_violation(self, small_sut, monkeypatch):
        """A violation mid-run surfaces through Simulation.run."""
        from repro.thermal.dynamics import TwoNodeThermalState

        original = TwoNodeThermalState.step_decayed

        def poisoned(self, *args, **kwargs):
            original(self, *args, **kwargs)
            # The engine advances a (K, n) slab; poison socket 2 of
            # every row.
            self.chip_c[..., 2] = float("nan")

        monkeypatch.setattr(
            TwoNodeThermalState, "step_decayed", poisoned
        )
        with pytest.raises(InvariantViolation) as excinfo:
            run_once(
                small_sut,
                smoke(),
                get_scheduler("CF"),
                BenchmarkSet.STORAGE,
                0.5,
                auditor=InvariantAuditor(interval_steps=5),
            )
        assert excinfo.value.socket_id == 2
