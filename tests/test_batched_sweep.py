"""Batched fleet-tensor sweep evaluator vs the per-point serial path.

``repro.sim.batched`` stacks N decision-free sweep points over one
topology into ``(N, n)`` fleet tensors.  The stacked evaluation must
match the per-point serial kernels **bit for bit** — including a mixed
8-point sweep with per-point inlet overrides.
"""

import numpy as np
import pytest

from repro.config.presets import smoke
from repro.errors import SimulationError
from repro.sim.batched import (
    FleetPoint,
    FleetSweepResult,
    evaluate_fleet,
    evaluate_fleet_serial,
)

FIELDS = (
    "power_w",
    "ambient_c",
    "sink_c",
    "chip_c",
    "freq_mhz",
    "window_sink_c",
    "window_chip_c",
)

#: The acceptance sweep: 8 mixed points — utilisation extremes, power
#: extremes, workload exponents, and per-point inlet overrides.
MIXED_POINTS = (
    FleetPoint(0.1, 8.0, 2.0),
    FleetPoint(0.3, 12.0, 1.8),
    FleetPoint(0.5, 15.0, 2.2, inlet_c=22.0),
    FleetPoint(0.7, 18.0, 2.0),
    FleetPoint(0.9, 20.0, 1.9),
    FleetPoint(1.0, 21.0, 2.1, inlet_c=30.0),
    FleetPoint(0.0, 10.0, 2.0),
    FleetPoint(0.65, 16.5, 2.0, inlet_c=18.0),
)


@pytest.fixture(scope="module")
def params():
    return smoke(seed=0)


def _assert_bit_identical(a: FleetSweepResult, b: FleetSweepResult):
    for field in FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.shape == right.shape
        np.testing.assert_array_equal(left, right, err_msg=field)


def test_mixed_eight_point_sweep_is_bit_identical(small_sut, params):
    serial = evaluate_fleet_serial(
        small_sut, params, MIXED_POINTS, window_steps=2048
    )
    batched = evaluate_fleet(
        small_sut, params, MIXED_POINTS, window_steps=2048
    )
    assert serial.n_points == batched.n_points == 8
    _assert_bit_identical(serial, batched)


def test_zero_window_reports_inlet_equilibrium(small_sut, params):
    result = evaluate_fleet(
        small_sut, params, MIXED_POINTS[:3], window_steps=0
    )
    for i, point in enumerate(MIXED_POINTS[:3]):
        inlet = params.inlet_c if point.inlet_c is None else point.inlet_c
        np.testing.assert_array_equal(
            result.window_sink_c[i],
            np.full(small_sut.n_sockets, inlet),
        )
        np.testing.assert_array_equal(
            result.window_chip_c[i],
            np.full(small_sut.n_sockets, inlet),
        )


def test_long_window_converges_to_steady_field(small_sut, params):
    """Enough decayed steps land on the steady sink/chip temperatures."""
    result = evaluate_fleet(
        small_sut, params, MIXED_POINTS, window_steps=10_000_000
    )
    np.testing.assert_allclose(
        result.window_sink_c, result.sink_c, rtol=1e-6, atol=1e-6
    )
    np.testing.assert_allclose(
        result.window_chip_c, result.chip_c, rtol=1e-6, atol=1e-6
    )


def test_field_accessor_matches_serial_solver(small_sut, params):
    result = evaluate_fleet(small_sut, params, MIXED_POINTS)
    field = result.field(2)
    serial = evaluate_fleet_serial(
        small_sut, params, [MIXED_POINTS[2]]
    )
    np.testing.assert_array_equal(field.chip_c, serial.chip_c[0])
    assert field.hottest_socket == int(np.argmax(serial.chip_c[0]))


def test_point_validation():
    with pytest.raises(SimulationError):
        FleetPoint(1.2, 10.0)
    with pytest.raises(SimulationError):
        FleetPoint(0.5, -1.0)
    with pytest.raises(SimulationError):
        FleetPoint(0.5, 10.0, dyn_exp=0.0)


def test_empty_batch_rejected(small_sut, params):
    with pytest.raises(SimulationError):
        evaluate_fleet(small_sut, params, [])
    with pytest.raises(SimulationError):
        evaluate_fleet_serial(small_sut, params, [])
