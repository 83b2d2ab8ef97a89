"""Room solver: batched fleet-tensor path vs the serial reference loop.

``solve_room(mode="batched")`` stacks chassis sharing a topology
recipe into one :func:`~repro.sim.batched.evaluate_fleet` call per
fixed-point iteration, each chassis a
:class:`~repro.sim.batched.FleetPoint` carrying its inlet override.
That path must match the per-chassis serial loop **bit for bit** —
every iteration feeds on the previous one's inlets, so even a single
ULP of drift would compound and change the converged fingerprint.
"""

import numpy as np
import pytest

from repro.fleet.registry import ChassisSpec, spec_from_catalog
from repro.room import (
    Room,
    downwind_recirculation,
    row_layout_recirculation,
    solve_room,
    uniform_recirculation,
)
from repro.server.catalog import TABLE_I_SYSTEMS

FIELDS = ("power_w", "ambient_c", "sink_c", "chip_c")


def catalog_mix(n_chassis: int) -> Room:
    """Heterogeneous chassis cycling through distinct Table-I degrees."""
    by_degree = {}
    for system in TABLE_I_SYSTEMS:
        by_degree.setdefault(system.degree_of_coupling, system)
    cycle = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    return Room(
        chassis=tuple(
            spec_from_catalog(cycle[i % len(cycle)], f"d{i}")
            for i in range(n_chassis)
        ),
        recirculation=row_layout_recirculation(n_chassis),
    )


def homogeneous_mix(n_chassis: int) -> Room:
    """Identical chassis — exercises the single-group batched path."""
    return Room(
        chassis=tuple(
            ChassisSpec(
                chassis_id=f"h{i}",
                n_rows=1,
                lanes_per_row=2,
                chain_length=6,
                sockets_per_cartridge_depth=2,
            )
            for i in range(n_chassis)
        ),
        recirculation=uniform_recirculation(n_chassis, 0.003),
    )


SCENARIOS = [
    pytest.param(catalog_mix(3), 0.7, 15.0, 18.0, id="catalog-3"),
    pytest.param(catalog_mix(5), 0.4, 12.0, 22.0, id="catalog-5"),
    pytest.param(homogeneous_mix(4), 0.9, 18.0, 26.0, id="homog-4"),
    pytest.param(
        Room(
            chassis=(
                ChassisSpec(
                    chassis_id="solo",
                    n_rows=1,
                    lanes_per_row=2,
                    chain_length=6,
                    sockets_per_cartridge_depth=2,
                ),
            ),
            recirculation=downwind_recirculation(1),
        ),
        0.5,
        10.0,
        20.0,
        id="solo",
    ),
]


def _assert_bit_identical(batched, serial):
    assert batched.n_iterations == serial.n_iterations
    assert batched.residuals_c == serial.residuals_c
    np.testing.assert_array_equal(batched.inlet_c, serial.inlet_c)
    np.testing.assert_array_equal(batched.exhaust_w, serial.exhaust_w)
    for i, (left, right) in enumerate(
        zip(batched.fields, serial.fields)
    ):
        for field in FIELDS:
            np.testing.assert_array_equal(
                getattr(left, field),
                getattr(right, field),
                err_msg=f"chassis {i} {field}",
            )
    assert batched.fingerprint() == serial.fingerprint()


@pytest.mark.parametrize("room,utilization,dyn,crac", SCENARIOS)
def test_batched_matches_serial_bit_for_bit(
    room, utilization, dyn, crac
):
    batched = solve_room(
        room, utilization, dyn, crac, mode="batched"
    )
    serial = solve_room(room, utilization, dyn, crac, mode="serial")
    _assert_bit_identical(batched, serial)


def test_per_chassis_utilization_vector_matches_too():
    """Non-uniform placement vectors ride the same contract."""
    room = catalog_mix(3)
    utilization = np.array([0.9, 0.3, 0.6])
    dyn = np.array([15.0, 8.0, 12.0])
    batched = solve_room(room, utilization, dyn, 21.0, mode="batched")
    serial = solve_room(room, utilization, dyn, 21.0, mode="serial")
    _assert_bit_identical(batched, serial)

