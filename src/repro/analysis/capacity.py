"""Capacity planning for thermally coupled servers.

Built on the closed-form steady-state solver, these utilities answer
the questions a deployer of a density optimized server asks before any
scheduling happens:

- *How much uniform load can this box sustain* before some socket's
  steady chip temperature crosses the throttle limit (or the boost
  governor threshold)?
- *How does that capacity derate with inlet temperature* — the knob a
  data-center operator actually controls?

Both reduce to monotone root finding over the utilisation axis, which
the steady-state field makes cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import ReproError
from ..server.topology import ServerTopology
from ..sim.power_manager import dynamic_power
from ..sim.steady_state import uniform_load_field
from ..workloads.benchmark import BenchmarkSet, profile_for
from ..workloads.power_model import LEAKAGE_TDP_FRACTION

#: Bisection tolerance on the utilisation axis.
UTILIZATION_TOLERANCE = 1e-3


def sustained_dynamic_power_w(
    benchmark_set: BenchmarkSet, tdp_w: float = 22.0
) -> float:
    """Dynamic power of a set's average job at the sustained state, W."""
    profile = profile_for(benchmark_set)
    dyn_max = profile.power_at_max_w - LEAKAGE_TDP_FRACTION * tdp_w
    return float(dynamic_power(1500.0, dyn_max, profile.dynamic_exponent, 1900.0))


def max_sustainable_utilization(
    topology: ServerTopology,
    params: SimulationParameters,
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: float = None,
) -> float:
    """Largest uniform utilisation with every steady chip under a limit.

    Args:
        topology: Server geometry.
        params: Simulation parameters (inlet temperature matters most).
        benchmark_set: Workload whose sustained power is applied.
        limit_c: Temperature ceiling; defaults to the DVFS limit.

    Returns:
        Utilisation in [0, 1]; 1.0 means the limit never binds, 0.0
        means even an idle (gated) server violates it.
    """
    ceiling = (
        params.temperature_limit_c if limit_c is None else limit_c
    )
    dynamic = sustained_dynamic_power_w(benchmark_set)

    def hottest(util: float) -> float:
        field = uniform_load_field(topology, params, util, dynamic)
        return float(field.chip_c.max())

    if hottest(0.0) > ceiling:
        return 0.0
    if hottest(1.0) <= ceiling:
        return 1.0
    low, high = 0.0, 1.0
    while high - low > UTILIZATION_TOLERANCE:
        mid = (low + high) / 2.0
        if hottest(mid) <= ceiling:
            low = mid
        else:
            high = mid
    return low


@dataclass(frozen=True)
class DeratingPoint:
    """Sustainable utilisation at one inlet temperature.

    Attributes:
        inlet_c: Server inlet air temperature, degC.
        max_utilization: Largest sustainable uniform utilisation.
    """

    inlet_c: float
    max_utilization: float


def derating_curve(
    topology: ServerTopology,
    params: SimulationParameters,
    inlets_c: Sequence[float],
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: float = None,
) -> List[DeratingPoint]:
    """Sustainable utilisation as a function of inlet temperature.

    Raises:
        ReproError: for an empty inlet list.
    """
    if not inlets_c:
        raise ReproError("derating curve needs >= 1 inlet temperature")
    points = []
    for inlet in inlets_c:
        adjusted = params.with_overrides(inlet_c=float(inlet))
        points.append(
            DeratingPoint(
                inlet_c=float(inlet),
                max_utilization=max_sustainable_utilization(
                    topology, adjusted, benchmark_set, limit_c
                ),
            )
        )
    return points


def room_capacity_curve(room, crac_setpoints_c, **kwargs):
    """Room-level analogue of :func:`derating_curve`.

    The chassis curve derates against the *inlet* temperature the
    operator is assumed to deliver; the room curve derates against the
    *CRAC supply* temperature and lets recirculated exhaust set each
    chassis' actual inlet.  Delegates to
    :func:`repro.room.capacity.room_derating_curve` (imported lazily —
    the room layer builds on this module, not the other way round).

    Args:
        room: A :class:`repro.room.Room`.
        crac_setpoints_c: CRAC supply temperatures to sweep, degC.
        **kwargs: Forwarded (``placement``, ``benchmark_set``,
            ``limit_c``, ``seed``, ``mode``, ...).

    Returns:
        ``List[repro.room.RoomDeratingPoint]``.
    """
    from ..room.capacity import room_derating_curve

    return room_derating_curve(room, crac_setpoints_c, **kwargs)


def room_sustainable_load(room, crac_supply_c, **kwargs):
    """Room-level analogue of :func:`max_sustainable_utilization`.

    Delegates to
    :func:`repro.room.capacity.max_sustainable_room_load`; see
    :func:`room_capacity_curve` for the layering note.
    """
    from ..room.capacity import max_sustainable_room_load

    return max_sustainable_room_load(room, crac_supply_c, **kwargs)


def throttle_onset_zone(
    topology: ServerTopology,
    params: SimulationParameters,
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
) -> Tuple[int, float]:
    """Which zone throttles first as uniform load rises, and at what load.

    Returns:
        ``(zone, utilization)`` — the 1-based zone containing the first
        socket to reach the limit, and the utilisation at which it does.
        Returns ``(0, 1.0)`` if no zone ever throttles.
    """
    util = max_sustainable_utilization(topology, params, benchmark_set)
    if util >= 1.0:
        return (0, 1.0)
    dynamic = sustained_dynamic_power_w(benchmark_set)
    probe = min(util + 2 * UTILIZATION_TOLERANCE, 1.0)
    field = uniform_load_field(topology, params, probe, dynamic)
    hottest = int(np.argmax(field.chip_c))
    return (int(topology.zone_array[hottest]), util)
