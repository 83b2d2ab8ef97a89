"""Batched fleet-tensor sweep evaluation over a shared topology.

Capacity-planning sweeps ask the same decision-free questions at many
operating points of one server: "at utilisation u and per-socket
dynamic power P, where does the steady thermal field settle, which
DVFS state survives it, and how far along is the transient after a
cold-start window?".  The per-point path answers each question with a
fresh set of ``(n,)`` kernel calls; this module stacks ``N`` such
points into leading-axis ``(N, n)`` fleet tensors and evaluates every
point per kernel call instead.

The stacked math is **bit-identical** to the per-point serial path
(:func:`evaluate_fleet_serial`), because every kernel is elementwise
over the socket axis and the one exception — the coupling
matrix–vector product, whose BLAS kernel (dgemv vs dgemm) may round
differently when batched — is deliberately evaluated one point at a
time through the exact serial entry point.

The time-stepped engine batches sweeps the same way — it advances a
sweep's points in lockstep over ``(K, n)`` slabs with the same per-row
coupling product (:class:`repro.sim.pipeline.LockstepBatch`) — but
placement decisions depend on job identity and history, so there its
decision phases stay per point.  This module answers the
decision-free questions without stepping at all.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..thermal.dynamics import TwoNodeThermalState, advance_window_modes
from ..workloads.power_model import leakage_power
from .power_manager import select_frequencies_steady
from .steady_state import (
    LEAKAGE_ITERATIONS,
    SteadyStateField,
    solve_steady_state,
)


@dataclass(frozen=True)
class FleetPoint:
    """One decision-free sweep point over the shared topology.

    Attributes:
        utilization: Uniform per-socket busy fraction in [0, 1].
        dyn_max_w: Per-socket dynamic power while busy, W.
        dyn_exp: Dynamic power exponent for the DVFS selection step
            (workload dependent; see
            :func:`repro.sim.power_manager.dynamic_power`).
        inlet_c: Optional inlet-air override, degC; ``None`` uses the
            sweep's shared ``params.inlet_c``.
    """

    utilization: float
    dyn_max_w: float
    dyn_exp: float = 2.0
    inlet_c: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0:
            raise SimulationError("utilisation must lie in [0, 1]")
        if self.dyn_max_w < 0:
            raise SimulationError("dynamic power must be non-negative")
        if self.dyn_exp <= 0:
            raise SimulationError("dynamic exponent must be positive")


@dataclass(frozen=True)
class FleetSweepResult:
    """Stacked ``(N, n)`` results for a batch of fleet points.

    All arrays have the point axis leading, aligned with the input
    sequence.

    Attributes:
        power_w: Steady per-socket total power, W.
        ambient_c: Steady entry air temperatures, degC.
        sink_c: Steady heat-sink temperatures, degC.
        chip_c: Steady chip temperatures, degC.
        freq_mhz: Steady-state DVFS selection per socket, MHz.
        window_sink_c: Sink temperatures after ``window_steps`` decayed
            steps from inlet equilibrium under the frozen steady field.
        window_chip_c: Chip temperatures after the same window.
    """

    power_w: np.ndarray
    ambient_c: np.ndarray
    sink_c: np.ndarray
    chip_c: np.ndarray
    freq_mhz: np.ndarray
    window_sink_c: np.ndarray
    window_chip_c: np.ndarray

    @property
    def n_points(self) -> int:
        """Number of sweep points in the batch."""
        return self.power_w.shape[0]

    def field(self, index: int) -> SteadyStateField:
        """The steady field of one point, as the per-point dataclass."""
        return SteadyStateField(
            power_w=self.power_w[index],
            ambient_c=self.ambient_c[index],
            sink_c=self.sink_c[index],
            chip_c=self.chip_c[index],
        )


def _point_params(
    params: SimulationParameters, point: FleetPoint
) -> SimulationParameters:
    """The shared parameters with the point's inlet override applied."""
    if point.inlet_c is None:
        return params
    return dataclasses.replace(params, inlet_c=float(point.inlet_c))


def _decays(params: SimulationParameters) -> tuple:
    """Per-step decay factors at the engine's power-manager cadence."""
    dt = params.power_manager_interval_s
    return (
        float(np.exp(-dt / params.socket_tau_s)),
        float(np.exp(-dt / params.chip_tau_s)),
    )


def evaluate_fleet_serial(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[FleetPoint],
    window_steps: int = 0,
) -> FleetSweepResult:
    """Per-point reference evaluation through the serial kernels.

    Runs each point independently through the exact historical entry
    points (:func:`~repro.sim.steady_state.solve_steady_state`, the
    steady DVFS selector, the closed-form window advance) and stacks
    the results.  :func:`evaluate_fleet` must match this bit for bit —
    it is the batched evaluator's oracle.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n = topology.n_sockets
    ladder = topology.processor.ladder
    tdp = topology.tdp_array
    r_ext = topology.r_ext_array
    theta_off = topology.theta_offset_array
    theta_slope = topology.theta_slope_array
    sink_decay, chip_decay = _decays(params)

    fields: List[SteadyStateField] = []
    freqs: List[np.ndarray] = []
    window_sink: List[np.ndarray] = []
    window_chip: List[np.ndarray] = []
    for point in points:
        p = _point_params(params, point)
        field = solve_steady_state(
            topology,
            p,
            np.full(n, point.dyn_max_w),
            np.full(n, point.utilization),
        )
        fields.append(field)
        freqs.append(
            select_frequencies_steady(
                ambient_c=field.ambient_c,
                chip_c=field.chip_c,
                dyn_max_w=np.full(n, point.dyn_max_w),
                dyn_exp=np.full(n, point.dyn_exp),
                tdp_w=tdp,
                r_ext=r_ext,
                theta_offset=theta_off,
                theta_slope=theta_slope,
                ladder=ladder,
                params=p,
            )
        )
        state = TwoNodeThermalState.at_ambient(
            n,
            p.inlet_c,
            chip_tau_s=p.chip_tau_s,
            socket_tau_s=p.socket_tau_s,
        )
        theta = theta_off + theta_slope * field.power_w
        state.advance_window(
            sink_decay,
            chip_decay,
            window_steps,
            field.ambient_c,
            field.power_w,
            p.r_int,
            r_ext,
            theta,
        )
        window_sink.append(state.sink_c)
        window_chip.append(state.chip_c)
    return FleetSweepResult(
        power_w=np.stack([f.power_w for f in fields]),
        ambient_c=np.stack([f.ambient_c for f in fields]),
        sink_c=np.stack([f.sink_c for f in fields]),
        chip_c=np.stack([f.chip_c for f in fields]),
        freq_mhz=np.stack(freqs),
        window_sink_c=np.stack(window_sink),
        window_chip_c=np.stack(window_chip),
    )


def _steady_fleet(
    topology: ServerTopology,
    params: SimulationParameters,
    util: np.ndarray,
    dynamic: np.ndarray,
    inlet: np.ndarray,
) -> tuple:
    """Stacked steady fixed point, bit-identical to the serial solver.

    Every operation is elementwise over the trailing socket axis in the
    exact order of :func:`~repro.sim.steady_state.solve_steady_state`,
    so each ``(N, n)`` element sees the identical float sequence as its
    ``(n,)`` serial counterpart.  The one matrix–vector product goes
    through :meth:`~repro.thermal.coupling.CouplingModel.
    entry_temperatures` one point at a time: a stacked ``(N, n)``
    product would hit a different BLAS kernel (dgemm vs dgemv) whose
    reduction order is not guaranteed to match.
    """
    tdp = topology.tdp_array
    gated = topology.gated_power_array
    r_ext = topology.r_ext_array
    theta_off = topology.theta_offset_array
    theta_slope = topology.theta_slope_array
    coupling = topology.coupling

    chip = np.full(util.shape, 60.0)
    power = np.broadcast_to(gated, util.shape)
    ambient = sink = None
    for _ in range(LEAKAGE_ITERATIONS):
        leak = leakage_power(chip, 1.0) * tdp
        busy_power = dynamic + leak
        power = util * busy_power + (1.0 - util) * gated
        ambient = np.stack(
            [
                coupling.entry_temperatures(float(inlet[i]), power[i])
                for i in range(power.shape[0])
            ]
        )
        sink = ambient + power * r_ext
        theta = theta_off + theta_slope * power
        chip = sink + power * params.r_int + theta
    return power, ambient, sink, chip


def evaluate_fleet(
    topology: ServerTopology,
    params: SimulationParameters,
    points: Sequence[FleetPoint],
    window_steps: int = 0,
) -> FleetSweepResult:
    """Evaluate a batch of fleet points with stacked kernel calls.

    Args:
        topology: The shared server geometry.
        params: Shared simulation parameters; per-point ``inlet_c``
            overrides apply on top.
        points: The sweep points; all evaluate in one pass.
        window_steps: Decayed engine steps of cold-start transient to
            advance (0 reports the inlet-equilibrium start state).

    Returns:
        The stacked :class:`FleetSweepResult`, bit-identical to
        :func:`evaluate_fleet_serial`.
    """
    if not points:
        raise SimulationError("fleet sweep needs at least one point")
    n = topology.n_sockets
    n_points = len(points)
    ladder = topology.processor.ladder

    util = np.stack(
        [np.full(n, point.utilization) for point in points]
    )
    dynamic = np.stack(
        [np.full(n, point.dyn_max_w) for point in points]
    )
    dyn_exp = np.stack(
        [np.full(n, point.dyn_exp) for point in points]
    )
    inlet = np.array(
        [
            params.inlet_c if point.inlet_c is None else float(point.inlet_c)
            for point in points
        ]
    )

    power, ambient, sink, chip = _steady_fleet(
        topology, params, util, dynamic, inlet
    )

    # DVFS selection is elementwise per socket column, so the stacked
    # batch flattens to one (N * n,) call — bit-identical per element
    # to N separate (n,) calls (see select_frequencies_steady).
    flat = (n_points * n,)
    freq = select_frequencies_steady(
        ambient_c=ambient.reshape(flat),
        chip_c=chip.reshape(flat),
        dyn_max_w=dynamic.reshape(flat),
        dyn_exp=dyn_exp.reshape(flat),
        tdp_w=np.tile(topology.tdp_array, n_points),
        r_ext=np.tile(topology.r_ext_array, n_points),
        theta_offset=np.tile(topology.theta_offset_array, n_points),
        theta_slope=np.tile(topology.theta_slope_array, n_points),
        ladder=ladder,
        params=params,
    ).reshape((n_points, n))

    # Cold-start transient: both nodes start at the point's inlet
    # equilibrium and advance under the frozen steady field, exactly as
    # TwoNodeThermalState.advance_window does per point.
    start = np.broadcast_to(inlet[:, None], (n_points, n))
    theta = topology.theta_offset_array + (
        topology.theta_slope_array * power
    )
    sink_decay, chip_decay = _decays(params)
    window_sink, window_chip, _ = advance_window_modes(
        start,
        start,
        sink_decay,
        chip_decay,
        window_steps,
        ambient,
        power,
        params.r_int,
        topology.r_ext_array,
        theta,
    )
    return FleetSweepResult(
        power_w=power,
        ambient_c=ambient,
        sink_c=sink,
        chip_c=chip,
        freq_mhz=freq,
        window_sink_c=window_sink,
        window_chip_c=window_chip,
    )
