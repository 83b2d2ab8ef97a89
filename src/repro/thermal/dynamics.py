"""Two-node transient thermal dynamics.

Table III of the paper gives two time constants: an on-chip constant of
5 ms and a socket (heat-sink mass) constant of 30 s.  We model each
socket as a two-node RC ladder:

- the *sink* node represents the heat-sink and socket thermal mass; its
  steady-state temperature is ``ambient + power * r_ext`` and it relaxes
  toward that target with tau = 30 s;
- the *chip* node represents the die; its steady state is
  ``sink + power * r_int + theta(power)`` and it relaxes with tau = 5 ms.

Each step uses the exact exponential solution of the first-order ODE, so
the update is unconditionally stable for any step size — the engine can
take 1 ms power-manager steps or coarser steps without error growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ThermalModelError

#: On-chip thermal time constant (Table III), seconds.
DEFAULT_CHIP_TAU_S = 0.005

#: Socket / heat-sink thermal time constant (Table III), seconds.
DEFAULT_SOCKET_TAU_S = 30.0


class WindowModes(NamedTuple):
    """Mode decomposition of a closed-form window advance.

    With frozen inputs, ``j`` decayed steps evolve the nodes as::

        sink_j = sink_const + sink_amp * sink_decay**j
        chip_j = chip_const + chip_amp * chip_decay**j
                            + cross_amp * sink_decay**j      (non-resonant)
        chip_j = chip_const + chip_amp * chip_decay**j
                            + cross_amp * j * sink_decay**j  (resonant)

    Attributes:
        sink_const: Sink steady state ``ambient + power * r_ext``.
        sink_amp: Sink deviation from steady state at window entry.
        chip_const: Chip steady state ``sink_const + power * r_int + theta``.
        chip_amp: Coefficient on ``chip_decay**j``.
        cross_amp: Coefficient on the sink-driven mode (see above).
        resonant: True when the two decay factors coincide and the
            sink-driven chip mode is ``j * sink_decay**j``-weighted.
    """

    sink_const: np.ndarray
    sink_amp: np.ndarray
    chip_const: np.ndarray
    chip_amp: np.ndarray
    cross_amp: np.ndarray
    resonant: bool


def advance_window_modes(
    sink_c,
    chip_c,
    sink_decay: float,
    chip_decay: float,
    n_steps: int,
    ambient_c,
    power_w,
    r_int,
    r_ext,
    theta,
):
    """Closed-form window advance on fresh arrays.

    The functional core of :meth:`TwoNodeThermalState.advance_window`:
    elementwise operator math only, so it runs unchanged on per-socket
    ``(n,)`` arrays and on stacked ``(N, n)`` fleet tensors (leading
    batch axis).

    Returns:
        ``(sink_after, chip_after, modes)`` — the node arrays after
        ``n_steps`` decayed steps plus the :class:`WindowModes`
        decomposition evaluated at window entry.  ``n_steps == 0``
        returns the input arrays unchanged.

    Raises:
        ThermalModelError: if ``n_steps`` is negative or either decay
            factor is outside ``(0, 1)``.
    """
    n_steps = int(n_steps)
    if n_steps < 0:
        raise ThermalModelError(
            f"n_steps must be non-negative, got {n_steps}"
        )
    for name, decay in (("sink", sink_decay), ("chip", chip_decay)):
        if not 0.0 < decay < 1.0:
            raise ThermalModelError(
                f"{name}_decay must lie in (0, 1), got {decay}"
            )
    sink_const = ambient_c + power_w * r_ext
    sink_amp = sink_c - sink_const
    chip_const = sink_const + power_w * r_int + theta
    resonant = abs(sink_decay - chip_decay) <= 1e-12 * max(
        sink_decay, chip_decay
    )
    if resonant:
        cross_amp = sink_amp * (1.0 - sink_decay)
        chip_amp = chip_c - chip_const
    else:
        cross_amp = (
            sink_amp
            * ((1.0 - chip_decay) * sink_decay / (sink_decay - chip_decay))
        )
        chip_amp = chip_c - chip_const - cross_amp
    modes = WindowModes(
        sink_const, sink_amp, chip_const, chip_amp, cross_amp, resonant
    )
    if n_steps == 0:
        return sink_c, chip_c, modes
    rs_k = sink_decay**n_steps
    rc_k = chip_decay**n_steps
    if resonant:
        chip_after = (
            chip_const + chip_amp * rc_k + cross_amp * (n_steps * rs_k)
        )
    else:
        chip_after = chip_const + chip_amp * rc_k + cross_amp * rs_k
    sink_after = sink_const + sink_amp * rs_k
    return sink_after, chip_after, modes


def exponential_step(
    current: np.ndarray,
    target: np.ndarray,
    dt_s: float,
    tau_s: float,
) -> np.ndarray:
    """One exact first-order relaxation step toward ``target``.

    Implements ``T(t+dt) = target + (T(t) - target) * exp(-dt/tau)``.

    Raises:
        ThermalModelError: if ``dt_s`` is negative or ``tau_s`` is not
            strictly positive.
    """
    if dt_s < 0:
        raise ThermalModelError(f"dt must be non-negative, got {dt_s}")
    if tau_s <= 0:
        raise ThermalModelError(f"tau must be positive, got {tau_s}")
    decay = np.exp(-dt_s / tau_s)
    return target + (current - target) * decay


@dataclass
class TwoNodeThermalState:
    """Vectorised transient state for a set of sockets.

    Attributes:
        sink_c: Heat-sink node temperatures, degC (one per socket).
        chip_c: Chip node temperatures, degC (one per socket).
        chip_tau_s: On-chip time constant, seconds.
        socket_tau_s: Heat-sink mass time constant, seconds.
    """

    sink_c: np.ndarray
    chip_c: np.ndarray
    chip_tau_s: float = DEFAULT_CHIP_TAU_S
    socket_tau_s: float = DEFAULT_SOCKET_TAU_S

    def __post_init__(self) -> None:
        self.sink_c = np.asarray(self.sink_c, dtype=float)
        self.chip_c = np.asarray(self.chip_c, dtype=float)
        if self.sink_c.shape != self.chip_c.shape:
            raise ThermalModelError(
                "sink and chip arrays must have identical shapes"
            )
        if self.chip_tau_s <= 0 or self.socket_tau_s <= 0:
            raise ThermalModelError("time constants must be positive")

    @classmethod
    def at_ambient(
        cls,
        n_sockets: int,
        ambient_c: float,
        chip_tau_s: float = DEFAULT_CHIP_TAU_S,
        socket_tau_s: float = DEFAULT_SOCKET_TAU_S,
    ) -> "TwoNodeThermalState":
        """All nodes equilibrated at the given ambient temperature."""
        if n_sockets <= 0:
            raise ThermalModelError(
                f"n_sockets must be positive, got {n_sockets}"
            )
        temps = np.full(n_sockets, float(ambient_c))
        return cls(
            sink_c=temps.copy(),
            chip_c=temps.copy(),
            chip_tau_s=chip_tau_s,
            socket_tau_s=socket_tau_s,
        )

    def step(
        self,
        dt_s: float,
        ambient_c: np.ndarray,
        power_w: np.ndarray,
        r_int: np.ndarray,
        r_ext: np.ndarray,
        theta: np.ndarray,
    ) -> None:
        """Advance both nodes by ``dt_s`` seconds in place.

        Args:
            dt_s: Step duration, seconds.
            ambient_c: Per-socket entry air temperature, degC.
            power_w: Per-socket total power, W.
            r_int: Per-socket internal resistance, degC/W.
            r_ext: Per-socket external (sink) resistance, degC/W.
            theta: Per-socket Equation 1 correction, degC.
        """
        sink_target = ambient_c + power_w * r_ext
        self.sink_c = exponential_step(
            self.sink_c, sink_target, dt_s, self.socket_tau_s
        )
        chip_target = self.sink_c + power_w * r_int + theta
        self.chip_c = exponential_step(
            self.chip_c, chip_target, dt_s, self.chip_tau_s
        )

    def step_decayed(
        self,
        sink_decay: float,
        chip_decay: float,
        ambient_c: np.ndarray,
        power_w: np.ndarray,
        r_int: np.ndarray,
        r_ext: np.ndarray,
        theta: np.ndarray,
        scratch: "np.ndarray | None" = None,
    ) -> None:
        """Advance both nodes using precomputed decay factors.

        The fixed-step engine calls the relaxation thousands of times
        with the same ``dt``; this fused variant takes the decay
        factors ``exp(-dt/tau)`` precomputed once per run and updates
        both node arrays fully in place (one scratch allocation per
        call instead of six temporaries).  It performs the identical
        floating-point operations in the identical per-element order as
        :meth:`step` with ``exponential_step``, so trajectories are
        bit-identical.

        Args:
            sink_decay: ``exp(-dt / socket_tau_s)`` for the engine step.
            chip_decay: ``exp(-dt / chip_tau_s)`` for the engine step.
            ambient_c: Per-socket entry air temperature, degC.
            power_w: Per-socket total power, W.
            r_int: Per-socket internal resistance, degC/W.
            r_ext: Per-socket external (sink) resistance, degC/W.
            theta: Per-socket Equation 1 correction, degC.
            scratch: Optional per-socket work buffer reused by the
                engine hot path (its contents are overwritten).
        """
        # Sink node: target = ambient + power * r_ext, then
        # T <- target + (T - target) * decay, evaluated in place.
        target = np.multiply(power_w, r_ext, out=scratch)
        target += ambient_c
        sink = self.sink_c
        sink -= target
        sink *= sink_decay
        sink += target
        # Chip node over the *new* sink state:
        # target = sink + power * r_int + theta.
        np.multiply(power_w, r_int, out=target)
        target += sink
        target += theta
        chip = self.chip_c
        chip -= target
        chip *= chip_decay
        chip += target

    def advance_window(
        self,
        sink_decay: float,
        chip_decay: float,
        n_steps: int,
        ambient_c: np.ndarray,
        power_w: np.ndarray,
        r_int: np.ndarray,
        r_ext: np.ndarray,
        theta: np.ndarray,
    ) -> WindowModes:
        """Advance both nodes by ``n_steps`` decayed steps in closed form.

        Equivalent (in exact arithmetic) to calling :meth:`step_decayed`
        ``n_steps`` times with the same frozen inputs, but in O(1) work
        per socket instead of O(n_steps).  The two-node ladder is lower
        triangular — the sink ignores the chip — so the sink mode is a
        single geometric decay toward ``S = ambient + power * r_ext``
        and the chip superposes its own decay with the sink's::

            sink_k = S + D * rs**k                     D  = sink_0 - S
            chip_k = P + Q * rc**k + Dp * rs**k        P  = S + power * r_int + theta
                                                       Dp = D * (1-rc) * rs / (rs-rc)
                                                       Q  = chip_0 - P - Dp

        When the decay factors coincide (``rs == rc = r``) the partial
        fraction degenerates to the confluent (resonant) form
        ``chip_k = P + (chip_0 - P) * r**k + D * (1-r) * k * r**k``.

        Args:
            sink_decay: ``exp(-dt / socket_tau_s)`` for one engine step.
            chip_decay: ``exp(-dt / chip_tau_s)`` for one engine step.
            n_steps: Number of engine steps to advance (``>= 0``).
            ambient_c: Per-socket entry air temperature, degC (frozen).
            power_w: Per-socket total power, W (frozen).
            r_int: Per-socket internal resistance, degC/W.
            r_ext: Per-socket external (sink) resistance, degC/W.
            theta: Per-socket Equation 1 correction, degC (frozen).

        Returns:
            The :class:`WindowModes` decomposition (evaluated at window
            entry, i.e. ``j = 0``).

        Raises:
            ThermalModelError: if ``n_steps`` is negative or either decay
                factor is outside ``(0, 1)``.
        """
        self.sink_c, self.chip_c, modes = advance_window_modes(
            self.sink_c,
            self.chip_c,
            sink_decay,
            chip_decay,
            n_steps,
            ambient_c,
            power_w,
            r_int,
            r_ext,
            theta,
        )
        return modes

    def sink_heat_output_w(
        self,
        ambient_c: np.ndarray,
        r_ext: np.ndarray,
        out: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Heat currently flowing from each sink into the air stream, W.

        This is the quantity that warms downstream sockets: the coupling
        chain consumes it instead of the instantaneous electrical power,
        which gives the 30 s coupling lag the paper describes.

        Args:
            ambient_c: Per-socket entry air temperature, degC.
            r_ext: Per-socket external (sink) resistance, degC/W.
            out: Optional output buffer reused by the engine hot path.
        """
        heat = np.subtract(self.sink_c, ambient_c, out=out)
        heat /= r_ext
        return np.maximum(heat, 0.0, out=heat)
