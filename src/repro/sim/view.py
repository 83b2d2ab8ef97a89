"""Read-only scheduler-facing view over the simulation state.

Scheduling policies must never mutate engine state — historically that
contract lived in a docstring and nothing enforced it.  The
:class:`SchedulerView` makes it structural: every per-socket array is
exposed as a **non-writeable NumPy view**, so a policy that tries
``view.chip_c[3] = 0`` raises ``ValueError: assignment destination is
read-only`` instead of silently corrupting the run.

The view mirrors the attribute surface of
:class:`~repro.sim.state.SimulationState` that policies legitimately
use (temperatures, frequencies, busy flags, job power parameters,
topology, parameters, clock), so existing policies work unchanged and
unit tests may still pass a raw ``SimulationState`` where convenient —
the view is what the engine hands to policies in real runs.

Array views are created per access because the underlying state's
arrays are rebound once, to rows of the batch's slabs, when a lockstep
run starts; each access therefore always reflects the live state.
Creating a view is allocation-light (no data copy).
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.job import Job
    from .state import SimulationState


def _readonly(array: np.ndarray) -> np.ndarray:
    """A non-writeable view sharing ``array``'s buffer."""
    view = array.view()
    view.flags.writeable = False
    return view


class SchedulerView:
    """Immutable window onto one simulation's live state.

    Handed to :meth:`repro.core.base.Scheduler.reset`,
    :meth:`~repro.core.base.Scheduler.select_socket` and
    :meth:`repro.core.migration.MigrationPolicy.propose`.  All array
    attributes are non-writeable views; writing through them raises.
    """

    __slots__ = ("_state",)

    def __init__(self, state: "SimulationState"):
        object.__setattr__(self, "_state", state)

    def __setattr__(self, name, value):
        raise AttributeError(
            "SchedulerView is read-only; policies must not mutate "
            "simulation state"
        )

    # -- scalars and structure -------------------------------------------

    @property
    def topology(self):
        """Server geometry and coupling (treat as immutable)."""
        return self._state.topology

    @property
    def params(self):
        """Simulation parameters (immutable)."""
        return self._state.params

    @property
    def ladder(self):
        """The DVFS ladder shared by every socket."""
        return self._state.ladder

    @property
    def n_sockets(self) -> int:
        """Socket count."""
        return self._state.n_sockets

    @property
    def time_s(self) -> float:
        """Current simulation time, seconds."""
        return self._state.time_s

    # -- per-socket arrays (non-writeable views) -------------------------

    @property
    def busy(self) -> np.ndarray:
        """Per-socket busy flags."""
        return _readonly(self._state.busy)

    @property
    def freq_mhz(self) -> np.ndarray:
        """Per-socket current frequency, MHz."""
        return _readonly(self._state.freq_mhz)

    @property
    def remaining_work_ms(self) -> np.ndarray:
        """Work left on each running job, ms."""
        return _readonly(self._state.remaining_work_ms)

    @property
    def dyn_max_w(self) -> np.ndarray:
        """Running job's dynamic power at top frequency, W."""
        return _readonly(self._state.dyn_max_w)

    @property
    def dyn_exp(self) -> np.ndarray:
        """Running job's dynamic power exponent."""
        return _readonly(self._state.dyn_exp)

    @property
    def perf_drop(self) -> np.ndarray:
        """Running job's performance drop at the ladder bottom."""
        return _readonly(self._state.perf_drop)

    @property
    def power_w(self) -> np.ndarray:
        """Socket power drawn during the last step, W."""
        return _readonly(self._state.power_w)

    @property
    def ambient_c(self) -> np.ndarray:
        """Entry air temperature per socket, degC."""
        return _readonly(self._state.ambient_c)

    @property
    def history_c(self) -> np.ndarray:
        """Exponentially smoothed chip temperatures, degC."""
        return _readonly(self._state.history_c)

    @property
    def busy_ema(self) -> np.ndarray:
        """Exponentially smoothed per-socket utilisation."""
        return _readonly(self._state.busy_ema)

    @property
    def chip_c(self) -> np.ndarray:
        """Current chip temperatures, degC."""
        return _readonly(self._state.thermal.chip_c)

    @property
    def sink_c(self) -> np.ndarray:
        """Current heat-sink temperatures, degC."""
        return _readonly(self._state.thermal.sink_c)

    # -- derived queries -------------------------------------------------

    @property
    def running_jobs(self) -> Tuple[Optional["Job"], ...]:
        """The job each socket is executing (``None`` while idle)."""
        return tuple(self._state.running_jobs)

    def idle_socket_ids(self) -> np.ndarray:
        """Indices of sockets with no running job (fresh array)."""
        return self._state.idle_socket_ids()


class FaultAwareSchedulerView(SchedulerView):
    """Scheduler view reflecting faulty telemetry and dead sockets.

    Installed by the :class:`repro.faults.injector.FaultInjector` in
    place of the plain view whenever a fault schedule is configured.
    Two differences from the base view:

    - every temperature channel (``chip_c``, ``sink_c``, ``ambient_c``,
      ``history_c``) returns the *observed* values — the true state
      with any active sensor bias / stuck / dropout overlays applied —
      so policies (including the coupling predictor) decide on what a
      real management plane would see, while the physics keeps running
      on the true temperatures;
    - :meth:`idle_socket_ids` excludes killed sockets, so neither the
      placer nor a migration policy can target a dead socket.

    With no fault active the overlays are zero-copy pass-throughs, so
    a run under an *empty* schedule reads the identical values as a
    fault-free run.
    """

    __slots__ = ("_faults",)

    def __init__(self, state: "SimulationState", faults) -> None:
        super().__init__(state)
        object.__setattr__(self, "_faults", faults)

    @property
    def chip_c(self) -> np.ndarray:
        """Observed chip temperatures, degC."""
        return self._faults.observe("chip_c", self._state.thermal.chip_c)

    @property
    def sink_c(self) -> np.ndarray:
        """Observed heat-sink temperatures, degC."""
        return self._faults.observe("sink_c", self._state.thermal.sink_c)

    @property
    def ambient_c(self) -> np.ndarray:
        """Observed entry air temperatures, degC."""
        return self._faults.observe("ambient_c", self._state.ambient_c)

    @property
    def history_c(self) -> np.ndarray:
        """Observed smoothed chip temperatures, degC."""
        return self._faults.observe("history_c", self._state.history_c)

    @property
    def alive(self) -> np.ndarray:
        """Per-socket service flags (``False`` = killed)."""
        return _readonly(self._faults.alive)

    def idle_socket_ids(self) -> np.ndarray:
        """Idle **and alive** socket indices (fresh array)."""
        ids = self._state.idle_socket_ids()
        if self._faults.any_dead:
            return ids[self._faults.alive[ids]]
        return ids
