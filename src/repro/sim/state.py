"""Vectorised simulation state shared with scheduling policies.

Schedulers receive the :class:`SimulationState` at every decision; it
exposes read access to per-socket arrays (temperatures, frequencies,
busy flags, job power parameters) plus the topology and its coupling
matrix.  Policies must treat the arrays as read-only — the engine owns
all mutation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config.parameters import SimulationParameters
from ..errors import SimulationError
from ..server.topology import ServerTopology
from ..thermal.dynamics import TwoNodeThermalState
from ..workloads.benchmark import profile_for
from ..workloads.job import Job
from ..workloads.power_model import LEAKAGE_TDP_FRACTION


class SimulationState:
    """Mutable engine state over a fixed topology.

    Attributes:
        topology: Server geometry and coupling.
        params: Simulation parameters.
        time_s: Current simulation time, seconds.
        busy: Per-socket busy flags.
        freq_mhz: Per-socket current frequency (meaningful while busy).
        remaining_work_ms: Work left on the running job, ms.
        dyn_max_w: Dynamic power of the running job at the top
            frequency, W (0 while idle).
        dyn_exp: Dynamic power exponent of the running job (1 while
            idle).
        perf_drop: Performance drop at the bottom of the ladder for the
            running job's set (0 while idle).
        power_w: Socket power drawn during the last step, W.
        ambient_c: Entry air temperature per socket, degC.
        history_c: Exponentially smoothed chip temperature, degC
            (A-Random's temperature history).
        busy_ema: Exponentially smoothed per-socket busy indicator —
            the recent utilisation of each socket, used by CP to weight
            predicted downwind losses by the probability they are
            realised.
        thermal: Two-node transient thermal state (chip + sink nodes).
        running_jobs: The job each socket is executing (None while idle).
    """

    def __init__(
        self, topology: ServerTopology, params: SimulationParameters
    ):
        self.topology = topology
        self.params = params
        n = topology.n_sockets
        self.time_s = 0.0
        self.busy = np.zeros(n, dtype=bool)
        self.freq_mhz = np.full(
            n, float(topology.processor.ladder.min_mhz)
        )
        self.remaining_work_ms = np.zeros(n)
        self.dyn_max_w = np.zeros(n)
        self.dyn_exp = np.ones(n)
        self.perf_drop = np.zeros(n)
        self.power_w = topology.gated_power_array.copy()
        self.ambient_c = np.full(n, params.inlet_c)
        self.history_c = np.full(n, params.inlet_c)
        self.busy_ema = np.zeros(n)
        self.thermal = TwoNodeThermalState.at_ambient(
            n,
            params.inlet_c,
            chip_tau_s=params.chip_tau_s,
            socket_tau_s=params.socket_tau_s,
        )
        self.running_jobs: List[Optional[Job]] = [None] * n

    @property
    def n_sockets(self) -> int:
        """Socket count."""
        return self.topology.n_sockets

    @property
    def chip_c(self) -> np.ndarray:
        """Current chip temperatures, degC."""
        return self.thermal.chip_c

    @property
    def sink_c(self) -> np.ndarray:
        """Current heat-sink temperatures, degC."""
        return self.thermal.sink_c

    @property
    def ladder(self):
        """The DVFS ladder shared by every socket."""
        return self.topology.processor.ladder

    def idle_socket_ids(self) -> np.ndarray:
        """Indices of sockets with no running job."""
        return np.nonzero(~self.busy)[0]

    def assign(self, job: Job, socket_id: int) -> None:
        """Place ``job`` on an idle socket.

        Raises:
            SimulationError: if the socket is out of range or busy.
        """
        if not 0 <= socket_id < self.n_sockets:
            raise SimulationError(
                f"socket {socket_id} out of range 0..{self.n_sockets - 1}"
            )
        if self.busy[socket_id]:
            raise SimulationError(
                f"scheduler placed job {job.job_id} on busy socket "
                f"{socket_id}"
            )
        profile = profile_for(job.app.benchmark_set)
        tdp = self.topology.tdp_array[socket_id]
        self.busy[socket_id] = True
        self.remaining_work_ms[socket_id] = job.work_ms
        self.dyn_max_w[socket_id] = (
            job.app.power_at_max_w - LEAKAGE_TDP_FRACTION * tdp
        )
        self.dyn_exp[socket_id] = profile.dynamic_exponent
        self.perf_drop[socket_id] = profile.perf_drop_at_min
        self.running_jobs[socket_id] = job
        job.socket_id = socket_id
        job.start_s = self.time_s

    def migrate(
        self, source: int, destination: int, cost_ms: float = 0.0
    ) -> None:
        """Move the running job from ``source`` to an idle socket.

        The job keeps its identity and start time; ``cost_ms`` of extra
        work models the state-transfer penalty.

        Raises:
            SimulationError: if ``source`` is idle, ``destination`` is
                busy, or either index is out of range.
        """
        for socket_id in (source, destination):
            if not 0 <= socket_id < self.n_sockets:
                raise SimulationError(
                    f"socket {socket_id} out of range "
                    f"0..{self.n_sockets - 1}"
                )
        if not self.busy[source]:
            raise SimulationError(
                f"migration source {source} has no running job"
            )
        if self.busy[destination]:
            raise SimulationError(
                f"migration destination {destination} is busy"
            )
        if cost_ms < 0:
            raise SimulationError("migration cost must be non-negative")
        job = self.running_jobs[source]
        self.busy[destination] = True
        self.remaining_work_ms[destination] = (
            self.remaining_work_ms[source] + cost_ms
        )
        self.dyn_max_w[destination] = self.dyn_max_w[source]
        self.dyn_exp[destination] = self.dyn_exp[source]
        self.perf_drop[destination] = self.perf_drop[source]
        self.running_jobs[destination] = job
        job.socket_id = destination

        self.busy[source] = False
        self.remaining_work_ms[source] = 0.0
        self.dyn_max_w[source] = 0.0
        self.dyn_exp[source] = 1.0
        self.perf_drop[source] = 0.0
        self.running_jobs[source] = None

    def release(self, socket_id: int) -> Job:
        """Free a socket after its job completed; returns the job."""
        job = self.running_jobs[socket_id]
        if job is None:
            raise SimulationError(f"socket {socket_id} has no running job")
        self.busy[socket_id] = False
        self.remaining_work_ms[socket_id] = 0.0
        self.dyn_max_w[socket_id] = 0.0
        self.dyn_exp[socket_id] = 1.0
        self.perf_drop[socket_id] = 0.0
        self.running_jobs[socket_id] = None
        return job


#: Per-socket state arrays a lockstep batch stacks into slabs.
STATE_FIELDS = (
    "busy", "freq_mhz", "remaining_work_ms", "dyn_max_w", "dyn_exp",
    "perf_drop", "power_w", "ambient_c", "history_c", "busy_ema",
)

#: Per-socket result accumulators a lockstep batch stacks into slabs.
RESULT_FIELDS = (
    "work_done", "busy_time_s", "freq_time_product", "boost_time_s",
    "max_chip_c",
)


class StateSlabs:
    """``(K, n)`` slabs whose rows are the arrays of K points.

    Stacking copies each point's current arrays into one row of a
    fresh slab and rebinds the point's attribute to that row, so the
    point keeps reading and writing its own state through ordinary
    ``(n,)`` views while the physics phases advance all K rows with
    one numpy call each.  From here on nothing may *rebind* a stacked
    attribute (that would detach the point from its row); every write
    goes into the row in place.

    Attributes:
        sink_c, chip_c: The two thermal node slabs.
        <STATE_FIELDS>, <RESULT_FIELDS>: One slab per stacked field.
    """

    def __init__(self, states, results) -> None:
        for owners, names in (
            (states, STATE_FIELDS),
            ([s.thermal for s in states], ("sink_c", "chip_c")),
            (results, RESULT_FIELDS),
        ):
            for name in names:
                slab = np.stack([getattr(o, name) for o in owners])
                setattr(self, name, slab)
                for k, owner in enumerate(owners):
                    setattr(owner, name, slab[k])
