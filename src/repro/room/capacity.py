"""Room-level capacity planning: sustainable load vs CRAC setpoint.

Extends the chassis-level planner (:mod:`repro.analysis.capacity`) one
layer up: instead of asking how much uniform load *one box* sustains at
a fixed inlet, these utilities ask how much load *a room of coupled
boxes* sustains when the inlets themselves are part of the solution —
``inlet = T_crac + D @ P_exhaust`` — and the operator's knob is the
CRAC supply temperature (Van Damme et al., arXiv 1611.00522 frames
exactly this joint placement + cooling-setpoint problem).

Room solves memoise into the process-wide sweep cache
(:data:`repro.sim.parallel.shared_cache`) under keys built by
:func:`repro.sim.parallel.config_key` with the *room inputs* — the
room fingerprint (chassis mix + recirculation matrix), the CRAC
setpoint and the placement vector — folded into the digest, so a room
sweep can never alias a chassis-only cache entry
(``tests/test_room_cache.py`` pins the collision behaviour).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.capacity import (
    UTILIZATION_TOLERANCE,
    sustained_dynamic_power_w,
)
from ..config.presets import scaled
from ..errors import RoomError
from ..sim.parallel import config_key, shared_cache
from ..workloads.benchmark import BenchmarkSet
from .model import Room, RoomSolution, _topology_for, solve_room
from .placement import place_room_load


@dataclass(frozen=True)
class RoomKey:
    """Room-layer inputs that join a sweep-cache key.

    Passed as ``config_key(..., room=...)``; :meth:`token` is the
    digest contribution.  Carries everything the chassis-level key
    cannot see: the room fingerprint (chassis mix + recirculation
    coefficients), the CRAC setpoint, and the exact per-chassis
    placement the solve ran under.

    Attributes:
        fingerprint: :meth:`Room.fingerprint` of the room.
        crac_supply_c: CRAC supply temperature of the solve, degC.
        detail: Extra distinguishing content (placement vector digest,
            solver mode, seed).
    """

    fingerprint: str
    crac_supply_c: float
    detail: str = ""

    def token(self) -> bytes:
        return (
            f"{self.fingerprint}|crac:{self.crac_supply_c!r}|"
            f"{self.detail}"
        ).encode()


def room_solve_key(
    room: Room,
    utilization: np.ndarray,
    dyn_max_w: np.ndarray,
    crac_supply_c: float,
    seed: int = 0,
) -> str:
    """The shared-cache key for one fully specified room solve.

    Built on :func:`~repro.sim.parallel.config_key` over the lead
    chassis' topology and the shared parameter set, with the room
    inputs joined through :class:`RoomKey` — distinct from every
    chassis-only key by construction.
    """
    placement_digest = hashlib.sha256()
    placement_digest.update(
        np.ascontiguousarray(utilization, dtype=float).tobytes()
    )
    placement_digest.update(
        np.ascontiguousarray(dyn_max_w, dtype=float).tobytes()
    )
    detail = f"seed:{seed}|placement:{placement_digest.hexdigest()}"
    return config_key(
        _topology_for(room.chassis[0]),
        scaled(seed=seed),
        "room",
        BenchmarkSet.COMPUTATION,
        float(np.mean(utilization)),
        room=RoomKey(
            fingerprint=room.fingerprint(),
            crac_supply_c=float(crac_supply_c),
            detail=detail,
        ),
    )


def solve_room_cached(
    room: Room,
    utilization,
    dyn_max_w,
    crac_supply_c: float,
    seed: int = 0,
    mode: str = "batched",
    use_cache: bool = True,
    emit=None,
    **solve_kwargs,
) -> RoomSolution:
    """A :func:`~repro.room.model.solve_room` with shared-cache memoing.

    The capacity bisections below re-probe identical operating points
    across curve points and repeated experiment runs; the cache makes
    those free.  Cached solutions are keyed on the full room inputs
    (see :func:`room_solve_key`), never aliasing chassis sweep results.
    """
    util = np.asarray(utilization, dtype=float)
    if util.ndim == 0:
        util = np.full(room.n_chassis, float(util))
    dyn = np.asarray(dyn_max_w, dtype=float)
    if dyn.ndim == 0:
        dyn = np.full(room.n_chassis, float(dyn))
    key = room_solve_key(room, util, dyn, crac_supply_c, seed=seed)
    if use_cache:
        cached = shared_cache.get(key)
        if cached is not None:
            return cached
    solution = solve_room(
        room,
        util,
        dyn,
        crac_supply_c,
        seed=seed,
        mode=mode,
        emit=emit,
        **solve_kwargs,
    )
    if use_cache:
        shared_cache.put(key, solution)
    return solution


def max_sustainable_room_load(
    room: Room,
    crac_supply_c: float,
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    mode: str = "batched",
    use_cache: bool = True,
    emit=None,
) -> float:
    """Largest room utilisation with every steady chip under the limit.

    The room analogue of :func:`~repro.analysis.capacity.
    max_sustainable_utilization`: bisection over the *room* utilisation
    axis, where each probe places the load under ``placement``, solves
    the recirculation-coupled equilibrium, and checks the hottest chip
    in the room.

    Args:
        room: The chassis mix and recirculation coupling.
        crac_supply_c: CRAC supply temperature, degC.
        placement: A policy name from
            :data:`~repro.room.placement.ROOM_PLACEMENTS`.
        benchmark_set: Workload whose sustained power is applied.
        limit_c: Temperature ceiling; defaults to the DVFS limit of
            the shared parameter set.
        seed: Parameter seed.
        mode: Chassis evaluation mode (``"batched"`` / ``"serial"``).
        use_cache: Memoise probes into the shared sweep cache.
        emit: Optional telemetry sink threaded to every room solve.

    Returns:
        Room utilisation in [0, 1]; 1.0 means the limit never binds,
        0.0 means even the idle room violates it.

    Raises:
        RoomConvergenceError: when any probe's fixed point diverges —
            an unsustainable room configuration is reported loudly,
            not as a silently clipped curve.
    """
    params = scaled(seed=seed)
    ceiling = params.temperature_limit_c if limit_c is None else limit_c
    dynamic = sustained_dynamic_power_w(benchmark_set)

    def hottest(room_util: float) -> float:
        util = place_room_load(
            room,
            placement,
            room_util,
            crac_supply_c=crac_supply_c,
            dyn_max_w=dynamic,
            seed=seed,
            mode=mode,
        )
        solution = solve_room_cached(
            room,
            util,
            dynamic,
            crac_supply_c,
            seed=seed,
            mode=mode,
            use_cache=use_cache,
            emit=emit,
        )
        return float(solution.max_chip_c.max())

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
class RoomDeratingPoint:
    """Sustainable room load at one CRAC setpoint.

    Attributes:
        crac_supply_c: CRAC supply temperature, degC.
        max_utilization: Largest sustainable room utilisation.
    """

    crac_supply_c: float
    max_utilization: float


def room_derating_curve(
    room: Room,
    crac_setpoints_c: Sequence[float],
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    mode: str = "batched",
    use_cache: bool = True,
    emit=None,
) -> List[RoomDeratingPoint]:
    """Sustainable room load as a function of CRAC supply temperature.

    The room-level sustainable-load curve — the paper's chassis-inlet
    derating curve with recirculated exhaust in the loop.

    Raises:
        RoomError: for an empty setpoint list.
    """
    if not crac_setpoints_c:
        raise RoomError("derating curve needs >= 1 CRAC setpoint")
    return [
        RoomDeratingPoint(
            crac_supply_c=float(setpoint),
            max_utilization=max_sustainable_room_load(
                room,
                float(setpoint),
                placement=placement,
                benchmark_set=benchmark_set,
                limit_c=limit_c,
                seed=seed,
                mode=mode,
                use_cache=use_cache,
                emit=emit,
            ),
        )
        for setpoint in crac_setpoints_c
    ]


@dataclass(frozen=True)
class CracSetpointChoice:
    """Outcome of the CRAC setpoint search.

    Attributes:
        crac_supply_c: The chosen supply temperature, degC.
        max_utilization: Sustainable room load at that setpoint.
        meets_target: Whether the target utilisation is sustainable
            there.
    """

    crac_supply_c: float
    max_utilization: float
    meets_target: bool


def optimize_crac_setpoint(
    room: Room,
    crac_setpoints_c: Sequence[float],
    target_utilization: float,
    placement: str = "paper",
    benchmark_set: BenchmarkSet = BenchmarkSet.COMPUTATION,
    limit_c: Optional[float] = None,
    seed: int = 0,
    mode: str = "batched",
    use_cache: bool = True,
    emit=None,
) -> CracSetpointChoice:
    """The warmest CRAC setpoint that still sustains a target load.

    Joint cooling co-control: every degree of CRAC supply temperature
    is cooling energy saved, so among the candidate setpoints the
    search returns the *warmest* one whose sustainable load (subject
    to the redline ``limit_c``) still covers ``target_utilization``.
    When no setpoint sustains the target, the coldest candidate — the
    one with the largest sustainable load — is returned with
    ``meets_target=False`` so callers can derate explicitly rather
    than silently overcommit.

    Raises:
        RoomError: for an empty setpoint list or an out-of-range
            target.
    """
    if not crac_setpoints_c:
        raise RoomError("setpoint search needs >= 1 candidate")
    if not 0.0 <= target_utilization <= 1.0:
        raise RoomError("target utilisation must lie in [0, 1]")
    curve = room_derating_curve(
        room,
        crac_setpoints_c,
        placement=placement,
        benchmark_set=benchmark_set,
        limit_c=limit_c,
        seed=seed,
        mode=mode,
        use_cache=use_cache,
        emit=emit,
    )
    sustaining = [
        p for p in curve if p.max_utilization >= target_utilization
    ]
    if sustaining:
        best = max(sustaining, key=lambda p: p.crac_supply_c)
        return CracSetpointChoice(
            crac_supply_c=best.crac_supply_c,
            max_utilization=best.max_utilization,
            meets_target=True,
        )
    fallback = max(curve, key=lambda p: (p.max_utilization, -p.crac_supply_c))
    return CracSetpointChoice(
        crac_supply_c=fallback.crac_supply_c,
        max_utilization=fallback.max_utilization,
        meets_target=False,
    )
