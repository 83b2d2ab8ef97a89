"""Real-process chaos: OS signals against a live fleet service.

The virtual-time harness (``repro fleet chaos``) pins the coordinator's
behaviour; these tests check the same resilience claims against real
worker processes, with SIGKILL and SIGSTOP sent by the OS.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.fleet.coordinator import FleetConfig
from repro.fleet.invariants import check_fleet_log
from repro.fleet.messages import AnswerStatus, PlacementQuery
from repro.fleet.registry import ChassisSpec, FleetRegistry, WorkerSpec
from repro.fleet.service import FleetService
from repro.fleet.supervision import SupervisionPolicy
from repro.obs.session import TelemetrySession

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)

HEARTBEAT_S = 0.2
#: Silence before SUSPECT (3 missed beats); twice it declares death.
DEADLINE_S = 3 * HEARTBEAT_S


def registry(chassis_ids):
    return FleetRegistry(
        chassis={
            cid: ChassisSpec(
                chassis_id=cid,
                n_rows=1,
                lanes_per_row=1,
                chain_length=2,
                sockets_per_cartridge_depth=2,
            )
            for cid in chassis_ids
        },
        workers=tuple(
            WorkerSpec(worker_id=f"{cid}-w0", chassis_id=cid)
            for cid in chassis_ids
        ),
    )


def make_service(chassis_ids, log_path, restart_backoff_s, **config_kw):
    return FleetService(
        registry(chassis_ids),
        policy=SupervisionPolicy(
            heartbeat_interval_s=HEARTBEAT_S,
            restart_backoff_s=restart_backoff_s,
            restart_backoff_cap_s=restart_backoff_s,
        ),
        config=FleetConfig(**config_kw),
        session=TelemetrySession(log_path),
    )


def place(chassis, power=8.0):
    return PlacementQuery(chassis=chassis, job_power_w=power)


async def until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_sigkill_under_load_restarts_without_spinning(tmp_path):
    log = tmp_path / "fleet.jsonl"

    async def scenario():
        service = make_service(
            ("c0", "c1"),
            log,
            restart_backoff_s=1.0,
            request_timeout_s=5.0,
            queue_timeout_s=20.0,
            log_heartbeats=False,
        )
        await service.start()
        states = service.coordinator.worker_states
        answers = []
        stop_load = asyncio.Event()

        async def load():
            k = 0
            while not stop_load.is_set():
                chassis = ("c0", "c1")[k % 2]
                answers.append(
                    asyncio.ensure_future(
                        service.submit(place(chassis, 5.0 + k % 7))
                    )
                )
                k += 1
                await asyncio.sleep(0.02)

        try:
            for chassis in ("c0", "c1"):
                warm = await asyncio.wait_for(
                    service.submit(place(chassis)), 30.0
                )
                assert warm.status is AnswerStatus.OK
            load_task = asyncio.ensure_future(load())
            await asyncio.sleep(0.2)
            killed = service.coordinator.handles["c0-w0"].pid
            os.kill(killed, signal.SIGKILL)
            await until(lambda: states()["c0-w0"] == "restarting")
            # Inside the 1 s backoff the dead worker's pipe is at EOF,
            # which reads as ready forever: watching it would spin.
            cpu0, wall0 = time.process_time(), time.monotonic()
            await asyncio.sleep(0.6)
            cpu = time.process_time() - cpu0
            wall = time.monotonic() - wall0
            assert states()["c0-w0"] == "restarting"
            await until(lambda: states()["c0-w0"] == "healthy")
            stop_load.set()
            await load_task
            after = await asyncio.wait_for(
                service.submit(place("c0")), 30.0
            )
            done = await asyncio.wait_for(asyncio.gather(*answers), 30.0)
        finally:
            await service.stop()
        return cpu, wall, after, done

    cpu, wall, after, done = asyncio.run(scenario())
    assert cpu < 0.3 * wall, f"{cpu:.3f} s CPU in {wall:.3f} s"
    assert after.status is AnswerStatus.OK
    assert {a.status for a in done} <= {
        AnswerStatus.OK,
        AnswerStatus.DEGRADED,
    }
    assert check_fleet_log(log) == []
    restarts = [
        e for e in read_events(log) if e["type"] == "fleet_restart"
    ]
    assert [e["worker"] for e in restarts] == ["c0-w0"]


def test_sigstop_is_caught_by_the_deadline_timer(tmp_path):
    log = tmp_path / "fleet.jsonl"

    async def scenario():
        # One worker and no load: once it is stopped, its pipe stays
        # silent, so only the deadline timer can move supervision on.
        service = make_service(
            ("c0",),
            log,
            restart_backoff_s=0.3,
            request_timeout_s=10.0,
            queue_timeout_s=20.0,
            log_heartbeats=True,
        )
        await service.start()
        states = service.coordinator.worker_states
        try:
            warm = await asyncio.wait_for(
                service.submit(place("c0")), 30.0
            )
            assert warm.status is AnswerStatus.OK
            stopped = service.coordinator.handles["c0-w0"].pid
            os.kill(stopped, signal.SIGSTOP)
            # One query goes to the stopped worker, one waits while
            # it is SUSPECT.
            sent = asyncio.ensure_future(service.submit(place("c0")))
            await until(lambda: states()["c0-w0"] == "suspect")
            queued = asyncio.ensure_future(service.submit(place("c0")))
            answers = await asyncio.wait_for(
                asyncio.gather(sent, queued), 30.0
            )
        finally:
            await service.stop()
        return stopped, answers

    stopped, answers = asyncio.run(scenario())
    assert {a.status for a in answers} <= {
        AnswerStatus.OK,
        AnswerStatus.DEGRADED,
    }
    with pytest.raises(ProcessLookupError):
        os.kill(stopped, 0)  # killed and reaped
    assert check_fleet_log(log) == []
    events = read_events(log)
    beats = [e["t"] for e in events if e["type"] == "fleet_heartbeat"]
    changes = {
        (e["old"], e["new"]): e["t"]
        for e in events
        if e["type"] == "fleet_worker_state"
    }
    last_beat = max(t for t in beats if t < changes["healthy", "suspect"])
    # Each transition fires just past its deadline.
    assert 0.0 < changes["healthy", "suspect"] - last_beat - DEADLINE_S < 0.1
    assert (
        0.0
        < changes["suspect", "restarting"] - last_beat - 2 * DEADLINE_S
        < 0.1
    )
    assert any(e["type"] == "fleet_restart" for e in events)
