"""Process-worker and asyncio service tests (real time, real pipes)."""

import asyncio
import json
import multiprocessing
import os
import signal
import statistics
import threading
import time

import pytest

from repro.errors import FleetError
from repro.fleet.compute import ChassisSnapshot
from repro.fleet.coordinator import FleetConfig
from repro.fleet.messages import PlacementQuery
from repro.fleet.registry import (
    ChassisSpec,
    FleetRegistry,
    WorkerSpec,
)
from repro.fleet.service import (
    FleetService,
    query_fleet,
    query_from_json,
)
from repro.fleet.supervision import SupervisionPolicy
from repro.fleet.worker import (
    ProcessWorkerHandle,
    snapshot_key,
    worker_main,
)

SPEC = ChassisSpec(
    chassis_id="c0",
    n_rows=1,
    lanes_per_row=1,
    chain_length=2,
    sockets_per_cartridge_depth=2,
)

REGISTRY = FleetRegistry(
    chassis={"c0": SPEC},
    workers=(WorkerSpec(worker_id="c0-w0", chassis_id="c0"),),
)


def drain(conn, timeout_s=10.0, until=None):
    """Collect messages from a worker pipe until a predicate matches."""
    messages = []
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if conn.poll(0.05):
            messages.append(conn.recv())
            if until is not None and until(messages[-1]):
                return messages
    raise AssertionError(f"timed out; got {messages}")


def wait_stopped(pid, timeout_s=5.0):
    """Wait until ``pid`` is in the stopped (``T``) state."""
    stat = f"/proc/{pid}/stat"
    if not os.path.exists(stat):
        time.sleep(0.2)
        return
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with open(stat) as handle:
            if handle.read().rsplit(")", 1)[1].split()[0] == "T":
                return
        time.sleep(0.005)
    raise AssertionError(f"process {pid} never stopped")


class TestWorkerMain:
    def run_worker(self, checkpoint_dir=None):
        parent, child = multiprocessing.Pipe(duplex=True)
        thread = threading.Thread(
            target=worker_main,
            args=(child, SPEC, "c0-w0", 0.2, checkpoint_dir),
            daemon=True,
        )
        thread.start()
        return parent, thread

    def test_hello_snapshot_heartbeat_and_answer(self):
        parent, thread = self.run_worker()
        messages = drain(parent, until=lambda m: m[0] == "heartbeat")
        kinds = [m[0] for m in messages]
        assert kinds[0] == "hello"
        assert messages[0][1] is False  # warm start (no checkpoint)
        assert "snapshot" in kinds
        parent.send(
            (
                "request",
                7,
                PlacementQuery(chassis="c0", job_power_w=5.0),
            )
        )
        messages = drain(parent, until=lambda m: m[0] == "answer")
        answer = messages[-1]
        assert answer[1] == 7
        assert answer[2]["socket"] in (0, 1)
        parent.send(("stop",))
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_corrupt_checkpoint_recovers_cold(self, tmp_path):
        from repro.sim.checkpoint import CHECKPOINT_SUFFIX

        poison = tmp_path / f"{snapshot_key('c0-w0')}{CHECKPOINT_SUFFIX}"
        poison.write_bytes(b"\x80garbage")
        parent, thread = self.run_worker(checkpoint_dir=str(tmp_path))
        messages = drain(parent, until=lambda m: m[0] == "snapshot")
        hello = messages[0]
        assert hello[0] == "hello"
        assert hello[1] is True  # cold: the checkpoint was corrupt
        # The poisoned file was dropped and replaced by a fresh,
        # valid snapshot.
        import pickle

        recovered = pickle.loads(poison.read_bytes())
        assert isinstance(recovered, ChassisSnapshot)
        parent.send(("stop",))
        thread.join(timeout=5.0)

    def test_warm_recovery_reuses_checkpointed_snapshot(self, tmp_path):
        from repro.sim.checkpoint import SweepCheckpoint

        checkpoint = SweepCheckpoint(
            tmp_path, expected_type=ChassisSnapshot
        )
        canned = ChassisSnapshot(
            chassis_id="c0",
            t=42.0,
            utilization=(0.1, 0.2),
            chip_c=(30.0, 31.0),
            power_w=(10.0, 11.0),
        )
        checkpoint.save(snapshot_key("c0-w0"), canned)
        parent, thread = self.run_worker(checkpoint_dir=str(tmp_path))
        messages = drain(parent, until=lambda m: m[0] == "snapshot")
        assert messages[0][1] is False  # warm
        snap = messages[-1][1]
        assert snap.t == 42.0  # recovered, not recomputed
        parent.send(("stop",))
        thread.join(timeout=5.0)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
class TestProcessWorkerHandle:
    def test_round_trip_and_exit_reporting(self):
        handle = ProcessWorkerHandle(
            spec=SPEC, worker_id="c0-w0", heartbeat_interval_s=0.2
        )
        assert handle.start(0.0) is None  # cold flag arrives in hello
        try:
            messages = []
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                messages.extend(handle.poll(0.0))
                if any(m[0] == "hello" for m in messages):
                    break
                time.sleep(0.05)
            assert any(m[0] == "hello" for m in messages)
            handle.send(
                1,
                PlacementQuery(chassis="c0", job_power_w=4.0),
                0.0,
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                messages.extend(handle.poll(0.0))
                if any(m[0] == "answer" for m in messages):
                    break
                time.sleep(0.05)
            answers = [m for m in messages if m[0] == "answer"]
            assert answers and answers[0][1] == 1
        finally:
            handle.stop(0.0)
        # After stop, poll is inert and safe.
        assert handle.poll(0.0) == []


    def await_message(self, handle, kind, timeout_s=10.0):
        messages = []
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            messages.extend(handle.poll(0.0))
            if any(m[0] == kind for m in messages):
                return messages
            time.sleep(0.01)
        raise AssertionError(f"no {kind!r} message; got {messages}")

    def test_stop_kills_a_stopped_worker_promptly(self):
        handle = ProcessWorkerHandle(
            spec=SPEC, worker_id="c0-w0", heartbeat_interval_s=0.2
        )
        handle.start(0.0)
        pid = handle.pid
        try:
            self.await_message(handle, "hello")
            os.kill(pid, signal.SIGSTOP)
            wait_stopped(pid)
            t0 = time.monotonic()
            handle.stop(0.0)
            elapsed = time.monotonic() - t0
            # Reaped: the pid is gone, not a zombie or a stopped child.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
            assert elapsed < 0.5
        finally:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def test_eof_reports_exit_once_and_drops_the_pipe(self):
        seen = []
        handle = ProcessWorkerHandle(
            spec=SPEC,
            worker_id="c0-w0",
            heartbeat_interval_s=0.2,
            on_pipe=seen.append,
        )
        handle.start(0.0)
        try:
            assert seen == [handle.pipe_fd] and seen[0] is not None
            self.await_message(handle, "hello")
            os.kill(handle.pid, signal.SIGKILL)
            messages = self.await_message(handle, "exit")
            assert messages[-1] == ("exit",)
            assert handle.pipe_fd is None
            assert seen[1:] == [None]
            # An EOF pipe reads as ready forever; poll must not.
            assert handle.poll(0.0) == []
        finally:
            handle.stop(0.0)
        assert seen[1:] == [None]


class TestQueryFromJson:
    def test_placement_parsed(self):
        query = query_from_json(
            {
                "kind": "placement",
                "chassis": "c0",
                "job_power_w": 9.0,
            }
        )
        assert isinstance(query, PlacementQuery)
        assert query.job_power_w == 9.0

    def test_what_if_parsed(self):
        query = query_from_json(
            {
                "kind": "what_if",
                "chassis": "c0",
                "scenarios": [[0.5, 10.0]],
            }
        )
        assert query.scenarios == ((0.5, 10.0),)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "mystery"},
            {"kind": "placement"},
            {"kind": "placement", "chassis": "c0", "job_power_w": "x"},
            "not an object",
        ],
    )
    def test_malformed_queries_rejected(self, obj):
        with pytest.raises(FleetError):
            query_from_json(obj)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs process workers",
)
class TestFleetService:
    def test_end_to_end_over_tcp(self):
        async def scenario():
            service = FleetService(
                REGISTRY,
                policy=SupervisionPolicy(heartbeat_interval_s=0.2),
                config=FleetConfig(
                    request_timeout_s=15.0,
                    queue_timeout_s=30.0,
                    log_heartbeats=False,
                ),
            )
            server = await service.serve(host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                answer = await asyncio.wait_for(
                    query_fleet(
                        {
                            "kind": "placement",
                            "chassis": "c0",
                            "job_power_w": 6.0,
                        },
                        port=port,
                    ),
                    timeout=30.0,
                )
            finally:
                server.close()
                await server.wait_closed()
                await service.stop()
            return answer

        answer = asyncio.run(scenario())
        assert answer["status"] == "ok"
        assert answer["payload"]["socket"] in (0, 1)
        assert answer["attempts"] == 1

    def test_submit_direct(self):
        async def scenario():
            service = FleetService(
                REGISTRY,
                policy=SupervisionPolicy(heartbeat_interval_s=0.2),
                config=FleetConfig(
                    request_timeout_s=15.0,
                    queue_timeout_s=30.0,
                    log_heartbeats=False,
                ),
            )
            await service.start()
            try:
                return await asyncio.wait_for(
                    service.submit(
                        PlacementQuery(chassis="c0", job_power_w=3.0)
                    ),
                    timeout=30.0,
                )
            finally:
                await service.stop()

        answer = asyncio.run(scenario())
        assert answer.status.value == "ok"

    def test_sequential_latency_is_not_tick_bound(self):
        """20 placements over one connection answer at p50 < 20 ms.

        The heartbeat is slow (5 s), so heartbeats do not wake the
        service: answers must be dispatched on submit and drained when
        the worker pipe turns readable, not on a polling cadence.
        """

        async def scenario():
            service = FleetService(
                REGISTRY,
                policy=SupervisionPolicy(heartbeat_interval_s=5.0),
                config=FleetConfig(log_heartbeats=False),
            )
            server = await service.serve(host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )

            async def place(power):
                writer.write(
                    json.dumps(
                        {
                            "kind": "placement",
                            "chassis": "c0",
                            "job_power_w": power,
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 30.0)
                return json.loads(line)

            latencies = []
            try:
                assert (await place(5.0))["status"] == "ok"  # warm-up
                for k in range(20):
                    t0 = time.perf_counter()
                    answer = await place(4.0 + 0.5 * k)
                    latencies.append(time.perf_counter() - t0)
                    assert answer["status"] == "ok"
            finally:
                writer.close()
                server.close()
                await server.wait_closed()
                await service.stop()
            return latencies

        latencies = asyncio.run(scenario())
        assert statistics.median(latencies) < 0.020
