"""The asyncio fleet service: real clock, real workers, TCP front.

:class:`FleetService` owns a
:class:`~repro.fleet.coordinator.FleetCoordinator` over real
:class:`~repro.fleet.worker.ProcessWorkerHandle` workers and drives it
with wall-clock ticks on the event loop.  All determinism-sensitive
logic lives in the coordinator; this module only supplies time, process
transport and an optional JSON-lines TCP front end (``repro fleet
serve`` / ``repro fleet query``).

Wire protocol (one JSON object per line, newline-terminated)::

    -> {"kind": "placement", "chassis": "c0", "job_power_w": 12.0}
    <- {"request_id": 0, "status": "ok", "payload": {...}, ...}

    -> {"kind": "what_if", "chassis": "c1",
        "scenarios": [[0.5, 10.0], [0.9, 14.0]]}
    <- {"request_id": 1, "status": "ok", "payload": {...}, ...}

Backpressure is visible on the wire: a shed request answers with
``"status": "shed"`` (the 503 of this protocol) instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional

from ..errors import FleetError
from .coordinator import FleetConfig, FleetCoordinator
from .messages import (
    FleetAnswer,
    PlacementQuery,
    RequestClass,
    WhatIfQuery,
)
from .registry import FleetRegistry
from .supervision import SupervisionPolicy
from .worker import ProcessWorkerHandle


def _request_class(obj: dict, default: RequestClass) -> RequestClass:
    """Parse ``request_class`` strictly — unknown strings are rejected.

    Rejection is explicit and typed (not a silent fallback to a
    default class, which would let a typo like ``"bulk"`` quietly jump
    the shedding queue or get shed first).
    """
    raw = obj.get("request_class", default.value)
    try:
        return RequestClass(str(raw))
    except ValueError as exc:
        valid = "/".join(repr(c.value) for c in RequestClass)
        raise FleetError(
            f"unknown request_class {raw!r} (want {valid})"
        ) from exc


def query_from_json(obj: dict):
    """Build a fleet query from its wire representation.

    Raises:
        FleetError: for an unknown kind, an unknown request class or a
            malformed payload.
    """
    if not isinstance(obj, dict):
        raise FleetError("query must be a JSON object")
    kind = obj.get("kind")
    if kind == "placement":
        cls = _request_class(obj, RequestClass.INTERACTIVE)
    elif kind == "what_if":
        cls = _request_class(obj, RequestClass.BATCH)
    try:
        if kind == "placement":
            utilization = obj.get("utilization")
            return PlacementQuery(
                chassis=str(obj["chassis"]),
                job_power_w=float(obj["job_power_w"]),
                utilization=(
                    tuple(float(u) for u in utilization)
                    if utilization is not None
                    else None
                ),
                request_class=cls,
            )
        if kind == "what_if":
            return WhatIfQuery(
                chassis=str(obj["chassis"]),
                scenarios=tuple(
                    (float(u), float(p))
                    for u, p in obj["scenarios"]
                ),
                window_steps=int(obj.get("window_steps", 0)),
                request_class=cls,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed {kind!r} query: {exc}") from exc
    raise FleetError(
        f"unknown query kind {kind!r} (want 'placement' or 'what_if')"
    )


class FleetService:
    """Drive a fleet of process workers on the asyncio event loop.

    Attributes:
        registry: The fleet layout to serve.
        coordinator: The deterministic core (constructed on start).
    """

    def __init__(
        self,
        registry: FleetRegistry,
        policy: Optional[SupervisionPolicy] = None,
        config: Optional[FleetConfig] = None,
        checkpoint_dir: Optional[str] = None,
        session=None,
        tick_interval_s: float = 0.05,
    ) -> None:
        if tick_interval_s <= 0:
            raise FleetError("tick interval must be positive")
        self.registry = registry
        self.policy = policy or SupervisionPolicy()
        # Long-running service: heartbeat events would dominate the
        # log, so they default off here (chaos runs keep them on).
        self.config = config or FleetConfig(log_heartbeats=False)
        self.checkpoint_dir = checkpoint_dir
        self.session = session
        self.tick_interval_s = tick_interval_s
        self.coordinator: Optional[FleetCoordinator] = None
        self._epoch: Optional[float] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._waiters: Dict[int, asyncio.Future] = {}

    def _now(self) -> float:
        if self._epoch is None:
            raise FleetError("service not started")
        return time.monotonic() - self._epoch

    async def start(self) -> None:
        """Start workers and the background tick loop."""
        if self.coordinator is not None:
            raise FleetError("service already started")
        self._epoch = time.monotonic()
        handles = {
            w.worker_id: ProcessWorkerHandle(
                spec=self.registry.spec_for_worker(w.worker_id),
                worker_id=w.worker_id,
                heartbeat_interval_s=self.policy.heartbeat_interval_s,
                checkpoint_dir=self.checkpoint_dir,
            )
            for w in self.registry.workers
        }
        self.coordinator = FleetCoordinator(
            registry=self.registry,
            handles=handles,
            policy=self.policy,
            config=self.config,
            session=self.session,
        )
        self.coordinator.start(self._now())
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.tick_interval_s)
            self.coordinator.tick(self._now())

    async def submit(self, query) -> FleetAnswer:
        """Admit one query and await its terminal answer."""
        if self.coordinator is None:
            raise FleetError("service not started")
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()

        def resolve(answer: FleetAnswer) -> None:
            if not future.done():
                future.set_result(answer)

        self.coordinator.submit(query, self._now(), callback=resolve)
        return await future

    async def stop(self) -> None:
        """Resolve stragglers, stop workers, close the log."""
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self.coordinator is not None:
            self.coordinator.finish(self._now())
        if self.session is not None:
            self.session.close()

    async def handle_connection(self, reader, writer) -> None:
        """Serve one JSON-lines client connection."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    query = query_from_json(json.loads(line))
                except (json.JSONDecodeError, FleetError) as exc:
                    writer.write(
                        json.dumps(
                            {"status": "error", "reason": str(exc)}
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    continue
                answer = await self.submit(query)
                writer.write(
                    json.dumps(answer.to_dict(), sort_keys=True).encode()
                    + b"\n"
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def serve(self, host: str = "127.0.0.1", port: int = 7781):
        """Open the TCP front; returns the asyncio server."""
        if self.coordinator is None:
            await self.start()
        return await asyncio.start_server(
            self.handle_connection, host=host, port=port
        )


async def query_fleet(
    obj: dict, host: str = "127.0.0.1", port: int = 7781
) -> dict:
    """Send one wire-format query to a running service."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise FleetError("fleet service closed the connection")
        return json.loads(line)
    finally:
        writer.close()
