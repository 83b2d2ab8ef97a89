"""Helpers shared by the benchmark's workloads.

Environment hygiene, child-process lifetime, percentiles, peak-memory
reads from ``/proc`` and the in-memory span recorder live here so the
workload modules only describe what they run and check.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Repository root: the benchmark runs from it.
ROOT = Path.cwd()

#: Where runs leave spans, telemetry and scratch files.
OUT_DIR = ROOT / ".perfbench"

#: The program's sources, relative to the checkout root.
SRC_DIR = ROOT / "src"


def clear_repro_env() -> List[str]:
    """Remove every ``REPRO_*`` variable; return the names found."""
    found = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in found:
        del os.environ[key]
    return found


def child_env() -> Dict[str, str]:
    """Environment for a fresh interpreter: no ``REPRO_*``, src on path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in 0..100."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, MB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _processes():
    """``(pid, state, ppid, pgrp)`` of every process, read from ``/proc``."""
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        yield int(entry.name), state, int(ppid), int(pgrp)


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    return [p for p, _, ppid, _ in _processes() if ppid == pid]


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    return [p for p, state, _, pgrp in _processes()
            if state != "Z" and pgrp == pgid]


class Children:
    """Every process the benchmark starts, each in its own session.

    A child's process group is its pid, and the fleet server's workers
    inherit it, so :meth:`reap` can stop a child together with whatever
    it forked, on every exit path.
    """

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []
        self.leaked = 0

    def spawn(self, args: Sequence[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(
            list(args),
            env=child_env(),
            cwd=str(ROOT),
            start_new_session=True,
            **kwargs,
        )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, grace_s: float = 10.0) -> None:
        """Interrupt ``proc``, wait, then kill its whole group."""
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=grace_s)
            except (subprocess.TimeoutExpired, ProcessLookupError):
                pass
        self._kill_group(proc)

    def _kill_group(self, proc: subprocess.Popen) -> None:
        members = group_members(proc.pid)
        if members:
            self.leaked += len([m for m in members if m != proc.pid])
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()
        deadline = time.monotonic() + 5.0
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)

    def reap(self) -> List[int]:
        """Stop everything still running; return pids that survived."""
        for proc in self.procs:
            self.stop(proc, grace_s=5.0)
        survivors = []
        for proc in self.procs:
            survivors.extend(group_members(proc.pid))
        return survivors


def run_child(
    children: Children, args: Sequence[str], timeout_s: float
) -> dict:
    """Run one fresh interpreter to completion; return its JSON line.

    The child prints one JSON object as its last stdout line.  A child
    that crashes or times out yields ``{"error": ...}`` instead.
    """
    proc = children.spawn(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        children.stop(proc)
        return {"error": f"timed out after {timeout_s:.0f} s"}
    children.stop(proc)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": tail[0]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unparseable child output: {lines[-1][:200]}"}


class Spans:
    """In-memory span recorder, written out once at the end of a run.

    A span has a name, start and end (host monotonic seconds), an id,
    its parent's id, and the id shared by every span of one request or
    sweep point (``trace_id``).
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: str,
        parent: Optional[str] = None,
        **attrs,
    ) -> str:
        span_id = f"{name}:{trace_id}:{len(self.spans)}"
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "trace_id": trace_id,
                **attrs,
            }
        )
        return span_id

    def extend(self, spans: Iterable[dict]) -> None:
        self.spans.extend(spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1))
