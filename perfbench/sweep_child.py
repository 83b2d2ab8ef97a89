"""One measurement of the ``sweeps`` workload in a fresh interpreter.

Usage: ``python3 perfbench/sweep_child.py MODE SEED T_SPAWN``

``MODE`` is ``setup`` (import and build only), ``sweep`` (the untraced
``ExperimentConfig.sweep`` calls, with the host-speed anchor run before
the first point and after every point) or ``traced`` (the same grids
with ``profile=True``, per-point boundaries and timed arrival
generation).
``T_SPAWN`` is the parent's ``time.monotonic()`` just before spawning,
so set-up is measured from process start.  The last stdout line is a
JSON object.
"""

import json
import os
import sys
import time

from common import vm_hwm_mb

#: The grids, run in this order: placement is under 10% of step time
#: in the first, and CP scoring about half of it in the second.
GRIDS = (
    ("physics", ("CF", "HF", "Balanced"), ("Computation", "Storage"),
     (0.3, 0.7)),
    ("cp", ("CP", "Predictive"), ("Computation",), (0.7, 0.9)),
)

#: Engine components whose self time the traced run reports.
COMPONENTS = (
    "ArrivalAdmitter",
    "Placer",
    "PowerManager",
    "WorkRetirer",
    "ThermalUpdater",
    "MetricsAccumulator",
)


#: Host-speed anchor: a fixed, benchmark-owned kernel that never calls
#: the program.  It runs before the first point, after every point and
#: after each grid; each stretch of sweep time between two passes is
#: scaled by ``ANCHOR_REF_S`` over the mean of those two passes, so the
#: sweep reads in seconds of a host on which one pass takes
#: ``ANCHOR_REF_S``.  That cancels the shared host's speed drift, within
#: a run and between runs, while a change to the program moves the
#: scaled time as much as the raw one.  A pass is Python-level steps
#: over 36-element arrays (the engine's kind of work, about a quarter
#: of the pass) then vectorised ``exp`` and ``sum`` over a
#: 200 000-element array: alone, the first moved 1.4-1.8 times as
#: much as the engine when the host's speed drifted, the second about
#: as much, and the mix tracked the engine best.
ANCHOR_SMALL_STEPS = 5000
ANCHOR_LARGE_PASSES = 60
ANCHOR_REF_S = 0.14


def anchor() -> float:
    """Seconds one pass of the host-speed anchor takes."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.1, 1.0, 36)
    y = x[::-1].copy()
    acc = 0.0
    seen = {}
    for i in range(ANCHOR_SMALL_STEPS):
        z = np.exp(-0.01 * x) * y + x
        x = np.minimum(z, 2.0) * 0.5
        acc += float(z.sum())
        seen[i % 97] = acc
        if z[i % 36] > 1.5:
            acc -= 1.0
    big = np.linspace(0.0, 1.0, 200_000)
    for _ in range(ANCHOR_LARGE_PASSES):
        acc += float(np.exp(-big).sum())
    return time.perf_counter() - t0


class Anchors:
    """Anchor passes of one run and the sweep time scaled by them."""

    def __init__(self) -> None:
        self.passes = []  # (perf_counter at start, seconds)
        self.windows = []  # (start, end) of each timed sweep call

    def run(self) -> None:
        start = time.perf_counter()
        self.passes.append((start, anchor()))

    def seconds(self) -> list:
        return [seconds for _, seconds in self.passes]

    def inside(self, start: float, end: float) -> float:
        """Anchor time spent between ``start`` and ``end``."""
        return sum(s for t, s in self.passes if start <= t < end)

    def scaled(self) -> float:
        """Sweep time between passes, each stretch scaled by its passes."""
        total = 0.0
        for (t0, s0), (t1, s1) in zip(self.passes, self.passes[1:]):
            gap = (t0 + s0, t1)
            work = sum(max(0.0, min(gap[1], end) - max(gap[0], start))
                       for start, end in self.windows)
            total += work * ANCHOR_REF_S / ((s0 + s1) / 2.0)
        return total

    def after_every_point(self) -> None:
        """Run a pass each time the sweep harness stores a finished point.

        ``ExperimentConfig.sweep`` memoises into the process-wide
        ``repro.sim.parallel.shared_cache``; replacing it in this fresh
        interpreter (whose cache is empty) hooks the stores without
        changing what the sweep runs.
        """
        from repro.sim import parallel

        anchors = self

        class AnchoredCache(parallel.SweepCache):
            def put(self, key, result) -> None:
                super().put(key, result)
                anchors.run()

        parallel.shared_cache = AnchoredCache()


def point_label(name, benchmark_set, load) -> str:
    return f"{name}|{benchmark_set.value}|{load}"


def sanity_problem(result) -> str:
    """A reason the result is implausible, or ``""`` when it is fine."""
    import math

    if result.n_jobs_submitted <= 0:
        return "no jobs submitted"
    if not math.isfinite(result.energy_j) or result.energy_j <= 0:
        return f"energy {result.energy_j!r}"
    if len(result.completed_jobs) > result.n_jobs_submitted:
        return "more jobs completed than submitted"
    for job in result.completed_jobs:
        if not job.arrival_s <= job.start_s <= job.finish_s:
            return f"job {job.job_id} has start/finish out of order"
    return ""


def main(mode: str, seed: int, t_spawn: float) -> dict:
    from repro.experiments.common import ExperimentConfig
    from repro.sim.fingerprint import result_fingerprint
    from repro.workloads.benchmark import BenchmarkSet

    config = ExperimentConfig(seed=seed, profile=(mode == "traced"))
    t0 = time.perf_counter()
    config.topology()
    topology_s = time.perf_counter() - t0
    config.parameters()
    ready = time.monotonic()
    out = {"setup_s": ready - t_spawn, "topology_s": topology_s}
    if mode == "setup":
        return out

    results = {}
    walls = {}
    trace = Trace() if mode == "traced" else None
    anchors = Anchors() if trace is None else None
    if anchors is not None:
        anchors.after_every_point()
        anchor()  # warm-up
        anchors.run()
    for grid, names, set_names, loads in GRIDS:
        sets = tuple(BenchmarkSet(s) for s in set_names)
        if anchors is not None:
            t0 = time.perf_counter()
            results.update(config.sweep(names, sets, loads))
            t1 = time.perf_counter()
            anchors.windows.append((t0, t1))
            # The anchor passes run inside the call are not sweep time.
            walls[grid] = t1 - t0 - anchors.inside(t0, t1)
            anchors.run()
        else:
            grid_results, walls[grid] = trace.sweep(config, names, sets,
                                                    loads)
            results.update(grid_results)
    out["walls_s"] = walls
    out["wall_s"] = sum(walls.values())
    if anchors is not None:
        out["anchors_s"] = anchors.seconds()
        out["scaled_wall_s"] = anchors.scaled()
    if trace is not None:
        out["layers"] = trace.layers(out["wall_s"])
        out["spans"] = trace.spans
    out["fingerprints"] = {
        point_label(*point): result_fingerprint(result)
        for point, result in results.items()
    }
    out["problems"] = {
        point_label(*point): problem
        for point, result in results.items()
        if (problem := sanity_problem(result))
    }
    out["peak_rss_mb"] = vm_hwm_mb(os.getpid())
    return out


class Trace:
    """Per-layer accounting of traced sweep calls, and their spans.

    Arrival generation is timed by repeating each point's public,
    deterministic ``ArrivalProcess.generate`` call before the sweep.
    Point boundaries come from a benchmark-owned ``SweepCache``: the
    serial harness looks every point up before running and stores each
    result as it finishes.  Engine and component times come from each
    result's ``RunProfile``.
    """

    def __init__(self) -> None:
        self.spans = []
        self.arrivals_s = 0.0
        self.jobs = 0
        self.engine_s = 0.0
        self.steps = 0
        self.components = dict.fromkeys(COMPONENTS, 0.0)
        self.select_calls = 0
        self.select_s = 0.0

    def sweep(self, config, names, sets, loads):
        """One traced sweep call; returns its results and wall time."""
        from repro.sim.parallel import SweepCache
        from repro.sim.runner import run_sweep
        from repro.workloads.arrivals import ArrivalProcess

        params = config.parameters()
        n_sockets = config.topology().n_sockets
        points = [(n, s, l) for s in sets for l in loads for n in names]
        for name, benchmark_set, load in points:
            label = point_label(name, benchmark_set, load)
            t0 = time.monotonic()
            jobs = ArrivalProcess(
                benchmark_set=benchmark_set,
                load=load,
                n_sockets=n_sockets,
                seed=params.seed,
                duration_scale=params.duration_scale,
            ).generate(params.sim_time_s)
            t1 = time.monotonic()
            self.arrivals_s += t1 - t0
            self.jobs += len(jobs)
            self.spans.append(
                {"id": f"arrivals:{label}", "name": "arrivals", "start": t0,
                 "end": t1, "parent": f"point:{label}", "trace_id": label,
                 "jobs": len(jobs)}
            )

        class BoundaryCache(SweepCache):
            """Records when the harness stores each finished point."""

            def __init__(self) -> None:
                super().__init__()
                self.stored = []

            def put(self, key, result) -> None:
                self.stored.append(time.monotonic())
                super().put(key, result)

        cache = BoundaryCache()
        t_call = time.monotonic()
        # Same arguments as ExperimentConfig.sweep, with the topology and
        # parameters built inside the timed call as it does.
        results = run_sweep(
            config.topology(),
            config.parameters(),
            names,
            sets,
            loads,
            max_workers=1,
            cache=cache,
            profile=True,
            stepping=config.stepping,
            backend=config.backend,
        )
        t_end = time.monotonic()
        sweep_id = f"sweep:{'+'.join(names)}"
        self.spans.append(
            {"id": sweep_id, "name": "sweep", "start": t_call, "end": t_end,
             "parent": None, "trace_id": sweep_id}
        )
        start = t_call
        for point, end in zip(points, cache.stored):
            profile = results[point].profile
            label = point_label(*point)
            self.spans.append(
                {"id": f"point:{label}", "name": "point", "start": start,
                 "end": end, "parent": sweep_id, "trace_id": label}
            )
            # The engine span ends where the harness stored the result;
            # its length is the profile's engine time.
            self.spans.append(
                {"id": f"engine:{label}", "name": "engine",
                 "start": end - profile.engine_elapsed_s, "end": end,
                 "parent": f"point:{label}", "trace_id": label,
                 "steps": profile.n_steps,
                 "components": {c.name: c.total_s
                                for c in profile.components}}
            )
            start = end
            self.engine_s += profile.engine_elapsed_s
            self.steps += profile.n_steps
            for entry in profile.components:
                if entry.name in self.components:
                    self.components[entry.name] += entry.total_s
            for bucket in profile.buckets:
                if bucket.name.startswith("place:"):
                    self.select_calls += bucket.calls
                    self.select_s += bucket.total_s
        return results, t_end - t_call

    def layers(self, wall_s: float) -> dict:
        return {
            "workloads.arrivals_s": self.arrivals_s,
            "workloads.jobs": self.jobs,
            "sim.engine_s": self.engine_s,
            "sim.steps": self.steps,
            **{f"sim.{name}_s": total
               for name, total in self.components.items()},
            "core.select_calls": self.select_calls,
            "core.select_us_mean": (
                1e6 * self.select_s / self.select_calls
                if self.select_calls else 0.0
            ),
            "sim.outside_engine_s": wall_s - self.engine_s - self.arrivals_s,
        }


if __name__ == "__main__":
    mode, seed, t_spawn = sys.argv[1:4]
    print(json.dumps(main(mode, int(seed), float(t_spawn))))
