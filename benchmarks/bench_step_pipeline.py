"""Lockstep engine throughput: a 12-point batch against single runs.

Runs twelve points of the 180-socket Moonshot SUT (three schedulers x
two benchmark sets x two loads) once each as batches of one and once
as a single lockstep batch, and reports absolute point-steps per
second for both.  The batch must

- reproduce every point bit for bit (each batch point's fingerprint
  equals its single run), and
- clear the per-point throughput floor: the batch's point-steps/s
  over the single runs' must reach ``BENCH_MIN_BATCH_SPEEDUP``
  (default 2.0 locally; the CI smoke uses a sanity threshold because
  shared runners time noisily).

A second test pins the profiler's cost on a single run under 2%.

The measurements are written as BENCH JSON: one ``BENCH {...}`` line
on stdout per test and ``benchmarks/results/step_pipeline.json`` /
``profiler_overhead.json`` on disk.
"""

import os

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.server.topology import moonshot_sut
from repro.sim.engine import Simulation, run_lockstep
from repro.sim.fingerprint import result_fingerprint
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet

from _timing import (
    ADAPTIVE_ROUNDS_MAX,
    ADAPTIVE_ROUNDS_MIN,
    alternating_best_of,
    write_bench_json,
)

#: Required batch-vs-single per-point throughput.  Measured 2.1-2.6x on
#: a 2-core VM; CI smoke overrides this with a lower sanity threshold
#: because shared runners time noisily.
MIN_BATCH_SPEEDUP = float(os.environ.get("BENCH_MIN_BATCH_SPEEDUP", "2.0"))

#: Maximum tolerated profiling slowdown (fraction).  The chained
#: timestamp scheme costs about one clock read per component hook per
#: step; 0.02 is the observability layer's acceptance target on an
#: idle machine, relaxable for noisy shared CI runners.
MAX_PROFILE_OVERHEAD = float(
    os.environ.get("BENCH_MAX_PROFILE_OVERHEAD", "0.02")
)

SEED = 7
LOAD = 0.6

#: The batch: (scheduler, benchmark set, load).
POINTS = [
    (name, benchmark_set, load)
    for benchmark_set in (BenchmarkSet.COMPUTATION, BenchmarkSet.STORAGE)
    for load in (0.3, LOAD)
    for name in ("CF", "HF", "Balanced")
]


def _jobs(topology, params, benchmark_set, load):
    return ArrivalProcess(
        benchmark_set=benchmark_set,
        load=load,
        n_sockets=topology.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    ).generate(params.sim_time_s)


def _workload():
    topology = moonshot_sut(n_rows=15)
    params = smoke(seed=SEED)
    n_steps = int(round(params.sim_time_s / params.power_manager_interval_s))
    return topology, params, n_steps


def test_lockstep_throughput(record_artifact):
    topology, params, n_steps = _workload()
    # Each variant owns its job objects: runs mutate their jobs, so a
    # shared stream would let one variant's run rewrite the other's
    # results before they are compared.
    streams = {
        variant: [_jobs(topology, params, s, load) for _, s, load in POINTS]
        for variant in ("single", "batch")
    }

    def simulations():
        return [
            Simulation(topology, params, get_scheduler(name))
            for name, _, _ in POINTS
        ]

    def single():
        return [
            sim.run(jobs)
            for sim, jobs in zip(simulations(), streams["single"])
        ]

    def batch():
        return run_lockstep(zip(simulations(), streams["batch"]))

    best, results, rounds = alternating_best_of(
        {"single": single, "batch": batch},
        stop=lambda floors: (
            floors["single"] / floors["batch"] >= MIN_BATCH_SPEEDUP
        ),
        rounds_min=3,
        rounds_max=10,
    )
    point_steps = len(POINTS) * n_steps
    single_rate = point_steps / best["single"]
    batch_rate = point_steps / best["batch"]

    # Lockstep is an execution strategy, not a model change: every
    # point replays its single run bit for bit.
    for point, alone, batched in zip(
        POINTS, results["single"], results["batch"]
    ):
        assert result_fingerprint(batched) == result_fingerprint(
            alone
        ), point

    speedup = batch_rate / single_rate
    payload = {
        "benchmark": "step_pipeline",
        "n_sockets": topology.n_sockets,
        "n_steps": n_steps,
        "n_points": len(POINTS),
        "points": [
            f"{name}|{benchmark_set.value}|{load}"
            for name, benchmark_set, load in POINTS
        ],
        "seed": SEED,
        "rounds": rounds,
        "single_point_steps_per_s": round(single_rate, 1),
        "batch_point_steps_per_s": round(batch_rate, 1),
        "batch_speedup": round(speedup, 3),
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
    }
    line = write_bench_json("step_pipeline.json", payload)
    record_artifact("step_pipeline", line + "\n")

    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"a {len(POINTS)}-point lockstep batch reached only "
        f"{speedup:.2f}x the single runs' per-point throughput "
        f"(required {MIN_BATCH_SPEEDUP}x): {line}"
    )


def test_profiling_overhead(record_artifact):
    """StepProfiler must cost < 2% wall-clock on the full 180-socket SUT
    and leave the float trajectory untouched."""
    from repro.sim.fingerprint import result_fingerprint

    topology, params, n_steps = _workload()
    jobs = _jobs(topology, params, BenchmarkSet.COMPUTATION, LOAD)

    # Interference spikes (neighbour load, GC) inflate individual runs
    # by 5-15% — an order of magnitude more than the effect under
    # measurement — so means and medians are useless here; only the
    # noise *floor* is stable.  Alternating the variants run by run
    # gives both the same shot at quiet windows, and the best-of ratio
    # then isolates the instrumentation cost.
    def _run(**kwargs):
        sim = Simulation(topology, params, get_scheduler("CF"), **kwargs)
        return sim.run(list(jobs))

    best, results, rounds = alternating_best_of(
        {
            "plain": lambda: _run(),
            "profiled": lambda: _run(profile=True),
        },
        stop=lambda floors: (
            floors["profiled"] / floors["plain"] - 1.0
            < MAX_PROFILE_OVERHEAD
        ),
        rounds_min=ADAPTIVE_ROUNDS_MIN,
        rounds_max=ADAPTIVE_ROUNDS_MAX,
    )
    overhead = best["profiled"] / best["plain"] - 1.0
    plain_rate = n_steps / best["plain"]
    profiled_rate = n_steps / best["profiled"]
    plain_result = results["plain"]
    profiled_result = results["profiled"]

    # Profiling is strictly observational: bit-identical trajectory.
    assert result_fingerprint(profiled_result) == result_fingerprint(
        plain_result
    )
    profile = profiled_result.profile
    assert profile is not None
    assert profile.n_steps == n_steps

    payload = {
        "benchmark": "profiler_overhead",
        "n_sockets": topology.n_sockets,
        "n_steps": n_steps,
        "scheduler": "CF",
        "load": LOAD,
        "seed": SEED,
        "rounds": rounds,
        "plain_steps_per_s": round(plain_rate, 1),
        "profiled_steps_per_s": round(profiled_rate, 1),
        "overhead": round(overhead, 4),
        "max_overhead": MAX_PROFILE_OVERHEAD,
    }
    line = write_bench_json("profiler_overhead.json", payload)
    print(profile.render())
    record_artifact(
        "profiler_overhead", line + "\n\n" + profile.render() + "\n"
    )

    assert overhead < MAX_PROFILE_OVERHEAD, (
        f"profiling cost {overhead * 100:.2f}% wall-clock "
        f"(allowed {MAX_PROFILE_OVERHEAD * 100:.1f}%): {line}"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
