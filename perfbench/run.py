"""The repository benchmark: sweeps and the fleet service, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload sweeps --seed 0 \
        --seconds 45 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``sweeps``: ``ExperimentConfig().sweep(("CF", "HF", "Balanced"),
  (Computation, Storage), (0.3, 0.7))``, physics-bound, then
  ``ExperimentConfig().sweep(("CP", "Predictive"), (Computation,),
  (0.7, 0.9))``, placement-bound;
- ``fleet-tcp``: a real ``repro fleet serve`` under an open-loop
  Poisson stream over two TCP connections.

Every measurement runs in a fresh interpreter with all ``REPRO_*``
variables cleared; sweeps run serially.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (and writes the
run's spans under ``.perfbench/``).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Maintenance modes: ``--self-test`` checks that corrupted references
are reported as failures; ``--write-reference`` records the sweep
fingerprints of the current code for ``--seeds``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    SRC_DIR,
    Children,
    Spans,
    clear_repro_env,
    median,
    run_child,
)

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("sweeps", "fleet-tcp")
REFERENCE = REFERENCE_DIR / "sweeps.json"
#: Fresh interpreters timed for set-up besides the measured one.
SETUP_CHILDREN = 4

END_TO_END = {
    "setup_s": "s",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
    "sweep_scaled_s": "s",
    "light_p50_ms": "ms",
    "light_p95_ms": "ms",
    "busy_p50_ms": "ms",
    "busy_p95_ms": "ms",
    "place_p50_ms": "ms",
    "whatif_p50_ms": "ms",
    "max_qps": "q/s",
}

PER_LAYER = {
    "server.topology_s": "s",
    "workloads.arrivals_s": "s",
    "workloads.jobs": "count",
    "sim.engine_s": "s",
    "sim.steps": "count",
    "sim.PowerManager_s": "s",
    "sim.ThermalUpdater_s": "s",
    "sim.WorkRetirer_s": "s",
    "sim.MetricsAccumulator_s": "s",
    "sim.ArrivalAdmitter_s": "s",
    "sim.Placer_s": "s",
    "core.select_calls": "count",
    "core.select_us_mean": "us",
    "sim.outside_engine_s": "s",
    "fleet.service.admit_to_answer_ms_p50": "ms",
    "fleet.service.admit_to_answer_ms_p95": "ms",
    "fleet.wire_ms_p50": "ms",
    "fleet.compute.place_us_p50": "us",
    "fleet.compute.whatif_us_p50": "us",
    "fleet.compute.warm_hit_ratio": "fraction",
    "fleet.answers.ok": "count",
    "fleet.answers.degraded": "count",
    "fleet.answers.shed": "count",
    "fleet.answers.failed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace_overhead": "fraction",
}


# -- sweep oracle ---------------------------------------------------------


def load_reference(seed: int):
    """Committed fingerprints for ``seed``, or ``None`` if undocumented."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(str(seed))


def compare_fingerprints(observed: dict, reference: dict) -> dict:
    """``point -> reason`` for every point not matching the reference."""
    failures = {}
    for label, digest in reference.items():
        if label not in observed:
            failures[label] = "point missing"
        elif observed[label] != digest:
            failures[label] = "fingerprint differs from reference"
    for label in observed:
        if label not in reference:
            failures[label] = "no reference for this point"
    return failures


def sweep_child(children, mode, seed, deadline) -> dict:
    timeout = max(5.0, deadline - time.monotonic())
    return run_child(
        children,
        [str(HERE / "sweep_child.py"), mode, str(seed),
         repr(time.monotonic())],
        timeout,
    )


def run_sweeps(seed, traced, children, spans, deadline) -> dict:
    from sweep_child import ANCHOR_REF_S, GRIDS

    attempted = sum(len(names) * len(sets) * len(loads)
                    for _, names, sets, loads in GRIDS)
    notes = ["sweeps: serial (max_workers=1), default scale, both grids "
             "in one fresh interpreter"]
    setups = []
    if not traced:
        for _ in range(SETUP_CHILDREN):
            child = sweep_child(children, "setup", seed, deadline)
            if "error" in child:
                raise RuntimeError(f"set-up child failed: {child['error']}")
            setups.append(child["setup_s"])
    main = sweep_child(children, "sweep", seed, deadline)
    failures = {}
    if "error" in main:
        notes.append(f"sweep failed: {main['error']}")
        return {"attempted": attempted, "failed": attempted,
                "notes": notes, "e2e": None, "layers": None,
                "failures": [main["error"]]}
    observed = main["fingerprints"]
    failures.update(main["problems"])
    reference = load_reference(seed)
    if reference is None:
        notes.append(
            f"fingerprints: unchecked (seed {seed} has no committed "
            "reference)"
        )
    else:
        failures.update(compare_fingerprints(observed, reference))
        notes.append(
            f"fingerprints: {len(reference)} points checked against "
            f"the committed reference for seed {seed}"
        )
    out = {"attempted": attempted, "notes": notes}
    wall = main["wall_s"]
    notes.append("grid walls (s): " + ", ".join(
        f"{grid} {seconds:.3f}" for grid, seconds in main["walls_s"].items()))
    if traced:
        traced_child = sweep_child(children, "traced", seed, deadline)
        if "error" in traced_child:
            raise RuntimeError(f"traced sweep failed: {traced_child['error']}")
        for label, digest in observed.items():
            if traced_child["fingerprints"].get(label) != digest:
                failures[label] = "traced fingerprint differs from untraced"
        spans.extend(traced_child["spans"])
        out["layers"] = {
            "server.topology_s": traced_child["topology_s"],
            **traced_child["layers"],
            "trace_overhead": traced_child["wall_s"] / wall - 1.0,
        }
        notes.append(
            f"traced sweeps {traced_child['wall_s']:.3f} s vs untraced "
            f"{wall:.3f} s; fingerprints equal: "
            f"{traced_child['fingerprints'] == observed}"
        )
    else:
        setups.append(main["setup_s"])
        scaled = main["scaled_wall_s"]
        anchors = main["anchors_s"]
        notes.append(
            f"wall {wall:.3f} s scaled to {scaled:.3f} s by "
            f"{len(anchors)} anchor passes (median {median(anchors):.4f} s, "
            f"range {min(anchors):.4f}-{max(anchors):.4f}; reference "
            f"{ANCHOR_REF_S} s)"
        )
        # Each point is answered when its sweep call returns, and a user
        # of the workload waits for both calls, so every latency reads
        # their (scaled) wall time.
        out["e2e"] = {
            "setup_s": median(setups),
            "success_rate": 1.0 - len(failures) / attempted,
            "peak_rss_mb": main["peak_rss_mb"],
            "sweep_scaled_s": scaled,
            **{name: 1000.0 * scaled for name in (
                "light_p50_ms", "light_p95_ms", "busy_p50_ms",
                "busy_p95_ms", "place_p50_ms", "whatif_p50_ms")},
            "max_qps": attempted / scaled,
        }
        notes.append("set-up samples (s): "
                     + ", ".join(f"{v:.3f}" for v in setups))
    out["failed"] = len(failures)
    out["failures"] = [f"{k}: {v}" for k, v in failures.items()]
    return out


# -- maintenance modes ------------------------------------------------------


def write_reference(seeds, children) -> int:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for seed in seeds:
        child = sweep_child(children, "sweep", seed, time.monotonic() + 600.0)
        if "error" in child or child["problems"]:
            print(f"seed {seed}: {child.get('error') or child['problems']}",
                  file=sys.stderr)
            return 1
        table[str(seed)] = child["fingerprints"]
        print(f"seed {seed}: {child['wall_s']:.2f} s")
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def self_test() -> int:
    """Corrupted references must come out as failures, not crashes."""
    import fleet

    problems = []
    listed = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {(m["name"], m["unit"]) for m in listed[key]} != set(printed.items()):
            problems.append(f"BENCHMARK.json {key} differs from the output")
    reference = load_reference(0)
    if reference is None:
        problems.append("sweeps: no reference for seed 0")
    else:
        if compare_fingerprints(dict(reference), reference):
            problems.append("sweeps: clean reference reported failures")
        label = sorted(reference)[0]
        corrupted = dict(reference, **{label: "0" * 64})
        if set(compare_fingerprints(dict(reference), corrupted)) != {label}:
            problems.append("sweeps: corrupted digest not reported")
        missing = dict(reference)
        del missing[label]
        if set(compare_fingerprints(missing, reference)) != {label}:
            problems.append("sweeps: missing point not reported")

    replay = fleet.Replay()
    sockets = {c: v.topology.n_sockets for c, v in replay.computes.items()}
    stream = fleet.make_stream(0, 0, fleet.LIGHT_QPS, 8,
                               fleet.utilization_pools(0, sockets))
    records = []
    expected = []
    for i, (_, query) in enumerate(stream):
        payload, _ = replay.answer(query)
        expected.append(payload)
        records.append({"key": ("self-test", i), "query": query,
                        "answer": {"status": "ok",
                                   "payload": json.loads(json.dumps(payload))}})
    if fleet.check_answers(records, expected):
        problems.append("fleet: matching answers reported as failures")
    bad = json.loads(json.dumps(expected))
    field = next(k for k in sorted(bad[0]) if k != "chassis")
    if isinstance(bad[0][field], list):
        bad[0][field][0] += 1e-9
    else:
        bad[0][field] += 1e-9
    records[1]["answer"]["status"] = "degraded"
    del records[2]["answer"]
    failed = set(fleet.check_answers(records, bad))
    if failed != {("self-test", 0), ("self-test", 1), ("self-test", 2)}:
        problems.append(f"fleet: corrupted answers reported as {failed}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# -- main ---------------------------------------------------------------------


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").exists():
        print(f"error: no program sources under {SRC_DIR}", file=sys.stderr)
        return 2
    cleared = clear_repro_env()
    sys.path.insert(0, str(SRC_DIR))

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    children = Children()
    try:
        if args.self_test:
            return self_test()
        if args.write_reference:
            return write_reference(parse_seeds(args.seeds), children)
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args, cleared, children)
    finally:
        survivors = children.reap()
        if survivors:
            print(f"error: processes outlived the benchmark: {survivors}",
                  file=sys.stderr)


def measure(args, cleared, children) -> int:
    traced = bool(args.trace)
    spans = Spans()
    # Fixed-work workloads: the budget only bounds how long they may run.
    deadline = time.monotonic() + 170.0
    t0 = time.monotonic()
    if args.workload == "sweeps":
        out = run_sweeps(args.seed, traced, children, spans, deadline)
    else:
        import fleet

        out = fleet.run(args.seed, traced, children, spans)
    notes = out["notes"]
    notes.insert(0, "env: REPRO_* cleared before the run; "
                 + (f"found {', '.join(cleared)}" if cleared
                    else "none were set"))
    for survivor in children.reap():
        notes.append(f"leaked process {survivor}")
    if children.leaked:
        notes.append(f"{children.leaked} worker process(es) outlived "
                     "their server and were killed")
    correct = (
        out["failed"] == 0
        and out.get("valid", True)
        and children.leaked == 0
    )
    names = PER_LAYER if traced else END_TO_END
    values = out.get("layers" if traced else "e2e") or {}
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in names.items()}
    if traced:
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans.dump(path)
        notes.append(f"spans: {len(spans.spans)} written to "
                     f"{path.relative_to(Path.cwd())}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({time.monotonic() - t0:.1f} s)")
    for note in notes:
        print(f"  {note}")
    for failure in out.get("failures", [])[:20]:
        print(f"  FAILED {failure}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for name, summary in out.get("summaries", {}).items():
        print(f"  phase {name}: n={summary['n']} p50={summary['p50_ms']:.1f}"
              f" ms p95={summary['p95_ms']:.1f} ms (n beyond p95: "
              f"{summary['n'] // 20}) place n={summary['n_place']} "
              f"what-if n={summary['n_whatif']} offered "
              f"{summary['offered_qps']:.2f} q/s achieved "
              f"{summary['achieved_qps']:.2f} q/s "
              f"{'pass' if summary['passes'] else 'fail'}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
