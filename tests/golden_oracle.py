"""The committed golden oracle shared by the bit-identity suites.

``goldens/oracle_fingerprints.json`` records the
:func:`~repro.sim.fingerprint.result_fingerprint` of every oracle point
run on the default engine path (the 24-socket ``small_sut`` and
``smoke(seed=4)``).  Every mechanism that claims not to change a bit —
the scalar reference kernels (``use_kernel=False``), an empty fault
schedule, telemetry, profiling — is asserted against these committed
digests instead of against a baseline recomputed at test time, so a
drift in the baseline itself fails too.

Two matrices make up the oracle, 19 points each:

- :data:`POLICY_CONFIGS` — the predictive policies' kernel paths:
  default CP over every set and three loads, full-search CP and the
  coupling ablation over the load range, and Predictive across sets
  and extremes;
- :data:`SCHEDULER_CONFIGS` — every registered scheduler at the
  midpoint load, plus CF over every benchmark set at both load
  extremes.

Regenerate only after an intentional model change, and justify the
diff in review::

    PYTHONPATH=src python tests/golden_oracle.py
"""

import json
from pathlib import Path

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.core.coupling_predictor import CouplingPredictor
from repro.core.predictive import Predictive
from repro.server.topology import moonshot_sut
from repro.sim.fingerprint import result_fingerprint
from repro.sim.runner import run_once
from repro.workloads.benchmark import BenchmarkSet

GOLDEN_PATH = Path(__file__).parent / "goldens" / "oracle_fingerprints.json"

#: Workload seed of every oracle run.
ORACLE_SEED = 4

COMPUTATION = BenchmarkSet.COMPUTATION
GENERAL = BenchmarkSet.GENERAL_PURPOSE
STORAGE = BenchmarkSet.STORAGE
ALL_SETS = (COMPUTATION, GENERAL, STORAGE)

#: The registered schedulers when the goldens were taken.  Spelled out
#: rather than read from the live registry, which tests may extend.
SCHEDULER_NAMES = (
    "A-Random", "Balanced", "Balanced-L", "CF", "CN", "CP", "FirstFit",
    "HF", "LRU", "MinHR", "Predictive", "Random", "RoundRobin",
)


def _policy_configs():
    configs = []
    for benchmark_set in ALL_SETS:
        for load in (0.3, 0.5, 0.9):
            configs.append(("CP", {}, benchmark_set, load))
    for load in (0.3, 0.5, 0.9):
        configs.append(
            ("CP", {"row_restricted": False}, COMPUTATION, load)
        )
    for load in (0.3, 0.9):
        configs.append(
            ("CP", {"coupling_aware": False}, COMPUTATION, load)
        )
    for benchmark_set in ALL_SETS:
        configs.append(("Predictive", {}, benchmark_set, 0.5))
    for load in (0.3, 0.9):
        configs.append(("Predictive", {}, COMPUTATION, load))
    return configs


def _scheduler_configs():
    configs = [(name, COMPUTATION, 0.5) for name in SCHEDULER_NAMES]
    for benchmark_set in ALL_SETS:
        for load in (0.3, 0.9):
            configs.append(("CF", benchmark_set, load))
    return configs


#: ``(policy, constructor kwargs, benchmark set, load)`` points.
POLICY_CONFIGS = _policy_configs()

#: ``(registered scheduler name, benchmark set, load)`` points.
SCHEDULER_CONFIGS = _scheduler_configs()


def policy_id(policy, kwargs, benchmark_set, load) -> str:
    """Golden key of a :data:`POLICY_CONFIGS` point."""
    spelled = str(kwargs).replace(" ", "")
    return f"policy:{policy}-{spelled}-{benchmark_set.value}-{load}"


def scheduler_id(name, benchmark_set, load) -> str:
    """Golden key of a :data:`SCHEDULER_CONFIGS` point."""
    return f"scheduler:{name}-{benchmark_set.value}-{load}"


def make_policy(policy, kwargs, use_kernel=True):
    """A fresh predictive policy with the given kernel toggle."""
    cls = {"CP": CouplingPredictor, "Predictive": Predictive}[policy]
    return cls(use_kernel=use_kernel, **kwargs)


def oracle_topology():
    """The oracle's SUT, the same geometry as the ``small_sut`` fixture."""
    return moonshot_sut(n_rows=2)


def run_point(topology, scheduler, benchmark_set, load, **run_kwargs):
    """One oracle run; ``run_kwargs`` carry the toggle under test."""
    return run_once(
        topology,
        smoke(seed=ORACLE_SEED),
        scheduler,
        benchmark_set,
        load,
        **run_kwargs,
    )


def load_goldens() -> dict:
    """The committed ``key -> fingerprint`` table."""
    return json.loads(GOLDEN_PATH.read_text())["fingerprints"]


def golden(key: str) -> str:
    """The committed fingerprint of one oracle point."""
    return load_goldens()[key]


def all_keys():
    """Every oracle point's golden key, in matrix order."""
    return [policy_id(*c) for c in POLICY_CONFIGS] + [
        scheduler_id(*c) for c in SCHEDULER_CONFIGS
    ]


def compute_goldens() -> dict:
    """Run every oracle point on the default path."""
    topology = oracle_topology()
    table = {}
    for config in POLICY_CONFIGS:
        policy, kwargs, benchmark_set, load = config
        result = run_point(
            topology, make_policy(policy, kwargs), benchmark_set, load
        )
        table[policy_id(*config)] = result_fingerprint(result)
    for config in SCHEDULER_CONFIGS:
        name, benchmark_set, load = config
        result = run_point(
            topology, get_scheduler(name), benchmark_set, load
        )
        table[scheduler_id(*config)] = result_fingerprint(result)
    return table


if __name__ == "__main__":
    payload = {
        "topology": "moonshot_sut(n_rows=2)",
        "params": f"smoke(seed={ORACLE_SEED})",
        "fingerprints": compute_goldens(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(payload['fingerprints'])} fingerprints to "
          f"{GOLDEN_PATH}")
