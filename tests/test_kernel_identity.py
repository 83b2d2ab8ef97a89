"""Bit-identity oracle for the vectorised placement/solver kernels.

PR 5 replaced the predictive policies' per-candidate Python scoring
loop with the batched :class:`~repro.core.kernels.PlacementKernel`
(plus the batched :func:`~repro.core.prediction.predict_job_powers`)
and gave the detailed chip model a factorization-cached fast solve
path.  Every one of those kernels keeps its scalar reference
implementation in-tree (``use_kernel=False``,
``DetailedChipModel.solve_via_network``), and this suite pins the
cardinal contract: kernel and reference produce the *same bits*.

The run-level oracle spans the 19 policy points of
:data:`golden_oracle.POLICY_CONFIGS` — both predictive policies,
full-search and row-restricted CP, the coupling-ablated CP, all
benchmark sets, and the load extremes — and asserts that both the
kernel and the scalar run reproduce the committed golden fingerprint.
Below that, function-level probes assert equality inside live
scheduling decisions (batched powers, batched downwind losses against
a cold *and* a warm per-step frequency cache).
"""

import numpy as np
import pytest
from golden_oracle import (
    POLICY_CONFIGS,
    golden,
    make_policy,
    policy_id,
    run_point,
)

from repro.config.presets import smoke
from repro.core.coupling_predictor import CouplingPredictor
from repro.core.kernels import PlacementKernel
from repro.core.prediction import (
    predict_downwind_slowdown,
    predict_job_frequency,
    predict_job_powers,
    predicted_job_power,
)
from repro.sim.engine import Simulation
from repro.sim.fingerprint import result_fingerprint
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.benchmark import BenchmarkSet

COMPUTATION = BenchmarkSet.COMPUTATION


def test_oracle_covers_nineteen_configs():
    assert len(POLICY_CONFIGS) == 19


@pytest.mark.parametrize(
    "policy,kwargs,benchmark_set,load",
    POLICY_CONFIGS,
    ids=lambda value: getattr(
        value, "value", str(value).replace(" ", "")
    ),
)
def test_kernel_runs_are_bit_identical(
    small_sut, policy, kwargs, benchmark_set, load
):
    expected = golden(policy_id(policy, kwargs, benchmark_set, load))
    for use_kernel in (True, False):
        result = run_point(
            small_sut,
            make_policy(policy, kwargs, use_kernel=use_kernel),
            benchmark_set,
            load,
        )
        assert result_fingerprint(result) == expected, use_kernel


class _ProbingCP(CouplingPredictor):
    """CP that cross-checks every kernel against its scalar twin inside
    live decisions (real views, real temperatures, mid-drain busy
    flips) before delegating to the normal kernel path."""

    def __init__(self):
        super().__init__(row_restricted=False, use_kernel=True)
        self.decisions = 0
        self.pairs_checked = 0

    def select_socket(self, job, idle_ids, view):
        candidates = idle_ids
        freq = predict_job_frequency(view, candidates, job)
        powers = predict_job_powers(view, candidates, job, freq)
        scalar_powers = np.array(
            [
                predicted_job_power(view, int(s), job, float(f))
                for s, f in zip(candidates, freq)
            ]
        )
        assert powers.tobytes() == scalar_powers.tobytes()

        # A cold kernel (empty frequency cache) every decision...
        cold = PlacementKernel(view.topology)
        cold_losses = cold.downwind_losses(view, candidates, powers)
        scalar_losses = np.array(
            [
                predict_downwind_slowdown(view, int(s), float(p))
                for s, p in zip(candidates, powers)
            ]
        )
        assert cold_losses.tobytes() == scalar_losses.tobytes()
        self.decisions += 1
        self.pairs_checked += candidates.size
        # ...and the policy's own warm kernel (per-step cache reused
        # across the drain) via the normal path; the run-level oracle
        # pins that its choices match the scalar policy's.
        return super().select_socket(job, idle_ids, view)


def test_kernels_match_scalars_inside_live_decisions(small_sut):
    params = smoke(seed=11)
    probe = _ProbingCP()
    arrivals = ArrivalProcess(
        benchmark_set=COMPUTATION,
        load=0.7,
        n_sockets=small_sut.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    Simulation(small_sut, params, probe).run(jobs)
    assert probe.decisions > 10
    assert probe.pairs_checked > probe.decisions


def test_kernel_survives_engine_reuse(small_sut):
    """One Simulation instance re-run twice: the per-step frequency
    cache must be invalidated by reset(), keeping run 2 identical to a
    fresh scheduler's run."""
    params = smoke(seed=4)

    def _jobs():
        arrivals = ArrivalProcess(
            benchmark_set=COMPUTATION,
            load=0.6,
            n_sockets=small_sut.n_sockets,
            seed=params.seed,
            duration_scale=params.duration_scale,
        )
        return arrivals.generate(params.sim_time_s)

    sim = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    )
    first = sim.run(_jobs())
    second = sim.run(_jobs())
    fresh = Simulation(
        small_sut, params, CouplingPredictor(row_restricted=False)
    ).run(_jobs())
    assert result_fingerprint(first) == result_fingerprint(fresh)
    assert result_fingerprint(second) == result_fingerprint(fresh)
