"""End-to-end assertions of the paper's headline qualitative results.

These are the reproduction's acceptance tests: each asserts a *shape*
the paper reports (who wins, where, in which direction), not absolute
numbers.  They run scaled-down simulations (3 SUT rows, short horizon)
and are the slowest tests in the suite.
"""

import pytest

from repro.config.presets import scaled
from repro.metrics.zones import zone_report
from repro.server.topology import moonshot_sut
from repro.sim.runner import run_sweep
from repro.workloads.benchmark import BenchmarkSet


@pytest.fixture(scope="module")
def topology():
    return moonshot_sut(n_rows=3)


@pytest.fixture(scope="module")
def params():
    return scaled(sim_time_s=16.0, warmup_s=6.0)


@pytest.fixture(scope="module")
def results(topology, params):
    """Expansion for the pivotal schemes at a low and a high load.

    One lockstep sweep; each point is bit-identical to its own run.
    """
    schemes = ("CF", "HF", "MinHR", "Predictive", "CP", "Random")
    sweep = run_sweep(
        topology, params, schemes, [BenchmarkSet.COMPUTATION], (0.3, 0.8)
    )
    return {(scheme, load): result for (scheme, _, load), result in sweep.items()}


def expansion(results, scheme, load):
    return results[(scheme, load)].mean_runtime_expansion


class TestFigure11Shape:
    def test_hf_clearly_worse_at_low_load(self, results):
        assert expansion(results, "HF", 0.3) > 1.03 * expansion(
            results, "CF", 0.3
        )

    def test_minhr_clearly_worse_at_low_load(self, results):
        assert expansion(results, "MinHR", 0.3) > 1.03 * expansion(
            results, "CF", 0.3
        )

    def test_hf_catches_up_at_high_load(self, results):
        """The CF->HF crossover: HF beats CF at high load."""
        assert expansion(results, "HF", 0.8) < expansion(
            results, "CF", 0.8
        )

    def test_minhr_best_existing_at_high_load(self, results):
        assert expansion(results, "MinHR", 0.8) < expansion(
            results, "CF", 0.8
        )
        assert expansion(results, "MinHR", 0.8) < expansion(
            results, "Predictive", 0.8
        )

    def test_predictive_good_at_low_load(self, results):
        assert expansion(results, "Predictive", 0.3) <= 1.005 * expansion(
            results, "CF", 0.3
        )

    def test_predictive_loses_advantage_at_high_load(self, results):
        assert expansion(results, "Predictive", 0.8) > 0.995 * expansion(
            results, "CF", 0.8
        )

    def test_random_improves_relative_to_cf_at_high_load(self, results):
        low = expansion(results, "Random", 0.3) / expansion(
            results, "CF", 0.3
        )
        high = expansion(results, "Random", 0.8) / expansion(
            results, "CF", 0.8
        )
        assert high < low


class TestCPShape:
    def test_cp_best_at_low_load(self, results):
        cp = expansion(results, "CP", 0.3)
        for scheme in ("CF", "HF", "MinHR", "Predictive", "Random"):
            assert cp <= expansion(results, scheme, 0.3) * 1.001, scheme

    def test_cp_beats_cf_at_high_load(self, results):
        assert expansion(results, "CP", 0.8) < expansion(
            results, "CF", 0.8
        )

    def test_cp_close_to_best_at_high_load(self, results):
        """CP matches HF/MinHR within ~2% at high load."""
        best = min(
            expansion(results, scheme, 0.8)
            for scheme in ("HF", "MinHR", "CF", "Predictive", "Random")
        )
        assert expansion(results, "CP", 0.8) <= best * 1.02

    def test_cp_robust_across_loads(self, results):
        """No existing scheme dominates CP at both load extremes."""
        for scheme in ("CF", "HF", "MinHR", "Predictive"):
            dominated = all(
                expansion(results, "CP", load)
                > expansion(results, scheme, load) * 1.005
                for load in (0.3, 0.8)
            )
            assert not dominated, scheme


class TestFigure13Shape:
    def test_cf_front_loads_at_low_load(self, results):
        report = zone_report(results[("CF", 0.3)])
        assert report.front_work > 0.75

    def test_hf_back_loads(self, results):
        report = zone_report(results[("HF", 0.3)])
        assert report.back_work > 0.75

    def test_back_half_slower_at_high_load(self, results):
        report = zone_report(results[("CF", 0.8)])
        assert report.back_freq < report.front_freq

    def test_back_half_works_more_at_high_load(self, results):
        low = zone_report(results[("CF", 0.3)]).back_work
        high = zone_report(results[("CF", 0.8)]).back_work
        assert high > low

    def test_predictive_prefers_even_zones(self, results, topology):
        """Predictive concentrates work on zone 2 — the front-half even
        zone with the better 30-fin heat sink (the paper: "Predictive is
        performing most of its work on zone 2")."""
        import numpy as np

        result = results[("Predictive", 0.3)]
        zone2 = np.isin(
            np.arange(topology.n_sockets), topology.sockets_in_zone(2)
        )
        # Zone 2 holds 1/6 of sockets; Predictive gives it far more
        # than its proportional share of the work.
        assert result.work_fraction(zone2) > 2.0 / 6.0


class TestEnergyShape:
    def test_cp_no_energy_penalty_vs_cf(self, results):
        """CP buys performance without extra energy (Figure 15)."""
        for load in (0.3, 0.8):
            cp = results[("CP", load)]
            cf = results[("CF", load)]
            ed2_ratio = cp.ed2_j_s2 / cf.ed2_j_s2
            assert ed2_ratio < 1.02

    def test_energy_scales_with_load(self, results):
        assert (
            results[("CF", 0.8)].energy_j
            > results[("CF", 0.3)].energy_j
        )


class TestStorageMuted:
    def test_storage_spread_smaller_than_computation(
        self, topology, params
    ):
        """Figure 14: Storage shows muted differences across schemes."""
        sets = (BenchmarkSet.COMPUTATION, BenchmarkSet.STORAGE)
        sweep = run_sweep(topology, params, ("CF", "HF", "CP"), sets, (0.3,))
        spreads = {}
        for benchmark_set in sets:
            values = [
                result.mean_runtime_expansion
                for (_, bset, _), result in sweep.items()
                if bset is benchmark_set
            ]
            spreads[benchmark_set] = max(values) / min(values) - 1.0
        assert (
            spreads[BenchmarkSet.STORAGE]
            < spreads[BenchmarkSet.COMPUTATION] / 2
        )
