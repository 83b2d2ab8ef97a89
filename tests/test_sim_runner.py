"""Tests for repro.sim.runner."""

import pytest

from repro.config.presets import smoke
from repro.core import get_scheduler
from repro.errors import ConfigurationError
from repro.sim.runner import run_once, run_sweep
from repro.workloads.benchmark import BenchmarkSet


class TestRunOnce:
    def test_identical_workload_across_schedulers(self, small_sut):
        """Two schedulers see the exact same job stream (same seed)."""
        params = smoke()
        cf = run_once(
            small_sut,
            params,
            get_scheduler("CF"),
            BenchmarkSet.COMPUTATION,
            0.5,
        )
        hf = run_once(
            small_sut,
            params,
            get_scheduler("HF"),
            BenchmarkSet.COMPUTATION,
            0.5,
        )
        assert cf.n_jobs_submitted == hf.n_jobs_submitted

    def test_scheduler_name_recorded(self, small_sut):
        result = run_once(
            small_sut,
            smoke(),
            get_scheduler("MinHR"),
            BenchmarkSet.STORAGE,
            0.4,
        )
        assert result.scheduler_name == "MinHR"

    def test_duration_scale_respected(self, small_sut):
        params = smoke()
        result = run_once(
            small_sut,
            params,
            get_scheduler("CF"),
            BenchmarkSet.COMPUTATION,
            0.4,
        )
        mean_work = sum(
            j.work_ms for j in result.completed_jobs
        ) / len(result.completed_jobs)
        # Computation mean 4 ms scaled by the preset's factor.
        assert mean_work == pytest.approx(
            4.0 * params.duration_scale, rel=0.5
        )


class TestRunSweep:
    def test_full_cross_product(self, small_sut):
        results = run_sweep(
            small_sut,
            smoke(),
            scheduler_names=("CF", "HF"),
            benchmark_sets=(BenchmarkSet.STORAGE,),
            loads=(0.3, 0.6),
        )
        assert set(results) == {
            ("CF", BenchmarkSet.STORAGE, 0.3),
            ("CF", BenchmarkSet.STORAGE, 0.6),
            ("HF", BenchmarkSet.STORAGE, 0.3),
            ("HF", BenchmarkSet.STORAGE, 0.6),
        }
        for result in results.values():
            assert result.n_jobs_completed > 0

    def test_sweep_uses_fresh_scheduler_instances(self, small_sut):
        """A stateful policy (MinHR precomputes) must be rebuilt."""
        results = run_sweep(
            small_sut,
            smoke(),
            scheduler_names=("MinHR",),
            benchmark_sets=(BenchmarkSet.STORAGE,),
            loads=(0.3, 0.5),
        )
        assert len(results) == 2


class TestRemovedEngineForks:
    """Only the fixed-step engine remains; the old selectors are guards."""

    def test_remaining_engine_path_is_accepted(self, small_sut):
        results = run_sweep(
            small_sut,
            smoke(),
            ["CF"],
            [BenchmarkSet.COMPUTATION],
            [0.5],
            stepping="fixed",
            backend="numpy",
        )
        assert len(results) == 1

    def test_adaptive_stepping_names_the_removal(self, small_sut):
        with pytest.raises(ConfigurationError, match="stepping was removed"):
            run_sweep(
                small_sut,
                smoke(),
                ["CF"],
                [BenchmarkSet.COMPUTATION],
                [0.5],
                stepping="adaptive",
            )

    def test_jax_backend_names_the_removal(self, small_sut):
        with pytest.raises(ConfigurationError, match="seam was removed"):
            run_sweep(
                small_sut,
                smoke(),
                ["CF"],
                [BenchmarkSet.COMPUTATION],
                [0.5],
                backend="jax",
            )

    def test_experiment_config_selectors_are_constants(self, monkeypatch):
        from repro.experiments.common import ExperimentConfig

        monkeypatch.setenv("REPRO_STEPPING", "adaptive")
        monkeypatch.setenv("REPRO_BACKEND", "jax")
        config = ExperimentConfig()
        assert (config.stepping, config.backend) == ("fixed", "numpy")
        with pytest.raises(TypeError):
            ExperimentConfig(stepping="adaptive")
        with pytest.raises(TypeError):
            ExperimentConfig(backend="jax")
