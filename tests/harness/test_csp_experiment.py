"""The harness solve-rate experiment for the generic constraint solver."""

import pytest

from repro.harness import csp_solve_rate
from repro.runtime import RunResultCache, SweepExecutor


class TestCSPSolveRate:
    def test_batched_run_shape(self):
        result = csp_solve_rate(
            scenario="australia", count=2, max_steps=500, solver_seed=1
        )
        assert result["scenario"] == "australia"
        assert result["num_instances"] == 2
        assert result["num_neurons"] == 21
        assert len(result["results"]) == 2
        assert 0.0 <= result["solve_rate"] <= 1.0
        # Deterministic: the Australian map solves quickly with this seed.
        assert result["solve_rate"] == 1.0

    def test_batched_matches_sequential(self):
        kwargs = dict(
            scenario="latin",
            count=2,
            max_steps=300,
            seed=0,
            solver_seed=7,
            scenario_params={"n": 4},
        )
        batched = csp_solve_rate(**kwargs)
        sequential = csp_solve_rate(executor=SweepExecutor(), **kwargs)
        pooled = csp_solve_rate(executor=SweepExecutor(mode="process", max_workers=2), **kwargs)
        for other in (sequential, pooled):
            assert batched["solve_rate"] == other["solve_rate"]
            assert batched["mean_steps"] == other["mean_steps"]
            for a, b in zip(batched["results"], other["results"], strict=True):
                assert a.total_spikes == b.total_spikes
                assert a.steps == b.steps
                assert (a.values == b.values).all()

    def test_cache_needs_an_executor(self, tmp_path):
        with pytest.raises(ValueError, match="executor"):
            csp_solve_rate(scenario="australia", count=1, cache=RunResultCache(tmp_path))

    def test_fabric_resume_serves_cached_instances(self, tmp_path):
        kwargs = dict(scenario="australia", count=2, max_steps=200, solver_seed=1)
        cold = csp_solve_rate(executor=SweepExecutor(), cache=RunResultCache(tmp_path), **kwargs)
        warm = csp_solve_rate(executor=SweepExecutor(), cache=RunResultCache(tmp_path), **kwargs)
        assert (cold["sweep"].cache_hits, warm["sweep"].cache_hits) == (0, 2)
        assert [r.total_spikes for r in warm["results"]] == [
            r.total_spikes for r in cold["results"]
        ]
