"""The ``csp`` workload through the backend registry, sweeps and cache."""

from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import (
    PooledCSPSweepConfig,
    PooledSudokuSweepConfig,
    RunRequest,
    RunResultCache,
    get_backend,
    pooled_csp_sweep,
    pooled_sudoku_sweep,
    run_on_backend,
)
from repro.runtime.sweep import SweepExecutor


def _csp_request(**overrides):
    options = {
        "scenario": "australia",
        "params": {"num_colors": 3},
    }
    options.update(overrides.pop("options", {}))
    return RunRequest(workload="csp", num_steps=40, seed=3, options=options, **overrides)


class TestCSPBackendWorkload:
    def test_network_backends_build_csp_networks(self):
        for name in ("fixed", "float64"):
            network = get_backend(name).build_network(_csp_request())
            assert network.size == 21  # 7 regions x 3 colors

    def test_run_produces_raster_and_metrics(self):
        result = run_on_backend("fixed", _csp_request())
        assert result.workload == "csp"
        assert result.num_steps == 40
        assert result.raster is not None
        assert result.total_spikes > 0
        assert "mean_rate_hz" in result.metrics

    def test_scenario_selection_and_params(self):
        request = _csp_request(options={"scenario": "queens", "params": {"n": 5}})
        network = get_backend("fixed").build_network(request)
        assert network.size == 25

    def test_solver_seed_option_changes_noise_stream(self):
        base = run_on_backend("fixed", _csp_request())
        same = run_on_backend("fixed", _csp_request())
        other = run_on_backend(
            "fixed", _csp_request(options={"solver_seed": 99})
        )
        assert base.total_spikes == same.total_spikes
        assert other.total_spikes != base.total_spikes

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_backend("fixed").build_network(
                _csp_request(options={"scenario": "nope"})
            )

    def test_isa_backends_reject_csp(self):
        with pytest.raises(ValueError):
            run_on_backend("functional", _csp_request())

    def test_run_result_cache_serves_repeated_csp_runs(self, tmp_path):
        cache = RunResultCache(tmp_path)
        request = _csp_request()
        cold = run_on_backend("fixed", request, cache=cache)
        hot = run_on_backend("fixed", request, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert hot.total_spikes == cold.total_spikes
        np.testing.assert_array_equal(
            hot.raster.to_bool_matrix(), cold.raster.to_bool_matrix()
        )


class TestPooledCSPSweep:
    def test_sweep_shape_and_determinism(self):
        kwargs = dict(base_seed=0, max_steps=300, scenario_params={"n": 4})
        config = PooledCSPSweepConfig(scenario="latin", count=2, **kwargs)
        first = pooled_csp_sweep(config).summary
        second = pooled_csp_sweep(config).summary
        assert first["scenario"] == "latin"
        assert first["num_instances"] == 2
        assert len(first["results"]) == 2
        assert 0.0 <= first["solve_rate"] <= 1.0
        assert first == second
        assert [r["instance_seed"] for r in first["results"]] == [0, 1]
        assert all(r["num_neurons"] == 64 for r in first["results"])  # 16 cells x 4 symbols

    def test_process_pool_matches_serial(self):
        kwargs = dict(base_seed=0, max_steps=200, scenario_params={"n": 4})
        config = PooledCSPSweepConfig(scenario="latin", count=2, **kwargs)
        serial = pooled_csp_sweep(config).summary
        pooled = pooled_csp_sweep(
            config, executor=SweepExecutor(mode="process", max_workers=2)
        ).summary
        assert serial == pooled

    def test_solver_seed_threads_through(self):
        kwargs = dict(base_seed=0, max_steps=150, scenario_params={"n": 4})
        config = PooledCSPSweepConfig(scenario="latin", count=1, **kwargs)
        a = pooled_csp_sweep(replace(config, solver_seed=1)).summary
        b = pooled_csp_sweep(replace(config, solver_seed=2)).summary
        assert (
            a["results"][0]["total_spikes"] != b["results"][0]["total_spikes"]
            or a["results"][0]["steps"] != b["results"][0]["steps"]
        )


class TestPooledSudokuSolverSeed:
    """Regression tests: pooled_sudoku_sweep can vary the solver seed."""

    def test_solver_seed_changes_results(self):
        kwargs = dict(base_seed=1000, target_clues=40, max_steps=60)
        config = PooledSudokuSweepConfig(count=1, **kwargs)
        default = pooled_sudoku_sweep(config).summary
        explicit = pooled_sudoku_sweep(replace(config, solver_seed=7)).summary
        different = pooled_sudoku_sweep(replace(config, solver_seed=11)).summary
        # The historical default (7) is preserved...
        assert default == explicit
        # ...and a different solver seed now actually reaches the solver.
        assert (
            different["results"][0]["total_spikes"]
            != default["results"][0]["total_spikes"]
        )
