"""The ``csp`` workload built directly: networks, the result cache and the fabric."""

import numpy as np
import pytest

from repro.csp import SpikingCSPSolver, make_instance
from repro.harness import csp_solve_rate
from repro.runtime import RunResultCache, SweepExecutor
from repro.runtime.cache import derive_cache_key


def _csp_network(backend="fixed", scenario="australia", seed=3, solver_seed=None, **params):
    params = params or {"num_colors": 3}
    graph, clamps = make_instance(scenario, seed=seed, **params)
    solver_seed = seed if solver_seed is None else solver_seed
    return SpikingCSPSolver(graph, backend=backend, seed=solver_seed).build_network(clamps)


def _outcomes(summary):
    return [(r.solved, r.steps, r.total_spikes, r.values.tolist()) for r in summary["results"]]


class TestCSPBackendWorkload:
    def test_network_backends_build_csp_networks(self):
        for name in ("fixed", "float64"):
            assert _csp_network(name).size == 21  # 7 regions x 3 colors

    def test_run_produces_raster_and_metrics(self):
        raster = _csp_network().run(40)
        assert raster.num_steps == 40
        assert raster.num_spikes > 0
        assert raster.mean_rate_hz() > 0

    def test_scenario_selection_and_params(self):
        assert _csp_network(scenario="queens", n=5).size == 25

    def test_solver_seed_option_changes_noise_stream(self):
        base = _csp_network().run(40)
        same = _csp_network().run(40)
        other = _csp_network(solver_seed=99).run(40)
        assert base.num_spikes == same.num_spikes
        assert other.num_spikes != base.num_spikes

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            make_instance("nope")

    def test_unknown_scenario_param_raises(self):
        # A misspelt size parameter used to be ignored silently, building
        # the scenario's default-size instance instead.
        with pytest.raises(TypeError, match="num_nodes"):
            make_instance("coloring", num_nodes=6)
        graph, _ = make_instance("coloring", num_vertices=6, num_colors=3)
        assert graph.num_neurons == 18

    def test_isa_backends_reject_csp(self):
        graph, _ = make_instance("australia", num_colors=3)
        for name in ("functional", "cycle"):
            with pytest.raises(ValueError):
                SpikingCSPSolver(graph, backend=name)

    def test_run_result_cache_serves_repeated_csp_runs(self, tmp_path):
        cache = RunResultCache(tmp_path)
        key = derive_cache_key("csp", {"scenario": "australia", "seed": 3, "steps": 40})
        runs = []

        def cached_run():
            raster = cache.get(key)
            if raster is None:
                raster = _csp_network().run(40)
                runs.append(raster)
                cache.put(key, raster)
            return raster

        cold = cached_run()
        hot = cached_run()
        assert len(runs) == 1
        assert hot.num_spikes == cold.num_spikes
        np.testing.assert_array_equal(hot.to_bool_matrix(), cold.to_bool_matrix())


class TestPooledCSPSweep:
    """``csp_solve_rate`` with an executor: one standalone solve per fabric task."""

    def test_sweep_shape_and_determinism(self):
        kwargs = dict(scenario="latin", count=2, seed=0, max_steps=300, scenario_params={"n": 4})
        first = csp_solve_rate(executor=SweepExecutor(), **kwargs)
        second = csp_solve_rate(executor=SweepExecutor(), **kwargs)
        assert first["scenario"] == "latin"
        assert first["num_instances"] == 2
        assert first["num_neurons"] == 64  # 16 cells x 4 symbols
        assert len(first["results"]) == 2
        assert 0.0 <= first["solve_rate"] <= 1.0
        assert _outcomes(first) == _outcomes(second)
        report = first["sweep"]
        assert report.mode == "serial"
        assert len(report.records) == 2

    def test_process_pool_matches_serial(self):
        kwargs = dict(scenario="latin", count=2, seed=0, max_steps=200, scenario_params={"n": 4})
        serial = csp_solve_rate(executor=SweepExecutor(), **kwargs)
        pooled = csp_solve_rate(executor=SweepExecutor(mode="process", max_workers=2), **kwargs)
        assert pooled["sweep"].mode == "process"
        assert _outcomes(serial) == _outcomes(pooled)

    def test_solver_seed_threads_through(self):
        kwargs = dict(scenario="latin", count=1, seed=0, max_steps=150, scenario_params={"n": 4})
        a = csp_solve_rate(executor=SweepExecutor(), solver_seed=1, **kwargs)["results"][0]
        b = csp_solve_rate(executor=SweepExecutor(), solver_seed=2, **kwargs)["results"][0]
        assert a.total_spikes != b.total_spikes or a.steps != b.steps
