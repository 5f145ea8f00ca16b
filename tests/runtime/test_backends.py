"""The SimBackend registry: one interface over four execution paths."""

import numpy as np
import pytest

from repro.runtime import (
    PooledSudokuSweepConfig,
    RunRequest,
    RunResult,
    SimBackend,
    available_backends,
    eighty_twenty_seed_sweep,
    get_backend,
    pooled_sudoku_sweep,
    register_backend,
    run_on_backend,
)
from repro.runtime.backends import _REGISTRY


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"float64", "fixed", "functional", "cycle"}

    def test_backends_satisfy_protocol(self):
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, SimBackend)
            assert backend.level in ("network", "isa", "cycle")

    def test_unknown_backend_error_lists_known(self):
        with pytest.raises(KeyError, match="fixed"):
            get_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        backend = get_backend("fixed")
        with pytest.raises(ValueError):
            register_backend(backend)
        # replace=True is the explicit override knob.
        register_backend(backend, replace=True)
        assert _REGISTRY["fixed"] is backend


class TestNetworkBackends:
    @pytest.mark.parametrize("name", ["float64", "fixed"])
    def test_eighty_twenty_run(self, name):
        result = run_on_backend(
            name, RunRequest(num_neurons=50, num_steps=60, seed=5)
        )
        assert isinstance(result, RunResult)
        assert result.backend == name
        assert result.raster is not None
        assert result.raster.num_steps == 60
        assert result.total_spikes == result.raster.num_spikes > 0
        assert result.metrics["mean_rate_hz"] > 0

    def test_network_backends_support_batching(self):
        backend = get_backend("fixed")
        assert backend.supports_batching
        request = RunRequest(num_neurons=40, num_steps=10, seed=1)
        network = backend.build_network(request)
        assert network is not None and network.size == 40

    def test_fixed_matches_direct_engine(self):
        # The backend is a thin veneer over the existing single-run API.
        from repro.snn import run_eighty_twenty, EightyTwentyConfig

        result = run_on_backend("fixed", RunRequest(num_neurons=50, num_steps=60, seed=5))
        config = EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=5)
        raster, _ = run_eighty_twenty(num_steps=60, backend="fixed", config=config)
        np.testing.assert_array_equal(result.raster.times, raster.times)
        np.testing.assert_array_equal(result.raster.neuron_ids, raster.neuron_ids)


class TestIsaBackends:
    def test_functional_run(self):
        result = run_on_backend(
            "functional", RunRequest(num_neurons=12, num_steps=1, seed=3)
        )
        assert result.raster is None
        assert result.metrics["instret"] > 0
        assert result.metrics["exit_code"] == 0

    def test_cycle_run(self):
        result = run_on_backend("cycle", RunRequest(num_neurons=12, num_steps=1, seed=3))
        assert result.metrics["cycles"] > result.metrics["instructions"] > 0
        assert 0.0 < result.metrics["ipc"] <= 1.0

    def test_isa_backends_do_not_batch(self):
        for name in ("functional", "cycle"):
            backend = get_backend(name)
            assert not backend.supports_batching
            assert backend.build_network(RunRequest()) is None


class TestWorkloadSweeps:
    def test_seed_sweep_batched_equals_sequential(self):
        seeds = [5, 6, 7]
        batched = eighty_twenty_seed_sweep(seeds, num_steps=60, num_neurons=50)
        sequential = eighty_twenty_seed_sweep(
            seeds, num_steps=60, num_neurons=50, batched=False
        )
        assert batched.seeds == sequential.seeds == seeds
        for fast, slow in zip(batched.rasters, sequential.rasters):
            np.testing.assert_array_equal(fast.times, slow.times)
            np.testing.assert_array_equal(fast.neuron_ids, slow.neuron_ids)
        assert batched.mean_rate_hz == sequential.mean_rate_hz

    def test_seed_sweep_summaries(self):
        sweep = eighty_twenty_seed_sweep([5, 6], num_steps=40, num_neurons=50)
        assert [s["seed"] for s in sweep.summaries] == [5, 6]
        assert all(s["backend"] == "fixed" for s in sweep.summaries)

    def test_batched_thalamic_provider_rejects_mixed_scales(self):
        from repro.runtime import batched_thalamic_provider
        from repro.snn import EightyTwentyConfig

        configs = [
            EightyTwentyConfig(num_excitatory=80, num_inhibitory=20, seed=1),
            EightyTwentyConfig(
                num_excitatory=80, num_inhibitory=20, thalamic_inhibitory=3.0, seed=2
            ),
        ]
        with pytest.raises(ValueError, match="thalamic scales"):
            batched_thalamic_provider(configs)

    def test_pooled_sudoku_sweep_shape(self):
        result = pooled_sudoku_sweep(
            PooledSudokuSweepConfig(count=2, target_clues=40, max_steps=150)
        ).summary
        assert result["num_puzzles"] == 2
        assert len(result["results"]) == 2
        assert 0.0 <= result["solve_rate"] <= 1.0
        assert all(r["num_clues"] >= 40 for r in result["results"])
