"""The four execution paths, each driven through its own entry point.

``float64`` and ``fixed`` are network-level (80-20 replicas that stack on
the batch engine); ``functional`` and ``cycle`` run the generated RISC-V
kernel on the ISS and the cycle-accurate core.
"""

import numpy as np
import pytest

from repro.codegen import build_eighty_twenty_workload
from repro.runtime import (
    BatchedNetwork,
    build_eighty_twenty_replicas,
    eighty_twenty_seed_sweep,
)
from repro.sim import CoreConfig, CycleAccurateCore


class TestNetworkBackends:
    @pytest.mark.parametrize("name", ["float64", "fixed"])
    def test_eighty_twenty_run(self, name):
        (network,) = build_eighty_twenty_replicas([5], backend=name, num_neurons=50)
        raster = network.run(60)
        assert raster.num_steps == 60
        assert raster.num_spikes > 0
        assert raster.mean_rate_hz() > 0

    def test_network_backends_support_batching(self):
        networks = build_eighty_twenty_replicas([1, 2], num_neurons=40)
        assert [net.size for net in networks] == [40, 40]
        assert BatchedNetwork.from_networks(networks).batch_size == 2

    def test_fixed_matches_direct_engine(self):
        # The replica builder is a thin veneer over the single-run API.
        from repro.snn import run_eighty_twenty, EightyTwentyConfig

        (network,) = build_eighty_twenty_replicas([5], num_neurons=50)
        replica = network.run(60)
        config = EightyTwentyConfig(num_excitatory=40, num_inhibitory=10, seed=5)
        raster, _ = run_eighty_twenty(num_steps=60, backend="fixed", config=config)
        np.testing.assert_array_equal(replica.times, raster.times)
        np.testing.assert_array_equal(replica.neuron_ids, raster.neuron_ids)


class TestIsaBackends:
    def test_functional_run(self):
        workload = build_eighty_twenty_workload(num_neurons=12, num_steps=1, seed=3)
        fsim = workload.make_simulator()
        fsim.run()
        assert fsim.instret > 0
        assert fsim.exit_code == 0

    def test_cycle_run(self):
        workload = build_eighty_twenty_workload(num_neurons=12, num_steps=1, seed=3)
        counters = CycleAccurateCore(workload.make_simulator(), CoreConfig()).run()
        assert counters.cycles > counters.instructions > 0
        assert 0.0 < counters.ipc <= 1.0

    def test_isa_backends_do_not_batch(self):
        for name in ("functional", "cycle"):
            with pytest.raises(ValueError, match="not a network-level backend"):
                build_eighty_twenty_replicas([1], backend=name, num_neurons=12)


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
