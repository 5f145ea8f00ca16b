"""Tests for the workload memory layout and the generated kernels."""

import numpy as np
import pytest

from repro.codegen import (
    WorkloadSpec,
    baseline_kernel,
    build_eighty_twenty_workload,
    encode_network_data,
    extension_kernel,
    kernel_source,
)
from repro.isa import assemble


def tiny_spec(num_neurons=4, num_steps=2):
    rng = np.random.default_rng(0)
    n = num_neurons
    weights = np.zeros((n, n))
    weights[0, 1] = 0.5
    weights[2, 3] = -1.0
    return WorkloadSpec(
        a=np.full(n, 0.02),
        b=np.full(n, 0.2),
        c=np.full(n, -65.0),
        d=np.full(n, 8.0),
        v0=np.full(n, -65.0),
        u0=np.full(n, -13.0),
        weights=weights,
        external_input=rng.normal(5.0, 1.0, size=(num_steps, n)),
        name="tiny",
    )


class TestLayout:
    def test_regions_are_disjoint_and_ordered(self):
        layout = tiny_spec().layout()
        addresses = [
            layout.vu_base,
            layout.current_base,
            layout.param_base,
            layout.input_base,
            layout.rowptr_base,
            layout.syn_index_base,
            layout.syn_weight_base,
            layout.spike_buffer_base,
            layout.result_base,
            layout.end,
        ]
        assert addresses == sorted(addresses)
        assert all(a % 4 == 0 for a in addresses)

    def test_symbols_contain_all_bases(self):
        symbols = tiny_spec().layout().as_symbols()
        assert {"VU_BASE", "CURRENT_BASE", "PARAM_BASE", "INPUT_BASE", "ROWPTR_BASE",
                "SYN_INDEX_BASE", "SYN_WEIGHT_BASE", "SPIKE_BUF_BASE", "RESULT_BASE",
                "NUM_NEURONS", "NUM_STEPS"} <= set(symbols)

    def test_total_bytes_scale_with_network(self):
        small = tiny_spec(num_neurons=4).layout()
        large = tiny_spec(num_neurons=16).layout()
        assert large.total_bytes > small.total_bytes


class TestSpec:
    def test_validation(self):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            WorkloadSpec(
                a=spec.a[:-1], b=spec.b, c=spec.c, d=spec.d, v0=spec.v0, u0=spec.u0,
                weights=spec.weights, external_input=spec.external_input,
            )
        with pytest.raises(ValueError):
            WorkloadSpec(
                a=spec.a, b=spec.b, c=spec.c, d=spec.d, v0=spec.v0, u0=spec.u0,
                weights=np.zeros((3, 3)), external_input=spec.external_input,
            )

    def test_csr_matches_dense(self):
        spec = tiny_spec()
        row_ptr, col_index, weight = spec.csr()
        assert row_ptr[-1] == 2
        # Neuron 1 has one outgoing synapse to neuron 0 with weight 0.5.
        start, end = row_ptr[1], row_ptr[2]
        assert list(col_index[start:end]) == [0]
        assert weight[start:end][0] == 0.5


class TestEncoding:
    def test_encoded_image_fits_layout(self):
        spec = tiny_spec()
        layout = spec.layout()
        words = encode_network_data(spec, layout)
        addresses = [a for a, _ in words]
        assert min(addresses) == layout.vu_base
        assert max(addresses) < layout.end
        assert len(addresses) == len(set(addresses))  # no overlaps

    def test_vu_words_match_initial_state(self):
        from repro.fixedpoint import unpack_vu_float

        spec = tiny_spec()
        layout = spec.layout()
        image = dict(encode_network_data(spec, layout))
        v, u = unpack_vu_float(image[layout.vu_base])
        assert v == pytest.approx(-65.0, abs=0.01)
        assert u == pytest.approx(-13.0, abs=0.01)


class TestKernels:
    def test_both_kernels_assemble(self):
        layout = tiny_spec().layout()
        for source in (extension_kernel(layout), baseline_kernel(layout)):
            program = assemble(source)
            assert len(program.words) > 50

    def test_kernel_source_dispatch(self):
        layout = tiny_spec().layout()
        assert "nmpn" in kernel_source("extension", layout)
        assert "nmpn" not in kernel_source("baseline", layout)
        with pytest.raises(ValueError):
            kernel_source("gpu", layout)

    def test_extension_kernel_uses_all_custom_instructions(self):
        source = extension_kernel(tiny_spec().layout())
        for mnemonic in ("nmldl", "nmldh", "nmpn", "nmdec"):
            assert mnemonic in source

    def test_baseline_kernel_tau_shift_sequence(self):
        source = baseline_kernel(tiny_spec().layout(), tau_select=7)
        # 1/7 is approximated with shifts 3, 6 and 9 (paper Table II).
        assert "srai a3, a1, 3" in source
        assert ", 6" in source and ", 9" in source

    def test_pin_voltage_adds_clamp(self):
        layout = tiny_spec().layout()
        assert "bas_no_pin" in baseline_kernel(layout, pin_voltage=True)
        assert "bas_no_pin" not in baseline_kernel(layout, pin_voltage=False)


class TestWorkloadBuilders:
    def test_eighty_twenty_builder_shapes(self):
        wl = build_eighty_twenty_workload(num_neurons=20, num_steps=2, kind="extension")
        assert wl.layout.num_neurons == 20
        assert wl.spec.num_steps == 2
        assert wl.program.size_bytes > 0

    def test_instructions_per_update_estimate(self):
        ext = build_eighty_twenty_workload(num_neurons=10, num_steps=1, kind="extension")
        bas = build_eighty_twenty_workload(num_neurons=10, num_steps=1, kind="baseline")
        assert bas.instructions_per_update_estimate > ext.instructions_per_update_estimate

    def test_simulator_roundtrip(self):
        wl = build_eighty_twenty_workload(num_neurons=10, num_steps=2, kind="extension")
        fsim = wl.make_simulator()
        fsim.run(max_instructions=200_000)
        assert fsim.halted
        assert wl.total_spikes(fsim) >= 0
        assert len(wl.read_vu_words(fsim)) == 10

    @pytest.mark.parametrize("num_neurons", [12, 37])
    def test_eighty_twenty_split_matches_runtime_replica(self, num_neurons):
        # 37 neurons rounds the excitatory share (29.6 -> 30): the ISA
        # workload and the batched replica must agree on the columns.
        from repro.runtime import build_eighty_twenty_replicas

        wl = build_eighty_twenty_workload(num_neurons=num_neurons, num_steps=1, seed=11)
        (network,) = build_eighty_twenty_replicas([11], backend="float64", num_neurons=num_neurons)
        population = network.population
        for name in ("a", "b", "c", "d"):
            np.testing.assert_array_equal(getattr(wl.spec, name), getattr(population, name))
        np.testing.assert_array_equal(wl.spec.weights, network.synapses.weights)
