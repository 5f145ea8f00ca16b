"""Tests for the workload memory layout and the generated kernels."""

import numpy as np
import pytest

from repro.codegen import (
    NetworkDataLayout,
    Workload,
    WorkloadSpec,
    baseline_kernel,
    build_eighty_twenty_workload,
    build_sudoku_workload,
    build_workload,
    encode_network_data,
    extension_kernel,
    kernel_source,
)
from repro.fixedpoint import Q4_11, Q7_8, Q15_16
from repro.fixedpoint.vuword import pack_vu
from repro.isa import assemble
from repro.sim import DEFAULT_MEMORY_MAP, Memory


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
        image = encode_network_data(spec, layout)
        # One contiguous image of [layout.base, layout.end), VU words first.
        assert isinstance(image, bytes)
        assert layout.vu_base == layout.base
        assert len(image) == layout.end - layout.base

    def test_vu_words_match_initial_state(self):
        from repro.fixedpoint import unpack_vu_float

        spec = tiny_spec()
        layout = spec.layout()
        image = encode_network_data(spec, layout)
        offset = layout.vu_base - layout.base
        v, u = unpack_vu_float(int.from_bytes(image[offset : offset + 4], "little"))
        assert v == pytest.approx(-65.0, abs=0.01)
        assert u == pytest.approx(-13.0, abs=0.01)

    def test_layout_must_match_spec(self):
        spec = tiny_spec()
        layout = spec.layout()
        stale = NetworkDataLayout(layout.num_neurons, layout.num_steps, layout.num_synapses + 1)
        with pytest.raises(ValueError):
            encode_network_data(spec, stale)


def reference_csr(weights):
    """The per-column CSR loop the vectorised :meth:`WorkloadSpec.csr` replaced."""
    n = weights.shape[0]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    cols, vals = [], []
    for pre in range(n):
        targets = np.nonzero(weights[:, pre])[0]
        cols.append(targets)
        vals.append(weights[targets, pre])
        row_ptr[pre + 1] = row_ptr[pre] + len(targets)
    return row_ptr, np.concatenate(cols).astype(np.int64), np.concatenate(vals)


def reference_words(spec, layout):
    """The per-word ``(address, word)`` encoder the byte image replaced."""
    words = []

    v_raw = np.asarray(Q7_8.from_float(np.asarray(spec.v0, dtype=np.float64)))
    u_raw = np.asarray(Q7_8.from_float(np.asarray(spec.u0, dtype=np.float64)))
    vu_words = np.asarray(pack_vu(v_raw, u_raw))
    for i, word in enumerate(vu_words):
        words.append((layout.vu_base + 4 * i, int(word)))

    for i in range(spec.num_neurons):
        words.append((layout.current_base + 4 * i, 0))

    a_bits = np.asarray(Q4_11.to_unsigned(Q4_11.from_float(np.asarray(spec.a, dtype=np.float64))))
    b_bits = np.asarray(Q4_11.to_unsigned(Q4_11.from_float(np.asarray(spec.b, dtype=np.float64))))
    c_bits = np.asarray(Q7_8.to_unsigned(Q7_8.from_float(np.asarray(spec.c, dtype=np.float64))))
    d_bits = np.asarray(Q4_11.to_unsigned(Q4_11.from_float(np.asarray(spec.d, dtype=np.float64))))
    for i in range(spec.num_neurons):
        ab_word = ((int(b_bits[i]) & 0xFFFF) << 16) | (int(a_bits[i]) & 0xFFFF)
        dc_word = ((int(d_bits[i]) & 0xFFFF) << 16) | (int(c_bits[i]) & 0xFFFF)
        words.append((layout.param_base + 8 * i, ab_word))
        words.append((layout.param_base + 8 * i + 4, dc_word))

    inputs = np.asarray(spec.external_input, dtype=np.float64)
    input_raw = np.asarray(Q15_16.from_float(inputs))
    input_bits = np.asarray(Q15_16.to_unsigned(input_raw))
    for t in range(spec.num_steps):
        base = layout.input_base + 4 * t * spec.num_neurons
        for i in range(spec.num_neurons):
            words.append((base + 4 * i, int(input_bits[t, i])))

    row_ptr, col_index, weight = reference_csr(np.asarray(spec.weights, dtype=np.float64))
    for i, value in enumerate(row_ptr):
        words.append((layout.rowptr_base + 4 * i, int(value)))
    weight_bits = np.asarray(Q15_16.to_unsigned(Q15_16.from_float(weight))) if len(weight) else []
    for k in range(len(col_index)):
        words.append((layout.syn_index_base + 4 * k, int(col_index[k])))
        words.append((layout.syn_weight_base + 4 * k, int(weight_bits[k])))

    for i in range(4):
        words.append((layout.result_base + 4 * i, 0))
    return words


def reference_memory(workload):
    """Memory as loaded one ``store_word`` at a time (program, then data)."""
    memory = Memory(DEFAULT_MEMORY_MAP())
    for i, word in enumerate(workload.program.words):
        memory.store_word(workload.program.origin + 4 * i, word)
    for address, word in reference_words(workload.spec, workload.layout):
        memory.store_word(address, word)
    return memory


def pages(memory):
    return {index: bytes(page) for index, page in memory._pages.items()}


def wta_weights():
    from repro.sudoku.wta import WTAConfig, build_wta_synapses

    return np.asarray(build_wta_synapses(WTAConfig()).matrix.todense(), dtype=np.float64)


def eighty_twenty_weights(num_neurons=200, seed=5):
    from repro.snn.eighty_twenty import build_eighty_twenty, eighty_twenty_config

    return np.asarray(build_eighty_twenty(eighty_twenty_config(num_neurons, seed)).weights)


def spec_with_weights(weights, num_steps=2, **overrides):
    n = weights.shape[0]
    fields = dict(
        a=np.full(n, 0.02), b=np.full(n, 0.2), c=np.full(n, -65.0), d=np.full(n, 8.0),
        v0=np.full(n, -65.0), u0=np.full(n, -13.0), weights=weights,
        external_input=np.random.default_rng(1).normal(5.0, 1.0, size=(num_steps, n)),
        name="custom",
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


class TestVectorisedCsr:
    @pytest.mark.parametrize(
        "make_weights", [wta_weights, eighty_twenty_weights], ids=["wta", "8020"]
    )
    def test_matches_per_column_loop(self, make_weights):
        weights = make_weights()
        spec = spec_with_weights(weights)
        for got, want in zip(spec.csr(), reference_csr(weights)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert spec.layout().num_synapses == len(spec.csr()[1])


@pytest.fixture(scope="module")
def board():
    from repro.sudoku import PuzzleGenerator

    return PuzzleGenerator().generate(seed=3, target_clues=35).puzzle


GOLDEN_BUILDS = {
    "8020-256n-12t": lambda board, kind: build_eighty_twenty_workload(
        num_neurons=256, num_steps=12, kind=kind
    ),
    "8020-48n-2t": lambda board, kind: build_eighty_twenty_workload(
        num_neurons=48, num_steps=2, kind=kind
    ),
    "wta-3t": lambda board, kind: build_sudoku_workload(board, num_steps=3, kind=kind),
    "wta-1t": lambda board, kind: build_sudoku_workload(board, num_steps=1, kind=kind),
    "no-synapses": lambda board, kind: build_workload(spec_with_weights(np.zeros((9, 9))), kind=kind),
    "negative": lambda board, kind: build_workload(
        spec_with_weights(
            -np.abs(eighty_twenty_weights(24, seed=9)),
            num_steps=3,
            b=np.full(24, -0.25),
            d=np.full(24, -2.0),
            external_input=np.random.default_rng(2).normal(-20.0, 5.0, size=(3, 24)),
        ),
        kind=kind,
    ),
}


class TestGoldenImage:
    @pytest.mark.parametrize("kind", ["extension", "baseline"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
    def test_memory_matches_per_word_loader(self, name, kind, board):
        workload = GOLDEN_BUILDS[name](board, kind)
        got, want = pages(workload.make_simulator().memory), pages(reference_memory(workload))
        assert sorted(got) == sorted(want)
        assert [index for index in want if got[index] != want[index]] == []

    def test_load_makes_no_per_word_stores(self, board, monkeypatch):
        calls = {"store_word": 0, "store_byte": 0}
        for name in calls:
            original = getattr(Memory, name)

            def counted(self, address, value, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, address, value)

            monkeypatch.setattr(Memory, name, counted)
        build_sudoku_workload(board, num_steps=3).make_simulator()
        assert calls == {"store_word": 0, "store_byte": 0}


class _Built(Exception):
    """Stops a driver right after it builds its first simulator."""


class TestOnChipCapacity:
    """Every image the drivers build is timed as on-chip data: it ends inside ``onchip``."""

    ONCHIP_END = DEFAULT_MEMORY_MAP().region("onchip").end

    @pytest.fixture
    def layouts(self, monkeypatch):
        seen = []

        def record(workload, **_):
            seen.append(workload.layout)
            raise _Built

        monkeypatch.setattr(Workload, "make_simulator", record)
        return seen

    def run(self, driver, layouts):
        with pytest.raises(_Built):
            driver()
        assert layouts and all(layout.end <= self.ONCHIP_END for layout in layouts)

    def test_quickstart(self, layouts):
        from repro import quickstart

        self.run(quickstart.time_it_on_the_pipeline, layouts)

    @pytest.mark.parametrize(
        "driver", ["table5_eighty_twenty", "table6_sudoku", "softfloat_speedup"]
    )
    def test_harness(self, driver, layouts):
        from repro.harness import experiments

        self.run(getattr(experiments, driver), layouts)

    def test_perfbench_iss_programs(self, monkeypatch):
        from perfbench.workloads import IssPrograms

        seen = []
        monkeypatch.setattr(
            Workload, "make_simulator", lambda workload, **_: seen.append(workload.layout)
        )
        bench = IssPrograms()
        bench.setup(bench.prepare(1), workdir=None)
        assert len(seen) == 8
        assert all(layout.end <= self.ONCHIP_END for layout in seen)


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
