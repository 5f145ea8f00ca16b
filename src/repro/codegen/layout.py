"""Memory layout and data encoding for the generated evaluation programs.

The evaluation programs (the 80-20 loop and the Sudoku WTA loop of paper
§VI) keep all network state in the on-chip memory region, mirroring the
FPGA system: packed VU words, Q15.16 synaptic currents, per-neuron
parameter words (in exactly the ``nmldl`` operand layout), a table of
pre-computed external inputs for each simulated step, the recurrent
connectivity in CSR form and a small result/scratch area.

:class:`NetworkDataLayout` computes the addresses; :func:`encode_network_data`
turns a :class:`WorkloadSpec` (parameters, initial state, weights, inputs)
into one contiguous little-endian byte image of ``[layout.base, layout.end)``
that is copied into the simulator's memory before the program runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..fixedpoint import Q4_11, Q7_8, Q15_16
from ..fixedpoint.vuword import pack_vu

__all__ = ["ONCHIP_BASE", "NetworkDataLayout", "WorkloadSpec", "encode_network_data"]

#: Base of the on-chip data region (see :func:`repro.sim.memory.DEFAULT_MEMORY_MAP`).
ONCHIP_BASE = 0x1000_0000

_MASK16 = 0xFFFF
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class NetworkDataLayout:
    """Addresses of every data structure used by the generated kernels.

    The image is ``4 * (n * (6 + steps) + 2 * synapses + 5)`` bytes for
    ``n`` neurons. It must end inside the 4 MiB ``onchip`` region
    (``end <= 0x1040_0000`` at the default base) to be timed as on-chip
    data: past it the words land in unmapped memory, which the
    cycle-accurate core charges the off-chip miss penalty. Dense 80-20
    images outgrow the region above about 720 neurons.
    """

    num_neurons: int
    num_steps: int
    num_synapses: int
    base: int = ONCHIP_BASE

    def _offset(self, words: int) -> int:
        return words * 4

    # Region sizes in words -------------------------------------------------
    @property
    def vu_base(self) -> int:
        """Packed VU words, one per neuron."""
        return self.base

    @property
    def current_base(self) -> int:
        """Q15.16 synaptic currents, one per neuron."""
        return self.vu_base + self._offset(self.num_neurons)

    @property
    def param_base(self) -> int:
        """Two words per neuron: ``(b<<16|a)`` and ``(d<<16|c)`` (nmldl layout)."""
        return self.current_base + self._offset(self.num_neurons)

    @property
    def input_base(self) -> int:
        """Pre-computed external input, ``num_steps`` rows of ``num_neurons`` words."""
        return self.param_base + self._offset(2 * self.num_neurons)

    @property
    def rowptr_base(self) -> int:
        """CSR row-pointer array (``num_neurons + 1`` words)."""
        return self.input_base + self._offset(self.num_steps * self.num_neurons)

    @property
    def syn_index_base(self) -> int:
        """CSR column-index array (``num_synapses`` words)."""
        return self.rowptr_base + self._offset(self.num_neurons + 1)

    @property
    def syn_weight_base(self) -> int:
        """CSR weight array in Q15.16 (``num_synapses`` words)."""
        return self.syn_index_base + self._offset(self.num_synapses)

    @property
    def spike_buffer_base(self) -> int:
        """Scratch buffer of spiking neuron indices for the current step."""
        return self.syn_weight_base + self._offset(self.num_synapses)

    @property
    def result_base(self) -> int:
        """Result words: [0] total spikes, [1] checksum of VU words."""
        return self.spike_buffer_base + self._offset(self.num_neurons)

    @property
    def end(self) -> int:
        """First address past the data image."""
        return self.result_base + self._offset(4)

    @property
    def total_bytes(self) -> int:
        return self.end - self.base

    def as_symbols(self) -> Dict[str, int]:
        """Symbol table handed to the assembler via ``.equ`` directives."""
        return {
            "VU_BASE": self.vu_base,
            "CURRENT_BASE": self.current_base,
            "PARAM_BASE": self.param_base,
            "INPUT_BASE": self.input_base,
            "ROWPTR_BASE": self.rowptr_base,
            "SYN_INDEX_BASE": self.syn_index_base,
            "SYN_WEIGHT_BASE": self.syn_weight_base,
            "SPIKE_BUF_BASE": self.spike_buffer_base,
            "RESULT_BASE": self.result_base,
            "NUM_NEURONS": self.num_neurons,
            "NUM_STEPS": self.num_steps,
        }


@dataclass
class WorkloadSpec:
    """A fully-specified SNN workload ready to be encoded and compiled.

    Attributes
    ----------
    a, b, c, d:
        Per-neuron Izhikevich parameters (real-valued; quantised when
        encoded).
    v0, u0:
        Initial state (real-valued).
    weights:
        Dense ``[post, pre]`` weight matrix; zeros are dropped when the
        CSR image is built.
    external_input:
        ``[num_steps, num_neurons]`` array of per-step injected currents.
    tau_select:
        DCU decay selector used by the kernel.
    pin_voltage:
        Whether the kernel configures the NPU membrane pin.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    v0: np.ndarray
    u0: np.ndarray
    weights: np.ndarray
    external_input: np.ndarray
    tau_select: int = 4
    pin_voltage: bool = False
    name: str = "workload"

    def __post_init__(self) -> None:
        n = len(np.asarray(self.a))
        for label in ("b", "c", "d", "v0", "u0"):
            if len(np.asarray(getattr(self, label))) != n:
                raise ValueError(f"parameter array {label!r} does not match population size {n}")
        weights = np.asarray(self.weights)
        if weights.shape != (n, n):
            raise ValueError(f"weight matrix must be [{n}, {n}], got {weights.shape}")
        inputs = np.asarray(self.external_input)
        if inputs.ndim != 2 or inputs.shape[1] != n:
            raise ValueError("external_input must be [num_steps, num_neurons]")

    @property
    def num_neurons(self) -> int:
        return len(np.asarray(self.a))

    @property
    def num_steps(self) -> int:
        return int(np.asarray(self.external_input).shape[0])

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view of the weight matrix, row = presynaptic neuron.

        Returns ``(row_ptr, col_index, weight)`` where row ``s`` lists the
        postsynaptic targets of neuron ``s`` (the kernel walks this row
        when neuron ``s`` spikes).
        """
        n = self.num_neurons
        weights_t = np.asarray(self.weights, dtype=np.float64).T
        pre, post = np.nonzero(weights_t)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        row_ptr[1:] = np.bincount(pre, minlength=n).cumsum()
        return row_ptr, post.astype(np.int64), weights_t[pre, post]

    def layout(self, *, base: int = ONCHIP_BASE) -> NetworkDataLayout:
        return NetworkDataLayout(
            num_neurons=self.num_neurons,
            num_steps=self.num_steps,
            num_synapses=int(np.count_nonzero(np.asarray(self.weights, dtype=np.float64))),
            base=base,
        )


def encode_network_data(spec: WorkloadSpec, layout: NetworkDataLayout) -> bytes:
    """Encode a workload into the little-endian image of ``[layout.base, layout.end)``.

    Every region is built as one block of words, masked to 32 bits (negative
    Q-format payloads wrap, as :meth:`repro.sim.memory.Memory.store_word`
    does), and the blocks are joined in address order.
    """
    row_ptr, col_index, weight = spec.csr()
    n = spec.num_neurons
    counts = (layout.num_neurons, layout.num_steps, layout.num_synapses)
    if counts != (n, spec.num_steps, len(col_index)):
        raise ValueError(f"layout {layout} does not describe workload {spec.name!r}")

    def bits(fmt, values: np.ndarray) -> np.ndarray:
        return np.asarray(fmt.to_unsigned(fmt.from_float(np.asarray(values, dtype=np.float64))))

    v_raw = np.asarray(Q7_8.from_float(np.asarray(spec.v0, dtype=np.float64)))
    u_raw = np.asarray(Q7_8.from_float(np.asarray(spec.u0, dtype=np.float64)))
    params = np.empty((n, 2), dtype=np.int64)
    params[:, 0] = ((bits(Q4_11, spec.b) & _MASK16) << 16) | (bits(Q4_11, spec.a) & _MASK16)
    params[:, 1] = ((bits(Q4_11, spec.d) & _MASK16) << 16) | (bits(Q7_8, spec.c) & _MASK16)

    blocks = (
        pack_vu(v_raw, u_raw),  # vu_base
        np.zeros(n),  # current_base
        params,  # param_base: (b<<16|a), (d<<16|c) per neuron
        bits(Q15_16, spec.external_input),  # input_base: [num_steps, num_neurons]
        row_ptr,  # rowptr_base
        col_index,  # syn_index_base
        bits(Q15_16, weight),  # syn_weight_base
        np.zeros(n + 4),  # spike_buffer_base, then the 4 result words
    )
    words = np.concatenate([np.asarray(block, dtype=np.int64).ravel() for block in blocks])
    return (words & _MASK32).astype("<u4").tobytes()
