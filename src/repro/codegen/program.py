"""Workload builders: from a network description to a runnable simulator.

A *workload* bundles an assembled program, the memory image holding the
network data and the metadata needed to interpret the results.  Builders
are provided for the paper's two applications:

* :func:`build_eighty_twenty_workload` — a (scalable) version of the 80-20
  cortical network: the full-size instance matches Table V's 1000 neurons,
  while smaller instances are used for the cycle-accurate steady-state
  windows (full-size cycle simulation is impractical in pure Python; see
  DESIGN.md).
* :func:`build_sudoku_workload` — the 729-neuron WTA network driving the
  Sudoku solver of Table VI.

Each builder accepts ``kind`` = ``"extension"`` (neuromorphic
instructions) or ``"baseline"`` (base RV32IM), producing bit-compatible
programs whose performance difference is exactly the contribution of the
ISA extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..isa.assembler import Program, assemble
from ..sim.functional import FunctionalSimulator
from ..sim.memory import DEFAULT_MEMORY_MAP, Memory
from ..snn.eighty_twenty import build_eighty_twenty, eighty_twenty_config
from ..sudoku.board import SudokuBoard
from ..sudoku.wta import WTAConfig, build_wta_synapses, neuron_index, NUM_NEURONS as WTA_NEURONS
from .kernels import kernel_source
from .layout import NetworkDataLayout, WorkloadSpec, encode_network_data

__all__ = ["Workload", "build_workload", "build_eighty_twenty_workload", "build_sudoku_workload"]


@dataclass
class Workload:
    """A runnable evaluation program plus its data image and metadata."""

    name: str
    kind: str
    spec: WorkloadSpec
    layout: NetworkDataLayout
    program: Program
    source: str

    def make_simulator(self, *, fast_dispatch: bool = True) -> FunctionalSimulator:
        """Create a fresh functional simulator pre-loaded with program + data.

        ``fast_dispatch=False`` selects the legacy ``if/elif`` execution
        chain (for differential testing and baseline benchmarks).
        """
        memory = Memory(DEFAULT_MEMORY_MAP())
        fsim = FunctionalSimulator(memory, fast_dispatch=fast_dispatch)
        fsim.load_program(self.program)
        memory.load_bytes(encode_network_data(self.spec, self.layout), base=self.layout.base)
        return fsim

    # ------------------------------------------------------------------ #
    # Result decoding helpers
    # ------------------------------------------------------------------ #
    def total_spikes(self, fsim: FunctionalSimulator) -> int:
        """Read the total spike count written by the program."""
        return fsim.memory.load_word(self.layout.result_base)

    def vu_checksum(self, fsim: FunctionalSimulator) -> int:
        """Read the final VU-word checksum written by the program."""
        return fsim.memory.load_word(self.layout.result_base + 4)

    def read_vu_words(self, fsim: FunctionalSimulator) -> np.ndarray:
        """Read back the packed VU words after the run."""
        return np.asarray(
            fsim.memory.read_words(self.layout.vu_base, self.layout.num_neurons), dtype=np.int64
        )

    def read_currents(self, fsim: FunctionalSimulator) -> np.ndarray:
        """Read back the Q15.16 current words after the run."""
        return np.asarray(
            fsim.memory.read_words(self.layout.current_base, self.layout.num_neurons), dtype=np.int64
        )

    @property
    def instructions_per_update_estimate(self) -> int:
        """Static estimate of kernel instructions per neuron update."""
        body = self.source.split("neuron_loop:")[1].split("_prop_loop")[0]
        return sum(
            1
            for line in body.splitlines()
            if line.strip() and not line.strip().startswith(("#", ".", "_"))
            and ":" not in line.split("#")[0]
        )


def build_workload(spec: WorkloadSpec, *, kind: str = "extension", origin: int = 0) -> Workload:
    """Assemble the requested kernel for an arbitrary :class:`WorkloadSpec`."""
    layout = spec.layout()
    source = kernel_source(kind, layout, tau_select=spec.tau_select, pin_voltage=spec.pin_voltage)
    program = assemble(source, origin=origin)
    return Workload(name=spec.name, kind=kind, spec=spec, layout=layout, program=program, source=source)


# ---------------------------------------------------------------------- #
# 80-20 cortical network workload (Table V)
# ---------------------------------------------------------------------- #
def build_eighty_twenty_workload(
    *,
    num_neurons: int = 1000,
    num_steps: int = 5,
    kind: str = "extension",
    tau_select: int = 4,
    seed: int = 2003,
) -> Workload:
    """Build the 80-20 workload, optionally scaled down for cycle simulation.

    The neuron population keeps the 80/20 excitatory/inhibitory split and
    Izhikevich's parameter distributions; the dense random connectivity and
    the per-step thalamic noise are scaled to ``num_neurons``.

    The dense weights make the data image grow as ``num_neurons**2``: above
    about 720 neurons it no longer fits the 4 MiB on-chip region (see
    :class:`~repro.codegen.layout.NetworkDataLayout`). The default 1000
    neurons builds an 8 MB image, whose tail the cycle-accurate core times
    as off-chip memory; the functional results are unaffected.
    """
    if num_neurons < 5:
        raise ValueError("the 80-20 network needs at least 5 neurons")
    net = build_eighty_twenty(eighty_twenty_config(num_neurons, seed))
    external = np.stack([net.thalamic_input(t) for t in range(num_steps)])
    spec = WorkloadSpec(
        a=net.a,
        b=net.b,
        c=net.c,
        d=net.d,
        v0=np.full(num_neurons, -65.0),
        u0=net.b * -65.0,
        weights=net.weights,
        external_input=external,
        tau_select=tau_select,
        pin_voltage=False,
        name=f"eighty-twenty-{num_neurons}n-{num_steps}t",
    )
    return build_workload(spec, kind=kind)


# ---------------------------------------------------------------------- #
# Sudoku WTA workload (Table VI)
# ---------------------------------------------------------------------- #
def build_sudoku_workload(
    puzzle: Optional[SudokuBoard] = None,
    *,
    num_steps: int = 5,
    kind: str = "extension",
    config: Optional[WTAConfig] = None,
    seed: int = 7,
) -> Workload:
    """Build the 729-neuron Sudoku WTA workload for performance measurement.

    The generated program runs the per-timestep update/propagation loop of
    the solver; the drive (clues + exploration noise) is pre-computed per
    step, exactly as the processor would read it from its input buffer.
    """
    cfg = config if config is not None else WTAConfig()
    board = puzzle if puzzle is not None else SudokuBoard.empty()
    synapses = build_wta_synapses(cfg)
    weights = np.asarray(synapses.matrix.todense(), dtype=np.float64)

    drive = np.full(WTA_NEURONS, cfg.free_bias, dtype=np.float64)
    for row, col, digit in board.clue_positions():
        for d in range(1, 10):
            drive[neuron_index(row, col, d)] = 0.0
        drive[neuron_index(row, col, digit)] = cfg.clue_drive
    rng = np.random.default_rng(seed)
    free_mask = (drive > 0.0) & (drive != cfg.clue_drive)
    external = np.stack(
        [drive + cfg.noise_sigma * rng.standard_normal(WTA_NEURONS) * free_mask for _ in range(num_steps)]
    )

    spec = WorkloadSpec(
        a=np.full(WTA_NEURONS, cfg.a),
        b=np.full(WTA_NEURONS, cfg.b),
        c=np.full(WTA_NEURONS, cfg.c),
        d=np.full(WTA_NEURONS, cfg.d),
        v0=np.full(WTA_NEURONS, -65.0),
        u0=np.full(WTA_NEURONS, cfg.b * -65.0),
        weights=weights,
        external_input=external,
        tau_select=cfg.tau_select,
        pin_voltage=True,
        name=f"sudoku-wta-{num_steps}t",
    )
    return build_workload(spec, kind=kind)
