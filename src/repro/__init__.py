"""IzhiRISC-V reproduction library.

A Python reproduction of *"IzhiRISC-V — a RISC-V-based Processor with
Custom ISA Extension for Spiking Neuron Networks Processing with
Izhikevich Neurons"* (Szczerek & Podobas, SC 2025).

Subpackages
-----------
``repro.fixedpoint``
    Signed Q-format arithmetic (Q7.8 / Q4.11 / Q15.16) and VU-word packing.
``repro.isa``
    RV32IM + custom-0 neuromorphic instruction encodings, assembler and
    disassembler.
``repro.sim``
    Bit-accurate NPU/DCU models, functional ISS, cycle-level 3-stage
    pipeline with caches, shared bus and multi-core system.
``repro.snn``
    Spiking-neural-network substrate: double-precision and fixed-point
    Izhikevich models, the 80-20 cortical network and analysis tools.
``repro.sudoku``
    The Winner-Takes-All SNN Sudoku solver and puzzle utilities.
``repro.codegen``
    RISC-V program generators for the evaluation kernels (extension,
    base-ISA fixed point and soft-float baselines).
``repro.hw``
    FPGA and standard-cell resource/power/frequency models.
``repro.harness``
    Experiment drivers that regenerate every table and figure of the paper.
``repro.runtime``
    Batched multi-network runtime: the vectorised ``(B, N)`` batch
    engine, the slot engine, the work-stealing ``SweepExecutor``, the
    result cache and checkpoints (see ``docs/RUNTIME.md``).
``repro.csp``
    Generic spiking constraint solver: WTA domain encoding, scenario
    generators and the restart-portfolio engine (see ``docs/CSP.md``).
``repro.serve``
    Continuous-batching asyncio solve service streaming many clients'
    instances through one always-hot fused batch (see ``docs/SERVING.md``).
"""

__version__ = "0.2.0"

__all__ = ["__version__"]
