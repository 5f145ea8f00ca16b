"""Batched multi-network runtime for the IzhiRISC-V reproduction.

This package makes *batches* of independent simulations the unit of work
(see ``docs/RUNTIME.md`` for worked examples).  It holds the engines, the
sweep fabric, the result cache and checkpoints, and imports nothing from
the packages above it (``csp``, ``serve``) or from the adapters
(``harness``, ``sudoku``, ``codegen``, ``hw``); every experiment's driver
lives in :mod:`repro.harness`, built on these primitives:

:mod:`repro.runtime.batch`
    :class:`BatchedNetwork`, the vectorised batch engine stacking ``B``
    networks into ``(B, N)`` state arrays advanced by fused updates;
    bit-exact with the sequential engine in its default mode.
:mod:`repro.runtime.cache`
    :class:`RunResultCache`, a content-addressed on-disk result store
    (keyed by a namespace, the request and a fingerprint of the ``repro``
    sources) behind the sweep fabric's resume and the serve tier's memo.
:mod:`repro.runtime.checkpoint`
    Crash-safe snapshots: versioned, checksummed, atomically written
    checkpoint files, a pruning :class:`CheckpointStore`, the
    :class:`Checkpointer` that gives a :class:`SlotEngine` run its
    snapshot cadence, restore and crash hook, and the deterministic
    :class:`FaultPlan` used by the chaos suites; paired
    with the ``export_state``/``restore_state`` hooks on
    :class:`BatchedNetwork`, the compiled drives and :class:`SlotEngine`
    so a restored solve continues bit-identically.
:mod:`repro.runtime.drives`
    Drive compilation: per-replica external-input closures compiled into
    one vectorised ``(B, N)`` provider with bit-identical per-replica
    noise streams (pregenerated in chunks), feeding the batch engine.
:mod:`repro.runtime.slots`
    :class:`SlotEngine`, the continuous-batching core shared by the
    one-shot solver batches, the restart portfolio and the solve
    service: the global step loop, per-row local step counters,
    sliding-window decode bookkeeping and retain-before-extend batch
    recomposition, with refill behaviour delegated to a pluggable
    :class:`SlotPolicy`.
:mod:`repro.runtime.sweep`
    :class:`SweepExecutor`, the work-stealing sweep fabric: workers pull
    chunked task leases from a shared queue (leases expire and are
    reassigned when a worker dies or stalls), completed tasks land in
    the :class:`RunResultCache` for crash-tolerant resume, and every
    sweep is described by a typed :class:`SweepSpec` and answered with a
    :class:`SweepReport` (with a warned serial fallback when the task
    function cannot be pickled).
:mod:`repro.runtime.workloads`
    The batched 80-20 seed sweep and its replica and noise builders.
"""

from .batch import BatchedNetwork, BatchIncompatibleError
from .cache import RunResultCache, code_fingerprint
from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    Checkpointer,
    CheckpointVersionError,
    FaultPlan,
    read_checkpoint,
    write_checkpoint,
)
from .drives import (
    AnnealedNoiseSpec,
    CompiledAnnealedDrive,
    CompiledDrive,
    CompiledScaledDrive,
    PortfolioAnnealedDrive,
    ScaledNoiseSpec,
    compile_batched_external,
)
from .slots import (
    OneShotPolicy,
    SlotCheckpoint,
    SlotDecision,
    SlotDecode,
    SlotDecoder,
    SlotEngine,
    SlotOutcome,
    SlotPolicy,
    SlotRow,
)
from .sweep import (
    SweepExecutor,
    SweepReport,
    SweepSpec,
    SweepTask,
    SweepTaskRecord,
    derive_task_seed,
    sweep_task_key,
)
from .workloads import (
    SeedSweepResult,
    batched_thalamic_provider,
    build_eighty_twenty_replicas,
    eighty_twenty_seed_sweep,
)

__all__ = [
    "BatchedNetwork",
    "BatchIncompatibleError",
    "RunResultCache",
    "code_fingerprint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointStore",
    "Checkpointer",
    "CheckpointVersionError",
    "FaultPlan",
    "read_checkpoint",
    "write_checkpoint",
    "AnnealedNoiseSpec",
    "CompiledAnnealedDrive",
    "CompiledDrive",
    "CompiledScaledDrive",
    "PortfolioAnnealedDrive",
    "ScaledNoiseSpec",
    "compile_batched_external",
    "OneShotPolicy",
    "SlotCheckpoint",
    "SlotDecision",
    "SlotDecode",
    "SlotDecoder",
    "SlotEngine",
    "SlotOutcome",
    "SlotPolicy",
    "SlotRow",
    "SweepExecutor",
    "SweepReport",
    "SweepSpec",
    "SweepTask",
    "SweepTaskRecord",
    "derive_task_seed",
    "sweep_task_key",
    "SeedSweepResult",
    "batched_thalamic_provider",
    "build_eighty_twenty_replicas",
    "eighty_twenty_seed_sweep",
]
