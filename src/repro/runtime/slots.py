"""Shared continuous-batching slot engine over :class:`BatchedNetwork`.

Three subsystems grew the same bit-exactness-critical slot lifecycle
independently: the batched constraint solver
(:func:`repro.csp.solver._run_batch`), the restart-portfolio engine
(:func:`repro.csp.portfolio.solve_instances_portfolio`) and the solve
service (:class:`repro.serve.SolveService`).  Each hand-rolled the
global step loop over one exact-mode fused batch, the per-row *local*
step counters, the sliding-window decode bookkeeping and the
retain-then-extend batch recomposition.  :class:`SlotEngine` owns that
machinery once; what remains per subsystem is a :class:`SlotPolicy` —
the *scheduling* decision of which rows retire and which admissions
refill the freed slots at each decode checkpoint.

The engine's invariants (every consumer inherits them):

* **Local step counters.**  Each :class:`SlotRow` records the global
  step count at admission (``offset``); its *local* step —
  ``global step - offset`` — drives its anneal phase (``step_offset``
  stamped into the row's drive spec at admission), its sliding-window
  slot and its spike-recency bookkeeping.  A row stacked into a
  half-finished batch therefore replays exactly the trajectory of a
  fresh standalone run.
* **Retain before extend.**  Batch recomposition always drops retired
  rows (:meth:`BatchedNetwork.retain`) *before* stacking admissions
  (:meth:`BatchedNetwork.extend`), with the ``extend([])`` /
  nothing-survives edge cases guarded in one place
  (:meth:`SlotEngine.recompose`): surviving rows' network state and
  noise streams are untouched by their neighbours' departures and
  arrivals.  Direct ``retain``/``extend`` calls outside
  ``repro/runtime/`` are forbidden (reprolint rule RL001,
  ``docs/LINTING.md``).
* **Checkpoint cadence.**  Rows are decoded when their local step hits
  the check interval or their local budget — the union mask over rows
  decides when a checkpoint fires, so mixed-offset batches check each
  row on its own standalone schedule.
* **One step loop.**  :meth:`SlotEngine.advance` is the loop body —
  step, policy decision, recomposition, then the crash-safety hook of an
  optional :class:`~repro.runtime.checkpoint.Checkpointer` (periodic
  snapshot, injected crash).  :meth:`SlotEngine.run` loops over it and
  the serve scheduler calls it step by step; nothing else steps an
  engine.
* **Zero-step runs.**  ``max_steps <= 0`` never allocates a batch; the
  canonical zero-step window (:meth:`SlotEngine.empty_window`) decodes
  clamps only, identically across the solver, portfolio and serve
  layers.

The engine is deliberately ignorant of constraint graphs: rows carry
``graph`` / ``clamps`` opaquely and decoding is delegated to an injected
:class:`SlotDecoder` (the CSP layers pass
``repro.csp.solver.CSP_SLOT_DECODER``), which keeps ``repro.runtime``
below ``repro.csp`` in the layering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .batch import BatchedNetwork
from .drives import PortfolioAnnealedDrive, annealed_specs, compile_batched_external

if TYPE_CHECKING:
    from .checkpoint import Checkpointer

__all__ = [
    "OneShotPolicy",
    "SlotCheckpoint",
    "SlotDecision",
    "SlotDecode",
    "SlotDecoder",
    "SlotEngine",
    "SlotOutcome",
    "SlotPolicy",
    "SlotRow",
]


@dataclass(frozen=True)
class SlotDecode:
    """One row's decoded assignment at a checkpoint."""

    values: np.ndarray
    decided: np.ndarray
    #: The decoded assignment satisfies the row's instance.
    solved: bool


@dataclass
class SlotRow:
    """One live batch row: an instance run with a local step budget.

    ``graph`` and ``clamps`` are opaque to the engine — they are handed
    to the injected :class:`SlotDecoder` verbatim.  ``payload`` is
    policy-owned context (an entry index, a portfolio attempt, a serve
    ticket); the engine never looks at it.
    """

    graph: Any
    clamps: Any
    #: Local step budget: the row retires no later than its budget-th
    #: local step (the ``at_budget`` checkpoint mask).
    budget: int
    payload: Any = None
    #: Global steps completed when the row was admitted (its local step
    #: 0).  Assigned by the engine at admission.
    offset: int = 0


#: An admission: the row descriptor plus its freshly built network.
SlotAdmission = Tuple[SlotRow, Any]


@dataclass
class SlotDecision:
    """A policy's verdict at one checkpoint.

    ``keep`` lists the surviving row indices in strictly increasing
    order; every other live row retires.  ``admissions`` are stacked
    into the freed capacity.  ``stop`` ends a :meth:`SlotEngine.run`
    loop after this recomposition (the portfolio's all-instances-solved
    early exit).
    """

    keep: List[int]
    admissions: List[SlotAdmission] = field(default_factory=list)
    stop: bool = False


@dataclass
class SlotOutcome:
    """A retired row's bookkeeping snapshot (recorded by policies)."""

    row: SlotRow
    #: Local steps completed when the row retired.
    local_steps: int
    #: Spikes the row emitted over its lifetime.
    spikes: int
    decode: SlotDecode


class SlotDecoder(Protocol):
    """Decodes one row's assignment from its sliding-window state."""

    def decode(
        self, row: SlotRow, window_counts: np.ndarray, last_spike: np.ndarray
    ) -> SlotDecode:  # pragma: no cover - interface
        ...


class SlotPolicy(Protocol):
    """Scheduling policy driven by :meth:`SlotEngine.run`.

    The engine owns the mechanics (stepping, windows, recomposition);
    the policy owns the decisions (retire / admit / stop).  Incremental
    consumers (the serve scheduler) skip :meth:`initial_admissions`,
    admit rows themselves and call :meth:`SlotEngine.advance` once per
    step.
    """

    def initial_admissions(self, engine: "SlotEngine") -> List[SlotAdmission]:
        """The first wave of rows (called once, before the first step)."""
        ...  # pragma: no cover - interface

    def on_checkpoint(self, checkpoint: "SlotCheckpoint") -> SlotDecision:
        """Decide retirements and admissions at a decode checkpoint."""
        ...  # pragma: no cover - interface


@dataclass
class SlotCheckpoint:
    """Engine state handed to a policy when any row hits a check point."""

    engine: "SlotEngine"
    #: Global step count (the step just executed).
    step: int
    #: Per-row local step counts (1-based), ``step - offset``.
    local: np.ndarray
    #: Rows at a decode point (check-interval multiple or budget).
    at_check: np.ndarray
    #: Rows whose local budget is exhausted.
    at_budget: np.ndarray


class SlotEngine:
    """The continuous-batching core shared by solve / portfolio / serve.

    Parameters
    ----------
    decoder:
        Decodes a row's sliding window into an assignment
        (:class:`SlotDecoder`); the engine itself is graph-agnostic.
    window:
        Sliding decode window length in steps (``CSPConfig.decode_window``).
    check_interval:
        Local-step cadence of decode checkpoints.
    extendable:
        ``True`` (portfolio/serve) builds batches on
        :class:`~repro.runtime.drives.PortfolioAnnealedDrive` so freed
        slots can be refilled mid-run; ``False`` (one-shot solver
        batches) compiles the drives with
        :func:`~repro.runtime.drives.compile_batched_external`, keeping
        the per-replica fallback for uncompilable providers.

    Batches are built in the bit-exact ``"exact"`` synapse mode.
    """

    def __init__(
        self,
        *,
        decoder: SlotDecoder,
        window: int,
        check_interval: int,
        extendable: bool = True,
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        self._decoder = decoder
        self._window = int(window)
        self._check_interval = int(check_interval)
        self._extendable = bool(extendable)

        self._rows: List[SlotRow] = []
        self._batch: Optional[BatchedNetwork] = None
        self._step = 0
        self._num_neurons: Optional[int] = None
        self._updates_per_step: Optional[int] = None
        self._history: Optional[np.ndarray] = None
        self._window_counts: Optional[np.ndarray] = None
        self._last_spike: Optional[np.ndarray] = None
        self._row_spikes = np.zeros(0, dtype=np.int64)
        self._offsets = np.zeros(0, dtype=np.int64)
        self._budgets = np.zeros(0, dtype=np.int64)
        self._row_index = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Introspection (read-only views for policies and trailing decodes)
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> List[SlotRow]:
        return self._rows

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def global_step(self) -> int:
        """Global steps advanced so far (also the live batch's step index)."""
        return self._step

    @property
    def num_neurons(self) -> Optional[int]:
        return self._num_neurons

    @property
    def updates_per_step(self) -> Optional[int]:
        """Neuron updates per global step per row (neurons x sub-steps)."""
        return self._updates_per_step

    @property
    def row_spikes(self) -> np.ndarray:
        """Per-row lifetime spike counts (parallel to :attr:`rows`)."""
        return self._row_spikes

    def local_steps(self) -> np.ndarray:
        """Per-row local step counts completed so far."""
        return self._step - self._offsets

    def decode_row(self, row: int) -> SlotDecode:
        """Decode one live row's current sliding window."""
        return self._decoder.decode(
            self._rows[row], self._window_counts[row], self._last_spike[row]
        )

    # ------------------------------------------------------------------ #
    # Zero-step canonicalisation
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty_window(num_neurons: int) -> Tuple[np.ndarray, np.ndarray]:
        """The canonical zero-step window: no spikes, no recency.

        Decoding it yields the clamps-only assignment — what the step
        loop produces when the budget is exhausted before the first
        step.  The single source of the ``max_steps <= 0`` semantics for
        the solver, portfolio and serve layers (their historical
        per-layer copies drifted-by-construction; see
        ``repro.csp.solver._empty_result``).
        """
        return (
            np.zeros(num_neurons, dtype=np.int64),
            np.full(num_neurons, -1, dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Admission / retirement (the retain-before-extend owner)
    # ------------------------------------------------------------------ #
    def fast_forward(self, step: int) -> None:
        """Advance the global step clock while no rows are live.

        The serve scheduler uses this to let open-loop arrival schedules
        pass wall-clock-free through idle periods.  Refusing to skip a
        live batch keeps the step index consumed by drive providers
        contiguous.
        """
        if self._rows:
            raise RuntimeError("cannot fast-forward a live batch")
        if int(step) > self._step:
            self._step = int(step)

    def admit(self, admissions: Sequence[SlotAdmission]) -> None:
        """Stack admissions into the live batch, keeping every current row."""
        self.recompose(list(range(len(self._rows))), admissions)

    def recompose(self, keep: Sequence[int], admissions: Sequence[SlotAdmission]) -> None:
        """Apply one retire/admit decision to the live batch.

        ``keep`` lists surviving row indices in strictly increasing
        order.  The canonical composition order — retain survivors, then
        extend with admissions, rebuilding from scratch when nothing
        survives — together with the degenerate-shape guards
        (``extend([])`` no-op, empty recomposition) lives here and only
        here.  Admitted rows are stamped with the current global step:
        ``row.offset`` and their drive spec's ``step_offset`` both become
        ``global_step``, so each new row's local phase sequence replays a
        standalone run's.
        """
        keep = list(keep)
        admissions = list(admissions)
        if len(keep) == len(self._rows) and not admissions:
            return
        new_rows = [self._rows[i] for i in keep]
        new_nets = []
        for row, network in admissions:
            row.offset = self._step
            spec = getattr(network.external_input, "drive_spec", None)
            if spec is not None:
                spec.step_offset = self._step
            new_rows.append(row)
            new_nets.append(network)
        if not new_rows:
            # Nothing survives and nothing arrives: tear the batch down.
            self._rows = []
            self._batch = None
            self._reset_arrays()
            return
        if self._num_neurons is None:
            self._num_neurons = int(new_nets[0].size)
        if self._updates_per_step is None and new_nets:
            substeps = getattr(new_nets[0].population, "substeps_per_ms", 1)
            self._updates_per_step = int(self._num_neurons) * int(substeps)
        self._ensure_arrays()
        if keep and self._batch is not None:
            if len(keep) < len(self._rows):
                self._batch.retain(keep)
            if new_nets:  # the extend([]) guard, centralised
                self._batch.extend(new_nets)
        else:
            self._batch = self._build_batch(new_nets)
        pad = (len(new_nets), int(self._num_neurons))
        self._history = np.concatenate(
            [self._history[:, keep], np.zeros((self._window,) + pad, dtype=bool)], axis=1
        )
        self._window_counts = np.concatenate(
            [self._window_counts[keep], np.zeros(pad, dtype=np.int64)]
        )
        self._last_spike = np.concatenate(
            [self._last_spike[keep], np.full(pad, -1, dtype=np.int64)]
        )
        self._row_spikes = np.concatenate(
            [self._row_spikes[keep], np.zeros(len(new_nets), dtype=np.int64)]
        )
        self._rows = new_rows
        self._offsets = np.asarray([r.offset for r in self._rows], dtype=np.int64)
        self._budgets = np.asarray([r.budget for r in self._rows], dtype=np.int64)
        self._row_index = np.arange(len(self._rows), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Checkpointing (repro.runtime.checkpoint)
    # ------------------------------------------------------------------ #
    def _config_descriptor(self) -> dict:
        return {
            "window": int(self._window),
            "check_interval": int(self._check_interval),
            "extendable": bool(self._extendable),
        }

    def export_state(self, *, payloads: Optional[Sequence[Any]] = None) -> dict:
        """A picklable snapshot of the engine between two steps.

        Captures the global step clock, every live row's descriptor
        (graph, clamps, budget, admission offset), the sliding-window /
        recency / spike bookkeeping, the batched network state and the
        compiled drive state (noise cursors included) — everything
        :meth:`restore_state` needs to continue bit-identically.

        ``payloads`` substitutes a serialisable token per row for
        ``row.payload`` (the serve scheduler's payloads hold asyncio
        futures, which must never reach a pickle); by default the
        payloads are stored as-is (the one-shot solver uses plain ints).

        Engines running per-replica external providers (an uncompilable
        drive mix) are not checkpointable: the closures' RNG state
        cannot be exported, so this raises ``RuntimeError`` rather than
        silently snapshotting half the state.
        """
        if payloads is not None and len(payloads) != len(self._rows):
            raise ValueError("payload tokens must match the live row count")
        drive_state = None
        batch_state = None
        if self._batch is not None:
            provider = self._batch._batched_external
            exporter = getattr(provider, "export_state", None)
            if exporter is None:
                raise RuntimeError(
                    "cannot checkpoint a batch running per-replica external "
                    "providers (the closures' RNG state is not exportable)"
                )
            batch_state = self._batch.export_state()
            drive_state = exporter()
        rows = []
        for i, row in enumerate(self._rows):
            rows.append(
                {
                    "graph": row.graph,
                    "clamps": row.clamps,
                    "budget": int(row.budget),
                    "offset": int(row.offset),
                    "payload": payloads[i] if payloads is not None else row.payload,
                }
            )
        return {
            "config": self._config_descriptor(),
            "step": int(self._step),
            "num_neurons": self._num_neurons,
            "updates_per_step": self._updates_per_step,
            "rows": rows,
            "history": None if self._history is None else self._history.copy(),
            "window_counts": None if self._window_counts is None else self._window_counts.copy(),
            "last_spike": None if self._last_spike is None else self._last_spike.copy(),
            "row_spikes": self._row_spikes.copy(),
            "batch": batch_state,
            "drive": drive_state,
        }

    def restore_state(self, state: dict, networks: Sequence[Any]) -> None:
        """Rebuild the engine from a snapshot; continues bit-identically.

        ``networks`` must hold one freshly built network per snapshot
        row, in row order, built from the same (graph, clamps, seed,
        config) the original rows were — live networks hold unpicklable
        closures, so the snapshot stores only their state arrays and the
        caller re-derives the structure.  The fresh networks' state and
        drive streams are then overwritten wholesale with the snapshot's,
        which is what makes the restored engine's next step bit-identical
        to the uninterrupted run's.

        Restoring onto an engine with live rows, or with a mismatched
        window/check-interval configuration, raises before mutating.
        """
        if self._rows:
            raise RuntimeError("cannot restore into an engine with live rows")
        config = dict(state["config"])
        if config != self._config_descriptor():
            raise ValueError(
                f"checkpoint engine configuration {config} does not match "
                f"the live engine {self._config_descriptor()}"
            )
        row_states = list(state["rows"])
        networks = list(networks)
        if len(networks) != len(row_states):
            raise ValueError(
                f"restore got {len(networks)} networks for {len(row_states)} snapshot rows"
            )
        self._step = int(state["step"])
        self._num_neurons = state["num_neurons"]
        self._updates_per_step = state["updates_per_step"]
        self._rows = [
            SlotRow(
                graph=rs["graph"],
                clamps=rs["clamps"],
                budget=int(rs["budget"]),
                payload=rs["payload"],
                offset=int(rs["offset"]),
            )
            for rs in row_states
        ]
        if not self._rows:
            self._batch = None
            self._reset_arrays()
            return
        self._batch = self._build_batch(networks)
        self._batch.restore_state(state["batch"])
        provider = self._batch._batched_external
        if provider is not None:
            provider.restore_state(state["drive"])
        self._history = np.array(state["history"], dtype=bool, copy=True)
        self._window_counts = np.array(state["window_counts"], dtype=np.int64, copy=True)
        self._last_spike = np.array(state["last_spike"], dtype=np.int64, copy=True)
        self._row_spikes = np.array(state["row_spikes"], dtype=np.int64, copy=True)
        expected = (len(self._rows), int(self._num_neurons))
        if (
            self._history.shape != (self._window,) + expected
            or self._window_counts.shape != expected
            or self._last_spike.shape != expected
            or self._row_spikes.shape != (len(self._rows),)
        ):
            raise ValueError("checkpoint bookkeeping arrays disagree with the row set")
        self._offsets = np.asarray([r.offset for r in self._rows], dtype=np.int64)
        self._budgets = np.asarray([r.budget for r in self._rows], dtype=np.int64)
        self._row_index = np.arange(len(self._rows), dtype=np.int64)

    def _build_batch(self, networks: Sequence[Any]) -> BatchedNetwork:
        if self._extendable:
            provider = PortfolioAnnealedDrive(annealed_specs(networks))
        else:
            provider = compile_batched_external(networks)
        return BatchedNetwork.from_networks(networks, batched_external=provider)

    def _reset_arrays(self) -> None:
        if self._num_neurons is None:
            self._history = None
            self._window_counts = None
            self._last_spike = None
        else:
            n = int(self._num_neurons)
            self._history = np.zeros((self._window, 0, n), dtype=bool)
            self._window_counts = np.zeros((0, n), dtype=np.int64)
            self._last_spike = np.full((0, n), -1, dtype=np.int64)
        self._row_spikes = np.zeros(0, dtype=np.int64)
        self._offsets = np.zeros(0, dtype=np.int64)
        self._budgets = np.zeros(0, dtype=np.int64)
        self._row_index = np.zeros(0, dtype=np.int64)

    def _ensure_arrays(self) -> None:
        if self._history is None:
            self._reset_arrays()

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> Optional[SlotCheckpoint]:
        """Advance every live row by one global step.

        Updates the per-row sliding windows, recency and spike totals on
        *local* step coordinates, then returns a :class:`SlotCheckpoint`
        when any row reaches a decode point (check-interval multiple of
        its local step, or its local budget) — ``None`` otherwise.
        """
        if self._batch is None:
            raise RuntimeError("no live rows to step")
        self._step += 1
        fired = self._batch.step(self._step)
        local = self._step - self._offsets  # per-row local step (1-based)
        slot = local % self._window
        self._window_counts -= self._history[slot, self._row_index]
        self._history[slot, self._row_index] = fired
        self._window_counts += fired
        if fired.any():
            rows, cols = np.nonzero(fired)
            self._last_spike[rows, cols] = local[rows]
            self._row_spikes += fired.sum(axis=1)
        at_budget = local >= self._budgets
        at_check = (local % self._check_interval == 0) | at_budget
        if not at_check.any():
            return None
        return SlotCheckpoint(
            engine=self, step=self._step, local=local, at_check=at_check, at_budget=at_budget
        )

    def advance(self, policy: SlotPolicy, checkpointer: Optional["Checkpointer"] = None) -> bool:
        """One pass of the step loop: step, decide, recompose, checkpoint.

        Steps every live row, hands a decode checkpoint (if any) to
        ``policy`` and applies its decision, then gives ``checkpointer``
        its per-step hook (periodic snapshot, injected crash).  Returns
        the decision's ``stop`` flag.  :meth:`run` loops over this; the
        serve scheduler calls it once per scheduler step.
        """
        checkpoint = self.step()
        stop = False
        if checkpoint is not None:
            decision = policy.on_checkpoint(checkpoint)
            self.recompose(decision.keep, decision.admissions)
            stop = decision.stop
        if checkpointer is not None:
            checkpointer.after_step(self, policy)
        return stop

    def run(
        self,
        policy: SlotPolicy,
        *,
        max_steps: int,
        checkpointer: Optional["Checkpointer"] = None,
    ) -> None:
        """Closed-loop drive: admit the policy's first wave, step to done.

        The loop ends when every row has retired, the global step budget
        is exhausted, or the policy's decision says ``stop``.  Rows
        still live at exit are *not* decoded — callers snapshot them
        through :meth:`decode_row` / :meth:`local_steps`.  ``max_steps <= 0``
        returns immediately without admitting anything — the zero-step
        guard, centralised: no batch is ever allocated and callers
        decode the canonical :meth:`empty_window`.

        With a ``checkpointer`` every step goes through its hook and
        one final snapshot is written when the loop ends.  A run resumed
        with :meth:`Checkpointer.restore
        <repro.runtime.checkpoint.Checkpointer.restore>` passes a
        policy whose first wave is empty.
        """
        if max_steps <= 0:
            return
        self.admit(policy.initial_admissions(self))
        while self._rows and self._step < max_steps:
            if self.advance(policy, checkpointer):
                break
        if checkpointer is not None:
            checkpointer.save(self, policy)


class OneShotPolicy:
    """Run every admitted row to solution or budget; never refill.

    The policy behind :meth:`SpikingCSPSolver.solve_batch` /
    :func:`repro.csp.solver.solve_instances`: one attempt per instance,
    rows retiring as they solve (batch shrinking) or exhaust their
    budget, outcomes recorded in retirement order in :attr:`outcomes`.
    With every budget equal to the run's ``max_steps``, all rows retire
    inside :meth:`SlotEngine.run` and no trailing decode is needed.
    """

    def __init__(self, admissions: Sequence[SlotAdmission]) -> None:
        self._admissions = list(admissions)
        self.outcomes: List[SlotOutcome] = []

    def initial_admissions(self, engine: SlotEngine) -> List[SlotAdmission]:
        admissions, self._admissions = self._admissions, []
        return admissions

    def on_checkpoint(self, checkpoint: SlotCheckpoint) -> SlotDecision:
        engine = checkpoint.engine
        keep: List[int] = []
        for i, row in enumerate(engine.rows):
            if not checkpoint.at_check[i]:
                keep.append(i)
                continue
            decode = engine.decode_row(i)
            if decode.solved or checkpoint.at_budget[i]:
                self.outcomes.append(
                    SlotOutcome(
                        row=row,
                        local_steps=int(checkpoint.local[i]),
                        spikes=int(engine.row_spikes[i]),
                        decode=decode,
                    )
                )
            else:
                keep.append(i)
        return SlotDecision(keep=keep)
