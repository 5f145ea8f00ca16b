"""The four benchmark workloads and the metrics each one emits.

Every workload follows one protocol, driven by :func:`run_benchmark` in
``run.py``:

``prepare(seed)``
    Generate the inputs from the seed (untimed).
``setup(inputs, workdir)``
    Build what one episode needs (timed: the per-episode part of
    ``setup_s``).
``run(ctx, tracer)``
    Run one episode and return an :class:`Episode` carrying its own wall
    time, the deterministic outputs (checked across episodes) and the
    figures the metrics are computed from.
``check(inputs, episode)``
    Compare the outputs with independent references; returns
    ``(attempted, failure messages)``.

The program only ever receives the generated inputs, through the public
API of ``repro.csp``, ``repro.serve``, ``repro.runtime``,
``repro.codegen`` and ``repro.sim``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.codegen as codegen
import repro.csp as csp
import repro.runtime as runtime
import repro.serve as serve
import repro.sim as sim
from repro.csp.scenarios import clamps_from_cells

from .tasks import coloring_task
from .trace import Span, Tracer, summarise

__all__ = ["WORKLOADS", "E2E_UNITS", "EXTRA_UNITS", "LAYER_UNITS", "Episode", "Workload"]

#: Sudoku clue counts of the easy and the hard set.
CLUES = (45, 35)
#: Size of every coloring instance (N = VERTICES * COLORS = 36 neurons).
VERTICES = 12
COLORS = 3
#: Sweep worker processes (``nproc`` on the reference host).
WORKERS = 2

#: End-to-end metrics every workload emits (``BENCHMARK.json`` ``end_to_end``).
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "neuron_updates_per_s": "1/s",
}

#: Workload-specific end-to-end figures, printed with the result.
EXTRA_UNITS: Dict[str, str] = {
    "error_rate": "ratio",
    "solves_per_s": "1/s",
    "solve_rate": "ratio",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "latency_p50_steps": "steps",
    "latency_p95_steps": "steps",
    "latency_samples": "count",
    "iss_instr_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "tasks_per_s": "1/s",
    "warm_pass_s": "s",
}

#: Per-layer metrics of a traced run (``BENCHMARK.json`` ``per_layer``).
LAYER_UNITS: Dict[str, str] = {
    "batch.step_calls": "count",
    "batch.row_steps": "count",
    "batch.step_self_s": "s",
    "batch.us_per_row_step": "us",
    "batch.retain_calls": "count",
    "batch.retain_s": "s",
    "batch.extend_calls": "count",
    "batch.extend_s": "s",
    "batch.build_s": "s",
    "drives.calls": "count",
    "drives.s": "s",
    "drives.compile_s": "s",
    "slots.step_self_s": "s",
    "slots.recompose_calls": "count",
    "slots.recompose_s": "s",
    "slots.decode_calls": "count",
    "slots.decode_s": "s",
    "slots.occupancy": "ratio",
    "csp.build_network_calls": "count",
    "csp.build_network_s": "s",
    "csp.decode_calls": "count",
    "csp.decode_s": "s",
    "csp.decode_solved_ratio": "ratio",
    "serve.queue_wait_steps_p95": "steps",
    "serve.residency_steps_p50": "steps",
    "serve.lateness_steps_p95": "steps",
    "serve.dedup_ratio": "ratio",
    "serve.shed": "count",
    "serve.occupancy": "ratio",
    "checkpoint.saves": "count",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.failures": "count",
    "journal.appends": "count",
    "journal.append_s": "s",
    "journal.bytes": "bytes",
    "sweep.startup_s": "s",
    "sweep.task_compute_s": "s",
    "sweep.tail_s": "s",
    "sweep.utilisation": "ratio",
    "sweep.steals": "count",
    "sweep.lease_retries": "count",
    "sweep.lease_expiries": "count",
    "sweep.worker_deaths": "count",
    "sweep.duplicates": "count",
    "cache.gets": "count",
    "cache.get_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.bytes": "bytes",
    "codegen.assemble_s": "s",
    "sim.load_s": "s",
    "sim.run_s": "s",
    "sim.instret_ext": "count",
    "sim.instret_base": "count",
    "sim.instret_ratio": "ratio",
    "pipeline.run_s": "s",
    "pipeline.cycles_ext": "count",
    "pipeline.cycles_base": "count",
    "pipeline.ipc_ext": "ratio",
    "pipeline.ipc_base": "ratio",
    "pipeline.hazard_stall_pct": "%",
    "pipeline.icache_hit_rate": "%",
    "pipeline.dcache_hit_rate": "%",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


@dataclass
class Episode:
    """What one episode produced."""

    #: The workload's own wall time for the episode (seconds).
    wall: float
    #: Deterministic outputs: identical on every episode of one seed.
    outputs: Any
    #: Figures the metrics are computed from.
    figures: Dict[str, float] = field(default_factory=dict)
    #: Anything :meth:`Workload.check` or the layer metrics need.
    detail: Any = None
    #: Operations the program refused; each counts as failed, on every episode.
    refused: List[str] = field(default_factory=list)


def derive_seeds(seed: int, salt: int, count: int) -> List[int]:
    """``count`` independent 31-bit seeds for one input stream of ``seed``."""
    state = np.random.SeedSequence([int(seed), int(salt)]).generate_state(count, dtype=np.uint32)
    return [int(value) >> 1 for value in state]


def digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def percentile(values: Sequence[float], fraction: float) -> float:
    return float(serve.nearest_rank_percentile(list(values), fraction))


def _csp_outputs(result: csp.CSPSolveResult) -> Tuple[Any, ...]:
    return (
        bool(result.solved),
        int(result.steps),
        tuple(int(v) for v in result.values),
        tuple(bool(d) for d in result.decided),
        int(result.total_spikes),
    )


def _span_layers(spans: Sequence[Span], capacity: int) -> Dict[str, float]:
    """Per-layer metrics that come straight from the span summary."""
    stats = summarise(spans)

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def total(name: str) -> float:
        return stats[name].total_s if name in stats else 0.0

    def own(name: str) -> float:
        return stats[name].self_s if name in stats else 0.0

    def value(name: str) -> float:
        return stats[name].value_sum if name in stats else 0.0

    row_steps = value("batch.step")
    slot_steps = calls("slots.step")
    return {
        "batch.step_calls": calls("batch.step"),
        "batch.row_steps": row_steps,
        "batch.step_self_s": own("batch.step"),
        "batch.us_per_row_step": 1e6 * total("batch.step") / row_steps if row_steps else 0.0,
        "batch.retain_calls": calls("batch.retain"),
        "batch.retain_s": total("batch.retain"),
        "batch.extend_calls": calls("batch.extend"),
        "batch.extend_s": total("batch.extend"),
        "batch.build_s": total("batch.build"),
        "drives.calls": calls("drives.call"),
        "drives.s": total("drives.call"),
        "drives.compile_s": total("drives.compile"),
        "slots.step_self_s": own("slots.step"),
        "slots.recompose_calls": calls("slots.recompose"),
        "slots.recompose_s": own("slots.recompose"),
        "slots.decode_calls": calls("slots.decode"),
        "slots.decode_s": total("slots.decode"),
        "slots.occupancy": (
            value("slots.step") / (slot_steps * capacity) if slot_steps and capacity else 0.0
        ),
        "csp.build_network_calls": calls("csp.build_network"),
        "csp.build_network_s": total("csp.build_network"),
        "csp.decode_calls": calls("csp.decode"),
        "csp.decode_s": total("csp.decode"),
        "csp.decode_solved_ratio": (
            value("slots.decode") / calls("slots.decode") if calls("slots.decode") else 0.0
        ),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes": value("checkpoint.save"),
        "journal.appends": calls("journal.append"),
        "journal.append_s": total("journal.append"),
        "cache.gets": calls("cache.get"),
        "cache.get_s": total("cache.get"),
        "cache.hits": value("cache.get"),
        "cache.misses": calls("cache.get") - value("cache.get"),
        "cache.puts": calls("cache.put"),
        "cache.put_s": total("cache.put"),
        "codegen.assemble_s": total("codegen.build"),
        "sim.load_s": total("sim.load"),
        "sim.run_s": total("sim.run"),
        "pipeline.run_s": total("pipeline.run"),
        "trace.spans": len(spans),
    }


class Workload:
    """Base of the workloads; see the module docstring for the protocol."""

    name = ""
    #: Packages whose cold import is part of ``setup_s``.
    modules: Tuple[str, ...] = ()
    #: Batch rows the engine keeps (the denominator of ``slots.occupancy``).
    capacity = 1

    def prepare(self, seed: int) -> Any:
        raise NotImplementedError

    def setup(self, inputs: Any, workdir: Path) -> Any:
        raise NotImplementedError

    def run(self, ctx: Any, tracer: Optional[Tracer]) -> Episode:
        raise NotImplementedError

    def check(self, inputs: Any, episode: Episode) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def metrics(self, episode: Episode) -> Dict[str, float]:
        """``neuron_updates_per_s`` plus this workload's extra figures."""
        raise NotImplementedError

    def layer_metrics(self, episode: Episode, spans: Sequence[Span]) -> Dict[str, float]:
        return _span_layers(spans, self.capacity)

    def notes(self, episode: Episode) -> List[str]:
        """Extra human-readable lines printed with the result."""
        return []


# ---------------------------------------------------------------------- #
# sudoku-batch
# ---------------------------------------------------------------------- #
def _sudoku_grid_ok(values: Sequence[int], clues: np.ndarray) -> bool:
    """An independent check that a decoded grid is a solution of its clues."""
    grid = np.asarray(values, dtype=np.int64).reshape(9, 9)
    digits = set(range(1, 10))
    units = [grid[r, :] for r in range(9)] + [grid[:, c] for c in range(9)]
    units += [grid[r : r + 3, c : c + 3].ravel() for r in (0, 3, 6) for c in (0, 3, 6)]
    if any(set(int(v) for v in unit) != digits for unit in units):
        return False
    mask = clues > 0
    return bool(np.array_equal(grid[mask], clues[mask]))


@dataclass
class SudokuInputs:
    #: ``(label, clue grids, solver seeds)`` per difficulty set.
    sets: List[Tuple[str, List[np.ndarray], List[int]]]


class SudokuBatch(Workload):
    name = "sudoku-batch"
    modules = ("repro.csp",)
    capacity = 32

    def __init__(self, per_set: int = 32, max_steps: int = 400) -> None:
        self.per_set = per_set
        self.max_steps = max_steps

    def prepare(self, seed: int) -> SudokuInputs:
        from repro.sudoku import PuzzleGenerator  # the puzzle generator with solutions

        generator = PuzzleGenerator()
        sets = []
        for salt, (label, clues) in enumerate(zip(("easy", "hard"), CLUES)):
            grids = [
                np.asarray(generator.generate(seed=s, target_clues=clues).puzzle.cells)
                for s in derive_seeds(seed, 10 + salt, self.per_set)
            ]
            sets.append((label, grids, derive_seeds(seed, 20 + salt, self.per_set)))
        return SudokuInputs(sets=sets)

    def setup(self, inputs: SudokuInputs, workdir: Path) -> Any:
        graph = csp.scenarios.sudoku_graph()
        return [
            ([(graph, clamps_from_cells(grid)) for grid in grids], seeds)
            for _, grids, seeds in inputs.sets
        ]

    def run(self, ctx: Any, tracer: Optional[Tracer]) -> Episode:
        start = time.perf_counter()
        results = [
            csp.solve_instances(instances, seeds=seeds, max_steps=self.max_steps)
            for instances, seeds in ctx
        ]
        wall = time.perf_counter() - start
        flat = [r for batch in results for r in batch]
        return Episode(
            wall=wall,
            outputs=[[_csp_outputs(r) for r in batch] for batch in results],
            figures={
                "ops": len(flat),
                "instances": len(flat),
                "solved": sum(r.solved for r in flat),
                "neuron_updates": sum(r.neuron_updates for r in flat),
            },
            detail=(ctx, results),
        )

    def check(self, inputs: SudokuInputs, episode: Episode) -> Tuple[int, List[str]]:
        ctx, results = episode.detail
        failures: List[str] = []
        attempted = 0
        for (label, grids, seeds), (instances, _), batch in zip(inputs.sets, ctx, results):
            for i, result in enumerate(batch):
                if result.solved:
                    attempted += 1
                    if not _sudoku_grid_ok(result.values, grids[i]):
                        failures.append(f"{label}[{i}]: solved grid violates the puzzle")
                attempted += 1
                graph, clamps = instances[i]
                alone = csp.SpikingCSPSolver(graph, seed=seeds[i]).solve(
                    clamps, max_steps=self.max_steps
                )
                if _csp_outputs(alone) != _csp_outputs(result):
                    failures.append(f"{label}[{i}]: batched result differs from standalone solve")
        return attempted, failures

    def metrics(self, episode: Episode) -> Dict[str, float]:
        f = episode.figures
        return {
            "neuron_updates_per_s": f["neuron_updates"] / episode.wall,
            "solves_per_s": f["solved"] / episode.wall,
            "solve_rate": f["solved"] / f["instances"],
        }


# ---------------------------------------------------------------------- #
# serve-open-loop
# ---------------------------------------------------------------------- #
@dataclass
class ServeInputs:
    pool: List[Tuple[Any, Dict[str, int]]]
    #: Per pool entry: the explicit request seed.
    seeds: List[int]
    #: ``(client, due step, pool index)`` per request.
    requests: List[Tuple[int, int, int]]


@dataclass
class ServeContext:
    inputs: ServeInputs
    service: Any
    workdir: Path


#: What ``SolveService.submit`` raises when it refuses a request.
REFUSALS = (serve.LoadShedError, serve.IncompatibleInstanceError, serve.ServiceClosedError)


def _ran(results: Sequence[Any]) -> List[Any]:
    """Served results that ran in the batch (not from the cache or coalesced)."""
    return [
        r for r in results
        if r is not None and not r.from_cache and not r.coalesced and r.result is not None
    ]


class ServeOpenLoop(Workload):
    name = "serve-open-loop"
    modules = ("repro.serve",)
    capacity = 32

    def __init__(
        self,
        clients: int = 8,
        requests: int = 240,
        unique: int = 96,
        max_steps: int = 300,
        interarrival: float = 25.0,
        capacity: int = 32,
        checkpoint_every: int = 50,
    ) -> None:
        self.clients = clients
        self.requests = requests
        self.unique = unique
        self.max_steps = max_steps
        self.interarrival = interarrival
        self.capacity = capacity
        self.checkpoint_every = checkpoint_every

    def prepare(self, seed: int) -> ServeInputs:
        pool = [
            csp.make_instance(
                "coloring", seed=s, num_vertices=VERTICES, num_colors=COLORS
            )
            for s in derive_seeds(seed, 30, self.unique)
        ]
        rng = np.random.default_rng(derive_seeds(seed, 31, 1)[0])
        per_client = self.requests // self.clients
        requests = []
        for client in range(self.clients):
            gaps = rng.exponential(self.interarrival, size=per_client)
            due = np.maximum(1, np.ceil(np.cumsum(gaps))).astype(np.int64)
            picks = rng.integers(0, self.unique, size=per_client)
            requests.extend((client, int(d), int(p)) for d, p in zip(due, picks))
        return ServeInputs(pool=pool, seeds=derive_seeds(seed, 32, self.unique), requests=requests)

    def setup(self, inputs: ServeInputs, workdir: Path) -> ServeContext:
        service = serve.SolveService(
            capacity=self.capacity,
            default_max_steps=self.max_steps,
            checkpoint_dir=workdir / "checkpoints",
            checkpoint_every=self.checkpoint_every,
            journal_path=workdir / "admissions.journal",
        )
        return ServeContext(inputs=inputs, service=service, workdir=workdir)

    async def _episode(self, ctx: ServeContext, tracer: Optional[Tracer]) -> Tuple[float, list]:
        inputs, service = ctx.inputs, ctx.service

        async def request(ordinal: int, client: int, due: int, pick: int):
            if tracer is not None:
                tracer.set_request(f"r{ordinal}")
            await service.wait_for_step(due)
            graph, clamps = inputs.pool[pick]
            start = time.perf_counter()
            try:
                result = await service.submit(
                    graph, clamps, client=f"client-{client}", seed=inputs.seeds[pick]
                )
            except REFUSALS as exc:
                return None, time.perf_counter() - start, f"request r{ordinal} refused: {exc!r}"
            return result, time.perf_counter() - start, None

        start = time.perf_counter()
        async with service:
            tasks = [
                asyncio.ensure_future(request(i, *req)) for i, req in enumerate(inputs.requests)
            ]
            answers = await asyncio.gather(*tasks)
        return time.perf_counter() - start, answers

    def run(self, ctx: ServeContext, tracer: Optional[Tracer]) -> Episode:
        wall, answers = asyncio.run(self._episode(ctx, tracer))
        ledger = ctx.service.metrics()
        results = [result for result, _, _ in answers]
        due = [d for _, d, _ in ctx.inputs.requests]
        # A refused request misses every latency limit.
        seconds = [math.inf if r is None else s for r, s, _ in answers]
        steps = [math.inf if r is None else r.finished_step - d for r, d in zip(results, due)]
        return Episode(
            wall=wall,
            outputs=[
                None if r is None else (
                    r.status.value, r.submitted_step, r.finished_step, r.from_cache, r.coalesced,
                    None if r.result is None else _csp_outputs(r.result),
                )
                for r in results
            ],
            figures={
                "ops": len(results),
                "requests": len(results),
                "solved": sum(r is not None and r.solved for r in results),
                "neuron_updates": sum(r.result.neuron_updates for r in _ran(results)),
                "latency_p50_s": percentile(seconds, 0.50),
                "latency_p95_s": percentile(seconds, 0.95),
                "latency_p50_steps": percentile(steps, 0.50),
                "latency_p95_steps": percentile(steps, 0.95),
            },
            detail=(results, due, ledger, ctx.workdir),
            refused=[message for _, _, message in answers if message is not None],
        )

    def check(self, inputs: ServeInputs, episode: Episode) -> Tuple[int, List[str]]:
        results, _, ledger, _ = episode.detail
        failures: List[str] = []
        attempted = 1
        if ledger.served + ledger.shed + ledger.cancelled + ledger.in_flight != ledger.submitted:
            failures.append(f"serve ledger not conserved: {ledger}")
        reference: Dict[int, Tuple[Any, ...]] = {}
        for (_, _, pick), result in zip(inputs.requests, results):
            if result is None:
                continue  # refused: already counted as failed
            attempted += 1
            if result.status not in (serve.ServeStatus.SOLVED, serve.ServeStatus.UNSOLVED):
                failures.append(f"request for pool[{pick}] ended {result.status.value}")
                continue
            if pick not in reference:
                graph, clamps = inputs.pool[pick]
                alone = csp.SpikingCSPSolver(graph, seed=inputs.seeds[pick]).solve(
                    clamps, max_steps=self.max_steps
                )
                reference[pick] = _csp_outputs(alone)
            if _csp_outputs(result.result) != reference[pick]:
                failures.append(f"served pool[{pick}] differs from standalone solve")
        return attempted, failures

    def metrics(self, episode: Episode) -> Dict[str, float]:
        f = episode.figures
        return {
            "neuron_updates_per_s": f["neuron_updates"] / episode.wall,
            "solves_per_s": f["solved"] / episode.wall,
            "solve_rate": f["solved"] / f["requests"],
            "latency_p50_s": f["latency_p50_s"],
            "latency_p95_s": f["latency_p95_s"],
            "latency_p50_steps": f["latency_p50_steps"],
            "latency_p95_steps": f["latency_p95_steps"],
            "latency_samples": f["requests"],
        }

    def layer_metrics(self, episode: Episode, spans: Sequence[Span]) -> Dict[str, float]:
        out = _span_layers(spans, self.capacity)
        results, due, ledger, workdir = episode.detail
        ran = _ran(results)
        waits = [r.finished_step - r.result.steps - r.submitted_step for r in ran]
        out.update(
            {
                "serve.queue_wait_steps_p95": percentile(waits, 0.95),
                "serve.residency_steps_p50": percentile([r.result.steps for r in ran], 0.50),
                "serve.lateness_steps_p95": percentile(
                    [r.submitted_step - d for r, d in zip(results, due) if r is not None], 0.95
                ),
                "serve.dedup_ratio": (ledger.cache_hits + ledger.coalesced) / ledger.submitted,
                "serve.shed": ledger.shed,
                "serve.occupancy": ledger.occupancy,
                "checkpoint.failures": ledger.checkpoint_failures,
                "journal.bytes": (workdir / "admissions.journal").stat().st_size,
            }
        )
        return out


# ---------------------------------------------------------------------- #
# iss-programs
# ---------------------------------------------------------------------- #
KINDS = ("extension", "baseline")


@dataclass
class IssInputs:
    network_seed: int
    noise_seed: int
    board: Any


class IssPrograms(Workload):
    name = "iss-programs"
    modules = ("repro.codegen", "repro.sim")

    def __init__(
        self,
        neurons: int = 256,
        steps: int = 12,
        sudoku_steps: int = 3,
        cycle_neurons: int = 48,
        cycle_steps: int = 2,
    ) -> None:
        self.neurons = neurons
        self.steps = steps
        self.sudoku_steps = sudoku_steps
        self.cycle_neurons = cycle_neurons
        self.cycle_steps = cycle_steps

    def prepare(self, seed: int) -> IssInputs:
        from repro.sudoku import PuzzleGenerator  # build_sudoku_workload takes a board

        network_seed, noise_seed, puzzle_seed = derive_seeds(seed, 40, 3)
        board = PuzzleGenerator().generate(seed=puzzle_seed, target_clues=35).puzzle
        return IssInputs(network_seed=network_seed, noise_seed=noise_seed, board=board)

    def _builds(self, inputs: IssInputs, kind: str) -> Dict[str, Any]:
        return {
            "8020": codegen.build_eighty_twenty_workload(
                num_neurons=self.neurons, num_steps=self.steps, kind=kind, seed=inputs.network_seed
            ),
            "sudoku": codegen.build_sudoku_workload(
                inputs.board, num_steps=self.sudoku_steps, kind=kind, seed=inputs.noise_seed
            ),
            "8020-cycle": codegen.build_eighty_twenty_workload(
                num_neurons=self.cycle_neurons,
                num_steps=self.cycle_steps,
                kind=kind,
                seed=inputs.network_seed,
            ),
            "sudoku-cycle": codegen.build_sudoku_workload(
                inputs.board, num_steps=1, kind=kind, seed=inputs.noise_seed
            ),
        }

    def setup(self, inputs: IssInputs, workdir: Path) -> Dict[Tuple[str, str], Tuple[Any, Any]]:
        loaded = {}
        for kind in KINDS:
            for program, workload in self._builds(inputs, kind).items():
                loaded[(program, kind)] = (workload, workload.make_simulator())
        return loaded

    def run(self, ctx: Dict[Tuple[str, str], Tuple[Any, Any]], tracer: Optional[Tracer]) -> Episode:
        figures = {"ops": len(ctx), "instret": 0, "fsim_s": 0.0, "cycles": 0, "core_s": 0.0,
                   "updates": 0}
        outputs = {}
        counters = {}
        start = time.perf_counter()
        for (program, kind), (workload, fsim) in ctx.items():
            t0 = time.perf_counter()
            if program.endswith("-cycle"):
                perf = sim.CycleAccurateCore(fsim).run(max_cycles=100_000_000)
                figures["core_s"] += time.perf_counter() - t0
                figures["cycles"] += perf.cycles
                counters[(program, kind)] = perf
                outputs[(program, kind)] = (perf.cycles, perf.instructions)
            else:
                instret = fsim.run(max_instructions=1_000_000_000)
                figures["fsim_s"] += time.perf_counter() - t0
                figures["instret"] += instret
                figures["updates"] += workload.layout.num_neurons * workload.spec.external_input.shape[0]
                outputs[(program, kind)] = (instret,)
            outputs[(program, kind)] += (workload.total_spikes(fsim), workload.vu_checksum(fsim))
        wall = time.perf_counter() - start
        return Episode(wall=wall, outputs=sorted(outputs.items()), figures=figures,
                       detail=(outputs, counters))

    def check(self, inputs: IssInputs, episode: Episode) -> Tuple[int, List[str]]:
        outputs, _ = episode.detail
        failures = []
        programs = sorted({program for program, _ in outputs})
        for program in programs:
            ext, base = outputs[(program, "extension")], outputs[(program, "baseline")]
            if ext[-2:] != base[-2:]:
                failures.append(
                    f"{program}: extension and baseline disagree on spikes/checksum "
                    f"({ext[-2:]} vs {base[-2:]})"
                )
        if outputs[("8020", "extension")][-2] == 0:
            failures.append("8020: no spikes, so the spike comparison checks nothing")
        return len(programs) + 1, failures

    def metrics(self, episode: Episode) -> Dict[str, float]:
        f = episode.figures
        return {
            "neuron_updates_per_s": f["updates"] / f["fsim_s"],
            "iss_instr_per_s": f["instret"] / f["fsim_s"],
            "sim_cycles_per_s": f["cycles"] / f["core_s"],
        }

    def layer_metrics(self, episode: Episode, spans: Sequence[Span]) -> Dict[str, float]:
        out = _span_layers(spans, self.capacity)
        outputs, counters = episode.detail

        def instret(kind: str) -> int:
            return sum(outputs[(p, kind)][0] for p in ("8020", "sudoku"))

        def total(kind: str, attr: str) -> int:
            return sum(getattr(c, attr) for (_, k), c in counters.items() if k == kind)

        ext = [c for (_, k), c in counters.items() if k == "extension"]
        icache = sum(c.icache.hits for c in ext), sum(c.icache.accesses for c in ext)
        dcache = sum(c.dcache.hits for c in ext), sum(c.dcache.accesses for c in ext)
        out.update(
            {
                "sim.instret_ext": instret("extension"),
                "sim.instret_base": instret("baseline"),
                "sim.instret_ratio": instret("baseline") / instret("extension"),
                "pipeline.cycles_ext": total("extension", "cycles"),
                "pipeline.cycles_base": total("baseline", "cycles"),
                "pipeline.ipc_ext": total("extension", "instructions") / total("extension", "cycles"),
                "pipeline.ipc_base": total("baseline", "instructions") / total("baseline", "cycles"),
                "pipeline.hazard_stall_pct": (
                    100.0 * total("extension", "hazard_stall_cycles") / total("extension", "cycles")
                ),
                "pipeline.icache_hit_rate": 100.0 * icache[0] / icache[1] if icache[1] else 100.0,
                "pipeline.dcache_hit_rate": 100.0 * dcache[0] / dcache[1] if dcache[1] else 100.0,
            }
        )
        return out

    def notes(self, episode: Episode) -> List[str]:
        """Extension-kernel counters next to the paper's single-core rows."""
        from repro.harness.paper_data import PAPER_TABLE5_8020, PAPER_TABLE6_SUDOKU

        _, counters = episode.detail
        lines = [
            "  scaled-down cycle-accurate window "
            f"(80-20 at {self.cycle_neurons} neurons x {self.cycle_steps} steps, "
            "Sudoku WTA x 1 step) vs the paper's single-core rows:"
        ]
        for program, paper in (
            ("8020-cycle", PAPER_TABLE5_8020),
            ("sudoku-cycle", PAPER_TABLE6_SUDOKU),
        ):
            perf = counters[(program, "extension")]
            ours = {
                "ipc": perf.ipc,
                "hazard_stall_percent": perf.hazard_stall_percent,
                "icache_hit_rate": perf.icache.hit_rate,
                "dcache_hit_rate": perf.dcache.hit_rate,
            }
            lines.extend(
                f"    {program:13s} {key:22s} ours {value:9.4f}  paper {paper['single'][key]:9.4f}"
                for key, value in ours.items()
            )
        return lines


# ---------------------------------------------------------------------- #
# csp-sweep
# ---------------------------------------------------------------------- #
@dataclass
class SweepInputs:
    param_sets: List[Dict[str, int]]
    base_seed: int


class CspSweep(Workload):
    name = "csp-sweep"
    modules = ("repro.runtime", "repro.csp")

    def __init__(self, tasks: int = 96, max_steps: int = 300) -> None:
        self.tasks = tasks
        self.max_steps = max_steps

    def prepare(self, seed: int) -> SweepInputs:
        param_sets = [
            {"instance_seed": s, "vertices": VERTICES, "colors": COLORS,
             "max_steps": self.max_steps}
            for s in derive_seeds(seed, 50, self.tasks)
        ]
        return SweepInputs(param_sets=param_sets, base_seed=derive_seeds(seed, 51, 1)[0])

    def setup(self, inputs: SweepInputs, workdir: Path) -> Tuple[Any, Any, Path]:
        cache_dir = workdir / "cache"
        spec = runtime.SweepSpec(
            fn=coloring_task,
            param_sets=inputs.param_sets,
            base_seed=inputs.base_seed,
            cache=runtime.RunResultCache(cache_dir),
        )
        workers = min(WORKERS, os.cpu_count() or 1)
        return runtime.SweepExecutor(mode="process", max_workers=workers), spec, cache_dir

    def run(self, ctx: Tuple[Any, Any, Path], tracer: Optional[Tracer]) -> Episode:
        executor, spec, cache_dir = ctx
        t0 = time.perf_counter()
        cold = executor.execute(spec)
        t1 = time.perf_counter()
        warm = executor.execute(spec)
        t2 = time.perf_counter()
        results = cold.results
        return Episode(
            wall=t1 - t0,
            outputs=results,
            figures={
                "ops": 2 * len(results),
                "tasks": len(results),
                "solved": sum(r[0] for r in results),
                "neuron_updates": sum(r[5] for r in results),
                "warm_pass_s": t2 - t1,
            },
            detail=(cold, warm, (t0, t1), cache_dir),
        )

    def check(self, inputs: SweepInputs, episode: Episode) -> Tuple[int, List[str]]:
        cold, warm, _, _ = episode.detail
        failures = []
        if warm.results != cold.results:
            failures.append("warm sweep pass returned results that differ from the cold pass")
        if warm.cache_hits != len(cold.results):
            failures.append(f"warm pass hit the cache {warm.cache_hits}/{len(cold.results)} times")
        if cold.pickle_fallback:
            failures.append("sweep fell back to serial execution")
        attempted = 3
        for index in (0, len(inputs.param_sets) - 1):
            attempted += 1
            task = runtime.SweepTask(
                index=index,
                seed=runtime.derive_task_seed(inputs.base_seed, index),
                params=inputs.param_sets[index],
            )
            if coloring_task(task) != cold.results[index]:
                failures.append(f"sweep task {index} differs from an in-process solve")
        return attempted, failures

    def metrics(self, episode: Episode) -> Dict[str, float]:
        f = episode.figures
        return {
            "neuron_updates_per_s": f["neuron_updates"] / episode.wall,
            "solves_per_s": f["solved"] / episode.wall,
            "solve_rate": f["solved"] / f["tasks"],
            "tasks_per_s": f["tasks"] / episode.wall,
            "warm_pass_s": f["warm_pass_s"],
        }

    def layer_metrics(self, episode: Episode, spans: Sequence[Span]) -> Dict[str, float]:
        out = _span_layers(spans, self.capacity)
        cold, _, (t0, t1), cache_dir = episode.detail
        solves = [s for s in spans if s.name == "csp.solve" and t0 <= s.start <= t1]
        execute = [s for s in spans if s.name == "sweep.execute" and t0 <= s.start <= t1]
        begin, end = (execute[0].start, execute[0].end) if execute else (t0, t1)
        utilisation = cold.worker_utilisation()
        out.update(
            {
                "sweep.startup_s": min(s.start for s in solves) - begin if solves else 0.0,
                "sweep.task_compute_s": sum(r.duration for r in cold.records),
                "sweep.tail_s": end - max(s.end for s in solves) if solves else 0.0,
                "sweep.utilisation": (
                    sum(utilisation.values()) / len(utilisation) if utilisation else 0.0
                ),
                "sweep.steals": cold.steals,
                "sweep.lease_retries": cold.lease_retries,
                "sweep.lease_expiries": cold.lease_expiries,
                "sweep.worker_deaths": cold.worker_deaths,
                "sweep.duplicates": cold.duplicates,
                "cache.bytes": sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file()),
            }
        )
        return out


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (SudokuBatch, ServeOpenLoop, IssPrograms, CspSweep)
}


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
