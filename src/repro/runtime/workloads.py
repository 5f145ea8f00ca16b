"""High-level sweep drivers built on the batch engine and sweep executor.

Two sweep families cover the paper's evaluation workloads:

* :func:`eighty_twenty_seed_sweep` — run the 80-20 cortical network for a
  list of seeds.  With ``batched=True`` (default) the replicas are
  stacked into one :class:`~repro.runtime.batch.BatchedNetwork` and
  advanced in fused ``(B, N)`` updates; with ``batched=False`` the same
  networks are run through the sequential ``SNNNetwork`` loop (the
  baseline the batched-runtime benchmark measures against).
* :func:`pooled_sudoku_sweep` — solve a generated puzzle set by fanning
  one solver run per puzzle out over the
  :class:`~repro.runtime.sweep.SweepExecutor` work-stealing fabric.
  (The vectorised alternative, which runs all puzzles as one batched
  network, is :meth:`repro.sudoku.solver.SNNSudokuSolver.solve_batch`.)

The four pooled/batched sweep drivers here (``pooled_sudoku_sweep``,
``pooled_csp_sweep``, ``csp_portfolio_sweep``, ``serve_load_sweep``)
share one shape: ``driver(config, *, executor=None, cache=False) ->
SweepReport``, where ``config`` is the driver's frozen config dataclass
(defined next to it) and the report's ``summary`` holds the workload's
summary dict.  :mod:`repro.runtime.registry` names them for
:func:`~repro.runtime.registry.run_sweep_workload`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..snn.analysis import SpikeRaster, rhythm_summary
from ..snn.eighty_twenty import EightyTwentyConfig
from ..snn.network import SNNNetwork
from .batch import BatchedNetwork
from .backends import RunRequest, RunResult, eighty_twenty_config, get_backend, run_on_backend
from .cache import RunResultCache, resolve_cache
from .drives import compile_batched_external
from .sweep import (
    SweepExecutor,
    SweepReport,
    SweepSpec,
    SweepTask,
    SweepTaskRecord,
    derive_task_seed,
)

__all__ = [
    "CSPPortfolioSweepConfig",
    "PooledCSPSweepConfig",
    "PooledSudokuSweepConfig",
    "SeedSweepResult",
    "ServeLoadSweepConfig",
    "build_eighty_twenty_replicas",
    "batched_thalamic_provider",
    "csp_portfolio_sweep",
    "eighty_twenty_seed_sweep",
    "pooled_sudoku_sweep",
    "pooled_csp_sweep",
    "run_many_on_backend",
    "serve_load_sweep",
]


@dataclass
class SeedSweepResult:
    """Rasters plus per-replica rhythm summaries of one seed sweep."""

    seeds: List[int]
    rasters: List[SpikeRaster]
    summaries: List[Dict[str, Any]]
    backend: str
    batched: bool

    @property
    def mean_rate_hz(self) -> float:
        """Mean firing rate across all replicas."""
        if not self.rasters:
            return 0.0
        return float(np.mean([r.mean_rate_hz() for r in self.rasters]))


def build_eighty_twenty_replicas(
    seeds: Sequence[int],
    *,
    backend: str = "fixed",
    num_neurons: Optional[int] = None,
    current_mode: str = "recompute",
    h_shift: int = 1,
) -> List[SNNNetwork]:
    """One freshly built 80-20 network per seed (ready for stacking).

    Every network draws its parameters, weights and thalamic-noise stream
    from its own seeded generator, exactly as a sequential
    :func:`repro.snn.eighty_twenty.run_eighty_twenty` call would.
    """
    sim_backend = get_backend(backend)
    if not sim_backend.supports_batching:
        raise ValueError(f"backend {backend!r} is not a network-level backend")
    from .backends import RunRequest

    return [
        sim_backend.build_network(
            RunRequest(
                workload="eighty-twenty",
                num_neurons=num_neurons,
                seed=int(seed),
                options={"current_mode": current_mode, "h_shift": h_shift},
            )
        )
        for seed in seeds
    ]


def batched_thalamic_provider(
    configs: Sequence[EightyTwentyConfig], *, seed: int = 0
) -> Callable[[int], np.ndarray]:
    """Fully-vectorised thalamic noise for a batch of 80-20 replicas.

    Draws the whole ``(B, N)`` input in one generator call per step and
    scales the excitatory/inhibitory columns, instead of two draws plus a
    concatenation per replica.  The noise is statistically identical to
    the per-replica streams but comes from a single batch generator, so
    runs using this provider are *not* bit-comparable with sequential
    per-replica runs — use per-replica providers (the default) for
    equivalence checks.
    """
    profiles = {
        (c.num_excitatory, c.num_inhibitory, c.thalamic_excitatory, c.thalamic_inhibitory)
        for c in configs
    }
    if len(profiles) != 1:
        raise ValueError(
            "all replicas must share the excitatory/inhibitory split and thalamic scales"
        )
    num_exc, num_inh, _, _ = next(iter(profiles))
    scale = np.concatenate(
        [
            np.full(num_exc, configs[0].thalamic_excitatory),
            np.full(num_inh, configs[0].thalamic_inhibitory),
        ]
    )
    rng = np.random.default_rng(seed)
    batch = len(configs)

    def provider(step: int) -> np.ndarray:
        return rng.standard_normal((batch, num_exc + num_inh)) * scale

    return provider


def eighty_twenty_seed_sweep(
    seeds: Sequence[int],
    *,
    num_steps: int = 1000,
    backend: str = "fixed",
    num_neurons: Optional[int] = None,
    current_mode: str = "recompute",
    batched: bool = True,
    fused: bool = False,
    noise_seed: Optional[int] = None,
) -> SeedSweepResult:
    """Run the 80-20 network once per seed and summarise every raster.

    Parameters
    ----------
    batched:
        ``True`` stacks the replicas into a :class:`BatchedNetwork`;
        ``False`` runs the identical sequential loop (baseline).
    fused:
        With ``batched=True``, additionally vectorise the synaptic
        propagation and the thalamic noise across the batch (the
        high-throughput mode; see :mod:`repro.runtime.batch` for the
        exactness trade-off).
    noise_seed:
        Seed of the batch noise generator in fused mode (defaults to the
        first sweep seed).
    """
    seeds = [int(s) for s in seeds]
    networks = build_eighty_twenty_replicas(
        seeds, backend=backend, num_neurons=num_neurons, current_mode=current_mode
    )
    if not batched:
        rasters = [net.run(num_steps) for net in networks]
    elif fused:
        configs = [eighty_twenty_config(num_neurons, seed) for seed in seeds]
        provider = batched_thalamic_provider(
            configs, seed=noise_seed if noise_seed is not None else seeds[0]
        )
        batch = BatchedNetwork.from_networks(
            networks, synapse_mode="fused", batched_external=provider
        )
        rasters = batch.run(num_steps)
    else:
        # The per-replica thalamic closures compile into one bit-exact
        # vectorised provider (per-replica streams pregenerated in
        # chunks), so the exact sweep stays bit-identical to the
        # sequential loop while skipping B Python calls per step.
        batch = BatchedNetwork.from_networks(
            networks,
            synapse_mode="exact",
            batched_external=compile_batched_external(networks),
        )
        rasters = batch.run(num_steps)
    summaries = []
    for seed, raster in zip(seeds, rasters):
        summary = rhythm_summary(raster)
        summary["seed"] = seed
        summary["backend"] = backend
        summaries.append(summary)
    return SeedSweepResult(
        seeds=seeds, rasters=rasters, summaries=summaries, backend=backend, batched=batched
    )


# ---------------------------------------------------------------------- #
# Generic backend fan-out (ISA/cycle-level sweeps with result caching)
# ---------------------------------------------------------------------- #
def _run_request_task(task: SweepTask) -> RunResult:
    """Module-level task function (picklable for the process pool)."""
    params = task.params
    return run_on_backend(params["backend"], params["request"], cache=params["cache"])


def run_many_on_backend(
    name: str,
    requests: Sequence[RunRequest],
    *,
    executor: Optional[SweepExecutor] = None,
    cache: Optional[RunResultCache] = None,
) -> List[RunResult]:
    """Run many independent requests on one backend, results in order.

    ISA- and cycle-level backends cannot be stacked into NumPy batches,
    so the requests fan out over a
    :class:`~repro.runtime.sweep.SweepExecutor` (serial by default,
    work-stealing process-parallel when an executor with
    ``mode="process"`` is passed).  With ``cache`` set, each run goes
    through :class:`~repro.runtime.cache.RunResultCache` — repeated
    sweeps, and sweeps sharing requests, skip recomputation entirely
    (the on-disk store is shared between pool workers).
    """
    executor = executor if executor is not None else SweepExecutor(mode="serial")
    param_sets = [{"backend": name, "request": request, "cache": cache} for request in requests]
    spec = SweepSpec(fn=_run_request_task, param_sets=param_sets)
    return executor.execute(spec).results


CachePolicy = Union[None, bool, str, Path, RunResultCache]


def _engine_report(
    mode: str, summary: Dict[str, Any], results: List[Any], seeds: List[int], started: float
) -> SweepReport:
    """Wrap a slot-engine workload's summary in the fabric's report shape."""
    # reprolint: disable-next-line=RL002 -- report timing, never solve state
    elapsed = time.perf_counter() - started
    records = [
        SweepTaskRecord(index=i, seed=seed, worker=-1, duration=0.0, cached=False, attempts=1)
        for i, seed in enumerate(seeds)
    ]
    return SweepReport(
        results=results,
        records=records,
        mode=mode,
        num_workers=1,
        elapsed=elapsed,
        summary=summary,
    )


# ---------------------------------------------------------------------- #
# Pooled Sudoku sweep (process-parallel, one solver run per puzzle)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PooledSudokuSweepConfig:
    """Configuration of the ``pooled-sudoku`` fabric workload."""

    count: int = 8
    base_seed: int = 1000
    target_clues: int = 30
    max_steps: int = 6000
    check_interval: int = 10
    solver_seed: int = 7
    chunk_size: Optional[int] = None
    lease_timeout: float = 60.0


def _solve_one_sudoku(task: SweepTask) -> Dict[str, Any]:
    """Module-level task function (picklable for the process pool)."""
    from ..sudoku import SNNSudokuSolver
    from ..sudoku.puzzles import PuzzleGenerator

    params = task.params
    generated = PuzzleGenerator().generate(
        seed=int(params["puzzle_seed"]), target_clues=int(params["target_clues"])
    )
    solver = SNNSudokuSolver(seed=int(params.get("solver_seed", 7)))
    result = solver.solve(
        generated.puzzle,
        max_steps=int(params["max_steps"]),
        check_interval=int(params.get("check_interval", 10)),
    )
    return {
        "puzzle_seed": int(params["puzzle_seed"]),
        "num_clues": generated.num_clues,
        "solved": result.solved,
        "steps": result.steps,
        "total_spikes": result.total_spikes,
    }


def pooled_sudoku_sweep(
    config: PooledSudokuSweepConfig,
    *,
    executor: Optional[SweepExecutor] = None,
    cache: CachePolicy = False,
) -> SweepReport:
    """Solve ``config.count`` generated puzzles, optionally over the sweep fabric.

    Each task derives its puzzle seed from ``(base_seed, index)``
    through :func:`~repro.runtime.sweep.derive_task_seed`
    ``SeedSequence`` spawning, so results are deterministic and
    identical between serial and process execution.  ``solver_seed``
    selects the solver's exploration-noise stream for every task.

    ``executor`` picks serial (default) or fabric execution; ``cache``
    is the :class:`~repro.runtime.sweep.SweepSpec` resume store.  The
    returned report's ``summary`` holds the solve rate, mean steps and
    the per-puzzle results.
    """
    executor = executor if executor is not None else SweepExecutor(mode="serial")
    param_sets = [
        {
            "puzzle_seed": derive_task_seed(config.base_seed, i),
            "target_clues": config.target_clues,
            "max_steps": config.max_steps,
            "check_interval": config.check_interval,
            "solver_seed": config.solver_seed,
        }
        for i in range(config.count)
    ]
    report = executor.execute(
        SweepSpec(
            fn=_solve_one_sudoku,
            param_sets=param_sets,
            base_seed=config.base_seed,
            cache=cache,
            chunk_size=config.chunk_size,
            lease_timeout=config.lease_timeout,
        )
    )
    results = report.results
    solved = sum(1 for r in results if r["solved"])
    report.summary = {
        "num_puzzles": config.count,
        "solved": solved,
        "solve_rate": solved / config.count if config.count else 0.0,
        "mean_steps": float(np.mean([r["steps"] for r in results])) if results else 0.0,
        "results": results,
    }
    return report


# ---------------------------------------------------------------------- #
# Pooled constraint-solver sweep (one spiking CSP run per instance)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PooledCSPSweepConfig:
    """Configuration of the ``pooled-csp`` fabric workload."""

    scenario: str = "coloring"
    count: int = 8
    base_seed: int = 0
    solver_seed: int = 7
    backend: str = "fixed"
    max_steps: int = 3000
    check_interval: int = 10
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    chunk_size: Optional[int] = None
    lease_timeout: float = 60.0


def _solve_one_csp(task: SweepTask) -> Dict[str, Any]:
    """Module-level task function (picklable for the process pool)."""
    from ..csp import SpikingCSPSolver
    from ..csp.scenarios import make_instance

    params = task.params
    graph, clamps = make_instance(
        str(params["scenario"]),
        seed=int(params["instance_seed"]),
        **dict(params.get("scenario_params") or {}),
    )
    solver = SpikingCSPSolver(
        graph,
        backend=str(params.get("backend", "fixed")),
        seed=int(params.get("solver_seed", 7)),
    )
    result = solver.solve(
        clamps,
        max_steps=int(params["max_steps"]),
        check_interval=int(params.get("check_interval", 10)),
    )
    return {
        "scenario": str(params["scenario"]),
        "instance_seed": int(params["instance_seed"]),
        "num_neurons": graph.num_neurons,
        "solved": result.solved,
        "steps": result.steps,
        "total_spikes": result.total_spikes,
    }


def pooled_csp_sweep(
    config: PooledCSPSweepConfig,
    *,
    executor: Optional[SweepExecutor] = None,
    cache: CachePolicy = False,
) -> SweepReport:
    """Solve ``config.count`` generated CSP instances, optionally over the fabric.

    Each task derives its instance from ``base_seed + index`` through the
    deterministic scenario generators (:mod:`repro.csp.scenarios`), so
    results are identical between serial and process execution — and
    identical across lease reassignments, since a task is a pure
    function of its parameters and seed.  The vectorised alternative,
    which stacks all instances into one batched network, is
    :func:`repro.csp.solver.solve_instances` (used by the harness
    solve-rate experiment).  ``cache`` enables crash-tolerant resume
    through :class:`~repro.runtime.cache.RunResultCache`.
    """
    executor = executor if executor is not None else SweepExecutor(mode="serial")
    param_sets = [
        {
            "scenario": config.scenario,
            # reprolint: disable-next-line=RL002 -- instance identity
            "instance_seed": config.base_seed + i,
            "solver_seed": config.solver_seed,
            "backend": config.backend,
            "max_steps": config.max_steps,
            "check_interval": config.check_interval,
            "scenario_params": dict(config.scenario_params),
        }
        for i in range(config.count)
    ]
    report = executor.execute(
        SweepSpec(
            fn=_solve_one_csp,
            param_sets=param_sets,
            base_seed=config.base_seed,
            cache=cache,
            chunk_size=config.chunk_size,
            lease_timeout=config.lease_timeout,
        )
    )
    results = report.results
    solved = sum(1 for r in results if r["solved"])
    report.summary = {
        "scenario": config.scenario,
        "num_instances": config.count,
        "solved": solved,
        "solve_rate": solved / config.count if config.count else 0.0,
        "mean_steps": float(np.mean([r["steps"] for r in results])) if results else 0.0,
        "results": results,
    }
    return report


# ---------------------------------------------------------------------- #
# Restart-portfolio constraint-solver sweep (one saturated batch)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class CSPPortfolioSweepConfig:
    """Configuration of the ``csp-portfolio`` batched workload."""

    scenario: str = "coloring"
    count: int = 8
    base_seed: int = 0
    backend: str = "fixed"
    max_steps: int = 3000
    check_interval: int = 10
    slots: Optional[int] = None
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    #: Optional ``repro.csp.PortfolioConfig`` / ``CSPConfig`` objects.
    portfolio: Any = None
    config: Any = None


def csp_portfolio_sweep(
    config: CSPPortfolioSweepConfig,
    *,
    executor: Optional[SweepExecutor] = None,
    cache: CachePolicy = False,
) -> SweepReport:
    """Solve ``config.count`` generated instances with a restart portfolio.

    The batched counterpart of :func:`pooled_csp_sweep` for hard instance
    pools: all instances advance as one exact-mode batch and freed batch
    slots are refilled with restart attempts of still-unsolved instances
    (:func:`repro.csp.portfolio.solve_instances_portfolio`), so the fused
    engine stays saturated for the whole global step budget.  Instances
    derive deterministically from ``base_seed + index`` through the
    scenario generators, exactly as :func:`pooled_csp_sweep` does.  The
    batch runs on the slot engine, not the fabric, so ``executor`` and
    ``cache`` are ignored and the report has one record per instance.

    The summary holds the usual sweep fields plus portfolio accounting:
    ``total_attempts`` and ``total_neuron_updates`` summed over every
    attempt of every instance.
    """
    from ..csp.portfolio import solve_instances_portfolio
    from ..csp.scenarios import make_instance

    # reprolint: disable-next-line=RL002 -- report timing, never solve state
    started = time.perf_counter()
    # reprolint: disable-next-line=RL002 -- instance-identity seeds (frozen corpus)
    seeds = [config.base_seed + i for i in range(config.count)]
    instances = [
        make_instance(config.scenario, seed=seed, **dict(config.scenario_params))
        for seed in seeds
    ]
    results = solve_instances_portfolio(
        instances,
        config=config.config,
        portfolio=config.portfolio,
        backend=config.backend,
        max_steps=config.max_steps,
        check_interval=config.check_interval,
        slots=config.slots,
    )
    solved = sum(1 for r in results if r.solved)
    summary = {
        "scenario": config.scenario,
        "num_instances": config.count,
        "solved": solved,
        "solve_rate": solved / config.count if config.count else 0.0,
        "mean_steps": float(np.mean([r.steps for r in results])) if results else 0.0,
        "total_attempts": int(sum(r.attempts for r in results)),
        "total_neuron_updates": int(sum(r.neuron_updates for r in results)),
        "results": results,
    }
    return _engine_report("batched", summary, list(results), seeds, started)


# ---------------------------------------------------------------------- #
# Open-loop load through the solve service
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeLoadSweepConfig:
    """Configuration of the ``serve-load`` open-loop service workload."""

    capacity: int = 32
    queue_limit: Optional[int] = None
    num_clients: int = 8
    requests_per_client: int = 8
    mean_interarrival_steps: float = 40.0
    scenario: str = "coloring"
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    unique_instances: int = 24
    seed: int = 0
    max_steps: int = 1500
    deadline: Optional[float] = None
    backend: str = "fixed"
    check_interval: int = 10
    #: Optional ``repro.csp.CSPConfig`` for the served solves.
    config: Any = None


def serve_load_sweep(
    config: ServeLoadSweepConfig,
    *,
    executor: Optional[SweepExecutor] = None,
    cache: CachePolicy = False,
) -> SweepReport:
    """Drive a seeded open-loop workload through a :class:`SolveService`.

    The online counterpart of :func:`csp_portfolio_sweep`: instead of
    handing the engine the whole instance pool up front, ``num_clients``
    synthetic clients submit requests on a Poisson arrival schedule and
    the continuous-batching service streams them through one always-hot
    exact-mode batch (:mod:`repro.serve`).  The service runs on its
    deterministic step clock, so the summary — including shed counts and
    latency percentiles — is exactly reproducible for a given seed.
    ``cache`` (resolved through
    :func:`~repro.runtime.cache.resolve_cache`) is the service's result
    cache; ``executor`` is ignored.

    The report's results are the served rows (``(client, pool_index,
    ServeResult-or-None)``); its summary adds the final
    :class:`~repro.serve.metrics.MetricsSnapshot` fields and the
    client-side retry ledger of :func:`~repro.serve.run_open_loop_sync`.
    """
    from ..serve import OpenLoopLoad, run_open_loop_sync

    # reprolint: disable-next-line=RL002 -- report timing, never solve state
    started = time.perf_counter()
    spec = OpenLoopLoad(
        num_clients=config.num_clients,
        requests_per_client=config.requests_per_client,
        mean_interarrival_steps=config.mean_interarrival_steps,
        scenario=config.scenario,
        scenario_params=dict(config.scenario_params),
        unique_instances=config.unique_instances,
        seed=config.seed,
        max_steps=config.max_steps,
        deadline=config.deadline,
    )
    rows, metrics, load_stats = run_open_loop_sync(
        spec,
        capacity=config.capacity,
        queue_limit=config.queue_limit,
        config=config.config,
        backend=config.backend,
        check_interval=config.check_interval,
        seed=config.seed,
        cache=resolve_cache(cache),
        clock="steps",
        default_max_steps=config.max_steps,
    )
    served = [result for _, _, result in rows if result is not None]
    solved = sum(1 for r in served if r.solved)
    summary = {
        "scenario": config.scenario,
        "capacity": config.capacity,
        "num_requests": spec.total_requests,
        "served": len(served),
        "solved": solved,
        "solve_rate": solved / len(served) if served else 0.0,
        "retry_budget": spec.retry_budget,
        "retries": load_stats["retries"],
        "recovered_by_retry": load_stats["recovered_by_retry"],
        "shed_after_retries": load_stats["shed"],
        "rows": rows,
        "metrics": metrics.as_dict(),
    }
    seeds = [derive_task_seed(config.seed, i) for i in range(len(rows))]
    return _engine_report("serve", summary, list(rows), seeds, started)
