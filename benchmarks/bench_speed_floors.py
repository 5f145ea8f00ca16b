"""Speed floors: each one a ratio of two code paths timed in the same run.

Every floor races a fast path against the slower path it replaced, on
the same machine and in the same process, so a floor means the same on
a laptop and on a shared CI runner.  There are no baselines, no
environment knobs and no output files (the cache floor's store lives in
pytest's ``tmp_path``): one workload size and one floor per ratio,
printed with ``-s``.

Each floor first checks that its two sides computed the same result (a
speedup between different computations would measure nothing), then
times ``PAIRS`` interleaved old/new pairs, alternating which side runs
first, and gates the median ratio.  One untimed pair runs before the
timed ones as the warm-up (imports, allocator, the native step kernel's
one-off build).

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_speed_floors.py -q -s
"""

import itertools
import statistics
import time

import numpy as np

from repro.codegen import build_eighty_twenty_workload
from repro.csp import SpikingCSPSolver, make_instance
from repro.csp.config import CSPConfig
from repro.csp.scenarios.sudoku import clamps_from_cells, shared_sudoku_graph
from repro.csp.solver import _BatchEntry, decode_assignment, solve_instances
from repro.harness import csp_solve_rate
from repro.runtime import RunResultCache, SweepExecutor, eighty_twenty_seed_sweep
from repro.runtime.batch import BatchedNetwork
from repro.runtime.cache import derive_cache_key
from repro.sudoku.puzzles import generate_puzzle_set

#: Timed old/new pairs per floor; the floor gates their median ratio.
PAIRS = 5


def _timed(fn):
    """``(result, seconds)`` of one call of ``fn()``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _same(old_result, new_result):
    assert new_result == old_result


def _ratios(old, new, check=_same):
    """Old-seconds / new-seconds of ``PAIRS`` interleaved pairs.

    ``old`` and ``new`` return ``(result, seconds)``; ``check(old_result,
    new_result)`` asserts the two sides agree, on the warm-up pair and on
    every timed pair.
    """
    ratios = []
    for index in range(PAIRS + 1):
        if index % 2:
            new_result, new_s = new()
            old_result, old_s = old()
        else:
            old_result, old_s = old()
            new_result, new_s = new()
        check(old_result, new_result)
        if index:
            ratios.append(old_s / new_s)
    return ratios


def _gate(label, ratios, floor):
    median = statistics.median(ratios)
    print(
        f"\n{label}: median {median:.2f}x, min {min(ratios):.2f}x over {len(ratios)} "
        f"pairs (floor {floor:g}x)"
    )
    assert median >= floor, f"{label}: median ratio {median:.2f} below the {floor:g} floor"


# ---------------------------------------------------------------------- #
# ISS: predecoded dispatch vs the legacy if/elif chain
# ---------------------------------------------------------------------- #
def test_iss_predecoded_dispatch_floor():
    """>= 3x instructions/s on the 64-neuron, 20-step 80-20 program."""
    workload = build_eighty_twenty_workload(num_neurons=64, num_steps=20)

    def side(fast_dispatch):
        def run():
            sim = workload.make_simulator(fast_dispatch=fast_dispatch)
            _, seconds = _timed(lambda: sim.run(max_instructions=100_000_000))
            state = (
                sim.instret,
                list(sim.regs),
                sim.spike_count,
                workload.total_spikes(sim),
                workload.vu_checksum(sim),
            )
            return state, seconds

        return run

    _gate("ISS predecoded dispatch vs if/elif chain", _ratios(side(False), side(True)), 3.0)


# ---------------------------------------------------------------------- #
# Batched runtime: the fused 80-20 seed sweep
# ---------------------------------------------------------------------- #
SWEEP_SEEDS = list(range(2003, 2003 + 32))


def _eighty_twenty(seeds, num_steps, **mode):
    return _timed(
        lambda: eighty_twenty_seed_sweep(seeds, num_steps=num_steps, num_neurons=100, **mode)
    )


def _plausible(result):
    """The 80-20 network fires in its physiological band."""
    assert 1.0 < result.mean_rate_hz < 50.0, result.mean_rate_hz


def test_fused_sweep_vs_sequential_floor():
    """>= 10x for B=32 x 100 neurons x 200 steps over B sequential runs.

    The fused mode draws the batch's thalamic noise from one generator,
    so its rasters are statistically, not bitwise, equal to the
    sequential loop's: both sides must fire in the 80-20 band and agree
    on the mean rate within 25%.
    """

    def check(sequential, fused):
        _plausible(sequential)
        _plausible(fused)
        drift = abs(fused.mean_rate_hz - sequential.mean_rate_hz) / sequential.mean_rate_hz
        assert drift < 0.25, (sequential.mean_rate_hz, fused.mean_rate_hz)

    ratios = _ratios(
        lambda: _eighty_twenty(SWEEP_SEEDS, 200, batched=False),
        lambda: _eighty_twenty(SWEEP_SEEDS, 200, batched=True, fused=True),
        check,
    )
    _gate("fused 80-20 sweep vs sequential SNNNetwork.run", ratios, 10.0)


def test_batch_scaling_floor():
    """A B=32 replica-step costs under a quarter of a B=1 replica-step.

    Both widths run the fused path over 100 steps; widths draw different
    noise, so each side is checked for the 80-20 firing band only.
    """

    def narrow():
        return _eighty_twenty(SWEEP_SEEDS[:1], 100, batched=True, fused=True)

    def wide():
        result, seconds = _eighty_twenty(SWEEP_SEEDS, 100, batched=True, fused=True)
        return result, seconds / len(SWEEP_SEEDS)

    def check(one, many):
        assert len(one.rasters) == 1 and len(many.rasters) == len(SWEEP_SEEDS)
        _plausible(one)
        _plausible(many)

    _gate("per-replica cost, B=1 over B=32", _ratios(narrow, wide, check), 4.0)


# ---------------------------------------------------------------------- #
# Exact solve: integer CSR + compiled drives + shrinking vs the old loop
# ---------------------------------------------------------------------- #
SOLVE_BATCH = 32
SOLVE_MAX_STEPS = 2000
SOLVE_CHECK_INTERVAL = 10


def _legacy_run_batch(entries, config, *, max_steps, check_interval):
    """The pre-PR CSP batch loop, kept verbatim as the benchmark baseline.

    Per-replica float synapse propagation (``integer_csr=False``),
    per-replica external-input closures (no drive compilation) and
    freeze-only bookkeeping: solved replicas stay in the batch and keep
    being stepped, only their statistics are masked.
    """
    num = len(entries)
    num_neurons = entries[0].graph.num_neurons
    batch = BatchedNetwork.from_networks(
        [e.network for e in entries], synapse_mode="exact", integer_csr=False
    )
    window = max(1, config.decode_window)
    history = np.zeros((window, num, num_neurons), dtype=bool)
    window_counts = np.zeros((num, num_neurons), dtype=np.int64)
    last_spike_step = np.full((num, num_neurons), -1, dtype=np.int64)
    total_spikes = np.zeros(num, dtype=np.int64)
    solved = np.zeros(num, dtype=bool)
    final_steps = np.zeros(num, dtype=np.int64)
    values = [np.zeros(e.graph.num_variables, dtype=np.int64) for e in entries]
    active = np.ones(num, dtype=bool)
    step = 0
    for step in range(1, max_steps + 1):
        fired = batch.step(step)
        slot = step % window
        window_counts -= history[slot]
        history[slot] = fired
        window_counts += fired
        active_fired = fired & active[:, None]
        if active_fired.any():
            last_spike_step[active_fired] = step
            total_spikes += active_fired.sum(axis=1)
        if step % check_interval == 0:
            for b in np.flatnonzero(active):
                e = entries[b]
                vals, dec = decode_assignment(
                    e.graph, window_counts[b], last_spike_step[b], e.clamps
                )
                if e.graph.is_solution(vals, dec):
                    solved[b] = True
                    final_steps[b] = step
                    values[b] = vals
                    active[b] = False
            if not active.any():
                break
    for b in np.flatnonzero(active):
        e = entries[b]
        vals, dec = decode_assignment(e.graph, window_counts[b], last_spike_step[b], e.clamps)
        solved[b] = e.graph.is_solution(vals, dec)
        final_steps[b] = step
        values[b] = vals
    return solved, final_steps, total_spikes


def _outcome(results):
    return (
        [r.solved for r in results],
        [r.steps for r in results],
        [r.total_spikes for r in results],
    )


def _legacy_outcome(entries):
    solved, steps, spikes = _legacy_run_batch(
        entries, CSPConfig(), max_steps=SOLVE_MAX_STEPS, check_interval=SOLVE_CHECK_INTERVAL
    )
    return [bool(s) for s in solved], [int(s) for s in steps], [int(s) for s in spikes]


def test_exact_coloring_solve_floor():
    """>= 3x for 32 seeded solves of one 12-vertex coloring instance."""
    graph, clamps = make_instance("coloring", seed=0, num_vertices=12, num_colors=3)
    resolved = graph.resolve_clamps(clamps)
    seeds = list(range(7, 7 + SOLVE_BATCH))

    def legacy():
        entries = [
            _BatchEntry(graph, resolved, SpikingCSPSolver(graph, seed=s).build_network(resolved))
            for s in seeds
        ]
        return _timed(lambda: _legacy_outcome(entries))

    def optimised():
        return _timed(
            lambda: _outcome(
                solve_instances(
                    [(graph, clamps)] * SOLVE_BATCH,
                    seeds=seeds,
                    max_steps=SOLVE_MAX_STEPS,
                    check_interval=SOLVE_CHECK_INTERVAL,
                )
            )
        )

    _gate("exact coloring solve vs the old batch loop", _ratios(legacy, optimised), 3.0)


def test_exact_sudoku_solve_floor():
    """>= 3x for 32 solvable 45-clue puzzles on the shared 729-neuron graph."""
    graph = shared_sudoku_graph()
    puzzles = generate_puzzle_set(SOLVE_BATCH, base_seed=1000, target_clues=45)
    clamp_sets = [clamps_from_cells(p.puzzle.cells) for p in puzzles]

    def legacy():
        entries = []
        for clamps in clamp_sets:
            resolved = graph.resolve_clamps(clamps)
            network = SpikingCSPSolver(graph, seed=7).build_network(resolved)
            entries.append(_BatchEntry(graph, resolved, network))
        return _timed(lambda: _legacy_outcome(entries))

    def optimised():
        solver = SpikingCSPSolver(graph, seed=7)
        return _timed(
            lambda: _outcome(
                solver.solve_batch(
                    clamp_sets, max_steps=SOLVE_MAX_STEPS, check_interval=SOLVE_CHECK_INTERVAL
                )
            )
        )

    _gate("exact sudoku-45 solve vs the old batch loop", _ratios(legacy, optimised), 3.0)


# ---------------------------------------------------------------------- #
# Sweep fabric: two process workers against the serial executor
# ---------------------------------------------------------------------- #
FABRIC_WORKERS = 2


def test_sweep_fabric_efficiency_floor():
    """``serial_s / fabric_s / 2 >= 0.35`` on 12 coloring solves x 1500 steps.

    Also prints the fabric's fixed overhead, ``fabric_s - max(worker_busy)``:
    the wall time no worker spends computing (start-up, lease IPC, tail).
    """
    overheads = []

    def sweep(executor):
        summary = csp_solve_rate(
            executor=executor,
            count=12,
            max_steps=1500,
            scenario_params={"num_vertices": 12, "num_colors": 3},
        )
        report = summary["sweep"]
        if report.mode == "process":
            overheads.append(report.elapsed - max(report.worker_busy.values()))
        outcomes = [
            (r.solved, r.steps, r.total_spikes, r.values.tolist()) for r in summary["results"]
        ]
        return outcomes, report.elapsed

    ratios = _ratios(
        lambda: sweep(SweepExecutor()),
        lambda: sweep(SweepExecutor(mode="process", max_workers=FABRIC_WORKERS)),
    )
    assert len(overheads) == PAIRS + 1  # every fabric run used worker processes
    efficiencies = [r / FABRIC_WORKERS for r in ratios]
    print(
        f"\nsweep fabric fixed overhead: median {statistics.median(overheads) * 1e3:.0f} ms "
        f"over {len(overheads)} runs"
    )
    _gate(f"sweep fabric efficiency (speedup / {FABRIC_WORKERS})", efficiencies, 0.35)


# ---------------------------------------------------------------------- #
# Result cache: a repeated ISS run is served from disk
# ---------------------------------------------------------------------- #
def test_result_cache_short_circuit_floor(tmp_path):
    """A cache hit is faster than the 16-neuron, 2-step ISS run it replaces."""
    key = derive_cache_key(
        "functional", {"workload": "eighty-twenty", "num_neurons": 16, "num_steps": 2, "seed": 3}
    )
    cold_dirs = itertools.count()
    hot_cache = RunResultCache(tmp_path / "hot")

    def cached_run(cache, *, hit):
        metrics = cache.get(key)
        assert (metrics is not None) == hit
        if metrics is None:
            workload = build_eighty_twenty_workload(num_neurons=16, num_steps=2, seed=3)
            fsim = workload.make_simulator()
            fsim.run()
            metrics = {
                "instret": fsim.instret,
                "exit_code": fsim.exit_code,
                "total_spikes": workload.total_spikes(fsim),
            }
            cache.put(key, metrics)
        return metrics

    cached_run(hot_cache, hit=False)

    def cold():
        cache = RunResultCache(tmp_path / f"cold-{next(cold_dirs)}")
        return _timed(lambda: cached_run(cache, hit=False))

    def hot():
        return _timed(lambda: cached_run(hot_cache, hit=True))

    _gate("result cache, cold run over cache hit", _ratios(cold, hot), 1.0)
