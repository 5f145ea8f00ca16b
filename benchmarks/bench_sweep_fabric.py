"""Work-stealing sweep fabric: scaling and crash-resume benchmark.

Runs :func:`repro.harness.csp_solve_rate` with one standalone solve per
fabric task, once with the serial executor and once over the process
fabric (all cores by default) on the *same* task set, asserting the
per-instance results are identical (the fabric never changes results,
only wall clock) and gating the parallel efficiency::

    efficiency = (serial_seconds / fabric_seconds) / min(workers, count)

With ``SWEEP_BENCH_RESUME=1`` (default) it also exercises the
crash-resume contract: a partial sweep populates the ``RunResultCache``,
the full re-run must serve exactly those tasks from cache and reproduce
the uncached per-instance results verbatim.

Emits ``BENCH_sweep.json`` (override with ``BENCH_SWEEP_JSON``);
``tools/check_bench_regression.py`` compares it against the committed
baseline — efficiency, speedup and the deterministic solve rate are
gated.

Environment knobs (CI smoke lowers the workload; nightly runs it full):

===============================  ===========================================
``SWEEP_BENCH_COUNT``            instances in the sweep (default 12)
``SWEEP_BENCH_MAX_STEPS``        per-solve step budget (default 1500)
``SWEEP_BENCH_VERTICES``         coloring vertices per instance (default 12)
``SWEEP_BENCH_WORKERS``          fabric workers (default: all cores)
``SWEEP_BENCH_ROUNDS``           timing rounds, best-of (default 2)
``SWEEP_BENCH_MIN_EFFICIENCY``   scaling gate (default 0.7)
``SWEEP_BENCH_RESUME``           1 to exercise cache resume (default 1)
===============================  ===========================================
"""

import json
import os
import shutil
import tempfile
import time

from repro.harness import csp_solve_rate, format_table
from repro.runtime import RunResultCache, SweepExecutor

COUNT = int(os.environ.get("SWEEP_BENCH_COUNT", "12"))
MAX_STEPS = int(os.environ.get("SWEEP_BENCH_MAX_STEPS", "1500"))
VERTICES = int(os.environ.get("SWEEP_BENCH_VERTICES", "12"))
WORKERS = int(os.environ.get("SWEEP_BENCH_WORKERS", str(os.cpu_count() or 1)))
ROUNDS = int(os.environ.get("SWEEP_BENCH_ROUNDS", "2"))
MIN_EFFICIENCY = float(os.environ.get("SWEEP_BENCH_MIN_EFFICIENCY", "0.7"))
RESUME = os.environ.get("SWEEP_BENCH_RESUME", "1") not in ("0", "false", "")

JSON_PATH = os.environ.get(
    "BENCH_SWEEP_JSON", os.path.join(os.path.dirname(__file__), "BENCH_sweep.json")
)

WORKLOAD_KWARGS = dict(
    count=COUNT,
    max_steps=MAX_STEPS,
    scenario_params={"num_vertices": VERTICES, "num_colors": 3},
)


def _merge_into_json(updates):
    """Merge ``updates`` into ``BENCH_sweep.json``, preserving other keys."""
    payload = {}
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
    payload.update(updates)
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"Wrote {JSON_PATH}")


def _outcomes(summary):
    """Per-instance ``(solved, steps, total_spikes, values)`` of one run."""
    return [(r.solved, r.steps, r.total_spikes, r.values.tolist()) for r in summary["results"]]


def _solve(executor, cache=None, **overrides):
    return csp_solve_rate(executor=executor, cache=cache, **{**WORKLOAD_KWARGS, **overrides})


def _best_of(run, rounds):
    """Best wall-clock run of ``rounds``; per-instance results must agree."""
    best = run()
    for _ in range(max(0, rounds - 1)):
        repeat = run()
        assert _outcomes(repeat) == _outcomes(best)  # deterministic workload
        if repeat["sweep"].elapsed < best["sweep"].elapsed:
            best = repeat
    return best


def _run_resume_check():
    """Partial sweep populates the cache; the full re-run must resume."""
    cache_dir = tempfile.mkdtemp(prefix="sweep-bench-cache-")
    try:
        partial = max(1, COUNT // 2)
        executor = SweepExecutor(mode="process", max_workers=WORKERS)
        started = time.perf_counter()
        _solve(executor, RunResultCache(cache_dir), count=partial)
        partial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        resumed = _solve(
            SweepExecutor(mode="process", max_workers=WORKERS), RunResultCache(cache_dir)
        )
        resumed_seconds = time.perf_counter() - started
        cache_hits = resumed["sweep"].cache_hits
        assert cache_hits == partial, (
            f"resume served {cache_hits} tasks from cache, expected {partial}"
        )
        uncached = _solve(SweepExecutor())
        assert _outcomes(resumed) == _outcomes(uncached)  # resume is bit-identical
        return {
            "partial_tasks": partial,
            "partial_seconds": partial_seconds,
            "resumed_seconds": resumed_seconds,
            "cache_hits": cache_hits,
            "cache_hit_fraction": cache_hits / COUNT,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def test_sweep_fabric_scaling(benchmark):
    serial_run = _best_of(lambda: _solve(SweepExecutor()), ROUNDS)
    fabric_run = _best_of(
        lambda: _solve(SweepExecutor(mode="process", max_workers=WORKERS)), ROUNDS
    )
    # The fabric reorders scheduling, never results.
    assert _outcomes(fabric_run) == _outcomes(serial_run)
    serial, fabric = serial_run["sweep"], fabric_run["sweep"]

    ideal = min(WORKERS, COUNT)
    speedup = serial.elapsed / fabric.elapsed if fabric.elapsed > 0 else 0.0
    efficiency = speedup / ideal if ideal else 0.0
    resume = _run_resume_check() if RESUME else None

    payload = {
        "pooled_csp_scaling": {
            # Run configuration (the regression gate's fingerprint).
            "scenario": "coloring",
            "count": COUNT,
            "max_steps": MAX_STEPS,
            "num_vertices": VERTICES,
            "workers": WORKERS,
            "chunk_size": fabric.chunk_size,
            # Deterministic outcomes.
            "solve_rate": serial_run["solve_rate"],
            # Wall-clock scaling (best of ROUNDS).
            "serial_seconds": serial.elapsed,
            "fabric_seconds": fabric.elapsed,
            "speedup": speedup,
            "ideal_speedup": ideal,
            "efficiency": efficiency,
            "tasks_per_second": COUNT / fabric.elapsed if fabric.elapsed > 0 else 0.0,
            # Fabric scheduling counters.
            "steals": fabric.steals,
            "lease_retries": fabric.lease_retries,
            "duplicates": fabric.duplicates,
            "worker_utilisation": {
                str(k): v for k, v in fabric.worker_utilisation().items()
            },
        }
    }
    if resume is not None:
        payload["pooled_csp_resume"] = {
            "count": COUNT,
            "max_steps": MAX_STEPS,
            "num_vertices": VERTICES,
            "workers": WORKERS,
            **resume,
        }

    summary = payload["pooled_csp_scaling"]
    print()
    print(
        format_table(
            ["Tasks", "Workers", "Serial s", "Fabric s", "Speedup", "Efficiency", "Steals"],
            [
                [
                    COUNT,
                    WORKERS,
                    f"{summary['serial_seconds']:.2f}",
                    f"{summary['fabric_seconds']:.2f}",
                    f"{summary['speedup']:.2f}x",
                    f"{summary['efficiency']:.2f}",
                    summary["steals"],
                ]
            ],
            title=(
                f"Sweep fabric: pooled-csp x{COUNT}, {MAX_STEPS} steps, "
                f"{VERTICES}x3 coloring"
            ),
        )
    )
    _merge_into_json(payload)
    benchmark.extra_info.update(
        {
            "speedup": summary["speedup"],
            "efficiency": summary["efficiency"],
            "solve_rate": summary["solve_rate"],
        }
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert summary["efficiency"] >= MIN_EFFICIENCY, (
        f"fabric efficiency {summary['efficiency']:.2f} below the "
        f"{MIN_EFFICIENCY:.2f} gate (speedup {summary['speedup']:.2f}x "
        f"over {ideal} ideal workers)"
    )
