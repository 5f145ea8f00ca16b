"""Smoke-size self-tests of the benchmark (``python -m pytest perfbench -q``).

Each workload runs at a tiny size, untraced and traced, through the same
:func:`run_benchmark` the command line uses; the tests check that every
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
outputs pass their correctness checks, that span self times never exceed
their spans, and that the deterministic metrics do not depend on the
source-code fingerprint.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.host import REFERENCE_CALIBRATION
from perfbench.run import report, run_benchmark
from perfbench.trace import self_times
from perfbench.workloads import (
    E2E_UNITS,
    EXTRA_UNITS,
    LAYER_UNITS,
    WORKLOADS,
    CspSweep,
    IssPrograms,
    ServeOpenLoop,
    SudokuBatch,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE = {
    "sudoku-batch": lambda: SudokuBatch(per_set=2, max_steps=60),
    "serve-open-loop": lambda: ServeOpenLoop(
        clients=4, requests=16, unique=6, max_steps=120, interarrival=8.0, capacity=4,
        checkpoint_every=20,
    ),
    "iss-programs": lambda: IssPrograms(
        neurons=32, steps=12, sudoku_steps=1, cycle_neurons=8, cycle_steps=1
    ),
    "csp-sweep": lambda: CspSweep(tasks=6, max_steps=120),
}

#: Metrics that must repeat exactly for a given seed.
DETERMINISTIC = {
    "extra": ("solve_rate", "latency_p50_steps", "latency_p95_steps", "latency_samples"),
    "per_layer": (
        "batch.step_calls", "batch.row_steps", "slots.decode_calls", "csp.decode_solved_ratio",
        "serve.queue_wait_steps_p95", "serve.residency_steps_p50", "serve.lateness_steps_p95",
        "serve.dedup_ratio", "sim.instret_ext", "sim.instret_base", "sim.instret_ratio",
        "pipeline.cycles_ext", "pipeline.cycles_base", "pipeline.hazard_stall_pct",
        "pipeline.icache_hit_rate", "pipeline.dcache_hit_rate", "cache.hits", "cache.misses",
    ),
}


def _run(name: str, tmp_path: Path, *, trace: bool, seed: int = 3) -> dict:
    return run_benchmark(SMOKE[name](), seed, 0.0, trace, tmp_path / f"{name}-{int(trace)}")


def test_benchmark_json_matches_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_smoke_run_emits_every_end_to_end_metric(name, tmp_path):
    record = _run(name, tmp_path, trace=False)
    assert record["failures"] == []
    result = report(record, out=io.StringIO())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(record["extra"]) <= set(EXTRA_UNITS)
    assert record["extra"]["error_rate"] == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_run_emits_every_layer_metric(name, tmp_path):
    record = _run(name, tmp_path, trace=True)
    assert record["failures"] == []
    result = report(record, out=io.StringIO())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert record["per_layer"]["trace.overhead"] > 0
    spans = record["spans"]
    assert spans, "a traced run keeps its spans"
    selfs = self_times(spans)
    for span in spans:
        own = selfs[(span.pid, span.sid)]
        assert -1e-9 <= own <= span.end - span.start + 1e-9


def test_timings_are_restated_at_the_reference_speed(tmp_path):
    record = _run("sudoku-batch", tmp_path, trace=False)
    speed = record["host_speed"]
    raw, e2e = record["raw_end_to_end"], record["end_to_end"]
    assert speed == pytest.approx(
        statistics.median(record["episode_calibrations"]) / REFERENCE_CALIBRATION
    )
    assert e2e["wall_s"] == pytest.approx(raw["wall_s"] * speed)
    assert e2e["setup_s"] == pytest.approx(raw["setup_s"] * speed)
    assert e2e["neuron_updates_per_s"] == pytest.approx(raw["neuron_updates_per_s"] / speed)
    assert e2e["peak_rss_mb"] == raw["peak_rss_mb"]


def test_worker_spans_reach_the_parent(tmp_path):
    record = _run("csp-sweep", tmp_path, trace=True)
    layers = record["per_layer"]
    # Every task is a cache miss on the cold pass and a hit on the warm one.
    assert layers["cache.gets"] == 12 and layers["cache.hits"] == 6
    assert layers["cache.puts"] == 6
    assert layers["sweep.startup_s"] > 0


def test_refused_requests_count_as_failed(tmp_path, monkeypatch):
    import functools

    import repro.serve as serve

    monkeypatch.setattr(serve, "SolveService", functools.partial(serve.SolveService, queue_limit=1))
    record = _run("serve-open-loop", tmp_path, trace=False)
    refused = [m for m in record["failures"] if "refused" in m]
    assert refused, "a one-slot admission queue sheds part of the burst"
    assert not any("ledger" in m for m in record["failures"])
    result = report(record, out=io.StringIO())
    assert not result["correct"] and result["failed"] == len(record["failures"])
    assert record["extra"]["latency_p95_s"] == float("inf")


def _deterministic(record: dict) -> dict:
    out = {k: record["extra"][k] for k in DETERMINISTIC["extra"] if k in record["extra"]}
    out.update({k: record["per_layer"][k] for k in DETERMINISTIC["per_layer"]})
    return out


@pytest.mark.parametrize("name", ["serve-open-loop", "sudoku-batch", "csp-sweep", "iss-programs"])
def test_deterministic_metrics_ignore_the_code_fingerprint(name, tmp_path, monkeypatch):
    import repro.runtime.cache as cache

    before = _deterministic(_run(name, tmp_path / "a", trace=True))
    monkeypatch.setattr(cache, "code_fingerprint", lambda: "0" * 64)
    after = _deterministic(_run(name, tmp_path / "b", trace=True))
    assert after == before


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sudoku-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
