"""Crash tolerance, lease reassignment and cache resume of the sweep fabric.

The fault-injecting task functions only misbehave inside a fabric worker
(``os.getpid() != params["main_pid"]``) and only on their first attempt
(guarded by a marker file), so serial reference runs of the *same* spec
stay clean and every retry converges.
"""

import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import RunResultCache, SweepExecutor, SweepSpec, sweep_task_key


pytestmark = pytest.mark.slow


def _bits(results):
    # Per-item pickles: whole-list pickling is layout-sensitive (string
    # memoization differs between interned and cache-loaded dict keys)
    # even when every value is bit-identical.
    return [pickle.dumps(r) for r in results]


def _payload(task):
    rng = np.random.default_rng(task.seed)
    return {
        "index": task.index,
        "seed": task.seed,
        "value": float(rng.uniform()),
        "x": task.params.get("x"),
    }


def _echo_task(task):
    return _payload(task)


def _none_task(task):
    return None


def _kill_once_task(task):
    """SIGKILL the worker the first time it reaches the marked task."""
    if task.index == task.params["kill_index"] and os.getpid() != task.params["main_pid"]:
        marker = Path(task.params["marker_dir"]) / f"killed-{task.index}"
        if not marker.exists():
            marker.write_bytes(b"")
            os.kill(os.getpid(), signal.SIGKILL)
    return _payload(task)


def _stall_once_task(task):
    """Outlive the lease the first time a worker runs the marked task."""
    if task.index == task.params["stall_index"] and os.getpid() != task.params["main_pid"]:
        marker = Path(task.params["marker_dir"]) / f"stalled-{task.index}"
        if not marker.exists():
            marker.write_bytes(b"")
            time.sleep(task.params["stall_seconds"])
    return _payload(task)


def _failing_task(task):
    if task.index == task.params["fail_index"]:
        raise ValueError(f"boom at task {task.index}")
    return task.index


def _fault_params(count, tmp_path, **marks):
    base = {"main_pid": os.getpid(), "marker_dir": str(tmp_path), **marks}
    return [{**base, "x": i} for i in range(count)]


class TestCrashTolerance:
    def test_killed_worker_is_detected_and_sweep_completes(self, tmp_path):
        params = _fault_params(6, tmp_path, kill_index=2)
        spec = SweepSpec(
            fn=_kill_once_task,
            param_sets=params,
            base_seed=11,
            chunk_size=1,
            lease_timeout=30.0,  # generous: recovery must come from death detection
        )
        report = SweepExecutor(mode="process", max_workers=2).execute(spec)
        serial = SweepExecutor().execute(spec)
        assert report.results == serial.results
        assert report.worker_deaths >= 1
        assert report.lease_retries >= 1
        killed = report.records[2]
        assert killed.attempts >= 2

    def test_lease_reassignment_is_deterministic_under_fixed_seed(self, tmp_path):
        serial = None
        for attempt in range(2):
            marker_dir = tmp_path / f"run-{attempt}"
            marker_dir.mkdir()
            params = _fault_params(6, marker_dir, kill_index=4)
            spec = SweepSpec(
                fn=_kill_once_task,
                param_sets=params,
                base_seed=23,
                chunk_size=1,
                lease_timeout=30.0,
            )
            report = SweepExecutor(mode="process", max_workers=2).execute(spec)
            if serial is None:
                serial = SweepExecutor().execute(spec)
            # Results are pure functions of (fn, params, seed): however the
            # reassignment raced, every run is bit-identical to serial.
            assert _bits(report.results) == _bits(serial.results)

    def test_expired_lease_is_stolen_by_another_worker(self, tmp_path):
        params = _fault_params(6, tmp_path, stall_index=1, stall_seconds=3.0)
        spec = SweepSpec(
            fn=_stall_once_task,
            param_sets=params,
            base_seed=5,
            chunk_size=1,
            lease_timeout=0.5,
        )
        report = SweepExecutor(mode="process", max_workers=2).execute(spec)
        serial = SweepExecutor().execute(spec)
        assert report.results == serial.results
        assert report.lease_expiries >= 1
        assert report.records[1].attempts >= 2

    def test_task_exception_propagates_from_worker(self, tmp_path):
        params = _fault_params(4, tmp_path, fail_index=3)
        spec = SweepSpec(fn=_failing_task, param_sets=params, chunk_size=1)
        with pytest.raises(ValueError, match="boom at task 3"):
            SweepExecutor(mode="process", max_workers=2).execute(spec)
        with pytest.raises(ValueError, match="boom at task 3"):
            SweepExecutor().execute(spec)


class TestCacheResume:
    def test_partial_sweep_resumes_from_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        params = [{"x": i} for i in range(6)]
        first = SweepExecutor().execute(
            SweepSpec(
                fn=_echo_task, param_sets=params[:3], base_seed=7, cache=RunResultCache(cache_dir)
            )
        )
        assert first.cache_stores == 3 and first.cache_hits == 0
        resumed = SweepExecutor(mode="process", max_workers=2).execute(
            SweepSpec(
                fn=_echo_task, param_sets=params, base_seed=7, cache=RunResultCache(cache_dir)
            )
        )
        assert resumed.cache_hits == 3
        assert resumed.cache_stores == 3
        fresh = SweepExecutor().execute(
            SweepSpec(fn=_echo_task, param_sets=params, base_seed=7)
        )
        assert _bits(resumed.results) == _bits(fresh.results)

    def test_resume_after_worker_kill_is_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"
        params = _fault_params(6, tmp_path, kill_index=3)
        spec = SweepSpec(
            fn=_kill_once_task,
            param_sets=params,
            base_seed=31,
            chunk_size=1,
            lease_timeout=30.0,
            cache=RunResultCache(cache_dir),
        )
        crashed = SweepExecutor(mode="process", max_workers=2).execute(spec)
        assert crashed.worker_deaths >= 1
        rerun = SweepExecutor(mode="process", max_workers=2).execute(spec)
        assert rerun.cache_hits == len(params)
        assert rerun.worker_deaths == 0
        uninterrupted = SweepExecutor().execute(
            SweepSpec(fn=_kill_once_task, param_sets=params, base_seed=31)
        )
        for report in (crashed, rerun):
            assert _bits(report.results) == _bits(uninterrupted.results)

    def test_overlapping_sweeps_share_cache_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = SweepExecutor().execute(
            SweepSpec(fn=_echo_task, seeds=[11, 22, 33], cache=RunResultCache(cache_dir))
        )
        assert first.cache_stores == 3
        # Seeds 22 and 33 sit at different indices here; the key excludes
        # the index, so the overlap still dedupes.
        second = SweepExecutor().execute(
            SweepSpec(fn=_echo_task, seeds=[22, 33, 44], cache=RunResultCache(cache_dir))
        )
        assert second.cache_hits == 2
        assert second.cache_stores == 1
        assert second.results[:2] == first.results[1:]

    def test_none_results_are_cached_not_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = SweepSpec(fn=_none_task, seeds=[1, 2], cache=RunResultCache(cache_dir))
        assert SweepExecutor().execute(spec).cache_stores == 2
        rerun = SweepExecutor().execute(spec)
        assert rerun.cache_hits == 2
        assert rerun.results == [None, None]

    def test_unstable_callables_count_as_uncacheable(self, tmp_path):
        spec = SweepSpec(
            fn=lambda task: task.seed, seeds=[1, 2], cache=RunResultCache(tmp_path / "c")
        )
        report = SweepExecutor().execute(spec)
        assert report.cache_uncacheable == 2
        assert report.cache_stores == 0

    def test_task_key_excludes_index_and_covers_params(self):
        tasks = SweepSpec(fn=_echo_task, seeds=[9], extra={"x": 1}).tasks()
        other_index = tasks[0].__class__(index=5, seed=9, params={"x": 1})
        assert sweep_task_key(_echo_task, tasks[0]) == sweep_task_key(_echo_task, other_index)
        changed = tasks[0].__class__(index=0, seed=9, params={"x": 2})
        assert sweep_task_key(_echo_task, tasks[0]) != sweep_task_key(_echo_task, changed)
        assert sweep_task_key(lambda t: t, tasks[0]) is None


class TestReportAccounting:
    def test_worker_utilisation(self):
        params = [{"x": i} for i in range(8)]
        report = SweepExecutor(mode="process", max_workers=2).execute(
            SweepSpec(fn=_echo_task, param_sets=params, base_seed=3, chunk_size=2)
        )
        util = report.worker_utilisation()
        assert all(0.0 <= v for v in util.values())
