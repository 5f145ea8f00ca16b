"""The content-addressed on-disk result cache."""

import pickle

import pytest

from repro.runtime import RunResultCache, SweepExecutor, SweepSpec, SweepTask, SweepTaskRecord
from repro.runtime.cache import UncacheableRequestError, _token, code_fingerprint, derive_cache_key
from repro.runtime.sweep import _CachedTaskResult

#: Executions of :func:`_counting_task` in this process (serial sweeps only).
RUNS = []


def _counting_task(task):
    RUNS.append(task.index)
    return task.seed * 10


@pytest.fixture
def runs():
    RUNS.clear()
    yield RUNS
    RUNS.clear()


def _request(**overrides):
    return {"num_neurons": 10, "num_steps": 5, "seed": 3, **overrides}


def _cached_run(cache, request, runs, namespace="counting-test"):
    """``get`` or compute-and-``put``: the read-through idiom of the callers."""
    key = derive_cache_key(namespace, request)
    result = cache.get(key)
    if result is None:
        runs.append(request)
        result = {"total_spikes": request["seed"] * 10}
        cache.put(key, result)
    return result


class TestCacheServesRepeatedRuns:
    def test_repeated_run_hits_cache(self, runs, tmp_path):
        cache = RunResultCache(tmp_path)
        first = _cached_run(cache, _request(), runs)
        second = _cached_run(cache, _request(), runs)
        assert len(runs) == 1  # second run never recomputed
        assert second == first == {"total_spikes": 30}

    def test_cache_distinguishes_requests_and_backends(self, runs, tmp_path):
        cache = RunResultCache(tmp_path)
        _cached_run(cache, _request(), runs)
        _cached_run(cache, _request(seed=4), runs)
        _cached_run(cache, _request(num_steps=6), runs)
        _cached_run(cache, _request(options={"kind": "baseline"}), runs)
        assert len(runs) == 4
        key_a = derive_cache_key("counting-test", _request())
        key_b = derive_cache_key("other-backend", _request())
        assert key_a != key_b

    def test_cache_off_by_default(self, runs):
        spec = SweepSpec(fn=_counting_task, seeds=[3])
        assert spec.cache is None
        reports = [SweepExecutor().execute(spec) for _ in range(2)]
        assert runs == [0, 0]
        assert [r.cache_hits for r in reports] == [0, 0]

    def test_uncacheable_options_bypass_cleanly(self, runs, tmp_path):
        cache = RunResultCache(tmp_path)
        assert derive_cache_key("counting-test", _request(hook=lambda: 1)) is None
        spec = SweepSpec(fn=_counting_task, param_sets=[{"hook": lambda: 1}], cache=cache)
        reports = [SweepExecutor().execute(spec) for _ in range(2)]
        assert runs == [0, 0]
        assert [r.cache_uncacheable for r in reports] == [1, 1]
        assert [(r.cache_hits, r.cache_stores) for r in reports] == [(0, 0), (0, 0)]
        assert not any(tmp_path.iterdir())

    def test_corrupt_entry_is_a_miss(self, runs, tmp_path):
        cache = RunResultCache(tmp_path)
        _cached_run(cache, _request(), runs)
        path = cache._path(derive_cache_key("counting-test", _request()))
        path.write_bytes(b"not a pickle")
        result = _cached_run(cache, _request(), runs)
        assert len(runs) == 2
        assert result == {"total_spikes": 30}
        assert cache.quarantined == 1
        assert not path.read_bytes() == b"not a pickle"  # rewritten

    def test_unframed_pickle_is_quarantined(self, runs, tmp_path):
        # Bytes without the checksummed framing ``put`` writes cannot be
        # a live entry (keys cover the code fingerprint), even when they
        # unpickle to the expected type.
        cache = RunResultCache(tmp_path)
        key = derive_cache_key("counting-test", _request())
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"total_spikes": -1}))
        assert cache.get(key, expect=dict) is None
        assert cache.quarantined == 1
        result = _cached_run(cache, _request(), runs)
        assert result == {"total_spikes": 30}
        assert len(runs) == 1

    def test_clear_empties_the_store(self, runs, tmp_path):
        cache = RunResultCache(tmp_path)
        _cached_run(cache, _request(), runs)
        cache.clear()
        _cached_run(cache, _request(), runs)
        assert len(runs) == 2


class TestRealBackendThroughCache:
    def test_functional_backend_round_trips(self, tmp_path):
        from repro.codegen import build_eighty_twenty_workload

        cache = RunResultCache(tmp_path)
        key = derive_cache_key("functional", _request(num_neurons=12, num_steps=1))
        workload = build_eighty_twenty_workload(num_neurons=12, num_steps=1, seed=3)
        fsim = workload.make_simulator()
        fsim.run()
        fresh = {
            "instret": fsim.instret,
            "exit_code": fsim.exit_code,
            "total_spikes": workload.total_spikes(fsim),
        }
        cache.put(key, fresh)
        assert cache.get(key, expect=dict) == fresh

    def test_network_backend_raster_round_trips(self, tmp_path):
        import numpy as np

        from repro.runtime import build_eighty_twenty_replicas

        cache = RunResultCache(tmp_path)
        key = derive_cache_key("fixed", _request(num_neurons=40, num_steps=20, seed=5))
        (network,) = build_eighty_twenty_replicas([5], num_neurons=40)
        fresh = network.run(20)
        cache.put(key, fresh)
        cached = cache.get(key)
        np.testing.assert_array_equal(cached.times, fresh.times)
        np.testing.assert_array_equal(cached.neuron_ids, fresh.neuron_ids)


class TestKeyDerivation:
    def test_token_canonicalises_common_shapes(self):
        import numpy as np

        assert _token({"b": 1, "a": 2}) == _token({"a": 2, "b": 1})
        assert _token((1, 2)) == _token([1, 2])
        array_token = _token(np.arange(4))
        assert array_token == _token(np.arange(4))
        assert array_token != _token(np.arange(5))
        with pytest.raises(UncacheableRequestError):
            _token(object())

    def test_token_distinguishes_mapping_key_types(self):
        # int 1 and str "1" are different requests, not the same key.
        assert _token({1: "a"}) != _token({"1": "a"})
        # Unorderable token pairs must still sort (by serialised form),
        # not raise TypeError.
        token = _token({1: {"x": 1}, "1": {"y": 2}})
        assert len(token["__mapping__"]) == 2

    def test_unsetting_env_dir_restores_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_CACHE_DIR", str(tmp_path))
        assert RunResultCache().root == tmp_path
        monkeypatch.delenv("REPRO_RUN_CACHE_DIR")
        from pathlib import Path

        assert RunResultCache().root == Path.home() / ".cache" / "izhirisc-repro" / "runs"

    def test_request_dataclass_tokenises(self):
        token = _token(SweepTask(index=0, seed=1, params={"num_neurons": 8}))
        assert token["__dataclass__"] == "SweepTask"

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_cache_key_includes_code_fingerprint(self, monkeypatch):
        import repro.runtime.cache as cache_mod

        request = _request(num_neurons=8, num_steps=2, seed=1)
        key_before = derive_cache_key("functional", request)
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "0" * 64)
        assert derive_cache_key("functional", request) != key_before

    def test_results_pickle_with_highest_protocol(self):
        result = _CachedTaskResult(value={"total_spikes": 0})
        assert pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) == result


class TestCacheTokenProtocol:
    def test_objects_with_cache_token_tokenise(self):
        class Structured:
            def __init__(self, payload):
                self.payload = payload

            def cache_token(self):
                return {"payload": self.payload}

        token = _token(Structured([1, 2]))
        assert token["__object__"].endswith("Structured")  # qualname of a local class
        assert token == _token(Structured([1, 2]))
        assert token != _token(Structured([1, 3]))

    def test_constraint_graph_token_is_structural(self):
        from repro.csp.graph import ConstraintGraph, Variable

        def graph(name, var_names):
            g = ConstraintGraph(
                [Variable(n, (0, 1)) for n in var_names], name=name
            )
            g.add_conflict(var_names[0], 0, var_names[1], 0)
            return g

        a = graph("first", ["x", "y"])
        b = graph("second", ["p", "q"])  # same structure, different names
        assert _token(a) == _token(b)
        c = graph("third", ["x", "y"])
        c.add_conflict("x", 1, "y", 1)
        assert _token(a) != _token(c)  # extra edge changes the token

    def test_derive_cache_key_module_level(self):
        key = derive_cache_key("serve", {"a": 1})
        assert key == derive_cache_key("serve", {"a": 1})
        assert key != derive_cache_key("serve", {"a": 2})
        assert key != derive_cache_key("other", {"a": 1})
        assert derive_cache_key("serve", {"a": object()}) is None

    def test_get_expect_type_mismatch_is_a_miss(self, tmp_path):
        cache = RunResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"wrong": "type"})
        assert cache.get(key, expect=SweepTaskRecord) is None
        assert not cache._path(key).exists()
        result = SweepTaskRecord(index=0, seed=1, worker=-1, duration=0.0, cached=False, attempts=1)
        cache.put(key, result)
        assert cache.get(key, expect=SweepTaskRecord) == result
