"""The content-addressed on-disk RunResult cache."""

import pickle

import pytest

from repro.runtime import (
    RunRequest,
    RunResult,
    RunResultCache,
    run_many_on_backend,
    run_on_backend,
)
from repro.runtime.backends import _REGISTRY, register_backend
from repro.runtime.cache import UncacheableRequestError, _token, code_fingerprint


class CountingBackend:
    """A deterministic stub backend that counts its executions."""

    name = "counting-test"
    description = "cache test stub"
    level = "isa"
    supports_batching = False

    def __init__(self):
        self.runs = 0

    def build_network(self, request):
        return None

    def run(self, request):
        self.runs += 1
        return RunResult(
            backend=self.name,
            workload=request.workload,
            num_steps=request.num_steps,
            total_spikes=request.seed * 10,
            metrics={"seed": float(request.seed)},
        )


@pytest.fixture
def counting_backend():
    backend = CountingBackend()
    register_backend(backend, replace=True)
    yield backend
    _REGISTRY.pop(backend.name, None)


class TestCacheServesRepeatedRuns:
    def test_repeated_run_on_backend_hits_cache(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3)
        first = run_on_backend("counting-test", request, cache=cache)
        second = run_on_backend("counting-test", request, cache=cache)
        assert counting_backend.runs == 1          # second run never hit the backend
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1
        assert second.total_spikes == first.total_spikes == 30
        assert second.metrics == first.metrics

    def test_cache_distinguishes_requests_and_backends(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        base = RunRequest(num_neurons=10, num_steps=5, seed=3)
        run_on_backend("counting-test", base, cache=cache)
        run_on_backend("counting-test", RunRequest(num_neurons=10, num_steps=5, seed=4), cache=cache)
        run_on_backend("counting-test", RunRequest(num_neurons=10, num_steps=6, seed=3), cache=cache)
        options = RunRequest(num_neurons=10, num_steps=5, seed=3, options={"kind": "baseline"})
        run_on_backend("counting-test", options, cache=cache)
        assert counting_backend.runs == 4
        key_a = cache.key_for("counting-test", base)
        key_b = cache.key_for("other-backend", base)
        assert key_a != key_b

    def test_cache_off_by_default(self, counting_backend, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_CACHE", raising=False)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3)
        run_on_backend("counting-test", request)
        run_on_backend("counting-test", request)
        assert counting_backend.runs == 2

    def test_uncacheable_options_bypass_cleanly(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3, options={"hook": lambda: 1})
        run_on_backend("counting-test", request, cache=cache)
        run_on_backend("counting-test", request, cache=cache)
        assert counting_backend.runs == 2
        assert cache.uncacheable == 2
        assert cache.hits == cache.misses == cache.stores == 0

    def test_corrupt_entry_is_a_miss(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3)
        run_on_backend("counting-test", request, cache=cache)
        key = cache.key_for("counting-test", request)
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        result = run_on_backend("counting-test", request, cache=cache)
        assert counting_backend.runs == 2
        assert result.total_spikes == 30
        assert not path.read_bytes() == b"not a pickle"  # rewritten

    def test_unframed_pickle_is_quarantined(self, counting_backend, tmp_path):
        # Bytes without the checksummed framing ``put`` writes cannot be
        # a live entry (keys cover the code fingerprint), even when they
        # unpickle to the expected type.
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3)
        key = cache.key_for("counting-test", request)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        planted = RunResult(backend="counting-test", workload="w", num_steps=5, total_spikes=-1)
        path.write_bytes(pickle.dumps(planted))
        assert cache.get(key, expect=RunResult) is None
        assert cache.quarantined == 1
        result = run_on_backend("counting-test", request, cache=cache)
        assert result.total_spikes == 30
        assert counting_backend.runs == 1

    def test_clear_empties_the_store(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=10, num_steps=5, seed=3)
        run_on_backend("counting-test", request, cache=cache)
        cache.clear()
        run_on_backend("counting-test", request, cache=cache)
        assert counting_backend.runs == 2


class TestRealBackendThroughCache:
    def test_functional_backend_round_trips(self, tmp_path):
        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=12, num_steps=1, seed=3)
        fresh = run_on_backend("functional", request, cache=cache)
        cached = run_on_backend("functional", request, cache=cache)
        assert cache.hits == 1
        assert cached.backend == fresh.backend
        assert cached.total_spikes == fresh.total_spikes
        assert cached.metrics == fresh.metrics

    def test_network_backend_raster_round_trips(self, tmp_path):
        import numpy as np

        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=40, num_steps=20, seed=5)
        fresh = run_on_backend("fixed", request, cache=cache)
        cached = run_on_backend("fixed", request, cache=cache)
        assert cache.hits == 1
        np.testing.assert_array_equal(cached.raster.times, fresh.raster.times)
        np.testing.assert_array_equal(cached.raster.neuron_ids, fresh.raster.neuron_ids)

    def test_run_many_on_backend_served_from_cache(self, counting_backend, tmp_path):
        cache = RunResultCache(tmp_path)
        requests = [RunRequest(num_neurons=10, num_steps=5, seed=s) for s in (1, 2, 3)]
        first = run_many_on_backend("counting-test", requests, cache=cache)
        second = run_many_on_backend("counting-test", requests, cache=cache)
        assert counting_backend.runs == 3          # the whole second sweep was cached
        assert [r.total_spikes for r in first] == [r.total_spikes for r in second] == [10, 20, 30]


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
        token = _token(RunRequest(num_neurons=8, num_steps=2, seed=1))
        assert token["__dataclass__"] == "RunRequest"

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_cache_key_includes_code_fingerprint(self, tmp_path, monkeypatch):
        import repro.runtime.cache as cache_mod

        cache = RunResultCache(tmp_path)
        request = RunRequest(num_neurons=8, num_steps=2, seed=1)
        key_before = cache.key_for("functional", request)
        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "0" * 64)
        assert cache.key_for("functional", request) != key_before

    def test_results_pickle_with_highest_protocol(self):
        result = RunResult(backend="x", workload="w", num_steps=1, total_spikes=0)
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

    def test_derive_cache_key_module_level(self, tmp_path):
        from repro.runtime.cache import derive_cache_key

        key = derive_cache_key("serve", {"a": 1})
        assert key == derive_cache_key("serve", {"a": 1})
        assert key != derive_cache_key("serve", {"a": 2})
        assert key != derive_cache_key("other", {"a": 1})
        assert derive_cache_key("serve", {"a": object()}) is None

    def test_get_expect_type_mismatch_is_a_miss(self, tmp_path):
        cache = RunResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {"wrong": "type"})
        assert cache.get(key, expect=RunResult) is None
        assert not cache._path(key).exists()
        result = RunResult(backend="x", workload="w", num_steps=1, total_spikes=0)
        cache.put(key, result)
        assert cache.get(key, expect=RunResult) == result
