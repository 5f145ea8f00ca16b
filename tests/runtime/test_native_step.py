"""Differential suite for the native step kernel (``repro.runtime._native``).

The fused C step must reproduce the NumPy step of ``BatchedNetwork`` bit
for bit: spikes, membrane and recovery state and the carried raw Q15.16
current, after every step.  Each test builds two identical batches, steps
one with the native kernel and one with the loader patched to refuse
(the NumPy reference), and compares them after every step, over random
configurations (every DCU ``tau_select``, both timesteps, voltage pinning,
decay and recompute current modes, the ``shared``/``flat``/no-synapse
layouts) and the edge values that break a careless port: ``v``/``u`` at
the Q7.8 rails, currents at the Q15.16 rails and quantiser inputs exactly
on ``k + 0.5`` ties.

The module also holds the gates around the kernel: it must load whenever
a compiler is on ``PATH``, a failed build must fall back to NumPy with
exactly one warning, and importing the package must neither import
``ctypes`` nor touch the build cache.
"""

import logging
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.fixedpoint import Q7_8, Q15_16
from repro.runtime import BatchedNetwork, _native
from repro.snn.fixed_izhikevich import FixedPointPopulation
from repro.snn.network import SNNNetwork
from repro.snn.synapse import DenseSynapses, SparseSynapses

HAVE_COMPILER = shutil.which(_native._COMPILER) is not None
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def native_kernel():
    kernel = _native.load_step_kernel()
    if kernel is None:
        # test_native_kernel_loads_when_a_compiler_is_present fails here.
        pytest.skip("native step kernel unavailable (no C compiler on PATH)")
    return kernel


# ---------------------------------------------------------------------- #
# Network and drive factories
# ---------------------------------------------------------------------- #
def _synapses(rng, n, *, rails):
    nnz = max(1, int(n * n * 0.2))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.integers(-30 * 65536, 30 * 65536, size=nnz)
    if rails:
        # Weights big enough to push the summed current past the rails.
        vals[: nnz // 4] = rng.choice([-1, 1], size=nnz // 4) * (Q15_16.raw_max // 16)
    matrix = sparse.coo_matrix((vals / 65536.0, (rows, cols)), shape=(n, n))
    return SparseSynapses(matrix)


class _Drive:
    """Stateless per-replica drive: a pure function of ``(seed, step)``.

    Mixes Gaussian noise with quantiser ties (``(k + 0.5) / 2^16``, so
    ``z = base * 2^16 + S`` lands exactly on ``k' + 0.5``) and, with
    ``rails``, currents at and beyond the Q15.16 limits.
    """

    def __init__(self, seed, n, *, rails, quiet=False):
        self.seed, self.n, self.rails, self.quiet = seed, n, rails, quiet

    def __call__(self, step):
        if self.quiet:
            return np.full(self.n, -2000.0)
        rng = np.random.default_rng([self.seed, step])
        noise = 4.0 + 8.0 * rng.standard_normal(self.n)
        ties = (rng.integers(-(2**21), 2**21, size=self.n) + 0.5) / 65536.0
        rail = rng.choice(
            [Q15_16.raw_max / 65536.0, Q15_16.raw_min / 65536.0, 4.0e4, -4.0e4], size=self.n
        )
        kind = rng.integers(0, 4 if self.rails else 2, size=self.n)
        return np.select([kind == 0, kind == 1], [noise, ties], rail)


def _network(case, replica, *, shared=None):
    rng = np.random.default_rng([case["seed"], replica])
    n = case["n"]
    pop = FixedPointPopulation.from_float_parameters(
        rng.uniform(0.01, 0.12, n),
        rng.uniform(0.1, 0.3, n),
        rng.uniform(-72.0, -45.0, n),
        rng.uniform(0.05, 8.0, n),
        v0=float(rng.uniform(-75.0, -55.0)),
        h_shift=case["h_shift"],
        pin_voltage=case["pin"],
    )
    if case["rails"]:
        pick = rng.integers(0, 3, size=n)
        pop.v_raw = np.where(pick == 0, Q7_8.raw_min, np.where(pick == 1, Q7_8.raw_max, pop.v_raw))
        pick = rng.integers(0, 3, size=n)
        pop.u_raw = np.where(pick == 0, Q7_8.raw_min, np.where(pick == 1, Q7_8.raw_max, pop.u_raw))
    layout = case["layout"]
    if layout == "none":
        synapses = None
    elif layout == "shared":
        synapses = shared
    else:
        synapses = _synapses(rng, n, rails=case["rails"])
    return SNNNetwork(
        population=pop,
        synapses=synapses,
        external_input=_Drive(case["seed"] * 1000 + replica, n, rails=case["rails"],
                              quiet=case.get("quiet", False)),
        current_mode=case["mode"],
        tau_select=case["tau"],
    )


def _networks(case, replicas):
    shared = None
    if case["layout"] == "shared":
        shared = _synapses(np.random.default_rng(case["seed"]), case["n"], rails=case["rails"])
    return [_network(case, r, shared=shared) for r in replicas]


def _batch(case, replicas):
    batch = BatchedNetwork.from_networks(_networks(case, replicas))
    if case["rails"] and case["mode"] == "decay":
        # Start the carried current at the Q15.16 rails, and beyond them
        # (a restored snapshot may hold anything; the decay must saturate).
        rng = np.random.default_rng(case["seed"] + 7)
        values = [Q15_16.raw_min, Q15_16.raw_max, 0, -1, 1, -(2**40), 2**40]
        batch._isyn_raw[...] = rng.choice(values, size=batch._isyn_raw.shape)
    return batch


# ---------------------------------------------------------------------- #
# Differential harness
# ---------------------------------------------------------------------- #
def _numpy_step(monkeypatch, batch, step):
    with monkeypatch.context() as patch:
        patch.setattr(_native, "load_step_kernel", lambda: None)
        return batch.step(step)


def _assert_same_state(native, reference, where):
    for name in ("_last_fired", "v_raw", "u_raw", "_isyn_raw"):
        np.testing.assert_array_equal(
            getattr(native, name), getattr(reference, name), err_msg=f"{name} at {where}"
        )


def _run_pair(monkeypatch, native, reference, steps, *, start=0):
    """Step both batches ``steps`` times, comparing after every step."""
    fired = 0
    for t in range(start, start + steps):
        native.step(t)
        _numpy_step(monkeypatch, reference, t)
        _assert_same_state(native, reference, f"step {t}")
        fired += int(native._last_fired.sum())
    assert native._native_call is not None, "the native batch ran on NumPy"
    assert reference._native_call is None, "the reference batch ran natively"
    return fired


def _case(index, **overrides):
    rng = np.random.default_rng(index)
    case = {
        "seed": 500 + index,
        "n": int(rng.integers(3, 70)),
        "batch": int(rng.integers(1, 6)),
        "tau": 1 + index % 9,
        "h_shift": (1, 3)[index % 2],
        "pin": bool((index // 2) % 2),
        "mode": ("decay", "recompute")[(index // 4) % 2],
        "layout": ("shared", "flat", "none")[index % 3],
        "rails": bool((index // 3) % 2),
    }
    case.update(overrides)
    return case


# ---------------------------------------------------------------------- #
# Bit-exactness
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("index", range(24))
def test_random_configuration_matches_numpy(monkeypatch, native_kernel, index):
    case = _case(index)
    replicas = range(case["batch"])
    _run_pair(monkeypatch, _batch(case, replicas), _batch(case, replicas), 30)


@pytest.mark.parametrize("layout", ["shared", "flat", "none"])
@pytest.mark.parametrize("mode", ["decay", "recompute"])
def test_rails_and_ties_match_numpy(monkeypatch, native_kernel, layout, mode):
    case = _case(3, layout=layout, mode=mode, rails=True, n=64, batch=4)
    _run_pair(monkeypatch, _batch(case, range(4)), _batch(case, range(4)), 25)


@pytest.mark.parametrize("tau", range(1, 10))
@pytest.mark.parametrize("h_shift", [1, 3])
def test_every_decay_selection_matches_numpy(monkeypatch, native_kernel, tau, h_shift):
    case = _case(tau, tau=tau, h_shift=h_shift, mode="decay", layout="shared", n=40, batch=3)
    fired = _run_pair(monkeypatch, _batch(case, range(3)), _batch(case, range(3)), 30)
    assert fired > 0, "the configuration never spiked; the gather went untested"


@pytest.mark.parametrize("layout", ["shared", "flat", "none"])
def test_empty_firing_matches_numpy(monkeypatch, native_kernel, layout):
    case = _case(5, layout=layout, quiet=True, rails=False)
    fired = _run_pair(monkeypatch, _batch(case, range(3)), _batch(case, range(3)), 20)
    assert fired == 0


@pytest.mark.parametrize("layout", ["shared", "flat", "none"])
@pytest.mark.parametrize("mode", ["decay", "recompute"])
def test_rows_after_retain_and_extend_match_numpy(monkeypatch, native_kernel, layout, mode):
    case = _case(11, layout=layout, mode=mode, n=33)
    native, reference = _batch(case, range(5)), _batch(case, range(5))
    _run_pair(monkeypatch, native, reference, 12)
    for batch in (native, reference):
        batch.retain([0, 2, 4])
    _run_pair(monkeypatch, native, reference, 10, start=12)
    native.extend(_networks(case, [7, 8]))
    reference.extend(_networks(case, [7, 8]))
    assert native.batch_size == reference.batch_size == 5
    _run_pair(monkeypatch, native, reference, 15, start=22)


@pytest.mark.parametrize("layout", ["shared", "flat", "none"])
def test_rows_after_restore_state_match_numpy(monkeypatch, native_kernel, layout):
    case = _case(13, layout=layout, mode="decay", n=29)
    source = _batch(case, range(4))
    for t in range(17):
        _numpy_step(monkeypatch, source, t)
    state = source.export_state()
    native, reference = _batch(case, range(4)), _batch(case, range(4))
    native.step(0)  # bind the native kernel to the pre-restore buffers first
    native.restore_state(state)
    reference.restore_state(state)
    _run_pair(monkeypatch, native, reference, 20, start=17)


def test_non_contiguous_batched_external_matches_numpy(monkeypatch, native_kernel):
    case = _case(2, layout="shared", mode="decay", n=21)
    drives = [_Drive(40 + r, case["n"], rails=True) for r in range(3)]

    def external(step):  # Fortran-ordered, so the kernel must copy it
        return np.asfortranarray(np.stack([d(step) for d in drives]))

    nets_a, nets_b = _networks(case, range(3)), _networks(case, range(3))
    native = BatchedNetwork.from_networks(nets_a, batched_external=external)
    reference = BatchedNetwork.from_networks(nets_b, batched_external=external)
    _run_pair(monkeypatch, native, reference, 20)


def test_dense_and_float_feed_batches_stay_on_numpy(native_kernel):
    legacy = BatchedNetwork.from_networks(
        _networks(_case(1, layout="flat", n=8), range(2)), integer_csr=False
    )
    dense_nets = _networks(_case(1, layout="none", n=8), range(2))
    for net in dense_nets:
        net.synapses = DenseSynapses(np.eye(8))
    dense = BatchedNetwork.from_networks(dense_nets)
    assert dense._synapses._int_kind == "dense"
    for batch in (legacy, dense):
        batch.step(0)
        assert batch._native_call is None


# ---------------------------------------------------------------------- #
# Gates
# ---------------------------------------------------------------------- #
def test_native_kernel_loads_when_a_compiler_is_present():
    # Deliberately not a skip: CI with a compiler must never run only
    # the NumPy fallback without noticing.
    if HAVE_COMPILER:
        assert _native.load_step_kernel() is not None, "gcc is on PATH but the kernel did not load"
    case = _case(0, layout="shared")
    batch = _batch(case, range(2))
    batch.step(0)
    assert (batch._native_call is not None) == HAVE_COMPILER


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded loader whose build cache is an empty temp directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_kernel", _native._UNSET)
    return tmp_path


def test_failed_build_falls_back_to_numpy_with_one_warning(monkeypatch, fresh_loader, caplog):
    broken = fresh_loader / "broken.c"
    broken.write_text("this is not C;\n")
    monkeypatch.setattr(_native, "_SOURCE", broken)
    case = _case(4, layout="flat", rails=True)
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        fallback = [_batch(case, range(3)), _batch(case, range(3))]
        reference = _batch(case, range(3))
        for t in range(25):
            for batch in fallback:
                batch.step(t)
            _numpy_step(monkeypatch, reference, t)
            for batch in fallback:
                _assert_same_state(batch, reference, f"step {t}")
    assert all(batch._native_call is None for batch in fallback)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1, [r.getMessage() for r in warnings]
    assert "NumPy" in warnings[0].getMessage()


@pytest.mark.skipif(not HAVE_COMPILER, reason="needs a C compiler")
def test_build_is_cached_atomically_and_reused(monkeypatch, fresh_loader):
    kernel = _native.load_step_kernel()
    assert kernel is not None
    assert kernel.path.parent == fresh_loader / "cache" / "repro" / "native"
    assert [p.name for p in kernel.path.parent.iterdir()] == [kernel.path.name]
    built = kernel.path.stat().st_mtime_ns

    # A second process (simulated by a reset loader) reuses the build.
    monkeypatch.setattr(_native, "_kernel", _native._UNSET)

    def no_compile(*args, **kwargs):
        raise AssertionError("recompiled a cached kernel")

    with monkeypatch.context() as patch:
        patch.setattr(_native, "_compile", no_compile)
        again = _native.load_step_kernel()
    assert again is not None and again.path == kernel.path
    assert kernel.path.stat().st_mtime_ns == built

    # A damaged cache entry is rebuilt instead of disabling the kernel.
    monkeypatch.setattr(_native, "_kernel", _native._UNSET)
    monkeypatch.setattr(_native, "_SOURCE", fresh_loader / "step.c")
    (fresh_loader / "step.c").write_text(
        Path(_native.__file__).with_name("_native_step.c").read_text() + "\n/* new key */\n"
    )
    path = _native._library_path(shutil.which(_native._COMPILER))
    path.write_bytes(b"not a shared object")
    rebuilt = _native.load_step_kernel()
    assert rebuilt is not None and rebuilt.path == path
    assert not [p for p in path.parent.iterdir() if p.name.startswith(".build-")]


def test_import_touches_neither_ctypes_nor_the_build_cache(tmp_path):
    # NumPy and SciPy import ctypes themselves, so the probe records who
    # imports it: no module of this package may.  The loader itself is
    # imported only by the first batch step, and nothing may be built.
    probe = textwrap.dedent(
        """
        import builtins, os, sys
        importers = []
        original = builtins.__import__

        def spy(name, globals=None, *args, **kwargs):
            module = (globals or {}).get("__name__", "")
            if name.split(".")[0] == "ctypes" and module.startswith("repro"):
                importers.append(module)
            return original(name, globals, *args, **kwargs)

        builtins.__import__ = spy
        import repro.csp, repro.serve
        assert importers == [], importers
        assert "repro.runtime._native" not in sys.modules
        assert not os.path.exists(os.environ["XDG_CACHE_HOME"])
        print("clean")
        """
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "clean"
