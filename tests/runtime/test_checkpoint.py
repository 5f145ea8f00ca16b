"""Checkpoint format, store fallback, and crash-resume bit-identity.

The contract pinned here (see ``docs/RUNTIME.md``): a snapshot is either
complete and verifiable or it fails *loudly* with a typed error, and a
solve resumed from a snapshot continues bit-identically to one that was
never interrupted — including across a real ``os._exit`` crash injected
by a :class:`~repro.runtime.checkpoint.FaultPlan`.
"""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from repro.csp.scenarios import make_instance
from repro.csp.solver import solve_instances
from repro.runtime.checkpoint import (
    CHECKPOINT_MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStore,
    CheckpointVersionError,
    FaultPlan,
    read_checkpoint,
    write_checkpoint,
)

# --------------------------------------------------------------------- #
# File format: versioned, checksummed, typed failures
# --------------------------------------------------------------------- #
PAYLOAD = {"arrays": [np.arange(7, dtype=np.int64), np.ones((2, 3))], "step": 42}


def test_roundtrip_preserves_payload(tmp_path):
    path = write_checkpoint(tmp_path / "snap.ckpt", PAYLOAD, kind="unit")
    loaded = read_checkpoint(path, kind="unit")
    assert loaded["step"] == 42
    np.testing.assert_array_equal(loaded["arrays"][0], PAYLOAD["arrays"][0])
    np.testing.assert_array_equal(loaded["arrays"][1], PAYLOAD["arrays"][1])


def test_kind_mismatch_is_a_typed_error(tmp_path):
    path = write_checkpoint(tmp_path / "snap.ckpt", PAYLOAD, kind="serve")
    with pytest.raises(CheckpointError, match="kind"):
        read_checkpoint(path, kind="csp-solve")
    # Without an expectation the kind is not enforced.
    assert read_checkpoint(path)["step"] == 42


def test_bad_magic_is_corrupt(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointCorruptError, match="magic"):
        read_checkpoint(path)


def test_truncated_file_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "snap.ckpt", PAYLOAD)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - len(blob) // 3])
    with pytest.raises(CheckpointCorruptError, match="torn|truncated"):
        read_checkpoint(path)


def test_flipped_payload_byte_is_corrupt(tmp_path):
    path = write_checkpoint(tmp_path / "snap.ckpt", PAYLOAD)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorruptError, match="checksum"):
        read_checkpoint(path)


def test_alien_format_version_is_a_version_error(tmp_path):
    path = write_checkpoint(tmp_path / "snap.ckpt", PAYLOAD)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(CHECKPOINT_MAGIC), 999)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError, match="999"):
        read_checkpoint(path)


def test_missing_file_passes_through(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_checkpoint(tmp_path / "nope.ckpt")


# --------------------------------------------------------------------- #
# Fault injection produces exactly the failures the reader defends against
# --------------------------------------------------------------------- #
def test_injected_torn_write_reads_as_corrupt(tmp_path):
    fault = FaultPlan(torn_write_at=2)
    good = write_checkpoint(tmp_path / "a.ckpt", PAYLOAD, fault=fault)
    torn = write_checkpoint(tmp_path / "b.ckpt", PAYLOAD, fault=fault)
    assert read_checkpoint(good)["step"] == 42  # write 1 untouched
    with pytest.raises(CheckpointCorruptError, match="torn"):
        read_checkpoint(torn)


def test_injected_corruption_reads_as_checksum_mismatch(tmp_path):
    fault = FaultPlan(corrupt_at=1, seed=3)
    path = write_checkpoint(tmp_path / "a.ckpt", PAYLOAD, fault=fault)
    with pytest.raises(CheckpointCorruptError, match="checksum"):
        read_checkpoint(path)


def test_fault_plan_crash_threshold():
    fault = FaultPlan(crash_at_step=100)
    assert not fault.should_crash(99)
    assert fault.should_crash(100) and fault.should_crash(101)
    assert not FaultPlan().should_crash(10**9)


# --------------------------------------------------------------------- #
# Store: rotation and last-good fallback
# --------------------------------------------------------------------- #
def test_store_rotates_to_keep(tmp_path):
    store = CheckpointStore(tmp_path, keep=2)
    for step in (10, 20, 30, 40):
        store.save(step, {"step": step})
    assert store.steps() == [30, 40]
    step, payload = store.load_latest()
    assert step == 40 and payload["step"] == 40 and store.failures == []


def test_store_falls_back_past_corrupt_newest(tmp_path):
    store = CheckpointStore(tmp_path, keep=3)
    for step in (10, 20, 30):
        store.save(step, {"step": step})
    newest = tmp_path / "ckpt-000000000030.ckpt"
    blob = bytearray(newest.read_bytes())
    blob[-1] ^= 0xFF
    newest.write_bytes(bytes(blob))

    step, payload = store.load_latest()
    assert step == 20 and payload["step"] == 20
    assert len(store.failures) == 1
    failed_path, error = store.failures[0]
    assert failed_path == newest and isinstance(error, CheckpointCorruptError)


def test_store_with_no_good_snapshot_returns_none(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load_latest() is None  # empty directory
    store.save(10, {"step": 10})
    path = tmp_path / "ckpt-000000000010.ckpt"
    path.write_bytes(b"garbage")
    assert store.load_latest() is None
    assert len(store.failures) == 1


def test_store_rejects_nonpositive_keep(tmp_path):
    with pytest.raises(ValueError):
        CheckpointStore(tmp_path, keep=0)


# --------------------------------------------------------------------- #
# CSP solve: checkpointed runs are bit-identical, resumable, fingerprinted
# --------------------------------------------------------------------- #
def _instances():
    return [
        make_instance("coloring", seed=i, num_vertices=9, num_colors=3) for i in range(4)
    ]


SOLVE_KW = dict(seed=5, max_steps=600, check_interval=10)


def _assert_results_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, ref in zip(actual, expected):
        assert got.solved == ref.solved
        assert got.steps == ref.steps
        assert got.total_spikes == ref.total_spikes
        assert got.neuron_updates == ref.neuron_updates
        assert got.attempt_steps == ref.attempt_steps
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(got.decided, ref.decided)


def test_checkpointing_does_not_change_results(tmp_path):
    baseline = solve_instances(_instances(), **SOLVE_KW)
    checkpointed = solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=tmp_path, checkpoint_every=50
    )
    _assert_results_identical(checkpointed, baseline)
    # Re-calling resumes from the completion snapshot: same results again.
    resumed = solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=tmp_path, checkpoint_every=50
    )
    _assert_results_identical(resumed, baseline)


def test_crashed_solve_resumes_bit_identically(tmp_path):
    """kill the process mid-solve (injected ``os._exit``), resume, compare."""
    ckpt_dir = tmp_path / "ckpts"
    script = tmp_path / "crashing_solve.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(os.path.dirname(__file__), '..', '..', 'src')!r})\n"
        "from repro.csp.scenarios import make_instance\n"
        "from repro.csp.solver import solve_instances\n"
        "from repro.runtime.checkpoint import FaultPlan\n"
        "instances = [make_instance('coloring', seed=i, num_vertices=9, num_colors=3)\n"
        "             for i in range(4)]\n"
        "solve_instances(instances, seed=5, max_steps=600, check_interval=10,\n"
        f"                checkpoint_dir={str(ckpt_dir)!r}, checkpoint_every=50,\n"
        "                fault=FaultPlan(crash_at_step=150))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == FaultPlan.CRASH_EXIT_CODE, proc.stderr
    assert len(list(ckpt_dir.glob("*.ckpt"))) >= 1  # died with state on disk

    resumed = solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=ckpt_dir, checkpoint_every=50
    )
    baseline = solve_instances(_instances(), **SOLVE_KW)
    _assert_results_identical(resumed, baseline)


def test_checkpoint_dir_is_bound_to_the_solve(tmp_path):
    solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=tmp_path, checkpoint_every=50
    )
    with pytest.raises(CheckpointError, match="different solve"):
        solve_instances(
            _instances(),
            seed=6,  # different seeds -> different solve identity
            max_steps=600,
            check_interval=10,
            checkpoint_dir=tmp_path,
        )


def test_torn_final_snapshot_degrades_to_previous_good_one(tmp_path):
    """A crash *during* the newest snapshot write falls back, not over."""
    # First pass with an inert plan just counts the snapshot writes.
    counter = FaultPlan()
    solve_instances(
        _instances(),
        **SOLVE_KW,
        checkpoint_dir=tmp_path / "count",
        checkpoint_every=50,
        fault=counter,
    )
    assert counter.checkpoint_writes >= 2  # need a good one to fall back to
    # Second pass tears the *last* write — the completion snapshot.
    fault = FaultPlan(torn_write_at=counter.checkpoint_writes)
    ckpt_dir = tmp_path / "torn"
    solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=ckpt_dir, checkpoint_every=50, fault=fault
    )
    store = CheckpointStore(ckpt_dir, kind="csp-solve")
    loaded = store.load_latest()
    assert loaded is not None  # fell back past the torn file
    assert len(store.failures) == 1
    assert isinstance(store.failures[0][1], CheckpointCorruptError)
    # And a resume from the degraded state still matches the baseline.
    resumed = solve_instances(
        _instances(), **SOLVE_KW, checkpoint_dir=ckpt_dir, checkpoint_every=50
    )
    _assert_results_identical(resumed, solve_instances(_instances(), **SOLVE_KW))


def test_zero_budget_checkpointed_solve_is_the_empty_decode(tmp_path):
    plain = solve_instances(_instances(), seed=5, max_steps=0)
    checkpointed = solve_instances(
        _instances(), seed=5, max_steps=0, checkpoint_dir=tmp_path
    )
    _assert_results_identical(checkpointed, plain)


@pytest.mark.parametrize("max_steps", [0, 10])
def test_nonpositive_checkpoint_every_is_rejected_on_every_path(tmp_path, max_steps):
    """The cadence is validated once, whether or not the solve ever steps."""
    with pytest.raises(ValueError, match="checkpoint_every"):
        solve_instances(
            _instances(),
            seed=5,
            max_steps=max_steps,
            checkpoint_dir=tmp_path,
            checkpoint_every=0,
        )


def test_service_rejects_nonpositive_checkpoint_every():
    from repro.serve import SolveService

    with pytest.raises(ValueError, match="checkpoint_every"):
        SolveService(checkpoint_every=0)
