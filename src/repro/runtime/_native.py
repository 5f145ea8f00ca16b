"""Lazy build and load of the fused native step kernel (``_native_step.c``).

:class:`~repro.runtime.batch.BatchedNetwork` advances exact fixed-point
batches on the raw-integer current feed through one C call per step when
this loader can provide the kernel, and through its NumPy stages
otherwise.  Both give bit-identical results (see the C source and
``tests/runtime/test_native_step.py``).

Nothing happens at import: neither :mod:`ctypes` nor the compiler nor the
build cache is touched until the first batch step asks for the kernel.
The first request compiles the source with the installed ``gcc`` (flags
in :data:`FLAGS`), or reuses a shared object built earlier, and keeps the
outcome for the rest of the process.  Shared objects live under
``$XDG_CACHE_HOME/repro/native/`` (``~/.cache`` when unset), named by a
hash of the source, the flags, ``gcc --version`` and the CPU flags, and
are written atomically (temp file + fsync + rename).  Any compile or
load failure logs one warning and leaves every batch on NumPy.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from .checkpoint import _fsync_dir

__all__ = ["FLAGS", "NativeStepKernel", "load_step_kernel"]

_log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("_native_step.c")
_COMPILER = "gcc"
#: Compile flags.  ``-fwrapv``: int64 overflow wraps as in NumPy.
#: ``-ffp-contract=off``: no FMA may fuse ``base * 2^16 + S`` (one
#: rounding instead of two).  ``-fno-math-errno``: math calls count as
#: pure; it only drops the errno write.  Never ``-ffast-math``, which
#: would let the compiler reassociate and round differently.
FLAGS = (
    "-O3",
    "-march=native",
    "-fwrapv",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-std=c99",
    "-shared",
    "-fPIC",
)

#: Layout fields, in the order of ``repro_step_layout`` in the C source.
_INT_FIELDS = (
    "batch", "size", "layout", "decay", "shifts", "masks", "h_shift", "substeps", "pin",
    "coeff_004", "const_140", "bv_shift", "v_th",
    "q78_min", "q78_max", "q1516_min", "q1516_max",
)  # fmt: skip
_ARRAY_FIELDS = (
    "indptr", "indices", "weights", "v", "u", "a", "b", "c", "d", "isyn", "syn",
)  # fmt: skip

_UNSET: Any = object()
_kernel: Any = _UNSET


class NativeStepKernel:
    """The loaded ``repro_batch_step`` entry point plus its layout struct."""

    def __init__(self, fn: Any, layout_type: Any, path: Path) -> None:
        self._fn = fn
        self._layout_type = layout_type
        self.path = path

    def bind(self, ints: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Callable[..., None]:
        """Fix one batch layout; returns ``step(ext_ptr, last_fired_ptr, fired_ptr)``.

        ``arrays`` must be C-contiguous ``int64`` buffers that outlive the
        returned callable; the caller rebinds whenever it reallocates one.
        """
        import ctypes

        for name in _ARRAY_FIELDS:
            arr = arrays[name]
            if arr.dtype != np.int64 or not arr.flags.c_contiguous:
                raise ValueError(f"native step buffer {name!r} is not C-contiguous int64")
        layout = self._layout_type(
            **ints, **{name: arrays[name].ctypes.data for name in _ARRAY_FIELDS}
        )
        # ``byref`` keeps ``layout`` alive as long as the partial lives.
        return functools.partial(self._fn, ctypes.byref(layout))


def load_step_kernel() -> Optional[NativeStepKernel]:
    """The native step kernel, built on first use; ``None`` means use NumPy."""
    global _kernel
    if _kernel is _UNSET:
        try:
            _kernel = _load()
        except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
            # No compiler, a failed build or an unloadable library: NumPy.
            _log.warning("native step kernel unavailable, using the NumPy step: %s", exc)
            _kernel = None
    return _kernel


def _cache_dir() -> Path:
    """Directory of the built shared objects."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro" / "native"


def _cpu_flags() -> bytes:
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"flags"):
                    return line
    except OSError:
        pass
    import platform

    return f"{platform.machine()} {platform.processor()}".encode()


def _library_path(compiler: str) -> Path:
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    digest = hashlib.sha256()
    for part in (_SOURCE.read_bytes(), " ".join(FLAGS).encode(), version, _cpu_flags()):
        digest.update(part)
        digest.update(b"\0")
    return _cache_dir() / f"step-{digest.hexdigest()[:32]}.so"


def _compile(compiler: str, target: Path) -> None:
    """Build into a temp file beside ``target``, fsync it, rename it into place."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{compiler} failed: {proc.stderr.strip()[-2000:]}")
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _fsync_dir(target.parent)


def _load() -> NativeStepKernel:
    import ctypes

    compiler = shutil.which(_COMPILER)
    if compiler is None:
        raise RuntimeError(f"no {_COMPILER!r} on PATH")
    path = _library_path(compiler)
    if not path.exists():
        _compile(compiler, path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        # A damaged cache entry: rebuild it once before giving up.
        _compile(compiler, path)
        lib = ctypes.CDLL(str(path))

    fields = [
        (name, ctypes.c_int64 * 4 if name in ("shifts", "masks") else ctypes.c_int64)
        for name in _INT_FIELDS
    ]
    fields += [(name, ctypes.c_void_p) for name in _ARRAY_FIELDS]
    layout_type = type("repro_step_layout", (ctypes.Structure,), {"_fields_": fields})
    fn = lib.repro_batch_step
    fn.argtypes = [ctypes.c_void_p] * 4
    fn.restype = None
    return NativeStepKernel(fn, layout_type, path)
