"""The host: its description, its speed and the process's peak memory."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict

import numpy as np

__all__ = ["REFERENCE_CALIBRATION", "calibration_score", "host_info", "peak_rss_mb", "rescale"]

#: The calibration score (:func:`calibration_score`) of the reference
#: host, the 2-vCPU machine the bounds in ``BENCHMARK.json`` were set on.
#: Timings are restated at this speed by :func:`rescale`.
REFERENCE_CALIBRATION = 10.0


def calibration_score(repeats: int = 5) -> float:
    """Fixed NumPy kernel runs per second (median of ``repeats`` timings).

    The kernel is single-threaded NumPy work on fixed inputs -- a sort,
    a gather and elementwise integer arithmetic on a ``(32, 729)`` int64
    array, the engine's Sudoku batch shape -- so the score tracks the
    host's speed at the kind of array code the engine runs.  It does
    not touch the program, so no change to the program moves it.
    """
    rng = np.random.default_rng(20250101)
    vec = rng.standard_normal(100_000)
    ints = rng.integers(-(2**20), 2**20, size=(32, 729), dtype=np.int64)
    index = rng.integers(0, 729, size=4096)
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(20):
            np.sort(vec)
            for _ in range(20):
                ((ints * 3) >> 2).sum(axis=1)
                ints[:, index].sum()
        timings.append(time.perf_counter() - start)
    return 1.0 / statistics.median(timings)


def rescale(value: float, unit: str, speed: float) -> float:
    """Restate a figure measured at ``speed`` at the reference speed.

    ``speed`` is the host's calibration score over
    :data:`REFERENCE_CALIBRATION` while the figure was measured.  A time
    (unit ``s``) is multiplied by it, a rate (``1/s``) divided by it;
    other units are not timings and pass through.
    """
    if unit == "s":
        return value * speed
    if unit == "1/s":
        return value / speed
    return value


def peak_rss_mb() -> float:
    """Peak resident set size of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_per_s": round(calibration_score(), 3),
    }
