"""Sweep task of the ``csp-sweep`` workload (module level, so it pickles)."""

from __future__ import annotations

from typing import Tuple

import repro.csp as csp
from repro.runtime import SweepTask

__all__ = ["coloring_task"]

#: ``(solved, steps, values, decided, total_spikes, neuron_updates)``.
TaskResult = Tuple[bool, int, Tuple[int, ...], Tuple[bool, ...], int, int]


def coloring_task(task: SweepTask) -> TaskResult:
    """Solve one seeded graph-coloring instance with a standalone solver."""
    params = task.params
    graph, clamps = csp.make_instance(
        "coloring",
        seed=int(params["instance_seed"]),
        num_vertices=int(params["vertices"]),
        num_colors=int(params["colors"]),
    )
    result = csp.SpikingCSPSolver(graph, seed=task.seed).solve(
        clamps, max_steps=int(params["max_steps"])
    )
    return (
        bool(result.solved),
        int(result.steps),
        tuple(int(v) for v in result.values),
        tuple(bool(d) for d in result.decided),
        int(result.total_spikes),
        int(result.neuron_updates),
    )
