"""Deterministic instance generators for the spiking constraint solver.

Every scenario exposes a generator returning ``(graph, clamps)``; the
:func:`make_instance` registry builds instances by name so the harness,
the serve tier and benchmarks can select a scenario with a string:

=============  =====================================================
Scenario       Instance family
=============  =====================================================
``coloring``   planted-partition random graph k-coloring
``australia``  the 3-colorable Australian map (fixed instance)
``queens``     N-queens (rows as variables, columns as values)
``latin``      Latin-square completion from a random complete square
``sudoku``     generated uniquely-solvable 9x9 Sudoku puzzles
=============  =====================================================

All generators are deterministic in ``seed`` (and their size parameters),
so sweeps and the on-disk run cache see stable instances.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..graph import ConstraintGraph
from .coloring import australia_instance, coloring_graph, random_coloring_instance
from .latin import latin_graph, latin_instance, random_latin_square
from .queens import queens_graph, queens_instance
from .sudoku import clamps_from_cells, cells_from_values, sudoku_graph, sudoku_instance

__all__ = [
    "available_scenarios",
    "make_instance",
    "australia_instance",
    "coloring_graph",
    "random_coloring_instance",
    "latin_graph",
    "latin_instance",
    "random_latin_square",
    "queens_graph",
    "queens_instance",
    "clamps_from_cells",
    "cells_from_values",
    "sudoku_graph",
    "sudoku_instance",
]

Instance = Tuple[ConstraintGraph, Dict[str, int]]


def _make_coloring(
    seed: int, *, num_vertices: int = 12, num_colors: int = 3, edge_probability: float = 0.6
) -> Instance:
    return random_coloring_instance(
        int(num_vertices), int(num_colors), edge_probability=float(edge_probability), seed=seed
    )


def _make_australia(seed: int, *, num_colors: int = 3) -> Instance:
    return australia_instance(int(num_colors))


def _make_queens(seed: int, *, n: int = 6) -> Instance:
    return queens_instance(int(n), seed=seed)


def _make_latin(seed: int, *, n: int = 4, clamp_fraction: float = 0.5) -> Instance:
    return latin_instance(int(n), seed=seed, clamp_fraction=float(clamp_fraction))


def _make_sudoku(seed: int, *, target_clues: int = 28) -> Instance:
    return sudoku_instance(seed, target_clues=int(target_clues))


_SCENARIOS: Dict[str, Callable[..., Instance]] = {
    "coloring": _make_coloring,
    "australia": _make_australia,
    "queens": _make_queens,
    "latin": _make_latin,
    "sudoku": _make_sudoku,
}


def available_scenarios() -> List[str]:
    """Sorted names of all registered scenario families."""
    return sorted(_SCENARIOS)


def make_instance(scenario: str, *, seed: int = 0, **params: Any) -> Instance:
    """Build one deterministic ``(graph, clamps)`` instance by scenario name.

    ``params`` are the scenario's size parameters; a key the scenario
    does not take raises ``TypeError`` instead of being ignored.
    """
    try:
        factory = _SCENARIOS[scenario]
    except KeyError:
        known = ", ".join(available_scenarios())
        raise KeyError(f"unknown scenario {scenario!r}; available: {known}") from None
    return factory(seed, **params)
