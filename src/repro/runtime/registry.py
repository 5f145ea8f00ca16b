"""Sweep workloads by name: ``name -> (config type, driver)``.

The four pooled/batched sweep drivers in :mod:`repro.runtime.workloads`
share one shape, ``driver(config, *, executor, cache) -> SweepReport``;
this module names them for the harness, the benchmarks and scripts::

    from repro.runtime import run_sweep_workload

    report = run_sweep_workload("pooled-csp", count=16, scenario="latin",
                                scenario_params={"n": 4})
    print(report.summary["solve_rate"], report.worker_utilisation())

Configurations are the drivers' frozen config dataclasses, so unknown
overrides fail at construction instead of silently disappearing into
``**kwargs``.  Fabric-executed workloads (``pooled-sudoku``,
``pooled-csp``) report real per-task timing/steal/lease counters;
batched and served workloads (``csp-portfolio``, ``serve-load``) run on
the slot engine and report one record per instance.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from .sweep import SweepExecutor, SweepReport
from .workloads import (
    CachePolicy,
    CSPPortfolioSweepConfig,
    PooledCSPSweepConfig,
    PooledSudokuSweepConfig,
    ServeLoadSweepConfig,
    csp_portfolio_sweep,
    pooled_csp_sweep,
    pooled_sudoku_sweep,
    serve_load_sweep,
)

__all__ = ["run_sweep_workload", "sweep_workloads"]

_WORKLOADS: Dict[str, Tuple[Type[Any], Callable[..., SweepReport]]] = {
    "pooled-sudoku": (PooledSudokuSweepConfig, pooled_sudoku_sweep),
    "pooled-csp": (PooledCSPSweepConfig, pooled_csp_sweep),
    "csp-portfolio": (CSPPortfolioSweepConfig, csp_portfolio_sweep),
    "serve-load": (ServeLoadSweepConfig, serve_load_sweep),
}


def sweep_workloads() -> List[str]:
    """Sorted names of the sweep workloads."""
    return sorted(_WORKLOADS)


def run_sweep_workload(
    name: str,
    config: Any = None,
    *,
    executor: Optional[SweepExecutor] = None,
    cache: CachePolicy = False,
    **overrides: Any,
) -> SweepReport:
    """Run the workload ``name`` and return its :class:`SweepReport`.

    ``config`` is the workload's config dataclass (or ``None`` for the
    defaults); keyword ``overrides`` are applied on top via
    :func:`dataclasses.replace`, so a typo'd parameter fails loudly.
    ``executor`` selects serial vs fabric execution for the pooled
    workloads (batched/served workloads run on the slot engine and
    ignore it); ``cache`` is the resume/dedup store policy.
    """
    try:
        config_type, driver = _WORKLOADS[name]
    except KeyError:
        known = ", ".join(sweep_workloads())
        raise KeyError(f"unknown sweep workload {name!r}; registered: {known}") from None
    if config is None:
        config = config_type(**overrides)
    elif not isinstance(config, config_type):
        raise TypeError(
            f"workload {name!r} expects a {config_type.__name__}, got {type(config).__name__}"
        )
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    return driver(config, executor=executor, cache=cache)
