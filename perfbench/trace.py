"""In-memory span tracer wrapped around the public calls of each layer.

:class:`Tracer` replaces a fixed table of public functions and methods
(:data:`LAYER_CALLS`) with thin wrappers for the duration of a traced
episode.  Each wrapper records one span -- name, start, end, parent span
and request id -- plus an optional measured value (rows stepped, bytes
written, whether a decode found a solution).  Spans stay in memory and
are only summarised or written out when the benchmark ends.

Parents are tracked through :mod:`contextvars`, so spans opened inside
different asyncio tasks never adopt each other.  Sweep workers are forked
from the traced process and inherit the wrappers; each worker keeps its
own span list and dumps it to a spill directory when it exits, where
:meth:`Tracer.collect_worker_spans` picks it up.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import multiprocessing.util
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["LAYER_CALLS", "Span", "SpanStats", "Tracer", "self_times", "summarise"]


class Span(NamedTuple):
    pid: int
    sid: int
    name: str
    start: float
    end: float
    parent: int
    request: Optional[str]
    value: Optional[float]


Measure = Callable[[Tuple[Any, ...], Any], Optional[float]]


def _rows(args: Tuple[Any, ...], result: Any) -> float:
    return float(args[0].batch_size)


def _engine_rows(args: Tuple[Any, ...], result: Any) -> float:
    return float(args[0].num_rows)


def _solved(args: Tuple[Any, ...], result: Any) -> float:
    return float(bool(result.solved))


def _hit(args: Tuple[Any, ...], result: Any) -> float:
    return float(result is not None)


def _file_bytes(args: Tuple[Any, ...], result: Any) -> float:
    return float(Path(result).stat().st_size)


def _journal_bytes(args: Tuple[Any, ...], result: Any) -> float:
    return float(args[0].path.stat().st_size)


def _instret(args: Tuple[Any, ...], result: Any) -> float:
    return float(result)


#: ``(module, class or None, attribute, span name, measure)``: the public
#: calls wrapped while tracing.  A ``None`` class patches the module-level
#: name that callers look up at call time.
LAYER_CALLS: Sequence[Tuple[str, Optional[str], str, str, Optional[Measure]]] = (
    ("repro.runtime.batch", "BatchedNetwork", "step", "batch.step", _rows),
    ("repro.runtime.batch", "BatchedNetwork", "retain", "batch.retain", None),
    ("repro.runtime.batch", "BatchedNetwork", "extend", "batch.extend", None),
    ("repro.runtime.batch", "BatchedNetwork", "from_networks", "batch.build", None),
    ("repro.runtime.drives", "CompiledAnnealedDrive", "__call__", "drives.call", None),
    ("repro.runtime.drives", "PortfolioAnnealedDrive", "__call__", "drives.call", None),
    ("repro.runtime.drives", "CompiledScaledDrive", "__call__", "drives.call", None),
    ("repro.runtime.drives", "PortfolioAnnealedDrive", "__init__", "drives.compile", None),
    ("repro.runtime.drives", "PortfolioAnnealedDrive", "extend", "drives.compile", None),
    ("repro.runtime.slots", None, "compile_batched_external", "drives.compile", None),
    ("repro.runtime.slots", "SlotEngine", "step", "slots.step", _engine_rows),
    ("repro.runtime.slots", "SlotEngine", "recompose", "slots.recompose", None),
    ("repro.runtime.slots", "SlotEngine", "decode_row", "slots.decode", _solved),
    ("repro.csp.solver", "SpikingCSPSolver", "build_network", "csp.build_network", None),
    ("repro.csp.solver", "SpikingCSPSolver", "solve", "csp.solve", None),
    ("repro.csp.solver", None, "decode_assignment", "csp.decode", None),
    ("repro.runtime.checkpoint", "CheckpointStore", "save", "checkpoint.save", _file_bytes),
    ("repro.serve.journal", "AdmissionJournal", "append", "journal.append", _journal_bytes),
    ("repro.runtime.cache", "RunResultCache", "get", "cache.get", _hit),
    ("repro.runtime.cache", "RunResultCache", "put", "cache.put", None),
    ("repro.runtime.sweep", "SweepExecutor", "execute", "sweep.execute", None),
    ("repro.serve.service", "SolveService", "submit", "serve.submit", None),
    ("repro.serve.service", "SolveService", "wait_for_step", "serve.wait_for_step", None),
    ("repro.codegen.program", None, "build_workload", "codegen.build", None),
    ("repro.codegen.program", "Workload", "make_simulator", "sim.load", None),
    ("repro.sim.functional", "FunctionalSimulator", "run", "sim.run", _instret),
    ("repro.sim.pipeline", "CycleAccurateCore", "run", "pipeline.run", None),
)


class Tracer:
    """Records spans around the wrapped calls while :meth:`installed`."""

    def __init__(self, spill_dir: Path) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)
        self._request: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
            "request", default=None
        )
        self._restore: List[Tuple[Any, str, Any]] = []
        self._spill_dir = spill_dir
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _record(
        self, sid: int, name: str, start: float, end: float, parent: int, value: Optional[float]
    ) -> None:
        self.spans.append(Span(self._pid, sid, name, start, end, parent, self._request.get(), value))

    def set_request(self, request: str) -> None:
        """Tag every span opened later in the current context with ``request``."""
        self._request.set(request)

    def _wrap(self, fn: Callable[..., Any], name: str, measure: Optional[Measure]) -> Callable[..., Any]:
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                sid = next(tracer._ids)
                parent = tracer._parent.get()
                token = tracer._parent.set(sid)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._parent.reset(token)
                tracer._record(sid, name, start, end, parent, None)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(tracer._ids)
            parent = tracer._parent.get()
            token = tracer._parent.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._parent.reset(token)
            value = None if measure is None else measure(args, result)
            tracer._record(sid, name, start, end, parent, value)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every call of :data:`LAYER_CALLS`; restore them on exit."""
        try:
            for module_name, class_name, attr, name, measure in LAYER_CALLS:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, classmethod):
                    patched: Any = classmethod(self._wrap(original.__func__, name, measure))
                else:
                    patched = self._wrap(original, name, measure)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Forked sweep workers
    # ------------------------------------------------------------------ #
    def _after_fork(self) -> None:
        # The child inherits the parent's spans; keep only its own, and
        # dump them when the worker process exits normally.
        self.spans = []
        self._pid = os.getpid()
        multiprocessing.util.Finalize(self, Tracer._dump, args=(self,), exitpriority=10)

    def _dump(self) -> None:
        with open(self._spill_dir / f"spans-{self._pid}.pkl", "wb") as fh:
            pickle.dump(self.spans, fh)

    def collect_worker_spans(self) -> None:
        """Merge the span files dumped by exited workers."""
        for path in sorted(self._spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                self.spans.extend(pickle.load(fh))
            path.unlink()


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Per-span self time: its duration minus the union of its children."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[(span.pid, span.parent)].append((span.start, span.end))
    out: Dict[Tuple[int, int], float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get((span.pid, span.sid), ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[(span.pid, span.sid)] = (span.end - span.start) - covered
    return out


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    value_sum: float


def summarise(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    """Calls, total time, self time and summed values per span name."""
    selfs = self_times(spans)
    acc: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for span in spans:
        row = acc[span.name]
        row[0] += 1
        row[1] += span.end - span.start
        row[2] += selfs[(span.pid, span.sid)]
        row[3] += span.value or 0.0
    return {
        name: SpanStats(int(calls), total, own, value)
        for name, (calls, total, own, value) in acc.items()
    }
