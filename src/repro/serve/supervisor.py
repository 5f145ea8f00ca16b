"""Supervised serving: respawn a crashed solve service, lose no request.

:class:`ServeSupervisor` runs a :class:`~repro.serve.service.SolveService`
in a child process and brokers requests to it over a pipe.  When the
child dies — ``kill -9``, an injected :class:`~repro.runtime.checkpoint.FaultPlan`
crash, anything — the supervisor notices the broken pipe, respawns the
service with exponential backoff and resubmits every request still
pending.  The respawned service recovers its state (checkpoint restore
plus write-ahead journal replay, see :meth:`SolveService._recover`), and
because request seeds are content-derived, the results delivered for the
resubmitted requests are **bit-identical** to what an uninterrupted
service would have produced — the property the differential chaos suite
(``tests/serve/test_recovery.py``) pins down.

The fault plan is handed to the *first* child incarnation only: a
restored service resumes at a step below the plan's crash step, so
re-arming it would crash-loop the supervisor instead of testing one
recovery.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional

from .service import ServeResult, SolveService

__all__ = ["ServeSupervisor", "SupervisorError"]


class SupervisorError(RuntimeError):
    """The supervised service could not be (re)started or has given up."""


def _service_main(conn: Any, service_kwargs: Dict[str, Any]) -> None:
    """Child-process entry point: one service, one command pipe."""
    import asyncio

    async def main() -> None:
        service = SolveService(**service_kwargs)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()

        async def handle(rid: int, request: Dict[str, Any]) -> None:
            try:
                result = await service.submit(
                    request["graph"],
                    request["clamps"],
                    client=request.get("client", "default"),
                    seed=request.get("seed"),
                    max_steps=request.get("max_steps"),
                    deadline=request.get("deadline"),
                )
                conn.send(("result", rid, result))
            except BaseException as exc:  # typed rejections travel as strings
                try:
                    conn.send(("error", rid, f"{type(exc).__name__}: {exc}"))
                except OSError:
                    pass

        async def reader() -> None:
            while True:
                try:
                    message = await loop.run_in_executor(None, conn.recv)
                except (EOFError, OSError):
                    break  # the supervisor went away
                if message is None or message[0] == "stop":
                    break
                if message[0] == "submit":
                    _, rid, request = message
                    asyncio.ensure_future(handle(rid, request))
                elif message[0] == "metrics":
                    conn.send(("metrics", message[1], service.metrics()))
            stopping.set()

        async with service:
            reader_task = asyncio.ensure_future(reader())
            await stopping.wait()
        await asyncio.gather(reader_task, return_exceptions=True)
        try:
            conn.send(("stopped",))
        except OSError:
            pass

    asyncio.run(main())


class ServeSupervisor:
    """Keep one recoverable solve service alive across crashes.

    Parameters
    ----------
    service_kwargs:
        Constructor arguments for the child's :class:`SolveService`.
        Must be picklable (the child is spawned); pass ``checkpoint_dir``
        and ``journal_path`` here to make the service recoverable —
        without them a respawn starts cold and resubmitted requests are
        simply re-solved (still bit-identical, just slower).
    fault:
        Optional :class:`~repro.runtime.checkpoint.FaultPlan`, armed in
        the **first** child incarnation only.

    After :attr:`MAX_RESTARTS` respawns, pending requests fail with
    :class:`SupervisorError`.  Respawn ``k`` (0-based) waits
    ``min(BACKOFF_CAP, BACKOFF_BASE * 2**k)`` seconds.
    """

    MAX_RESTARTS = 5
    BACKOFF_BASE = 0.05
    BACKOFF_CAP = 2.0

    def __init__(
        self,
        *,
        service_kwargs: Optional[Dict[str, Any]] = None,
        fault: Optional[Any] = None,
    ) -> None:
        self._service_kwargs = dict(service_kwargs or {})
        self._fault = fault
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._process = None
        self._conn = None
        self._listener: Optional[threading.Thread] = None
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._results: Dict[int, Any] = {}
        self._events: Dict[int, threading.Event] = {}
        self._rid = 0
        self._stopped = threading.Event()
        self.restarts = 0
        self.backoffs: List[float] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._process is not None:
                return
            self._spawn(first=True)

    def _spawn(self, *, first: bool) -> None:
        kwargs = dict(self._service_kwargs)
        if first and self._fault is not None:
            kwargs["fault"] = self._fault
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_service_main, args=(child_conn, kwargs), daemon=True
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self._listener = threading.Thread(target=self._listen, args=(parent_conn,), daemon=True)
        self._listener.start()

    def _listen(self, conn: Any) -> None:
        """Drain child messages; a broken pipe means the child died."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind in ("result", "error", "metrics"):
                _, rid, payload = message
                with self._lock:
                    self._results[rid] = (kind, payload)
                    event = self._events.get(rid)
                    self._pending.pop(rid, None)
                if event is not None:
                    event.set()
            elif kind == "stopped":
                break
        if not self._stopped.is_set():
            self._on_child_death(conn)

    def _on_child_death(self, conn: Any) -> None:
        """Respawn with exponential backoff and resubmit pending work."""
        with self._lock:
            if self._conn is not conn:  # a newer incarnation took over
                return
            process = self._process
            self._process = None
            self._conn = None
        if process is not None:
            process.join(timeout=5.0)
        while True:
            with self._lock:
                if self._stopped.is_set():
                    return
                if self.restarts >= self.MAX_RESTARTS:
                    self._fail_pending(
                        SupervisorError(
                            f"service died {self.restarts + 1} times; giving up"
                        )
                    )
                    return
                delay = min(self.BACKOFF_CAP, self.BACKOFF_BASE * (2**self.restarts))
                self.restarts += 1
                self.backoffs.append(delay)
            time.sleep(delay)
            try:
                with self._lock:
                    if self._stopped.is_set():
                        return
                    self._spawn(first=False)
                    pending = list(self._pending.items())
                    conn = self._conn
                for rid, request in pending:
                    conn.send(("submit", rid, request))
                return
            except (OSError, ValueError):
                continue  # the fresh child died immediately; back off again

    def _fail_pending(self, error: Exception) -> None:
        for rid in list(self._pending):
            self._pending.pop(rid, None)
            self._results[rid] = ("error", f"{type(error).__name__}: {error}")
            event = self._events.get(rid)
            if event is not None:
                event.set()

    def kill(self) -> int:
        """``kill -9`` the child (the chaos suites' crash lever)."""
        with self._lock:
            process = self._process
        if process is None or process.pid is None:
            raise SupervisorError("no live child process to kill")
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    @property
    def child_pid(self) -> Optional[int]:
        with self._lock:
            return None if self._process is None else self._process.pid

    def stop(self) -> None:
        """Graceful shutdown: drain the child, then reap it."""
        self._stopped.set()
        with self._lock:
            conn = self._conn
            process = self._process
            listener = self._listener
            self._conn = None
            self._process = None
        if conn is not None:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        if process is not None:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if conn is not None:
            conn.close()
        if listener is not None and listener is not threading.current_thread():
            listener.join(timeout=5.0)

    def __enter__(self) -> "ServeSupervisor":
        self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def submit(
        self,
        graph: Any,
        clamps: Any = (),
        *,
        client: str = "default",
        seed: Optional[int] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
        timeout: float = 120.0,
    ) -> ServeResult:
        """Solve one instance through the supervised service (blocking).

        Survives child crashes transparently: if the service dies before
        answering, the request is resubmitted to the respawned (and
        state-recovered) incarnation.  Raises :class:`SupervisorError`
        when the restart budget is exhausted or ``timeout`` (wall
        seconds) passes, and re-raises the service's typed rejections
        (e.g. ``LoadShedError``) as :class:`SupervisorError` with the
        original message.
        """
        request = {
            "graph": graph,
            "clamps": clamps,
            "client": client,
            "seed": seed,
            "max_steps": max_steps,
            "deadline": deadline,
        }
        event = threading.Event()
        with self._lock:
            if self._stopped.is_set():
                raise SupervisorError("supervisor is stopped")
            if self._process is None:
                self.start()
            self._rid += 1
            rid = self._rid
            self._pending[rid] = request
            self._events[rid] = event
            conn = self._conn
        try:
            if conn is not None:
                try:
                    conn.send(("submit", rid, request))
                except OSError:
                    pass  # child just died; the respawn resubmits
            if not event.wait(timeout):
                raise SupervisorError(f"request {rid} timed out after {timeout}s")
            with self._lock:
                kind, payload = self._results.pop(rid)
            if kind == "error":
                raise SupervisorError(str(payload))
            return payload
        finally:
            with self._lock:
                self._pending.pop(rid, None)
                self._events.pop(rid, None)
                self._results.pop(rid, None)

    def metrics(self):
        """The child's current :class:`MetricsSnapshot` (blocking)."""
        event = threading.Event()
        with self._lock:
            if self._conn is None:
                raise SupervisorError("no live child process")
            self._rid += 1
            rid = self._rid
            self._events[rid] = event
            self._conn.send(("metrics", rid))
        try:
            if not event.wait(30.0):
                raise SupervisorError("metrics request timed out")
            with self._lock:
                kind, payload = self._results.pop(rid)
            if kind == "error":
                raise SupervisorError(str(payload))
            return payload
        finally:
            with self._lock:
                self._events.pop(rid, None)
                self._results.pop(rid, None)
