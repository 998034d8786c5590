"""Pluggable executor backends for the fault-tolerant fan-out.

:func:`repro.faults.executor.run_fanout` schedules *attempts*; where
those attempts execute is this module's concern.  An
:class:`ExecutorBackend` owns the worker resources and exposes them
through a small protocol:

``submit``
    start one attempt, returning a :class:`~concurrent.futures.Future`
    (possibly already completed, for in-process backends);
``domain_of``
    the **fault domain** an attempt runs in -- the blast radius of one
    worker-pool failure.  When a pool breaks or is killed to reclaim a
    hung task, only attempts in the same domain are affected;
``recover``
    tear down and rebuild one broken domain, leaving the others alone;
``release``
    bookkeeping hook: the scheduler no longer tracks this future.

Two implementations:

* :class:`SerialBackend` -- in-process, one attempt at a time.  Crash
  faults raise :class:`~repro.faults.injector.InjectedCrash` instead of
  killing the process (see :func:`~repro.faults.injector.inline_execution`),
  so retry schedules replay identically to the process pool.
* :class:`ProcessPoolBackend` -- one ``ProcessPoolExecutor``, the
  classic single fault domain: a worker crash requeues everything in
  flight.

Backends are process-local today; the protocol is the seam for remote
(SSH/queue) execution later -- ``domain_of`` becomes the remote host.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Tuple, Union

from repro.faults.injector import inline_execution


class BackendBrokenError(RuntimeError):
    """``submit`` found its target fault domain already broken.

    The scheduler reacts exactly as if an in-flight future of that
    domain had raised ``BrokenProcessPool``: requeue the unsubmitted
    task (no retry charged -- it never ran), drain the domain, and call
    :meth:`ExecutorBackend.recover`.
    """

    def __init__(self, domain: int, cause: BaseException) -> None:
        super().__init__(f"executor domain {domain} is broken: {cause!r}")
        self.domain = domain
        self.cause = cause


class ExecutorBackend(abc.ABC):
    """Where fan-out attempts execute, carved into fault domains."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum attempts in flight; the scheduler never exceeds it."""

    @abc.abstractmethod
    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        """Start one attempt; raise :class:`BackendBrokenError` if its
        fault domain is already broken."""

    @abc.abstractmethod
    def domain_of(self, future: "Future[Any]") -> int:
        """The fault domain the attempt behind ``future`` runs in."""

    @abc.abstractmethod
    def recover(self, domain: int) -> None:
        """Tear down and rebuild one fault domain after a failure."""

    def release(self, future: "Future[Any]") -> None:
        """The scheduler stopped tracking ``future`` (harvested/drained)."""

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release every worker resource; the backend is done."""


class SerialBackend(ExecutorBackend):
    """In-process execution: ``submit`` runs the attempt synchronously.

    The returned future is already resolved.  There is no worker
    process to lose, so the single domain never breaks and ``recover``
    is unreachable; injected crash faults surface as
    :class:`~repro.faults.injector.InjectedCrash` exceptions and flow
    through the ordinary retry path.
    """

    name = "serial"

    @property
    def capacity(self) -> int:
        return 1

    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            with inline_execution():
                value = fn(*args)
        except Exception as error:
            future.set_exception(error)
        else:
            future.set_result(value)
        return future

    def domain_of(self, future: "Future[Any]") -> int:
        return 0

    def recover(self, domain: int) -> None:
        raise AssertionError("the in-process serial domain cannot break")

    def shutdown(self) -> None:
        pass


class ProcessPoolBackend(ExecutorBackend):
    """One local ``ProcessPoolExecutor``; a single fault domain."""

    name = "process-pool"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs)

    @property
    def capacity(self) -> int:
        return self.jobs

    def submit(
        self, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool as error:
            raise BackendBrokenError(0, error) from error

    def domain_of(self, future: "Future[Any]") -> int:
        return 0

    def recover(self, domain: int) -> None:
        self._pool = _rebuild_pool(self._pool, self.jobs)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def _rebuild_pool(
    pool: ProcessPoolExecutor, jobs: int
) -> ProcessPoolExecutor:
    """Terminate a (possibly hung or broken) pool and start a fresh one.

    Stragglers are terminated first: ``shutdown()`` alone would block on
    a worker stuck in a hung task.  ``_processes`` is stdlib-private but
    stable across 3.8+; absent (``None``) after a broken shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    return ProcessPoolExecutor(max_workers=jobs)


BACKEND_NAMES = ("serial", "process-pool")
"""Accepted ``make_backend`` spec strings."""


def make_backend(
    spec: Union[None, str, ExecutorBackend], jobs: int
) -> ExecutorBackend:
    """Resolve a backend spec to a live :class:`ExecutorBackend`.

    ``None`` keeps the historical behaviour (one local process pool of
    ``jobs`` workers).  A string picks a named backend; an instance is
    returned as-is (the caller-built backend is still shut down by
    ``run_fanout``, which owns whatever it schedules on).
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None or spec == "process-pool":
        return ProcessPoolBackend(jobs)
    if spec == "serial":
        return SerialBackend()
    raise ValueError(
        f"unknown executor backend {spec!r}; expected one of {BACKEND_NAMES}"
    )
