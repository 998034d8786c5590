"""Fault-tolerant fan-out: submit, retry, rebuild, degrade -- on any backend.

:func:`run_fanout` replaces bare ``ProcessPoolExecutor.map`` for batch
work whose individual points may fail.  Attempts execute on a pluggable
:class:`~repro.faults.backends.ExecutorBackend` (in-process serial or
one local process pool); per-task
``submit`` scheduling keeps at most ``backend.capacity`` attempts in
flight and survives the three failure shapes large batch sweeps
actually hit:

* a task attempt **raises** -- requeued with exponential backoff and
  deterministic jitter until its :class:`RetryPolicy` budget runs out.
  Backoff is a per-task *not-before deadline* checked by the top-up
  loop, never a scheduler sleep: other tasks keep submitting and
  harvesting while one task waits out its delay;
* a worker process **dies** (``BrokenProcessPool``) -- only the broken
  **fault domain** (the affected pool) is rebuilt, and only its
  in-flight keys are requeued (the dead worker cannot be identified
  within the domain, so all of the domain's attempts are charged a
  retry);
* a task **hangs** past ``task_timeout`` -- running attempts cannot be
  cancelled, so the overdue attempt's domain is torn down and rebuilt.
  The overdue keys are charged a timeout; same-domain **bystanders**
  are requeued at the same attempt index (replaying identical fault
  decisions) and tracked in ``TaskReport.bystander_requeues`` -- never
  charged a retry, because they did not fail.

Tasks that exhaust their retry budget degrade to serial in-process
execution under :func:`repro.faults.injector.suppress` -- the
last-resort clean path.  The fan-out always returns whatever completed:
a key absent from the result mapping is recorded as ``FAILED`` in the
accompanying :class:`FanoutReport`, never silently dropped.

Because batch workers normally communicate through a content-addressed
disk cache, requeued bystander work is usually served straight from the
cache rather than recomputed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.faults.backends import (
    BackendBrokenError,
    ExecutorBackend,
    make_backend,
)
from repro.faults.injector import FaultContext, suppress
from repro.faults.outcomes import (
    FanoutReport,
    RunOutcome,
    TaskReport,
    task_token,
)
from repro.faults.retry import RetryPolicy


@dataclass(frozen=True)
class FanoutTask:
    """One schedulable unit: a picklable function plus its arguments.

    ``fn`` must be a module-level callable accepting ``*args`` followed
    by one trailing :class:`FaultContext` (or ``None``) positional
    argument, through which workers learn their attempt identity.
    """

    key: Any
    """Hashable identity; results and reports are keyed by it."""
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = field(default_factory=tuple)


@dataclass
class _InFlight:
    task: FanoutTask
    attempt: int
    started: float


@dataclass(frozen=True)
class _Ready:
    """One queued attempt, submittable once ``not_before`` has passed."""

    task: FanoutTask
    attempt: int
    not_before: float = 0.0
    """Monotonic deadline of this attempt's retry backoff (0 = now)."""


def run_fanout(
    tasks: Sequence[FanoutTask],
    jobs: int,
    policy: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
    degrade: bool = True,
    phase: str = "faults.fanout",
    backend: Union[None, str, ExecutorBackend] = None,
) -> Tuple[Dict[Any, Any], FanoutReport]:
    """Run ``tasks`` over an executor backend, tolerating per-task failure.

    Returns ``(results, report)``: ``results`` maps each succeeding
    task's key to its return value (partial on failures), ``report``
    carries the per-key :class:`~repro.faults.outcomes.RunOutcome` and
    pool-level counters.  ``backend`` picks where attempts execute (see
    :func:`repro.faults.backends.make_backend`); ``None`` keeps the
    historical single process pool of ``jobs`` workers.  ``run_fanout``
    owns the backend either way and shuts it down before returning.
    Scheduling is deterministic for a fixed fault plan and policy; only
    completion *order* varies with machine load.
    """
    policy = policy if policy is not None else RetryPolicy()
    report = FanoutReport()
    results: Dict[Any, Any] = {}
    if not tasks:
        return results, report
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    index_of: Dict[Any, int] = {}
    for index, task in enumerate(tasks):
        if task.key in report.tasks:
            raise ValueError(f"duplicate fan-out key {task.key!r}")
        report.tasks[task.key] = TaskReport(token=task_token(task.key))
        index_of[task.key] = index

    executor = make_backend(backend, jobs)
    report.backend = executor.name
    ready: Deque[_Ready] = deque(_Ready(task, 0) for task in tasks)
    degraded_queue: List[FanoutTask] = []
    in_flight: Dict[Future, _InFlight] = {}

    def handle_failure(task: FanoutTask, attempt: int, error: BaseException,
                       timed_out: bool = False) -> None:
        """Requeue with a backoff deadline, degrade, or mark failed."""
        state = report.tasks[task.key]
        state.error = repr(error)
        if timed_out:
            state.timeouts += 1
        if attempt + 1 < policy.max_attempts:
            state.retries += 1
            delay = policy.delay(attempt, state.token)
            obs.event(
                "faults.retry",
                token=state.token,
                attempt=attempt,
                delay=delay,
                error=state.error,
            )
            # Never sleep here: a backoff is this task's problem, not
            # the scheduler's.  The top-up loop skips the entry until
            # its deadline passes while other tasks keep flowing.
            not_before = time.monotonic() + delay if delay > 0 else 0.0
            ready.append(_Ready(task, attempt + 1, not_before))
        elif degrade:
            obs.event("faults.degrade", token=state.token, error=state.error)
            degraded_queue.append(task)
        else:
            state.outcome = RunOutcome.FAILED

    def recover_domain(domain: int, reason: str) -> None:
        report.pool_rebuilds += 1
        obs.event("faults.pool_rebuild", reason=reason, domain=domain)
        executor.recover(domain)

    def drain_domain_as_broken(domain: int, error: BaseException) -> None:
        """Every in-flight attempt of ``domain`` died with its pool."""
        doomed = [
            (future, entry)
            for future, entry in in_flight.items()
            if executor.domain_of(future) == domain
        ]
        for future, entry in doomed:
            del in_flight[future]
            executor.release(future)
            handle_failure(entry.task, entry.attempt, error)

    try:
        with obs.span(phase, tasks=len(tasks), jobs=jobs) as phase_span:
            while ready or in_flight:
                # Top up: at most ``capacity`` attempts in flight, so a
                # domain breakage penalizes a bounded number of
                # bystanders.  Entries still inside their backoff window
                # are set aside, not submitted and not waited on.
                now = time.monotonic()
                deferred: List[_Ready] = []
                broken_on_submit: Optional[BackendBrokenError] = None
                while ready and len(in_flight) < executor.capacity:
                    entry = ready.popleft()
                    if entry.not_before > now:
                        deferred.append(entry)
                        continue
                    state = report.tasks[entry.task.key]
                    ctx = FaultContext(
                        index=index_of[entry.task.key],
                        attempt=entry.attempt,
                        token=state.token,
                    )
                    try:
                        future = executor.submit(
                            entry.task.fn, (*entry.task.args, ctx)
                        )
                    except BackendBrokenError as error:
                        ready.appendleft(entry)
                        broken_on_submit = error
                        break
                    state.attempts += 1
                    in_flight[future] = _InFlight(
                        entry.task, entry.attempt, time.monotonic()
                    )
                ready.extend(deferred)
                if broken_on_submit is not None:
                    drain_domain_as_broken(
                        broken_on_submit.domain, broken_on_submit.cause
                    )
                    recover_domain(
                        broken_on_submit.domain, "submit-on-broken-pool"
                    )
                    continue
                if not in_flight:
                    if ready:
                        # Everything queued is waiting out a backoff;
                        # with nothing to harvest, sleeping to the
                        # earliest deadline blocks no other work.
                        pause = min(
                            entry.not_before for entry in ready
                        ) - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue

                deadlines: List[float] = []
                if task_timeout is not None:
                    deadlines.append(
                        min(entry.started for entry in in_flight.values())
                        + task_timeout
                    )
                backoff_deadlines = [
                    entry.not_before
                    for entry in ready
                    if entry.not_before > 0.0
                ]
                if backoff_deadlines and len(in_flight) < executor.capacity:
                    # Wake when a deferred retry becomes submittable --
                    # but only if there is a free slot to put it in.
                    deadlines.append(min(backoff_deadlines))
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _pending = wait(
                    set(in_flight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                broken_domains: Dict[int, BaseException] = {}
                for future in done:
                    entry_in = in_flight.pop(future)
                    domain = executor.domain_of(future)
                    executor.release(future)
                    state = report.tasks[entry_in.task.key]
                    try:
                        value = future.result()
                    except BrokenProcessPool as error:
                        handle_failure(entry_in.task, entry_in.attempt, error)
                        broken_domains.setdefault(domain, error)
                    except Exception as error:
                        handle_failure(entry_in.task, entry_in.attempt, error)
                    else:
                        results[entry_in.task.key] = value
                        if state.retries == 0:
                            state.outcome = RunOutcome.OK
                            # A bystander requeue may have stashed an
                            # error repr; the task never failed, so a
                            # clean success must not carry one.
                            state.error = None
                        else:
                            state.outcome = RunOutcome.RETRIED
                for domain in sorted(broken_domains):
                    drain_domain_as_broken(
                        domain,
                        BrokenProcessPool("pool broke under concurrent tasks"),
                    )
                    recover_domain(domain, "broken-process-pool")
                if broken_domains:
                    continue

                if task_timeout is not None and in_flight:
                    now = time.monotonic()
                    # ``>=``, not ``>``: the wait() above deadlines at
                    # exactly ``min(started) + task_timeout``, so a wake
                    # landing right on the boundary must already count as
                    # overdue -- a strict comparison would recompute a
                    # 0.0 wait timeout and busy-spin until the clock
                    # strictly exceeded the deadline.
                    overdue = {
                        future
                        for future, entry_in in in_flight.items()
                        if now - entry_in.started >= task_timeout
                    }
                    for domain in sorted(
                        {executor.domain_of(future) for future in overdue}
                    ):
                        # A running attempt cannot be cancelled; the
                        # only way to reclaim the worker is to kill its
                        # domain's pool.  Other domains keep running.
                        stranded = [
                            (future, entry_in)
                            for future, entry_in in in_flight.items()
                            if executor.domain_of(future) == domain
                        ]
                        for future, entry_in in stranded:
                            del in_flight[future]
                            executor.release(future)
                            state = report.tasks[entry_in.task.key]
                            if future in overdue:
                                handle_failure(
                                    entry_in.task,
                                    entry_in.attempt,
                                    TimeoutError(
                                        f"task {entry_in.task.key!r} exceeded "
                                        f"{task_timeout:g}s"
                                    ),
                                    timed_out=True,
                                )
                            else:
                                # Innocent bystander: same attempt index,
                                # so its fault decisions replay
                                # unchanged.  Not a retry -- it never
                                # failed -- so it is counted separately
                                # and stays eligible for an OK outcome.
                                state.bystander_requeues += 1
                                ready.append(
                                    _Ready(entry_in.task, entry_in.attempt)
                                )
                        recover_domain(domain, "task-timeout")

            # Last resort: serial, in-process, injection suppressed.
            for task in degraded_queue:
                state = report.tasks[task.key]
                state.degraded = True
                try:
                    with suppress(), obs.span(
                        "faults.degraded_run", token=state.token
                    ):
                        value = task.fn(*task.args, None)
                except Exception as error:
                    state.error = repr(error)
                    state.outcome = RunOutcome.FAILED
                else:
                    results[task.key] = value
                    state.outcome = RunOutcome.DEGRADED

            if phase_span is not None:
                phase_span.attributes["fanout"] = {
                    "backend": executor.name,
                    "outcomes": report.outcome_counts(),
                    "pool_rebuilds": report.pool_rebuilds,
                    "total_retries": report.total_retries,
                    "bystander_requeues": report.total_bystander_requeues,
                }
    finally:
        executor.shutdown()
    return results, report
