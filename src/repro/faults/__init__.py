"""``repro.faults``: deterministic fault injection + fault-tolerant fan-out.

The robustness subsystem treats per-point failure in a batch sweep as
expected, not fatal (gem5's checkpoint-restart discipline applied to
this reproduction's experiment grid):

* :class:`~repro.faults.plan.FaultPlan` -- a seedable, fully
  deterministic description of what to break (worker crashes, task
  failures, cache-store errors, corrupt entries, slow tasks), parsed
  from ``REPRO_FAULTS`` / ``--faults`` specs;
* :mod:`~repro.faults.injector` -- the process-wide activation of a
  plan, consulted by pool workers (:func:`enter_worker`) and by
  :class:`~repro.experiments.cache.DiskCache`;
* :class:`~repro.faults.retry.RetryPolicy` -- exponential backoff with
  deterministic jitter;
* :func:`~repro.faults.executor.run_fanout` -- the submit/retry/
  rebuild/degrade scheduler replacing bare ``ProcessPoolExecutor.map``
  (lint rule REP109 enforces this outside the package);
* :class:`~repro.faults.outcomes.FanoutReport` -- per-key
  :class:`RunOutcome` labels (ok / retried / degraded / failed) and
  pool counters, surfaced through spans and run manifests.

Every injected fault perturbs *scheduling and caching only*; computed
results stay bit-identical to a clean serial run, which is what the
chaos tests (``tests/faults``, ``make chaos``) assert.
"""

from repro.faults.backends import (
    BACKEND_NAMES,
    BackendBrokenError,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.faults.executor import FanoutTask, run_fanout
from repro.faults.injector import (
    FaultContext,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    activate,
    active_injector,
    deactivate,
    enter_worker,
    in_worker,
    inline,
    inline_execution,
    reset,
    suppress,
    suppressed,
)
from repro.faults.outcomes import (
    FanoutReport,
    RunOutcome,
    TaskReport,
    task_token,
)
from repro.faults.plan import ENV_FLAG, FaultPlan, stable_fraction
from repro.faults.retry import FAST_RETRIES, RetryPolicy

__all__ = [
    "BACKEND_NAMES",
    "BackendBrokenError",
    "ENV_FLAG",
    "ExecutorBackend",
    "FAST_RETRIES",
    "FanoutReport",
    "FanoutTask",
    "FaultContext",
    "FaultInjector",
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "ProcessPoolBackend",
    "RetryPolicy",
    "RunOutcome",
    "SerialBackend",
    "TaskReport",
    "task_token",
    "activate",
    "active_injector",
    "deactivate",
    "enter_worker",
    "in_worker",
    "inline",
    "inline_execution",
    "make_backend",
    "reset",
    "run_fanout",
    "stable_fraction",
    "suppress",
    "suppressed",
]
