"""Executor backends: in-process serial and the process-pool fault domain.

Toy task functions live at module level so pool workers can import
them; each takes the trailing ``FaultContext`` the scheduler passes.
"""

import os
import time

import pytest

from repro import faults
from repro.faults import (
    FAST_RETRIES,
    BACKEND_NAMES,
    BackendBrokenError,
    FanoutTask,
    FaultPlan,
    InjectedCrash,
    ProcessPoolBackend,
    RunOutcome,
    SerialBackend,
    make_backend,
    run_fanout,
)


@pytest.fixture(autouse=True)
def clean_faults_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


def _double(value, ctx=None):
    return value * 2


def _entering_double(value, ctx=None):
    """Like a real pool worker: runs the injector's task-start faults."""
    faults.enter_worker(ctx)
    return value * 2


def _crash_first(value, ctx=None):
    if ctx is not None and ctx.attempt == 0:
        os._exit(86)
    return value + 1


def _sleep_attempt0(value, ctx=None):
    if ctx is not None and ctx.attempt == 0:
        time.sleep(1.0)
    return value


def _exit_now(value, ctx=None):
    os._exit(86)


class TestMakeBackend:
    def test_default_is_process_pool(self):
        backend = make_backend(None, jobs=3)
        try:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.capacity == 3
        finally:
            backend.shutdown()

    def test_named_backends(self):
        serial = make_backend("serial", jobs=4)
        assert isinstance(serial, SerialBackend)
        assert serial.capacity == 1
        pool = make_backend("process-pool", jobs=4)
        try:
            assert isinstance(pool, ProcessPoolBackend)
            assert pool.capacity == 4
        finally:
            pool.shutdown()

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert make_backend(backend, jobs=8) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_backend("carrier-pigeon", jobs=2)


class TestSerialBackend:
    def test_happy_path_matches_pool(self):
        tasks = [FanoutTask(key=i, fn=_double, args=(i,)) for i in range(4)]
        serial_results, serial_report = run_fanout(
            tasks, jobs=1, policy=FAST_RETRIES, backend="serial"
        )
        pool_results, pool_report = run_fanout(
            tasks, jobs=2, policy=FAST_RETRIES, backend="process-pool"
        )
        assert serial_results == pool_results == {i: i * 2 for i in range(4)}
        assert serial_report.all_ok and pool_report.all_ok
        assert serial_report.backend == "serial"
        assert pool_report.backend == "process-pool"

    def test_crash_fault_raises_in_process(self):
        # A crash fault must not kill the parent when the attempt runs
        # in-process: it surfaces as InjectedCrash and is retried at the
        # same (token, attempt) coordinates a pooled run would use.
        faults.activate(FaultPlan(seed=1, crash_on=0))
        tasks = [FanoutTask(key="k", fn=_entering_double, args=(21,))]
        results, report = run_fanout(
            tasks, jobs=1, policy=FAST_RETRIES, backend="serial"
        )
        assert results == {"k": 42}
        state = report.tasks["k"]
        assert state.outcome is RunOutcome.RETRIED
        assert state.retries == 1
        assert "InjectedCrash" in state.error

    def test_injected_crash_is_a_fault(self):
        assert issubclass(InjectedCrash, faults.InjectedFault)


class TestProcessPoolBackend:
    def test_single_domain_pool_drains_everything(self):
        # The whole pool is one fault domain: a crashing task kills the
        # healthy sleeper's worker too, charging it a retry.
        tasks = [
            FanoutTask(key="crashy", fn=_crash_first, args=(1,)),
            FanoutTask(key="steady", fn=_sleep_attempt0, args=(7,)),
        ]
        results, report = run_fanout(
            tasks, jobs=2, policy=FAST_RETRIES, backend="process-pool"
        )
        assert results == {"crashy": 2, "steady": 7}
        steady = report.tasks["steady"]
        assert steady.attempts >= 2
        assert steady.retries >= 1

    def test_submit_on_broken_pool_raises_with_domain(self):
        backend = ProcessPoolBackend(jobs=1)
        try:
            future = backend.submit(_exit_now, (0, None))
            with pytest.raises(Exception):
                future.result()
            backend.release(future)
            # The pool is broken; submitting to it must identify the
            # domain so the scheduler can recover it.
            with pytest.raises(BackendBrokenError) as excinfo:
                backend.submit(_double, (1, None))
            assert excinfo.value.domain == 0
            backend.recover(0)
            healed = backend.submit(_double, (5, None))
            assert healed.result() == 10
        finally:
            backend.shutdown()


class TestBackendMatrixToyTasks:
    def test_results_identical_across_backends(self):
        expected = {i: i * 2 for i in range(6)}
        for spec in BACKEND_NAMES:
            tasks = [
                FanoutTask(key=i, fn=_double, args=(i,)) for i in range(6)
            ]
            results, report = run_fanout(
                tasks, jobs=2, policy=FAST_RETRIES, backend=spec
            )
            assert results == expected, spec
            assert report.all_ok, spec
