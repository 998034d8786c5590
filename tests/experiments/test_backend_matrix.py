"""Cross-backend bit-identity on a real (small) design grid.

The chaos gate's contract, extended across executor backends: whatever
schedules the work -- in-process serial or one process pool -- and
whatever faults fire along the way, the simulation results must be
bit-identical.  Each backend gets its own disk cache root so agreement
is proven by recomputation, not by one backend reading another's
cached artefacts.
"""

import pytest

from repro import faults
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.runner import ExperimentRunner, RunKey
from repro.faults import FAST_RETRIES, BACKEND_NAMES, FaultPlan, RunOutcome

WORKLOAD = "riddick-640x480"

GRID = [
    RunKey(WORKLOAD, design, DEFAULT_THRESHOLD.effective_radians, True)
    for design in (Design.BASELINE, Design.S_TFIM, Design.A_TFIM)
]

CHAOS_SPEC = "seed=7,crash=0.2,fail=0.2,corrupt=0.2,store=0.1"


@pytest.fixture(autouse=True)
def clean_faults_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_FLAG, raising=False)
    faults.reset()
    yield
    faults.reset()


def _signature(run):
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


def _run_grid(tmp_path, backend, label, jobs=2):
    runner = ExperimentRunner(
        (WORKLOAD,),
        cache_dir=tmp_path / f"cache-{label}",
        retry_policy=FAST_RETRIES,
    )
    results = runner.run_many(GRID, jobs=jobs, backend=backend)
    return results, runner.fanout_report()


class TestBackendMatrix:
    def test_all_backends_bit_identical_clean(self, tmp_path):
        signatures = {}
        for backend in BACKEND_NAMES:
            results, report = _run_grid(tmp_path, backend, backend)
            assert set(results) == set(GRID), f"{backend} dropped keys"
            assert report.backend == backend
            signatures[backend] = {
                key: _signature(run) for key, run in results.items()
            }
        serial = signatures["serial"]
        for backend in BACKEND_NAMES[1:]:
            assert signatures[backend] == serial, (
                f"{backend} diverged from serial"
            )

    def test_all_backends_bit_identical_under_faults(self, tmp_path,
                                                     monkeypatch):
        with faults.suppress():
            clean, _ = _run_grid(tmp_path, "serial", "clean")
        clean_signatures = {
            key: _signature(run) for key, run in clean.items()
        }
        monkeypatch.setenv(faults.ENV_FLAG, CHAOS_SPEC)
        for backend in BACKEND_NAMES:
            faults.activate(FaultPlan.parse(CHAOS_SPEC))
            try:
                results, report = _run_grid(
                    tmp_path, backend, f"faulted-{backend}"
                )
            finally:
                faults.reset()
            assert set(results) == set(GRID), f"{backend} dropped keys"
            faulted = {key: _signature(run) for key, run in results.items()}
            assert faulted == clean_signatures, (
                f"{backend} diverged under faults"
            )
            counts = report.outcome_counts()
            assert counts.get(RunOutcome.FAILED.value, 0) == 0

    def test_explicit_backend_forces_fanout_even_serially(self, tmp_path):
        """``backend=`` routes jobs=1 through run_fanout, not the
        in-process shortcut -- the report proves which path ran."""
        results, report = _run_grid(tmp_path, "serial", "forced", jobs=1)
        assert set(results) == set(GRID)
        assert report.backend == "serial"
        assert all(
            task.attempts >= 1 for task in report.tasks.values()
        )
