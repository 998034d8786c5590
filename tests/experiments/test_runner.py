"""Tests for the memoising experiment runner."""

import pytest

from repro.core import Design
from repro.core.angle import THRESHOLD_001PI, THRESHOLD_005PI
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(["riddick-640x480"])


class TestRunner:
    def test_workload_subset(self, runner):
        assert [w.name for w in runner.workloads] == ["riddick-640x480"]

    def test_run_memoised(self, runner):
        workload = runner.workloads[0]
        first = runner.run(workload, Design.BASELINE)
        second = runner.run(workload, Design.BASELINE)
        assert first is second

    def test_distinct_thresholds_distinct_runs(self, runner):
        workload = runner.workloads[0]
        a = runner.run(workload, Design.A_TFIM, THRESHOLD_001PI)
        b = runner.run(workload, Design.A_TFIM, THRESHOLD_005PI)
        assert a is not b

    def test_trace_memoised(self, runner):
        workload = runner.workloads[0]
        assert runner.trace(workload) is runner.trace(workload)

    def test_speedup_ratios_relative_to_baseline(self, runner):
        workload = runner.workloads[0]
        assert runner.render_speedup(workload, Design.BASELINE) == 1.0
        assert runner.texture_speedup(workload, Design.BASELINE) == 1.0
        assert runner.texture_traffic_ratio(workload, Design.BASELINE) == 1.0
        assert runner.energy_ratio(workload, Design.BASELINE) == 1.0

    def test_energy_memoised(self, runner):
        workload = runner.workloads[0]
        assert runner.energy(workload, Design.B_PIM) is (
            runner.energy(workload, Design.B_PIM)
        )

    def test_memo_counters_advance(self):
        runner = ExperimentRunner(["riddick-640x480"])
        workload = runner.workloads[0]
        runner.run(workload, Design.BASELINE)
        misses = runner.memo_misses
        assert misses > 0
        runner.run(workload, Design.BASELINE)
        assert runner.memo_hits >= 1
        assert runner.memo_misses == misses

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            ExperimentRunner(["not-a-game"])
