"""The runner's batch path: one task per workload, in trace order, on
one process pool or in process, and the report grid it prefetches."""

import json
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.core.expansion import RequestExpander
from repro.experiments.cache import source_version
from repro.experiments.report import generate_with_runner, grid_keys
from repro.experiments.runner import (
    FAST_WORKLOADS,
    ExperimentRunner,
    RunKey,
    _pool_results,
)
from repro.obs import run_stat_group

WORKLOAD = "doom3-640x480"
DEFAULT = DEFAULT_THRESHOLD.effective_radians
DESIGNS = (Design.BASELINE, Design.A_TFIM)
KEYS = [RunKey(WORKLOAD, design, DEFAULT, True) for design in DESIGNS]
# Two workloads, interleaved: the smallest batch the pool runs, and one
# whose grouping reorders it.
MIXED = [
    RunKey(WORKLOAD, Design.BASELINE, DEFAULT, True),
    RunKey("riddick-640x480", Design.BASELINE, DEFAULT, True),
    RunKey(WORKLOAD, Design.A_TFIM, DEFAULT, True),
]
FAST_GRID = [
    RunKey(name, design, DEFAULT, True)
    for name in FAST_WORKLOADS
    for design in Design
]
REPORT_WORKLOADS = ["doom3-640x480", "riddick-640x480"]
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simulated_runs.json"


def _exit_on_die(name, _keys):
    """Pool task that kills its worker process outright on ``"die"``."""
    if name == "die":
        os._exit(3)
    return name


def run_signature(run):
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


@pytest.fixture(scope="module")
def serial_report():
    """A serial two-workload report, with each request expansion it ran
    recorded as ``(trace id, aniso_enabled)``."""
    expansions = []
    original = RequestExpander.expand_frame

    def counting(self, trace, aniso_enabled=True):
        expansions.append((id(trace), aniso_enabled))
        return original(self, trace, aniso_enabled)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RequestExpander, "expand_frame", counting)
        text, runner = generate_with_runner(
            REPORT_WORKLOADS, include_quality=False, include_ablations=False
        )
    return text, runner, expansions


class TestSourceVersion:
    def test_stable_and_short(self):
        first = source_version()
        assert first == source_version()
        assert len(first) == 16
        int(first, 16)  # valid hex


class TestRunMany:
    def test_parallel_matches_serial(self):
        # The golden file holds the serially simulated snapshot of every
        # fast-grid point; the pool must reproduce each one exactly.
        golden = json.loads(GOLDEN.read_text())
        runner = ExperimentRunner(FAST_WORKLOADS)
        results = runner.run_many(FAST_GRID, jobs=2)
        assert list(results) == FAST_GRID
        for key in FAST_GRID:
            expected = golden[f"{key.workload}/{key.design.value}"]
            assert dict(run_stat_group(results[key]).flatten()) == expected, key

    def test_results_memoised_after_fan_out(self):
        runner = ExperimentRunner([WORKLOAD])
        runner.run_many(MIXED, jobs=2)
        hits_before = runner.memo_hits
        again = runner.run_many(MIXED, jobs=2)
        assert list(again) == MIXED
        assert runner.memo_hits == hits_before + len(MIXED)


class TestPool:
    def test_failed_worker_fails_the_batch_naming_it(self):
        missing = RunKey("no-such-workload", Design.BASELINE, DEFAULT, True)
        runner = ExperimentRunner([WORKLOAD])
        with pytest.raises(
            RuntimeError, match="failed on workload 'no-such-workload'"
        ):
            runner.run_many(KEYS + [missing], jobs=2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_the_batch(self):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            with pytest.raises(RuntimeError, match="worker failed") as info:
                _pool_results(pool, _exit_on_die, {"die": [], "ok": []})
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert multiprocessing.active_children() == []

    def test_worker_forests_grafted_per_workload_in_workload_order(
        self, monkeypatch
    ):
        # Spawned workers learn that tracing is on only from REPRO_TRACE.
        monkeypatch.setenv(obs.ENV_FLAG, "1")
        was = obs.tracing_enabled()
        obs.set_tracing(True, propagate_env=False)
        obs.reset_tracer()
        try:
            ExperimentRunner([WORKLOAD]).run_many(MIXED, jobs=2)
            (many,) = obs.get_tracer().as_dicts()
        finally:
            obs.reset_tracer()
            obs.set_tracing(was, propagate_env=False)
        # The workers' forests hang on the batch span itself: no phase
        # spans, and nothing simulated in the parent.
        assert many["name"] == "runner.run_many"
        assert many["children"] == []
        forests = many["attributes"]["worker_spans"]
        # Two workers ran two tasks, so a worker that kept spans from
        # its previous task would show two roots in one forest.
        assert [len(forest) for forest in forests] == [1, 1]
        roots = [forest[0] for forest in forests]
        assert [root["name"] for root in roots] == ["worker.workload"] * 2
        assert [root["attributes"]["workload"] for root in roots] == [
            WORKLOAD, "riddick-640x480"
        ]
        assert [
            [run["attributes"]["design"] for run in root["children"]]
            for root in roots
        ] == [["BASELINE", "A_TFIM"], ["BASELINE"]]


class TestReportIntegration:
    def test_grid_keys_cover_designs_and_sweep(self):
        runner = ExperimentRunner([WORKLOAD])
        keys = grid_keys(runner)
        assert len(keys) == len(set(keys))
        designs = {key.design for key in keys}
        assert designs == set(Design)
        assert any(not key.aniso_enabled for key in keys)
        assert any(not key.consolidation_enabled for key in keys)
        assert any(key.mtu_share > 1 for key in keys)
        thresholds = {key.angle_threshold for key in keys}
        assert len(thresholds) > 1
        without = grid_keys(runner, include_ablations=False)
        assert set(without) < set(keys)
        assert all(
            key.mtu_share == 1 and key.consolidation_enabled
            for key in without
        )

    def test_report_expands_each_trace_once_per_aniso_setting(
        self, serial_report
    ):
        _text, _runner, expansions = serial_report
        assert len(expansions) == 2 * len(REPORT_WORKLOADS)
        assert len(set(expansions)) == len(expansions)
        assert [aniso for _trace, aniso in expansions] == [True, False] * 2

    def test_pool_report_matches_serial_text_and_memo_counters(
        self, serial_report
    ):
        text, serial, _expansions = serial_report
        pooled_text, pooled = generate_with_runner(
            REPORT_WORKLOADS, include_quality=False, include_ablations=False,
            jobs=2,
        )
        assert pooled_text == text
        assert (pooled.memo_hits, pooled.memo_misses) == (
            serial.memo_hits, serial.memo_misses
        )


class TestArtefactsPickle:
    def test_design_run_pickles(self):
        # run_many workers send their DesignRun objects back to the
        # parent process; guard that they stay picklable.
        runner = ExperimentRunner([WORKLOAD])
        run = runner.run(runner.workloads[0], Design.BASELINE)
        clone = pickle.loads(pickle.dumps(run))
        assert run_signature(clone) == run_signature(run)


class TestMemoCountingParity:
    def test_serial_and_parallel_memo_misses_agree(self):
        serial = ExperimentRunner([WORKLOAD])
        serial.run_many(MIXED, jobs=1)
        parallel = ExperimentRunner([WORKLOAD])
        parallel.run_many(MIXED, jobs=2)
        assert serial.memo_misses == parallel.memo_misses == len(MIXED)
        assert serial.memo_hits == parallel.memo_hits == 0

    def test_rerun_hits_agree_across_branches(self):
        serial = ExperimentRunner([WORKLOAD])
        serial.run_many(MIXED, jobs=1)
        serial.run_many(MIXED, jobs=1)
        parallel = ExperimentRunner([WORKLOAD])
        parallel.run_many(MIXED, jobs=2)
        parallel.run_many(MIXED, jobs=2)
        assert serial.memo_hits == parallel.memo_hits == len(MIXED)
        assert serial.memo_misses == parallel.memo_misses == len(MIXED)
