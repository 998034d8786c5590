"""The runner's batch path: one task per workload, in trace order, on
one process pool or in process, and the report grid it prefetches."""

import json
import multiprocessing
import os
import pickle
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro import obs
from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD, THRESHOLD_SWEEP
from repro.core.expansion import RequestExpander
from repro.experiments import runner as runner_module
from repro.experiments.cache import source_version
from repro.experiments.report import generate_with_runner, grid_keys
from repro.experiments.runner import (
    FAST_WORKLOADS,
    ExperimentRunner,
    RenderKey,
    RunKey,
    Variant,
    _pool_results,
    run_key,
)
from repro.obs import run_stat_group
from repro.render.renderer import SamplingMode
from repro.workloads import workload_by_name

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
# Renders of both workloads, so the pool takes them too.
RENDERS = [
    RenderKey(WORKLOAD, SamplingMode.EXACT),
    RenderKey("riddick-640x480", SamplingMode.ATFIM, DEFAULT),
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


class FinishedPool:
    """A pool stub whose tasks have finished before ``submit`` returns:
    ``outcomes[name]`` is the task's result, or the exception it holds.
    No process starts."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.shut_down = False

    def submit(self, _fn, name, _keys):
        future = Future()
        outcome = self.outcomes[name]
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


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
            REPORT_WORKLOADS, include_quality=False
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

    def test_pooled_renders_match_serial(self):
        serial = ExperimentRunner([WORKLOAD]).run_many(RENDERS)
        pooled = ExperimentRunner([WORKLOAD]).run_many(RENDERS, jobs=2)
        assert list(pooled) == RENDERS
        for key in RENDERS:
            assert pooled[key].image.tobytes() == serial[key].image.tobytes()
            assert (pooled[key].parent_reuses,
                    pooled[key].parent_recalculations) == (
                serial[key].parent_reuses, serial[key].parent_recalculations
            )
        assert serial[RENDERS[1]].parent_reuses > 0

    def test_tasks_are_submitted_longest_first(self, monkeypatch):
        submitted = []

        def record(_pool, _fn, groups):
            submitted.extend(groups)
            return [([None] * len(keys), []) for keys in groups.values()]

        monkeypatch.setattr(runner_module, "_pool_results", record)
        keys = [
            RunKey(name, Design.BASELINE, DEFAULT, True)
            for name in ("doom3-320x240", "doom3-1280x1024", WORKLOAD)
        ]
        results = ExperimentRunner([WORKLOAD]).run_many(keys, jobs=2)
        assert submitted == ["doom3-1280x1024", WORKLOAD, "doom3-320x240"]
        assert list(results) == keys

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
        assert "pool broke" in str(info.value)
        assert multiprocessing.active_children() == []

    def test_a_broken_pool_names_no_culprit(self):
        """Every task that had not finished when a worker died holds
        ``BrokenProcessPool``: the error says the pool broke and lists
        their workloads, and blames none of them, nor the one that
        finished first."""
        pool = FinishedPool({"ok": "done", "first": BrokenProcessPool(),
                             "second": BrokenProcessPool()})
        with pytest.raises(RuntimeError) as info:
            _pool_results(pool, _exit_on_die,
                          {"ok": [], "first": [], "second": []})
        message = str(info.value)
        assert "pool broke" in message and "on workload" not in message
        assert "'first', 'second'" in message and "'ok'" not in message
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert pool.shut_down

    def test_a_task_error_names_its_own_workload(self):
        """A task's own exception names its workload, even after tasks
        that hold ``BrokenProcessPool`` in submission order."""
        error = ValueError("no such workload")
        pool = FinishedPool({"ok": "done", "broken": BrokenProcessPool(),
                             "bad": error})
        with pytest.raises(RuntimeError,
                           match="failed on workload 'bad'") as info:
            _pool_results(pool, _exit_on_die,
                          {"ok": [], "broken": [], "bad": []})
        assert info.value.__cause__ is error
        assert pool.shut_down

    def test_finished_tasks_return_in_submission_order(self):
        pool = FinishedPool({"b": 2, "a": 1})
        assert _pool_results(pool, _exit_on_die, {"b": [], "a": []}) == [2, 1]
        assert not pool.shut_down

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
        runs = [key for key in keys if isinstance(key, RunKey)]
        renders = [key for key in keys if isinstance(key, RenderKey)]
        assert len(runs) + len(renders) == len(keys)
        designs = {key.design for key in runs}
        assert designs == set(Design)
        assert any(not key.aniso_enabled for key in runs)
        assert any(not key.consolidation_enabled for key in runs)
        assert any(key.mtu_share > 1 for key in runs)
        thresholds = {key.angle_threshold for key in runs}
        assert len(thresholds) > 1
        # doom3-640x480 caps anisotropy at 8x, so its 8x point is the
        # default key (None).
        assert {key.variant.max_anisotropy for key in runs} == {
            None, 2, 4, 16
        }
        assert {key.variant.internal_bandwidth_multiplier for key in runs} == {
            0.5, 1.0, 2.0, 4.0
        }
        assert [(key.mode, key.angle_threshold) for key in renders] == [
            (SamplingMode.EXACT, 0.0)
        ] + [
            (SamplingMode.ATFIM, threshold.effective_radians)
            for threshold in THRESHOLD_SWEEP
        ]
        without = grid_keys(runner, include_quality=False)
        assert without == runs

    def test_a_variant_at_the_defaults_is_the_default_key(self):
        # The report's ablations run on doom3-1280x1024, whose default
        # cap is 16x: their aniso_16x and internal_x1.0 rows read
        # Fig. 10's points from the memo.
        workload = workload_by_name("doom3-1280x1024")
        fig10 = [RunKey(workload.name, design, DEFAULT, True)
                 for design in (Design.BASELINE, Design.A_TFIM)]
        assert [
            run_key(workload, design, max_anisotropy=16)
            for design in (Design.BASELINE, Design.A_TFIM)
        ] == fig10
        assert run_key(
            workload, Design.A_TFIM, internal_bandwidth_multiplier=1.0
        ) == fig10[1]
        assert run_key(workload, Design.A_TFIM, max_anisotropy=8) not in fig10
        keys = grid_keys(ExperimentRunner([workload.name]))
        assert set(fig10) <= set(keys)
        # Baseline and A-TFIM at 2x, 4x and 8x, and A-TFIM at x0.5, x2
        # and x4: the 16x and x1.0 points are Fig. 10's.
        assert sum(key.variant != Variant() for key in keys
                   if isinstance(key, RunKey)) == 9

    def test_a_serial_fast_report_computes_only_in_its_prefetch(self):
        """Every simulation and render of the report runs inside one
        ``run_many`` batch, its grid prefetch: the figures only read the
        memo, so they open no batch of their own."""
        was = obs.tracing_enabled()
        obs.set_tracing(True, propagate_env=False)
        obs.reset_tracer()
        try:
            _text, runner = generate_with_runner(FAST_WORKLOADS)
            spans = obs.get_tracer().as_dicts()
        finally:
            obs.reset_tracer()
            obs.set_tracing(was, propagate_env=False)
        counts = Counter()

        def walk(forest, in_batch):
            for span in forest:
                inside = in_batch or span["name"] == "runner.run_many"
                counts[span["name"], inside] += 1
                walk(span["children"], inside)

        walk(spans, False)
        keys = grid_keys(runner)
        assert counts["runner.run_many", True] == 1
        assert counts["core.simulate_frame", False] == 0
        assert counts["render.render", False] == 0
        assert counts["core.simulate_frame", True] == sum(
            isinstance(key, RunKey) for key in keys
        )
        assert counts["render.render", True] == sum(
            isinstance(key, RenderKey) for key in keys
        )

    def test_report_expands_each_trace_once_per_aniso_setting(
        self, serial_report
    ):
        # Each workload's trace with anisotropy on and off, then, on the
        # first workload, the trace of each other anisotropy cap (on).
        _text, runner, expansions = serial_report
        caps = {key.variant.max_anisotropy for key in grid_keys(runner)
                if isinstance(key, RunKey)} - {None}
        assert len(set(expansions)) == len(expansions)
        assert [aniso for _trace, aniso in expansions] == (
            [True, False] + [True] * len(caps) + [True, False]
        )

    def test_pool_report_matches_serial_text_and_memo_counters(
        self, serial_report
    ):
        text, serial, _expansions = serial_report
        pooled_text, pooled = generate_with_runner(
            REPORT_WORKLOADS, include_quality=False, jobs=2,
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
    """Over design runs and renders alike."""

    def test_serial_and_parallel_memo_misses_agree(self):
        keys = MIXED + RENDERS
        serial = ExperimentRunner([WORKLOAD])
        serial.run_many(keys, jobs=1)
        parallel = ExperimentRunner([WORKLOAD])
        parallel.run_many(keys, jobs=2)
        assert serial.memo_misses == parallel.memo_misses == len(keys)
        assert serial.memo_hits == parallel.memo_hits == 0

    def test_rerun_hits_agree_across_branches(self):
        keys = MIXED + RENDERS
        serial = ExperimentRunner([WORKLOAD])
        serial.run_many(keys, jobs=1)
        serial.run_many(keys, jobs=1)
        parallel = ExperimentRunner([WORKLOAD])
        parallel.run_many(keys, jobs=2)
        parallel.run_many(keys, jobs=2)
        assert serial.memo_hits == parallel.memo_hits == len(keys)
        assert serial.memo_misses == parallel.memo_misses == len(keys)
