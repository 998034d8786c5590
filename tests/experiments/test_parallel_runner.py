"""Disk cache, parallel fan-out, and cache-stat exposure of the runner."""

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
from repro.experiments.cache import CacheStats, DiskCache, source_version
from repro.experiments.report import _cache_section, grid_keys
from repro.experiments.runner import (
    FAST_WORKLOADS,
    ExperimentRunner,
    RunKey,
    _pool_results,
)
from repro.obs import run_stat_group
from repro.workloads import workload_by_name

WORKLOAD = "doom3-640x480"
DESIGNS = (Design.BASELINE, Design.A_TFIM)
KEYS = [
    RunKey(WORKLOAD, design, DEFAULT_THRESHOLD.effective_radians, True)
    for design in DESIGNS
]
FAST_GRID = [
    RunKey(name, design, DEFAULT_THRESHOLD.effective_radians, True)
    for name in FAST_WORKLOADS
    for design in Design
]
GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "simulated_runs.json"


def _exit_on_die(item, _cache_root):
    """Pool task that kills its worker process outright on ``"die"``."""
    if item == "die":
        os._exit(3)
    return item


def run_signature(run):
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


@pytest.fixture(scope="module")
def serial_results():
    runner = ExperimentRunner([WORKLOAD])
    return {key: run_signature(run) for key, run in runner.run_many(KEYS, jobs=1).items()}


class TestSourceVersion:
    def test_stable_and_short(self):
        first = source_version()
        assert first == source_version()
        assert len(first) == 16
        int(first, 16)  # valid hex


class TestDiskCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload=123)
        hit, value = cache.load(key)
        assert not hit and value is None
        cache.store(key, {"answer": 42})
        hit, value = cache.load(key)
        assert hit and value == {"answer": 42}
        assert cache.stats == CacheStats(hits=1, misses=1, stores=1, errors=0)
        assert cache.entries() == 1
        assert cache.total_bytes() > 0

    def test_key_depends_on_payload_and_category(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        assert cache.key("a", x=1) != cache.key("a", x=2)
        assert cache.key("a", x=1) != cache.key("b", x=1)
        assert cache.key("a", x=1) == cache.key("a", x=1)

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload=1)
        cache.store(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        hit, value = cache.load(key)
        assert not hit and value is None
        assert cache.stats.errors == 1
        cache.store(key, [1, 2, 3])  # recompute path overwrites
        assert cache.load(key) == (True, [1, 2, 3])

    def test_env_var_resolves_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
        cache = DiskCache()
        assert cache.root == tmp_path / "from-env"

    def test_get_or_compute(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload=9)
        calls = []
        assert cache.get_or_compute(key, lambda: calls.append(1) or "v") == "v"
        assert cache.get_or_compute(key, lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1


class TestRunnerDiskCache:
    def test_rerun_is_served_from_disk(self, tmp_path, serial_results):
        cold = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        workload = cold.workloads[0]
        first = cold.run(workload, Design.A_TFIM)
        assert cold.cache_stats().disk_stores > 0

        warm = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        second = warm.run(warm.workloads[0], Design.A_TFIM)
        stats = warm.cache_stats()
        assert stats.disk_hits >= 1
        assert stats.disk_entries > 0
        assert stats.disk_bytes > 0
        assert run_signature(first) == run_signature(second)
        assert run_signature(second) == serial_results[
            RunKey(WORKLOAD, Design.A_TFIM, DEFAULT_THRESHOLD.effective_radians, True)
        ]

    def test_energy_roundtrips_through_disk(self, tmp_path):
        first = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        e1 = first.energy(first.workloads[0], Design.BASELINE)
        second = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        e2 = second.energy(second.workloads[0], Design.BASELINE)
        assert second.cache_stats().disk_hits >= 1
        assert e1.total == e2.total

    def test_memo_counters_advance(self):
        runner = ExperimentRunner([WORKLOAD])
        workload = runner.workloads[0]
        runner.run(workload, Design.BASELINE)
        misses = runner.memo_misses
        assert misses > 0
        runner.run(workload, Design.BASELINE)
        assert runner.memo_hits >= 1
        assert runner.memo_misses == misses


class TestRunMany:
    def test_parallel_matches_serial(self, tmp_path):
        # The golden file holds the serially simulated snapshot of every
        # fast-grid point; the pool must reproduce each one exactly.
        golden = json.loads(GOLDEN.read_text())
        runner = ExperimentRunner(FAST_WORKLOADS, cache_dir=tmp_path)
        results = runner.run_many(FAST_GRID, jobs=2)
        assert list(results) == FAST_GRID
        for key in FAST_GRID:
            expected = golden[f"{key.workload}/{key.design.value}"]
            assert dict(run_stat_group(results[key]).flatten()) == expected, key

    def test_results_memoised_after_fan_out(self, tmp_path):
        runner = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        runner.run_many(KEYS, jobs=2)
        hits_before = runner.memo_hits
        again = runner.run_many(KEYS, jobs=2)
        assert set(again) == set(KEYS)
        assert runner.memo_hits == hits_before + len(KEYS)

    def test_parallel_without_disk_cache_uses_scratch(self, serial_results):
        runner = ExperimentRunner([WORKLOAD])
        assert runner.disk_cache is None
        results = runner.run_many(KEYS, jobs=2)
        for key in KEYS:
            assert run_signature(results[key]) == serial_results[key]


class TestPool:
    def test_failed_worker_fails_the_batch_naming_it(self, tmp_path):
        missing = RunKey(
            "no-such-workload", Design.BASELINE,
            DEFAULT_THRESHOLD.effective_radians, True,
        )
        runner = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
        with pytest.raises(RuntimeError, match="no-such-workload"):
            runner.run_many(KEYS + [missing], jobs=2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_the_batch(self):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            with pytest.raises(RuntimeError, match="worker failed") as info:
                _pool_results(pool, _exit_on_die, ["die", "ok"], "")
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert multiprocessing.active_children() == []

    def test_worker_forests_grafted_per_key_in_key_order(
        self, tmp_path, monkeypatch
    ):
        # Spawned workers learn that tracing is on only from REPRO_TRACE.
        keys = [
            RunKey(WORKLOAD, design, DEFAULT_THRESHOLD.effective_radians, True)
            for design in Design
        ]
        monkeypatch.setenv(obs.ENV_FLAG, "1")
        was = obs.tracing_enabled()
        obs.set_tracing(True, propagate_env=False)
        obs.reset_tracer()
        try:
            runner = ExperimentRunner([WORKLOAD], cache_dir=tmp_path)
            runner.run_many(keys, jobs=2)
            (many,) = obs.get_tracer().as_dicts()
        finally:
            obs.reset_tracer()
            obs.set_tracing(was, propagate_env=False)
        phases = {child["name"]: child for child in many["children"]}
        run_phase = phases["runner.run_phase"]
        forests = run_phase["attributes"]["worker_spans"]
        # At most two workers ran four tasks, so a worker that kept spans
        # from its previous task would show two roots in one forest.
        assert [len(forest) for forest in forests] == [1] * len(keys)
        roots = [forest[0] for forest in forests]
        assert [root["name"] for root in roots] == ["worker.run"] * len(keys)
        assert [
            (root["attributes"]["workload"], root["attributes"]["design"])
            for root in roots
        ] == [(key.workload, key.design.name) for key in keys]
        (trace_forest,) = phases["runner.trace_phase"]["attributes"][
            "worker_spans"
        ]
        assert [span["name"] for span in trace_forest] == ["worker.trace"]


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

    def test_cache_section_renders_stats(self):
        runner = ExperimentRunner([WORKLOAD])
        section = _cache_section(runner)
        assert "Runner cache statistics" in section
        assert "memoisation hits" in section
        assert "REPRO_CACHE_DIR" in section  # hint shown when no disk cache


class TestArtefactsPickle:
    def test_design_run_pickles(self, serial_results):
        # run_many workers ship DesignRun objects across process
        # boundaries; guard that they stay picklable.
        runner = ExperimentRunner([WORKLOAD])
        run = runner.run(runner.workloads[0], Design.BASELINE)
        clone = pickle.loads(pickle.dumps(run))
        assert run_signature(clone) == run_signature(run)


class TestCacheRobustnessContracts:
    def test_framed_entry_bitflip_fails_crc_and_counts_as_miss(self, tmp_path):
        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload="crc")
        cache.store(key, {"value": 7})
        path = cache._path(key)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload bit under the checksum
        path.write_bytes(bytes(data))
        hit, value = cache.load(key)
        assert not hit and value is None
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1

    def test_legacy_unframed_entry_still_loads(self, tmp_path):
        import pickle

        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload="legacy")
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps([4, 5, 6]))  # pre-CRC format
        assert cache.load(key) == (True, [4, 5, 6])

    def test_store_safe_survives_store_failure(self, tmp_path, monkeypatch):
        import os as os_module

        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload="fragile")

        def refuse(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os_module, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="cache store failed"):
            assert cache.store_safe(key, "value") is False
        assert cache.stats.errors == 1
        assert cache.stats.stores == 0

    def test_get_or_compute_returns_value_when_store_fails(
        self, tmp_path, monkeypatch
    ):
        import os as os_module

        cache = DiskCache(root=tmp_path)
        key = cache.key("unit", payload="compute")

        def refuse(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os_module, "replace", refuse)
        with pytest.warns(RuntimeWarning, match="continuing with the computed"):
            assert cache.get_or_compute(key, lambda: "computed") == "computed"
        assert cache.stats.errors == 1


class TestMemoCountingParity:
    def test_serial_and_parallel_memo_misses_agree(self, tmp_path):
        serial = ExperimentRunner([WORKLOAD], cache_dir=tmp_path / "serial")
        serial.run_many(KEYS, jobs=1)
        parallel = ExperimentRunner([WORKLOAD], cache_dir=tmp_path / "parallel")
        parallel.run_many(KEYS, jobs=2)
        assert serial.memo_misses == parallel.memo_misses == len(KEYS)
        assert serial.memo_hits == parallel.memo_hits == 0

    def test_rerun_hits_agree_across_branches(self, tmp_path):
        serial = ExperimentRunner([WORKLOAD], cache_dir=tmp_path / "serial")
        serial.run_many(KEYS, jobs=1)
        serial.run_many(KEYS, jobs=1)
        parallel = ExperimentRunner([WORKLOAD], cache_dir=tmp_path / "parallel")
        parallel.run_many(KEYS, jobs=2)
        parallel.run_many(KEYS, jobs=2)
        assert serial.memo_hits == parallel.memo_hits == len(KEYS)
        assert serial.memo_misses == parallel.memo_misses == len(KEYS)
