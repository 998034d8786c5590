"""Tests for run manifests and the Chrome trace-event export."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.chrome import MAIN_TID, chrome_trace
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    config_digest,
    load_manifest,
    write_chrome_trace,
)


def _sample_manifest(**overrides) -> RunManifest:
    payload = dict(
        command="report",
        config={"fast": True},
        digest=config_digest({"fast": True}),
        source="0123456789abcdef",
        created_unix=1_700_000_000.0,
        tracing=True,
        spans=[
            {
                "name": "report.generate",
                "span_id": 1,
                "parent_id": None,
                "start_wall": 100.0,
                "duration": 2.5,
                "attributes": {"workloads": 3},
                "stats": {"runner.cache.memo_hits": 1.0},
                "children": [
                    {
                        "name": "runner.run",
                        "span_id": 2,
                        "parent_id": 1,
                        "start_wall": 100.5,
                        "duration": 1.0,
                        "attributes": {},
                        "stats": {},
                        "children": [],
                    }
                ],
            }
        ],
        stats={"runner.cache.memo_hits": 1.0},
    )
    payload.update(overrides)
    return RunManifest(**payload)


class TestRoundTrip:
    def test_as_dict_from_dict_identity(self):
        manifest = _sample_manifest()
        clone = RunManifest.from_dict(manifest.as_dict())
        assert clone == manifest

    def test_schema_marker_present(self):
        assert _sample_manifest().as_dict()["schema"] == MANIFEST_SCHEMA

    def test_wrong_schema_rejected(self):
        payload = _sample_manifest().as_dict()
        payload["schema"] = "something-else/9"
        with pytest.raises(ValueError):
            RunManifest.from_dict(payload)

    def test_write_and_load(self, tmp_path):
        manifest = _sample_manifest()
        path = manifest.write(tmp_path / "run.manifest.json")
        assert load_manifest(path) == manifest

    def test_write_is_strict_json(self, tmp_path):
        manifest = _sample_manifest(stats={"bad": float("nan")})
        with pytest.raises(ValueError):
            manifest.write(tmp_path / "run.manifest.json")


class TestConfigDigest:
    def test_deterministic_and_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_sixteen_hex_chars(self):
        digest = config_digest({"a": 1})
        assert len(digest) == 16
        int(digest, 16)


class TestChromeTrace:
    def test_events_carry_required_fields(self):
        trace = _sample_manifest().chrome_trace()
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["ph"] == "X"
            assert event["tid"] == MAIN_TID

    def test_timestamps_relative_to_earliest_span(self):
        events = _sample_manifest().chrome_trace()["traceEvents"]
        by_name = {event["name"]: event for event in events}
        assert by_name["report.generate"]["ts"] == 0.0
        assert by_name["runner.run"]["ts"] == pytest.approx(0.5e6)
        assert by_name["report.generate"]["dur"] == pytest.approx(2.5e6)

    def test_worker_forests_get_own_tid_lanes(self):
        worker = {
            "name": "worker.run",
            "span_id": 1,
            "parent_id": None,
            "start_wall": 100.2,
            "duration": 0.5,
            "attributes": {},
            "stats": {},
            "children": [],
        }
        spans = [
            {
                "name": "runner.run_many",
                "span_id": 1,
                "parent_id": None,
                "start_wall": 100.0,
                "duration": 1.0,
                "attributes": {"worker_spans": [[worker], [worker]]},
                "stats": {},
                "children": [],
            }
        ]
        events = chrome_trace(spans)["traceEvents"]
        tids = sorted(event["tid"] for event in events)
        assert tids == [MAIN_TID, MAIN_TID + 1, MAIN_TID + 2]
        args = next(
            e for e in events if e["name"] == "runner.run_many"
        )["args"]
        assert "worker_spans" not in args

    def test_manifest_with_faults_block_still_converts(self, tmp_path):
        # Manifests written before the fault-injection layer was removed
        # carry a "faults" block, and those written before the disk cache
        # was removed a "cache" block; they must still load and convert.
        payload = _sample_manifest().as_dict()
        payload["faults"] = {
            "plan": {"seed": 7, "crash_rate": 0.2},
            "fanout": {"outcomes": {"ok": 12}, "pool_rebuilds": 0},
        }
        payload["cache"] = {
            "memo_hits": 4.0, "disk_hits": 1.0, "disk_hit_rate": 0.5,
        }
        source = tmp_path / "old.manifest.json"
        source.write_text(json.dumps(payload))
        manifest = load_manifest(source)
        assert manifest.spans == payload["spans"]
        assert "faults" not in manifest.as_dict()
        assert "cache" not in manifest.as_dict()
        output = write_chrome_trace(source, tmp_path / "old.trace.json")
        trace = json.loads(output.read_text())
        assert len(trace["traceEvents"]) == 2

    def test_write_chrome_trace_from_file(self, tmp_path):
        manifest = _sample_manifest()
        source = manifest.write(tmp_path / "run.manifest.json")
        output = write_chrome_trace(source, tmp_path / "run.trace.json")
        trace = json.loads(output.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert len(trace["traceEvents"]) == 2


class _FakeRunner:
    """What build_manifest reads of a runner, without a simulation."""

    memo_hits = 4
    memo_misses = 2

    def completed_runs(self):
        return {}


class TestBuildManifest:
    def test_without_runner(self):
        manifest = build_manifest("fig", config={"fast": True})
        assert manifest.command == "fig"
        assert manifest.digest == config_digest({"fast": True})
        assert len(manifest.source) == 16
        assert manifest.stats == {}

    def test_with_runner_counters_and_stats(self):
        manifest = build_manifest("report", runner=_FakeRunner())
        assert manifest.stats["runner.cache.memo_hits"] == 4.0
        assert manifest.stats["runner.cache.memo_misses"] == 2.0

    def test_records_tracing_flag_and_spans(self):
        was = obs.tracing_enabled()
        obs.set_tracing(True, propagate_env=False)
        obs.reset_tracer()
        try:
            with obs.span("unit.phase"):
                pass
            manifest = build_manifest("fig")
            assert manifest.tracing is True
            assert [s["name"] for s in manifest.spans] == ["unit.phase"]
        finally:
            obs.reset_tracer()
            obs.set_tracing(was, propagate_env=False)

    def test_manifest_json_round_trips_through_disk(self, tmp_path):
        manifest = build_manifest("report", runner=_FakeRunner())
        path = manifest.write(tmp_path / "m.json")
        clone = load_manifest(path)
        assert clone.stats == manifest.stats
