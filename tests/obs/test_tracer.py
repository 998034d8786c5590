"""Tests for the tracing spans: nesting and zero-overhead-off."""

from __future__ import annotations

import pytest

from repro import obs
from repro.sim.stats import StatGroup


@pytest.fixture
def tracing_off():
    """Force tracing off (without touching the environment), clean slate."""
    was = obs.tracing_enabled()
    obs.set_tracing(False, propagate_env=False)
    obs.reset_tracer()
    yield
    obs.reset_tracer()
    obs.set_tracing(was, propagate_env=False)


class TestDisabled:
    def test_span_yields_none_and_records_nothing(self, tracing_off):
        with obs.span("phase", detail=1) as current:
            assert current is None
        assert obs.get_tracer().as_dicts() == []

    def test_annotate_and_attach_stats_are_noops(self, tracing_off):
        obs.annotate(key="value")
        obs.attach_stats({"a": 1.0})
        assert obs.get_tracer().as_dicts() == []

    def test_disabled_equals_absent(self, tracing_off):
        """Code run under a span behaves exactly like the bare code when
        tracing is off: same result, no recorded state."""

        def compute(x: int) -> int:
            return x * 2

        with obs.span("bench.compute"):
            traced = compute(21)
        assert traced == compute(21)
        assert obs.get_tracer().as_dicts() == []


class TestSpans:
    def test_nesting_and_parent_ids(self, tracing_on):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with obs.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        forest = obs.get_tracer().as_dicts()
        assert [s["name"] for s in forest] == ["outer"]
        assert [c["name"] for c in forest[0]["children"]] == [
            "inner", "sibling",
        ]
        assert forest[0]["parent_id"] is None

    def test_duration_and_wall_start_recorded(self, tracing_on):
        with obs.span("timed"):
            pass
        span = obs.get_tracer().as_dicts()[0]
        assert span["duration"] >= 0.0
        assert span["start_wall"] > 0.0

    def test_attributes_and_annotate(self, tracing_on):
        with obs.span("phase", design="a-tfim"):
            obs.annotate(outcome="hit")
        span = obs.get_tracer().as_dicts()[0]
        assert span["attributes"]["design"] == "a-tfim"
        assert span["attributes"]["outcome"] == "hit"

    def test_attach_stats_from_statgroup(self, tracing_on):
        group = StatGroup("frame")
        group.counter("requests").add(7)
        with obs.span("simulate"):
            obs.attach_stats(group)
        span = obs.get_tracer().as_dicts()[0]
        assert span["stats"]["frame.requests"] == 7.0

    def test_attach_stats_from_mapping_with_prefix(self, tracing_on):
        with obs.span("simulate"):
            obs.attach_stats({"hits": 3}, prefix="cache.")
        span = obs.get_tracer().as_dicts()[0]
        assert span["stats"]["cache.hits"] == 3.0

    def test_exception_recorded_and_propagated(self, tracing_on):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        span = obs.get_tracer().as_dicts()[0]
        assert "boom" in span["attributes"]["error"]
        assert span["duration"] is not None

    def test_two_roots_make_a_forest(self, tracing_on):
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert [s["name"] for s in obs.get_tracer().as_dicts()] == [
            "first", "second",
        ]

    def test_reset_clears_everything(self, tracing_on):
        with obs.span("kept"):
            pass
        obs.reset_tracer()
        assert obs.get_tracer().as_dicts() == []
        assert obs.get_tracer().current() is None


class TestSetTracing:
    def test_propagate_env_exports_and_clears(self, monkeypatch):
        import os

        was = obs.tracing_enabled()
        try:
            obs.set_tracing(True)
            assert os.environ.get(obs.ENV_FLAG) == "1"
            obs.set_tracing(False)
            assert obs.ENV_FLAG not in os.environ
        finally:
            obs.set_tracing(was, propagate_env=False)
