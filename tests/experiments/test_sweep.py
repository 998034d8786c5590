"""Sweep definitions: products, sampling, canonicalization, surfaces."""

import json

import pytest

from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import (
    SURFACE_HEADING,
    SweepDefinition,
    SweepPoint,
    SweepRecord,
    SweepResult,
    run_sweep,
    stable_fraction,
    surface_markdown,
    update_experiments_md,
)

WORKLOAD = "riddick-640x480"


def tiny_definition(**overrides):
    settings = dict(
        name="tiny",
        workloads=(WORKLOAD,),
        designs=(Design.S_TFIM, Design.A_TFIM),
        thresholds=(0.005, 0.0314159),
        memory_backends=("hmc", "nearbank"),
        link_scales=(0.5, 1.0),
    )
    settings.update(overrides)
    return SweepDefinition(**settings)


class TestDefinition:
    def test_size_and_product_order(self):
        definition = tiny_definition()
        points = definition.points()
        assert len(points) == definition.size == 2 * 2 * 2 * 2
        # Axis-major: the last axis (link scale) varies fastest.
        assert points[0].link_bandwidth_scale == 0.5
        assert points[1].link_bandwidth_scale == 1.0
        assert points[0].memory_backend == points[1].memory_backend == "hmc"
        assert len({point.token for point in points}) == len(points)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="thresholds"):
            tiny_definition(thresholds=())

    def test_sample_is_deterministic_and_order_preserving(self):
        definition = tiny_definition()
        first = definition.sample(5, seed=3)
        again = definition.sample(5, seed=3)
        assert [p.token for p in first] == [p.token for p in again]
        universe = [p.token for p in definition.points()]
        positions = [universe.index(p.token) for p in first]
        assert positions == sorted(positions)

    def test_sample_varies_with_seed(self):
        definition = tiny_definition()
        assert {p.token for p in definition.sample(5, seed=1)} != {
            p.token for p in definition.sample(5, seed=2)
        }

    def test_sample_clamps_to_universe(self):
        definition = tiny_definition()
        assert definition.sample(10_000) == definition.points()

    def test_sample_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            tiny_definition().sample(0)


class TestStableFraction:
    def test_range_and_determinism(self):
        for token in ("a", "b", "doom3@0", ""):
            value = stable_fraction(7, "sweep:x", token)
            assert 0.0 <= value < 1.0
            assert value == stable_fraction(7, "sweep:x", token)

    def test_varies_with_each_component(self):
        base = stable_fraction(0, "site", "token")
        assert base != stable_fraction(1, "site", "token")
        assert base != stable_fraction(0, "other", "token")
        assert base != stable_fraction(0, "site", "other")

    def test_roughly_uniform(self):
        values = [
            stable_fraction(3, "u", str(index)) for index in range(2000)
        ]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        assert sum(1 for v in values if v < 0.2) / len(values) == pytest.approx(
            0.2, abs=0.05
        )


class TestCanonicalization:
    def test_baseline_collapses_every_pim_axis(self):
        point = SweepPoint(WORKLOAD, Design.BASELINE, 0.005, "nearbank", 0.25)
        key = point.run_key()
        assert key.memory_backend == "hmc"
        assert key.link_bandwidth_scale == 1.0
        assert key.angle_threshold == DEFAULT_THRESHOLD.effective_radians

    def test_stfim_collapses_threshold_only(self):
        point = SweepPoint(WORKLOAD, Design.S_TFIM, 0.005, "hbm", 0.25)
        key = point.run_key()
        assert key.angle_threshold == DEFAULT_THRESHOLD.effective_radians
        assert key.memory_backend == "hbm"
        assert key.link_bandwidth_scale == 0.25

    def test_atfim_keeps_every_axis(self):
        point = SweepPoint(WORKLOAD, Design.A_TFIM, 0.005, "hbm", 0.25)
        key = point.run_key()
        assert key.angle_threshold == 0.005
        assert key.memory_backend == "hbm"
        assert key.link_bandwidth_scale == 0.25

    def test_product_collapses_onto_fewer_runs(self):
        definition = tiny_definition()
        points = definition.points()
        keys = {point.run_key() for point in points}
        # 8 A-TFIM keys (2 thresholds x 2 backends x 2 scales) +
        # 4 S-TFIM keys (threshold collapsed).
        assert len(keys) == 12 < len(points)


def _fake_result(records):
    return SweepResult(
        definition=tiny_definition(),
        records=records,
        unique_runs=len(records),
    )


def _record(design, threshold, speedup, backend="hmc", link=1.0):
    return SweepRecord(
        point=SweepPoint(WORKLOAD, design, threshold, backend, link),
        render_speedup=speedup,
        texture_traffic_ratio=0.5,
        signature=(1.0, 2.0, 3.0, 4),
    )


class TestSurface:
    def test_crossover_is_first_threshold_beating_stfim(self):
        result = _fake_result([
            _record(Design.S_TFIM, 0.005, 0.8),
            _record(Design.A_TFIM, 0.005, 0.6),
            _record(Design.A_TFIM, 0.01, 0.9),
            _record(Design.A_TFIM, 0.02, 1.4),
        ])
        (cell,) = result.surface()
        assert cell["crossover_threshold"] == 0.01
        assert cell["stfim_mean_speedup"] == pytest.approx(0.8)
        assert cell["points"] == 4

    def test_no_crossover_inside_range(self):
        result = _fake_result([
            _record(Design.S_TFIM, 0.005, 2.0),
            _record(Design.A_TFIM, 0.005, 0.5),
        ])
        (cell,) = result.surface()
        assert cell["crossover_threshold"] is None

    def test_without_stfim_crossover_is_vs_baseline(self):
        result = _fake_result([
            _record(Design.A_TFIM, 0.005, 0.5),
            _record(Design.A_TFIM, 0.01, 1.2),
        ])
        (cell,) = result.surface()
        assert cell["stfim_mean_speedup"] is None
        assert cell["crossover_threshold"] == 0.01

    def test_cells_keyed_by_backend_and_link_scale(self):
        result = _fake_result([
            _record(Design.A_TFIM, 0.005, 1.0, backend="hmc", link=1.0),
            _record(Design.A_TFIM, 0.005, 1.0, backend="hmc", link=2.0),
            _record(Design.A_TFIM, 0.005, 1.0, backend="hbm", link=1.0),
        ])
        cells = result.surface()
        assert [(c["memory_backend"], c["link_bandwidth_scale"])
                for c in cells] == [("hbm", 1.0), ("hmc", 1.0), ("hmc", 2.0)]

    def test_markdown_renders_every_cell(self):
        result = _fake_result([
            _record(Design.S_TFIM, 0.005, 0.8),
            _record(Design.A_TFIM, 0.01, 1.4),
        ])
        text = surface_markdown(result)
        assert text.startswith(SURFACE_HEADING)
        assert "| hmc | 1 | 0.80 | 1.40 | 0.01 |" in text


class TestRunSweep:
    def test_tiny_sweep_end_to_end(self, tmp_path):
        definition = tiny_definition(
            thresholds=(0.0314159,), memory_backends=("hmc",),
            link_scales=(1.0,),
        )
        result = run_sweep(definition, cache_dir=tmp_path / "cache")
        assert result.num_points == 2
        assert not result.missing
        # 2 design keys + 1 shared baseline.
        assert result.unique_runs == 3
        for record in result.records:
            assert record.render_speedup > 0
            assert record.signature[3] > 0
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["points"] == 2
        assert payload["surface"]

    def test_duplicate_canonical_points_share_one_run(self, tmp_path):
        definition = tiny_definition(
            designs=(Design.S_TFIM,), thresholds=(0.005, 0.0314159),
            memory_backends=("hmc",), link_scales=(1.0,),
        )
        runner = ExperimentRunner((WORKLOAD,), cache_dir=tmp_path / "cache")
        result = run_sweep(definition, runner=runner)
        # Two sweep points, but S-TFIM ignores the threshold: one design
        # run + one baseline.
        assert result.num_points == 2
        assert result.unique_runs == 2
        tokens = {record.point.token for record in result.records}
        assert len(tokens) == 2
        signatures = {record.signature for record in result.records}
        assert len(signatures) == 1

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            run_sweep(tiny_definition(), points=[])


class TestExperimentsUpdate:
    SECTION = SURFACE_HEADING + "\n\nbody line\n"

    def test_creates_missing_file(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        update_experiments_md(self.SECTION, path)
        assert path.read_text() == self.SECTION

    def test_appends_when_section_absent(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text("# Title\n\n## Other\n\nstuff\n")
        update_experiments_md(self.SECTION, path)
        text = path.read_text()
        assert text.startswith("# Title\n\n## Other\n\nstuff\n")
        assert text.endswith(self.SECTION)

    def test_replaces_existing_section_preserving_neighbours(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        path.write_text(
            "# Title\n\n" + SURFACE_HEADING + "\n\nstale numbers\n\n"
            "## After\n\nkept\n"
        )
        update_experiments_md(self.SECTION, path)
        text = path.read_text()
        assert "stale numbers" not in text
        assert "body line" in text
        assert "## After\n\nkept\n" in text
        assert text.count(SURFACE_HEADING) == 1
