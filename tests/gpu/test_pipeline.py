"""Tests for the whole-frame pipeline model."""

import pytest

from repro.core import Design
from repro.core.expansion import RequestExpander
from repro.core.frontend import make_texture_path
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GpuPipeline, StageTimes
from repro.memory.traffic import TrafficMeter
from repro.render.renderer import Renderer
from repro.texture.cache import CacheConfig
from tests.conftest import make_tiny_scene


def small_gpu(**overrides):
    defaults = dict(
        l1_cache=CacheConfig(size_bytes=1024, associativity=4),
        l2_cache=CacheConfig(size_bytes=4096, associativity=8),
    )
    defaults.update(overrides)
    return GPUConfig(**defaults)


@pytest.fixture(scope="module")
def tiny_setup():
    scene, camera = make_tiny_scene()
    renderer = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
    trace = renderer.trace_only(scene, camera).trace
    expander = RequestExpander(scene)
    expanded = [expander.expand(request) for request in trace.requests]
    return scene, trace, expanded


def make_path(config_design, gpu, traffic):
    from repro.core.designs import DesignConfig

    return make_texture_path(
        DesignConfig(design=config_design, gpu=gpu), traffic
    )


class TestStageTimes:
    def test_frame_is_sum_of_serial_stages(self):
        stages = StageTimes(
            geometry=10.0, rasterization=20.0, fragment_stage=70.0
        )
        assert stages.frame == 100.0


class TestClusterAssignment:
    def test_assignment_uses_trace_tiles(self, tiny_setup):
        _, trace, _ = tiny_setup
        pipeline = GpuPipeline(small_gpu())
        assignments = pipeline.assign_clusters(trace)
        assert len(assignments) == len(trace.requests)
        assert all(0 <= a < 16 for a in assignments)

    def test_assignment_spreads_load(self, tiny_setup):
        _, trace, _ = tiny_setup
        pipeline = GpuPipeline(small_gpu())
        assignments = pipeline.assign_clusters(trace)
        used_clusters = set(assignments)
        assert len(used_clusters) >= 8


class TestReplay:
    def test_completions_never_precede_issues(self, tiny_setup):
        scene, trace, expanded = tiny_setup
        traffic = TrafficMeter()
        gpu = small_gpu()
        path = make_path(Design.BASELINE, gpu, traffic)
        pipeline = GpuPipeline(gpu)
        makespan, histogram, per_cluster = pipeline.replay_texture_stream(
            trace, expanded, path
        )
        assert makespan > 0
        assert histogram.count == len(trace.requests)
        assert sum(per_cluster) == len(trace.requests)

    def test_smaller_window_cannot_be_faster(self, tiny_setup):
        scene, trace, expanded = tiny_setup

        def run_with_depth(depth):
            gpu = small_gpu(max_inflight_texture_requests=depth)
            traffic = TrafficMeter()
            path = make_path(Design.BASELINE, gpu, traffic)
            pipeline = GpuPipeline(gpu)
            makespan, _, _ = pipeline.replay_texture_stream(trace, expanded, path)
            return makespan

        assert run_with_depth(2) >= run_with_depth(64)

    @pytest.mark.parametrize(
        "design", (Design.BASELINE, Design.S_TFIM, Design.A_TFIM),
        ids=lambda design: design.value,
    )
    @pytest.mark.parametrize("extra", (-5, 5), ids=("short", "long"))
    def test_mismatched_expansion_rejected(self, tiny_setup, design, extra):
        """The warm-up replay calls this without ``simulate_frame``."""
        scene, trace, expanded = tiny_setup
        mismatched = (
            expanded[:extra] if extra < 0 else expanded + expanded[:extra]
        )
        gpu = small_gpu()
        path = make_path(design, gpu, TrafficMeter())
        with pytest.raises(ValueError, match="does not match the trace"):
            GpuPipeline(gpu).replay_texture_stream(trace, mismatched, path)


class TestSimulateFrame:
    def test_frame_result_consistency(self, tiny_setup):
        scene, trace, expanded = tiny_setup
        gpu = small_gpu()
        traffic = TrafficMeter()
        path = make_path(Design.BASELINE, gpu, traffic)
        pipeline = GpuPipeline(gpu)
        frame = pipeline.simulate_frame(
            trace, expanded, path, traffic,
            num_vertices=scene.num_vertices,
            external_bytes_per_cycle=128.0,
        )
        assert frame.num_requests == len(trace.requests)
        assert frame.frame_cycles >= frame.stages.fragment_stage
        assert frame.stages.fragment_stage >= max(
            frame.stages.shader, frame.stages.texture, frame.stages.rop
        )
        assert frame.texels_requested > 0
        assert frame.texture_filter_latency > 0

    def test_mismatched_expansion_rejected(self, tiny_setup):
        scene, trace, expanded = tiny_setup
        gpu = small_gpu()
        traffic = TrafficMeter()
        path = make_path(Design.BASELINE, gpu, traffic)
        pipeline = GpuPipeline(gpu)
        with pytest.raises(ValueError):
            pipeline.simulate_frame(
                trace, expanded[:-1], path, traffic,
                num_vertices=3, external_bytes_per_cycle=128.0,
            )

    def test_overlap_factor_zero_means_max(self, tiny_setup):
        scene, trace, expanded = tiny_setup
        gpu = small_gpu(overlap_factor=0.0)
        traffic = TrafficMeter()
        path = make_path(Design.BASELINE, gpu, traffic)
        frame = GpuPipeline(gpu).simulate_frame(
            trace, expanded, path, traffic,
            num_vertices=scene.num_vertices,
            external_bytes_per_cycle=128.0,
        )
        assert frame.stages.fragment_stage == pytest.approx(
            max(frame.stages.shader, frame.stages.texture, frame.stages.rop)
        )

    def test_speedup_helpers(self, tiny_setup):
        scene, trace, expanded = tiny_setup
        gpu = small_gpu()

        def run():
            traffic = TrafficMeter()
            path = make_path(Design.BASELINE, gpu, traffic)
            return GpuPipeline(gpu).simulate_frame(
                trace, expanded, path, traffic,
                num_vertices=scene.num_vertices,
                external_bytes_per_cycle=128.0,
            )

        first, second = run(), run()
        assert second.speedup_over(first) == pytest.approx(1.0)
        assert second.texture_speedup_over(first) == pytest.approx(1.0)
