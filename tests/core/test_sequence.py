"""Tests for multi-frame sequence simulation."""

import pytest

from repro.core import Design, simulate_sequence
from repro.workloads import workload_by_name
from repro.workloads.animation import walk_forward


@pytest.fixture(scope="module")
def sequence_setup():
    workload = workload_by_name("riddick-640x480")
    built = workload.build()
    renderer = workload.make_renderer()
    path = walk_forward(3.0)(built.camera)
    cameras = path.cameras(built.camera, 3)
    traces = [renderer.trace_only(built.scene, camera).trace for camera in cameras]
    return workload, built.scene, traces


class TestSimulateSequence:
    def test_frame_count(self, sequence_setup):
        workload, scene, traces = sequence_setup
        result = simulate_sequence(
            scene, traces, workload.design_config(Design.BASELINE)
        )
        assert result.num_frames == 3
        assert result.total_cycles == sum(
            frame.frame_cycles for frame in result.frames
        )

    def test_caches_warm_across_frames(self, sequence_setup):
        """Later frames reuse earlier frames' texels: their texture
        traffic drops relative to the cold first frame."""
        workload, scene, traces = sequence_setup
        # Hold the camera still: frames 2..n should be nearly free.
        still = [traces[0]] * 3
        result = simulate_sequence(
            scene, still, workload.design_config(Design.BASELINE)
        )
        first = result.frames[0].traffic.external_texture
        second = result.frames[1].traffic.external_texture
        assert second < first

    def test_per_frame_traffic_attribution(self, sequence_setup):
        workload, scene, traces = sequence_setup
        result = simulate_sequence(
            scene, traces, workload.design_config(Design.BASELINE)
        )
        total = result.total_external_texture_bytes
        assert total == pytest.approx(
            sum(frame.traffic.external_texture for frame in result.frames)
        )
        assert all(
            frame.traffic.external_texture >= 0 for frame in result.frames
        )

    def test_atfim_beats_baseline_over_sequence(self, sequence_setup):
        workload, scene, traces = sequence_setup
        baseline = simulate_sequence(
            scene, traces, workload.design_config(Design.BASELINE)
        )
        atfim = simulate_sequence(
            scene, traces, workload.design_config(Design.A_TFIM)
        )
        assert atfim.speedup_over(baseline) > 1.0

    def test_camera_motion_causes_angle_recalcs(self, sequence_setup):
        """Section V-C's scenario: the same parent texels revisited from
        new camera angles across frames force recalculation."""
        workload, scene, traces = sequence_setup
        moving = simulate_sequence(
            scene, traces, workload.design_config(Design.A_TFIM)
        )
        # The path accumulates across the last frame only (counters reset
        # between frames), so inspect total offloads via traffic instead:
        # a moving camera must refetch something in later frames.
        later_traffic = sum(
            frame.traffic.external_texture for frame in moving.frames[1:]
        )
        assert later_traffic > 0

    def test_mean_texture_latency(self, sequence_setup):
        workload, scene, traces = sequence_setup
        result = simulate_sequence(
            scene, traces, workload.design_config(Design.B_PIM)
        )
        assert all(frame.texture_filter_latency > 0
                   for frame in result.frames)

    def test_empty_sequence_rejected(self, sequence_setup):
        workload, scene, _ = sequence_setup
        with pytest.raises(ValueError):
            simulate_sequence(scene, [], workload.design_config(Design.BASELINE))
