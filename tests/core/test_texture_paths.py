"""Tests for the four designs' texture paths (unit level).

The integration-level orderings live in tests/test_integration.py; here
each path's mechanics are exercised on hand-built requests, each served
through the path's production replay session.
"""

import math

import pytest

from repro.core.atfim import AtfimPath
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, RequestExpander
from repro.core.stfim import StfimPath
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.render.scene import Scene
from repro.texture.lod import compute_footprint
from repro.texture.requests import TextureRequest
from repro.workloads.textures import ProceduralTextureLibrary


@pytest.fixture(scope="module")
def scene():
    scene = Scene()
    scene.add_texture(ProceduralTextureLibrary().create("checker", 64, seed=1))
    return scene


def expand(scene, u=20.0, v=20.0, probes=4, lod=1.5, angle=0.4):
    minor = 2.0 ** lod
    footprint = compute_footprint(minor * probes, 0.0, 0.0, minor)
    request = TextureRequest(
        pixel_x=0, pixel_y=0, texture_id=0, u=u, v=v,
        footprint=footprint, camera_angle=angle,
    )
    return RequestExpander(scene).expand(request)


def serve(path, cluster, issue, expanded):
    """Serve one request as the replay scheduler does: open a session on
    a one-request frame, serve it, flush the session's counters."""
    session = path.begin_replay(ExpandedFrame.from_requests([expanded]))
    completion = session.serve_one(cluster, issue, 0)
    session.finish()
    return completion


class TestBaselinePath:
    def test_wrong_design_rejected(self):
        with pytest.raises(ValueError):
            GpuFilteringPath(DesignConfig(design=Design.S_TFIM), TrafficMeter())

    def test_serve_advances_time(self, scene):
        traffic = TrafficMeter()
        path = GpuFilteringPath(DesignConfig(design=Design.BASELINE), traffic)
        completion = serve(path, 0, 10.0, expand(scene))
        assert completion > 10.0

    def test_activity_counts_texels(self, scene):
        traffic = TrafficMeter()
        path = GpuFilteringPath(DesignConfig(design=Design.BASELINE), traffic)
        expanded = expand(scene)
        serve(path, 0, 0.0, expanded)
        activity = path.activity()
        assert activity.gpu_texture.address_ops == expanded.num_conventional_texels
        assert activity.gpu_texture.filter_ops == expanded.num_conventional_texels
        assert activity.gpu_texture.requests == 1
        assert activity.memory_texture.address_ops == 0

    def test_traffic_only_on_misses(self, scene):
        traffic = TrafficMeter()
        path = GpuFilteringPath(DesignConfig(design=Design.BASELINE), traffic)
        expanded = expand(scene)
        serve(path, 0, 0.0, expanded)
        first = traffic.external_texture
        assert first > 0
        serve(path, 0, 100.0, expanded)
        assert traffic.external_texture == first

    def test_bpim_uses_hmc(self, scene):
        traffic = TrafficMeter()
        path = GpuFilteringPath(DesignConfig(design=Design.B_PIM), traffic)
        serve(path, 0, 0.0, expand(scene))
        assert path.hmc is not None
        assert path.hmc.external_reads > 0

    def test_reset_for_measurement(self, scene):
        traffic = TrafficMeter()
        path = GpuFilteringPath(DesignConfig(design=Design.BASELINE), traffic)
        expanded = expand(scene)
        serve(path, 0, 0.0, expanded)
        path.reset_for_measurement()
        assert path.activity().gpu_texture.address_ops == 0
        # Cache contents survive: the re-served request misses nowhere.
        traffic.reset()
        serve(path, 0, 0.0, expanded)
        assert traffic.external_texture == 0.0


class TestStfimPath:
    def test_every_request_pays_packages(self, scene):
        traffic = TrafficMeter()
        config = DesignConfig(design=Design.S_TFIM)
        path = StfimPath(config, traffic)
        expanded = expand(scene)
        serve(path, 0, 0.0, expanded)
        per_request = traffic.external_texture
        serve(path, 0, 100.0, expanded)
        # No caches: the second identical request pays the same again.
        assert traffic.external_texture == pytest.approx(2 * per_request)
        expected = (
            config.packets.texture_request_bytes
            + config.packets.texture_response_bytes(1)
        )
        assert per_request == pytest.approx(expected)

    def test_internal_reads_happen(self, scene):
        traffic = TrafficMeter()
        path = StfimPath(DesignConfig(design=Design.S_TFIM), traffic)
        serve(path, 0, 0.0, expand(scene))
        assert path.hmc.internal_reads > 0
        assert traffic.internal_total > 0

    def test_merge_window_coalesces_repeats(self, scene):
        traffic = TrafficMeter()
        path = StfimPath(DesignConfig(design=Design.S_TFIM), traffic)
        expanded = expand(scene)
        serve(path, 0, 0.0, expanded)
        reads_first = path.hmc.internal_reads
        serve(path, 0, 1.0, expanded)
        # Identical request right behind: all its lines merge.
        assert path.hmc.internal_reads == reads_first
        assert path.merge_windows[0].merged > 0

    def test_mtu_sharing_routes_clusters(self, scene):
        traffic = TrafficMeter()
        path = StfimPath(
            DesignConfig(design=Design.S_TFIM, mtu_share=4), traffic
        )
        assert len(path.mtus) == 4
        serve(path, 0, 0.0, expand(scene))
        serve(path, 3, 0.0, expand(scene))
        assert path.mtus[0].activity.requests == 2

    def test_activity_is_memory_side(self, scene):
        traffic = TrafficMeter()
        path = StfimPath(DesignConfig(design=Design.S_TFIM), traffic)
        serve(path, 0, 0.0, expand(scene))
        activity = path.activity()
        assert activity.memory_texture.address_ops > 0
        assert activity.gpu_texture.address_ops == 0

    def test_wrong_design_rejected(self):
        with pytest.raises(ValueError):
            StfimPath(DesignConfig(design=Design.BASELINE), TrafficMeter())


class TestAtfimPath:
    def make_path(self, threshold=0.01 * math.pi, **overrides):
        traffic = TrafficMeter()
        config = DesignConfig(
            design=Design.A_TFIM, angle_threshold=threshold, **overrides
        )
        return AtfimPath(config, traffic), traffic

    def test_cold_miss_offloads_package(self, scene):
        path, traffic = self.make_path()
        serve(path, 0, 0.0, expand(scene))
        assert path.offload_packages == 1
        assert path.parent_cold_misses > 0
        assert traffic.external_texture > 0

    def test_warm_same_angle_reuses_without_offload(self, scene):
        path, traffic = self.make_path()
        expanded = expand(scene, angle=0.4)
        serve(path, 0, 0.0, expanded)
        packages_before = path.offload_packages
        serve(path, 0, 100.0, expanded)
        assert path.offload_packages == packages_before
        assert path.parent_reuses > 0

    def test_angle_change_forces_recalculation(self, scene):
        path, traffic = self.make_path()
        serve(path, 0, 0.0, expand(scene, angle=0.1))
        packages_before = path.offload_packages
        serve(path, 0, 100.0, expand(scene, angle=1.2))
        assert path.offload_packages > packages_before
        assert path.parent_recalculations > 0

    def test_looser_threshold_fewer_recalcs(self, scene):
        def recalcs(threshold):
            path, _ = self.make_path(threshold=threshold)
            for index, angle in enumerate(
                [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
            ):
                serve(path, 0, index * 100.0, expand(scene, angle=angle))
            return path.parent_recalculations

        assert recalcs(math.pi) <= recalcs(0.01 * math.pi)

    def test_isotropic_parents_skip_angle_check(self, scene):
        path, _ = self.make_path()
        expanded = expand(scene, probes=1, lod=0.0, angle=0.1)
        serve(path, 0, 0.0, expanded)
        serve(path, 0, 100.0, expand(scene, probes=1, lod=0.0, angle=1.4))
        # Isotropic fetches carry no angle tag: no recalculations.
        assert path.parent_recalculations == 0

    def test_children_fetched_internally(self, scene):
        path, traffic = self.make_path()
        serve(path, 0, 0.0, expand(scene, probes=8))
        assert path.child_texels_generated > 0
        assert traffic.internal_total > 0
        assert path.hmc.internal_reads > 0

    def test_consolidation_reduces_child_lines(self, scene):
        on_path, _ = self.make_path(consolidation_enabled=True)
        off_path, _ = self.make_path(consolidation_enabled=False)
        expanded = expand(scene, probes=8, lod=2.0)
        serve(on_path, 0, 0.0, expanded)
        serve(off_path, 0, 0.0, expanded)
        assert on_path.child_lines_fetched <= off_path.child_lines_fetched

    def test_recalculation_rate(self, scene):
        path, _ = self.make_path()
        assert path.recalculation_rate() == 0.0
        serve(path, 0, 0.0, expand(scene, angle=0.1))
        serve(path, 0, 100.0, expand(scene, angle=1.2))
        assert 0.0 < path.recalculation_rate() < 1.0

    def test_gpu_side_work_is_parent_sized(self, scene):
        path, _ = self.make_path()
        expanded = expand(scene, probes=8)
        serve(path, 0, 0.0, expanded)
        activity = path.activity()
        assert activity.gpu_texture.address_ops == expanded.num_parent_texels
        # Parents sharing a cache line are covered by one fill, so the
        # in-memory expansion covers at most every parent's children.
        assert 0 < activity.memory_texture.address_ops <= (
            expanded.total_child_texels
        )

    def test_wrong_design_rejected(self):
        with pytest.raises(ValueError):
            AtfimPath(DesignConfig(design=Design.BASELINE), TrafficMeter())
