"""Tests for the four designs' texture paths (unit level).

The integration-level orderings live in tests/test_integration.py; here
each path's mechanics are exercised on hand-built requests, each served
through the path's production replay session.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.atfim import AtfimPath, _AtfimColumns
from repro.core.baseline import GpuFilteringPath
from repro.core.designs import Design, DesignConfig
from repro.core.expansion import (
    ExpandedFrame,
    ExpandedRequest,
    ParentTexel,
    RequestExpander,
)
from repro.core.stfim import StfimPath
from repro.gpu.config import GPUConfig
from repro.memory.traffic import TrafficClass, TrafficMeter
from repro.render.scene import Scene
from repro.texture.cache import CacheConfig
from repro.texture.lod import compute_footprint
from repro.texture.requests import TextureRequest
from repro.workloads.textures import ProceduralTextureLibrary
from tests import reference


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
    session = path.begin_replay(ExpandedFrame.from_requests([expanded]),
                                np.array([cluster]))
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


SMALL_GPU = GPUConfig(
    l1_cache=CacheConfig(size_bytes=1024, associativity=4),
    l2_cache=CacheConfig(size_bytes=4096, associativity=8),
)
"""Four 4-way L1 sets: line address ``a`` sits in set ``(a // 64) % 4``."""
X, Y, Z = 0, 256, 64
"""X and Y share L1 set 0; Z sits in set 1."""
A, B, C = 512, 768, 1024
"""Three more lines of set 0."""


def hand_frame(*requests, probes=4):
    """An ``ExpandedFrame`` of ``(camera angle, parent lines)`` requests,
    every parent with ``probes`` children on one line of its own."""
    return ExpandedFrame.from_requests([
        ExpandedRequest(
            camera_angle=angle, conventional_lines=(),
            num_conventional_texels=0,
            parents=tuple(ParentTexel(line, (line + 65536,), probes)
                          for line in lines),
            num_parent_texels=len(lines),
        )
        for angle, lines in requests
    ])


class TestRepeatedProbes:
    """A parent row whose previous probe of the same L1 set, in the same
    request, was the same line hits and changes nothing, so the A-TFIM
    columns drop it and the session counts it as an L1 hit and a reuse.
    Each case is held to the reference, request by request."""

    config = DesignConfig(design=Design.A_TFIM, gpu=SMALL_GPU,
                          angle_threshold=0.01 * math.pi)

    def kept(self, frame):
        columns = _AtfimColumns(self.config, frame)
        return columns.rows, columns.repeats

    def replayed(self, frame, production):
        """Serve every request on cluster 0, 100 cycles apart, through
        the production session or the reference; observe the path."""
        path = AtfimPath(self.config, TrafficMeter())
        session = (path.begin_replay(frame, np.zeros(len(frame), dtype=int))
                   if production else None)
        for index in range(len(frame)):
            if production:
                session.serve_one(0, index * 100.0, index)
            else:
                reference.serve(path, 0, index * 100.0, frame[index])
        if production:
            session.finish()
        return (dict(path.stat_group().flatten()),
                [{index: [(tag, line.angle) for tag, line in lines.items()]
                  for index, lines in cache._sets.items() if lines}
                 for cache in path.caches.l1 + [path.caches.l2]])

    @pytest.mark.parametrize("requests, rows, repeats", [
        pytest.param([(0.4, [X, Y, X])], [0, 1, 2], [0],
                     id="same-set-probe-between"),
        pytest.param([(0.4, [X, Z, X])], [0, 1], [1],
                     id="other-set-probe-between"),
        pytest.param([(0.4, [X, X, X, Y, X])], [0, 3, 4], [2],
                     id="runs"),
        pytest.param([(0.1, [X]), (1.2, [X])], [0, 1], [0, 0],
                     id="across-requests"),
    ])
    def test_dropped_rows(self, requests, rows, repeats):
        frame = hand_frame(*requests)
        assert self.kept(frame) == (rows, repeats)
        assert self.replayed(frame, True) == self.replayed(frame, False)

    def test_an_intervening_probe_keeps_the_lru_order(self):
        """X, Y, X leaves X the newer of the two, so the set's fifth
        line evicts Y and X still hits after it."""
        frame = hand_frame((0.4, [X, Y, X]), (0.4, [A, B]), (0.4, [C]),
                           (0.4, [X]))
        assert self.kept(frame)[1] == [0, 0, 0, 0]
        production = self.replayed(frame, True)
        assert production == self.replayed(frame, False)
        assert production[0]["path.caches.l1_misses"] == 5

    def test_a_line_repeated_across_requests_is_compared_again(self):
        frame = hand_frame((0.1, [X]), (1.2, [X]))
        production = self.replayed(frame, True)
        assert production == self.replayed(frame, False)
        assert production[0]["path.atfim_stages.parent_recalculations"] == 1

    def test_isotropic_requests_carry_no_angle_tag(self):
        frame = hand_frame((0.4, [X, Z, X]), probes=1)
        columns = _AtfimColumns(self.config, frame)
        assert (columns.l1_angle, columns.l2_angle) == ([None], [None])
        assert columns.repeats == [1]
        assert self.replayed(frame, True) == self.replayed(frame, False)

    def test_a_request_mixing_tagged_and_untagged_parents_is_refused(self):
        frame = hand_frame((0.4, [X, Z]))
        mixed = dataclasses.replace(
            frame, child_counts=np.array([4, 1], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="angle tag"):
            _AtfimColumns(self.config, mixed)


class TestThresholdInterval:
    """Each angle comparison narrows the path's threshold interval, over
    every replay since the path was built: the thresholds inside it
    repeat every counter, and the ones just outside do not."""

    step = (math.pi / 2) / 127
    """One step of a 7-bit angle tag."""

    def replays(self, frame, threshold, passes):
        """Replay ``frame`` ``passes`` times on one path, as
        ``simulate_frame``'s cold and warm replays do; return the path's
        interval and each replay's stat group."""
        config = DesignConfig(design=Design.A_TFIM, gpu=SMALL_GPU,
                              angle_threshold=threshold)
        path = AtfimPath(config, TrafficMeter())
        observed = []
        for index in range(passes):
            if index:
                path.reset_for_measurement()
            session = path.begin_replay(frame,
                                        np.zeros(len(frame), dtype=int))
            for request in range(len(frame)):
                session.serve_one(0, request * 100.0, request)
            session.finish()
            observed.append(dict(path.stat_group().flatten()))
        return path.threshold_interval, observed

    def test_paths_without_angle_tags_admit_every_threshold(self, scene):
        path = GpuFilteringPath(DesignConfig(design=Design.BASELINE),
                                TrafficMeter())
        serve(path, 0, 0.0, expand(scene))
        assert path.threshold_interval == (0.0, math.inf)

    def test_the_interval_spans_the_warm_replay_and_the_cold_one(self):
        """Tags 1, 3 and 0 steps on one line, at 1.5 steps: the cold
        replay compares 2 and 3 steps (both over), the warm one, from
        the tag 0 the cold one left, 1 step (within) and 3 steps.  So
        the warm replay sets the lower end and the cold one the upper."""
        step = self.step
        frame = hand_frame((step, [X]), (3 * step, [X]), (0.0, [X]))
        threshold = 1.5 * step
        cold, _ = self.replays(frame, threshold, passes=1)
        both, expected = self.replays(frame, threshold, passes=2)
        assert cold[0] < both[0] <= threshold < both[1] == cold[1]
        for inside in (both[0], math.nextafter(both[1], 0.0)):
            assert self.replays(frame, inside, passes=2)[1] == expected
        for outside in (math.nextafter(both[0], 0.0), both[1]):
            assert self.replays(frame, outside, passes=2)[1] != expected
