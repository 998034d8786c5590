"""Tests for whole-frame rendering under the sampling modes."""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.angle import THRESHOLD_SWEEP
from repro.quality import psnr
from repro.render.raster import Rasterizer
from repro.render.renderer import Renderer, SamplingMode
from repro.render.scene import TexturedTriangle
from repro.workloads import workload_by_name
from tests.conftest import make_tiny_scene


@pytest.fixture(scope="module")
def tiny():
    return make_tiny_scene()


@pytest.fixture(scope="module")
def renderer():
    return Renderer(width=32, height=24, tile_size=4, max_anisotropy=8)


@pytest.fixture(scope="module")
def exact_image(tiny, renderer):
    scene, camera = tiny
    return renderer.render(scene, camera, SamplingMode.EXACT).image


class TestRenderModes:
    def test_exact_produces_nonempty_image(self, exact_image):
        assert exact_image.shape == (24, 32, 3)
        assert exact_image.max() > 0.0

    def test_reordered_matches_exact_to_rounding(self, tiny, renderer,
                                                 exact_image):
        # The architectural claim of section V-B, at frame granularity.
        # The orders round differently (300 of these 768 pixels differ,
        # by at most 3.3e-16), so the frames are close, not bitwise equal.
        scene, camera = tiny
        reordered = renderer.render(scene, camera, SamplingMode.REORDERED).image
        np.testing.assert_allclose(reordered, exact_image, atol=1e-12)

    def test_isotropic_differs_on_anisotropic_scene(self, tiny, renderer,
                                                    exact_image):
        scene, camera = tiny
        isotropic = renderer.render(scene, camera, SamplingMode.ISOTROPIC).image
        assert not np.allclose(isotropic, exact_image)

    def test_atfim_quality_monotone_in_threshold(self, tiny, renderer,
                                                 exact_image):
        scene, camera = tiny
        strict = renderer.render(
            scene, camera, SamplingMode.ATFIM, angle_threshold=0.0
        ).image
        loose = renderer.render(
            scene, camera, SamplingMode.ATFIM, angle_threshold=10.0
        ).image
        assert psnr(exact_image, strict) >= psnr(exact_image, loose)

    def test_atfim_threshold_sweep_strictly_monotone(self, tiny, renderer,
                                                     exact_image):
        # The paper's Fig. 15 shape: quality falls as the threshold
        # loosens, and stays a usable approximation throughout.
        scene, camera = tiny
        values = []
        for threshold in (0.0, 0.05, 10.0):
            image = renderer.render(
                scene, camera, SamplingMode.ATFIM, angle_threshold=threshold
            ).image
            values.append(psnr(exact_image, image))
        assert values[0] > values[1] > values[2]
        assert all(10.0 < value < 99.0 for value in values)

    def test_atfim_counts_reuse_and_recalc(self, tiny, renderer):
        scene, camera = tiny
        output = renderer.render(
            scene, camera, SamplingMode.ATFIM, angle_threshold=0.05
        )
        assert output.parent_recalculations > 0
        assert output.parent_reuses > 0

    def test_trace_only_matches_render_request_count(self, tiny, renderer):
        scene, camera = tiny
        traced = renderer.trace_only(scene, camera)
        rendered = renderer.render(scene, camera, SamplingMode.EXACT)
        assert traced.trace.num_fragments == rendered.trace.num_fragments

    def test_trace_carries_tile_size(self, tiny, renderer):
        scene, camera = tiny
        assert renderer.trace_only(scene, camera).trace.tile_size == 4

    def test_deterministic(self, tiny, renderer, exact_image):
        scene, camera = tiny
        again = renderer.render(scene, camera, SamplingMode.EXACT).image
        np.testing.assert_array_equal(again, exact_image)


FIG15_RENDERS = [(SamplingMode.EXACT, 0.0)] + [
    (SamplingMode.ATFIM, threshold.effective_radians)
    for threshold in THRESHOLD_SWEEP
]
"""Fig. 15's renders of one view: exact, then A-TFIM per threshold."""


@pytest.fixture
def rasterizations(monkeypatch):
    """The number of ``Rasterizer.rasterize_scene`` calls, as a list."""
    calls = []
    original = Rasterizer.rasterize_scene

    def counting(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Rasterizer, "rasterize_scene", counting)
    return calls


def tiny_renderer():
    return Renderer(width=32, height=24, tile_size=4, max_anisotropy=8)


def assert_traces_equal(trace, expected):
    for owner, other in ((trace, expected),
                         (trace.footprint, expected.footprint)):
        for column in dataclasses.fields(owner):
            value, wanted = (getattr(owner, column.name),
                             getattr(other, column.name))
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, wanted), column.name
            elif column.name != "footprint":
                assert value == wanted, column.name


def assert_outputs_equal(output, expected):
    assert np.array_equal(output.image, expected.image)
    assert np.array_equal(output.framebuffer.depth, expected.framebuffer.depth)
    assert_traces_equal(output.trace, expected.trace)
    assert output.raster_stats == expected.raster_stats
    assert output.parent_reuses == expected.parent_reuses
    assert output.parent_recalculations == expected.parent_recalculations


def spans_named(name):
    found = []
    pending = list(obs.get_tracer().roots)
    while pending:
        span = pending.pop(0)
        if span.name == name:
            found.append(span)
        pending[:0] = span.children
    return found


class TestViewMemo:
    def test_fig15_sequence_rasterizes_once(self, rasterizations):
        workload = workload_by_name("doom3-640x480")
        built = workload.build()
        renderer = workload.make_renderer()
        outputs = [
            renderer.render(built.scene, built.camera, mode, threshold)
            for mode, threshold in FIG15_RENDERS
        ]
        assert len(rasterizations) == 1
        for (mode, threshold), output in zip(FIG15_RENDERS, outputs):
            fresh = workload.make_renderer().render(
                built.scene, built.camera, mode, threshold
            )
            assert_outputs_equal(output, fresh)

    def test_camera_changed_in_place_rasterizes_again(self, rasterizations):
        scene, camera = make_tiny_scene()
        renderer = tiny_renderer()

        def render_changed(previous):
            calls = len(rasterizations)
            output = renderer.render(scene, camera, SamplingMode.EXACT)
            assert len(rasterizations) == calls + 1
            assert not np.array_equal(output.image, previous.image)
            fresh = tiny_renderer().render(scene, camera, SamplingMode.EXACT)
            assert_outputs_equal(output, fresh)
            return output

        output = renderer.render(scene, camera, SamplingMode.EXACT)
        camera.position[0] = 0.75  # an array edited in place
        output = render_changed(output)
        camera.fov_y *= 0.9  # a field reassigned
        render_changed(output)

    def test_appended_triangle_rasterizes_again(self, rasterizations):
        scene, camera = make_tiny_scene()
        renderer = tiny_renderer()
        before = renderer.render(scene, camera, SamplingMode.EXACT)
        scene.add_triangle(TexturedTriangle(
            vertices=np.array(
                [[-2.0, 0.5, -6.0], [2.0, 0.5, -6.0], [0.0, 3.0, -6.0]]
            ),
            uvs=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
            texture_id=scene.triangles[-1].texture_id,
        ))
        after = renderer.render(scene, camera, SamplingMode.EXACT)
        assert len(rasterizations) == 2
        assert after.raster_stats.triangles_submitted == (
            before.raster_stats.triangles_submitted + 1
        )
        assert_outputs_equal(
            after, tiny_renderer().render(scene, camera, SamplingMode.EXACT)
        )

    def test_outputs_do_not_share_framebuffers(self, rasterizations):
        scene, camera = make_tiny_scene()
        renderer = tiny_renderer()
        earlier = [
            renderer.render(scene, camera, SamplingMode.EXACT),  # rasterizes
            renderer.render(scene, camera, SamplingMode.ATFIM, 0.05),  # reuses
        ]
        for output in earlier:
            output.framebuffer.depth.fill(0.0)
            output.framebuffer.color.fill(1.0)
            output.raster_stats.fragments_generated = -1
        latest = renderer.render(scene, camera, SamplingMode.ATFIM, 0.05)
        assert len(rasterizations) == 1
        assert_outputs_equal(
            latest,
            tiny_renderer().render(scene, camera, SamplingMode.ATFIM, 0.05),
        )

    def test_trace_only_then_render_rasterizes_once(self, rasterizations):
        scene, camera = make_tiny_scene()
        renderer = tiny_renderer()
        traced = renderer.trace_only(scene, camera)
        rendered = renderer.render(scene, camera, SamplingMode.EXACT)
        assert len(rasterizations) == 1
        assert rendered.trace is traced.trace
        assert not traced.image.any()
        assert_outputs_equal(
            rendered, tiny_renderer().render(scene, camera, SamplingMode.EXACT)
        )

    def test_rasterize_span_records_reuse(self, tracing_on):
        scene, camera = make_tiny_scene()
        renderer = tiny_renderer()
        renderer.render(scene, camera, SamplingMode.EXACT)
        renderer.render(scene, camera, SamplingMode.ATFIM, 0.05)
        camera.target[1] += 0.5
        renderer.render(scene, camera, SamplingMode.EXACT)
        renderer.trace_only(scene, camera)
        assert [span.attributes["reused"]
                for span in spans_named("render.rasterize")] == [
            False, True, False]
        assert [span.attributes["reused"]
                for span in spans_named("render.trace_only")] == [True]
