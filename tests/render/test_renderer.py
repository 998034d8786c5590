"""Tests for whole-frame rendering under the sampling modes."""

import numpy as np
import pytest

from repro.quality import psnr
from repro.render.renderer import Renderer, SamplingMode
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
