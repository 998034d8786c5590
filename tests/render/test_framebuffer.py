"""Tests for the z-buffered framebuffer."""

import numpy as np
import pytest

from repro.render.framebuffer import Framebuffer


class TestFramebuffer:
    def test_initial_state(self):
        framebuffer = Framebuffer(4, 3)
        assert framebuffer.num_pixels == 12
        assert np.all(framebuffer.color == 0.0)
        assert np.all(np.isinf(framebuffer.depth))

    def test_depth_test_closer_passes(self):
        framebuffer = Framebuffer(4, 4)
        assert framebuffer.depth_test(0, 0, 5.0)
        framebuffer.depth[0, 0] = 5.0
        assert framebuffer.depth_test(0, 0, 3.0)
        assert not framebuffer.depth_test(0, 0, 7.0)

    def test_equal_depth_fails(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.depth[0, 0] = 5.0
        assert not framebuffer.depth_test(0, 0, 5.0)

    def test_write_colors_keeps_each_pixels_last_fragment(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.depth[1, 2] = 3.0
        xs = np.array([2, 0, 2, 3, 2])
        ys = np.array([1, 0, 1, 3, 1])
        colors = np.arange(20, dtype=np.float64).reshape(5, 4)
        framebuffer.write_colors(xs, ys, colors)
        expected = np.zeros((4, 4, 4))
        for x, y, color in zip(xs, ys, colors):
            expected[y, x] = color
        assert np.array_equal(framebuffer.color, expected)
        assert np.array_equal(framebuffer.color[1, 2], colors[4])
        # Depth belongs to early-Z: writing colours leaves it alone.
        assert framebuffer.depth[1, 2] == 3.0
        assert np.isinf(framebuffer.depth[0, 0])

    def test_write_colors_of_no_fragments(self):
        framebuffer = Framebuffer(4, 4)
        empty = np.empty(0, dtype=np.int64)
        framebuffer.write_colors(empty, empty, np.empty((0, 4)))
        assert np.all(framebuffer.color == 0.0)

    def test_clear(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.write_colors(np.array([0]), np.array([0]), np.ones((1, 4)))
        framebuffer.depth[0, 0] = 1.0
        framebuffer.clear()
        assert np.all(framebuffer.color == 0.0)
        assert np.all(np.isinf(framebuffer.depth))

    def test_rgb_image_drops_alpha(self):
        framebuffer = Framebuffer(4, 4)
        assert framebuffer.rgb_image().shape == (4, 4, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 4)
