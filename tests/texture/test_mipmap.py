"""Tests for mipmap chain construction."""

import numpy as np
import pytest

from repro.texture.mipmap import build_mipmaps, downsample_box
from repro.texture.texture import Texture


def make_texture(height=16, width=16, texture_id=0):
    rng = np.random.default_rng(2)
    return Texture(texture_id=texture_id, data=rng.random((height, width, 4)))


class TestDownsampleBox:
    def test_halves_dimensions(self):
        image = np.ones((8, 8, 4))
        assert downsample_box(image).shape == (4, 4, 4)

    def test_preserves_mean(self):
        rng = np.random.default_rng(3)
        image = rng.random((16, 16, 4))
        down = downsample_box(image)
        assert np.mean(down) == pytest.approx(np.mean(image))

    def test_box_average_exact(self):
        image = np.zeros((2, 2, 4))
        image[0, 0] = 1.0
        down = downsample_box(image)
        assert down[0, 0, 0] == pytest.approx(0.25)

    def test_one_dimensional_strip(self):
        image = np.ones((1, 8, 4))
        down = downsample_box(image)
        assert down.shape == (1, 4, 4)

    def test_cannot_downsample_1x1(self):
        with pytest.raises(ValueError):
            downsample_box(np.ones((1, 1, 4)))


class TestBuildMipmaps:
    def test_chain_length(self):
        chain = build_mipmaps(make_texture(16, 16))
        # 16 -> 8 -> 4 -> 2 -> 1: five levels.
        assert chain.num_levels == 5
        assert chain.max_level == 4

    def test_level_zero_is_original(self):
        texture = make_texture()
        chain = build_mipmaps(texture)
        assert chain.level(0).data is texture.data

    def test_last_level_is_1x1(self):
        chain = build_mipmaps(make_texture(16, 16))
        last = chain.levels[-1]
        assert last.width == 1 and last.height == 1

    def test_level_clamping(self):
        chain = build_mipmaps(make_texture())
        assert chain.level(-5).level == 0
        assert chain.level(99).level == chain.max_level

    def test_byte_offsets_monotone_and_disjoint(self):
        chain = build_mipmaps(make_texture(16, 16))
        for earlier, later in zip(chain.levels, chain.levels[1:]):
            size = earlier.width * earlier.height * 4
            assert later.byte_offset == earlier.byte_offset + size

    def test_total_bytes_is_geometric_sum(self):
        chain = build_mipmaps(make_texture(16, 16))
        expected = sum(
            level.width * level.height * 4 for level in chain.levels
        )
        assert chain.total_bytes == expected

    def test_non_square(self):
        chain = build_mipmaps(make_texture(4, 16))
        shapes = [(lvl.height, lvl.width) for lvl in chain.levels]
        assert shapes[0] == (4, 16)
        assert shapes[-1] == (1, 1)

    def test_each_level_preserves_mean(self):
        chain = build_mipmaps(make_texture(32, 32))
        mean0 = float(np.mean(chain.level(0).data))
        for level in chain.levels:
            assert float(np.mean(level.data)) == pytest.approx(mean0)
