"""Tests for the Texture object."""

import numpy as np
import pytest

from repro.texture.texture import Texture


def make_data(height=8, width=8):
    rng = np.random.default_rng(1)
    return rng.random((height, width, 4))


class TestTexture:
    def test_dimensions(self):
        texture = Texture(texture_id=0, data=make_data(16, 32))
        assert texture.width == 32
        assert texture.height == 16

    def test_size_bytes(self):
        texture = Texture(texture_id=0, data=make_data(8, 8))
        assert texture.size_bytes == 8 * 8 * 4

    def test_wrap_addressing(self):
        texture = Texture(texture_id=0, data=make_data())
        assert np.array_equal(texture.texel(8, 8), texture.texel(0, 0))
        assert np.array_equal(texture.texel(-1, -1), texture.texel(7, 7))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            Texture(texture_id=0, data=make_data(7, 8))

    def test_wrong_channel_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Texture(texture_id=0, data=rng.random((8, 8, 3)))

    def test_out_of_range_values_rejected(self):
        data = make_data()
        data[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            Texture(texture_id=0, data=data)

    def test_nan_values_rejected(self):
        data = make_data()
        data[3, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Texture(texture_id=0, data=data)
