"""Tests for texel formats."""

import pytest

from repro.texture.formats import RGBA8, TexelFormat


class TestTexelFormat:
    def test_rgba8(self):
        assert RGBA8.bytes_per_texel == 4
        assert RGBA8.components == 4

    def test_texels_per_line(self):
        assert RGBA8.texels_per_line(64) == 16

    def test_line_smaller_than_texel_rejected(self):
        fmt = TexelFormat(name="fat", bytes_per_texel=128)
        with pytest.raises(ValueError):
            fmt.texels_per_line(64)

    def test_validation(self):
        with pytest.raises(ValueError):
            TexelFormat(name="bad", bytes_per_texel=0)
        with pytest.raises(ValueError):
            TexelFormat(name="bad", bytes_per_texel=4, components=0)
