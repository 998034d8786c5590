"""Tests for the texel format: one RGBA texel of four 8-bit components."""

import numpy as np

from repro.texture.address import LINE_BYTES, TILE
from repro.texture.texture import TEXEL_BYTES, Texture


class TestTexelFormat:
    def test_rgba8(self):
        assert TEXEL_BYTES == 4
        texture = Texture(texture_id=0, data=np.zeros((8, 16, 4)))
        assert texture.size_bytes == 8 * 16 * 4

    def test_texels_per_line(self):
        assert LINE_BYTES // TEXEL_BYTES == TILE * TILE == 16
