"""Tests for texel address mapping."""

import numpy as np
import pytest

from repro.texture.address import LINE_BYTES, TEXTURE_STRIDE, TexelAddressMap
from repro.texture.mipmap import build_mipmaps
from repro.texture.texture import Texture


def make_chain(size=16, texture_id=0):
    rng = np.random.default_rng(4)
    return build_mipmaps(
        Texture(texture_id=texture_id, data=rng.random((size, size, 4)))
    )


class TestTexelAddressMap:
    def test_addresses_unique_within_level(self):
        chain = make_chain(16)
        address_map = TexelAddressMap()
        addresses = {
            address_map.texel_address(chain, 0, x, y)
            for x in range(16)
            for y in range(16)
        }
        assert len(addresses) == 256

    def test_levels_do_not_overlap(self):
        chain = make_chain(16)
        address_map = TexelAddressMap()
        level0 = {
            address_map.texel_address(chain, 0, x, y)
            for x in range(16)
            for y in range(16)
        }
        level1 = {
            address_map.texel_address(chain, 1, x, y)
            for x in range(8)
            for y in range(8)
        }
        assert not (level0 & level1)

    def test_distinct_textures_distinct_regions(self):
        map_ = TexelAddressMap()
        chain_a = make_chain(16, texture_id=0)
        chain_b = make_chain(16, texture_id=1)
        a = map_.texel_address(chain_a, 0, 0, 0)
        b = map_.texel_address(chain_b, 0, 0, 0)
        assert abs(a - b) >= TEXTURE_STRIDE

    def test_tiled_4x4_block_shares_line(self):
        # A 4x4 tile of 4-byte texels is 64 bytes: exactly one line.
        chain = make_chain(16)
        address_map = TexelAddressMap()
        lines = {
            address_map.texel_line(chain, 0, x, y)
            for x in range(4)
            for y in range(4)
        }
        assert len(lines) == 1

    def test_wrap_addressing(self):
        chain = make_chain(16)
        address_map = TexelAddressMap()
        assert address_map.texel_address(chain, 0, 16, 16) == (
            address_map.texel_address(chain, 0, 0, 0)
        )
        assert address_map.texel_address(chain, 0, -1, 0) == (
            address_map.texel_address(chain, 0, 15, 0)
        )

    def test_line_alignment(self):
        chain = make_chain(16)
        address_map = TexelAddressMap()
        line = address_map.texel_line(chain, 0, 5, 7)
        assert line % LINE_BYTES == 0

    def test_narrow_texture_degenerates_to_row_major(self):
        chain = make_chain(16)
        # Level 3 is 2x2, narrower than the 4-texel tile.
        addresses = set()
        address_map = TexelAddressMap()
        for x in range(2):
            for y in range(2):
                addresses.add(address_map.texel_address(chain, 3, x, y))
        assert len(addresses) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            TexelAddressMap().texture_region(-1)

    @pytest.mark.parametrize("height, width", [(16, 16), (4, 32), (32, 2)])
    def test_texel_lines_match_the_scalar_map(self, height, width):
        """The array form wraps and tiles with shifts and masks; every
        level, including those narrower than a tile, and negative and
        far-out coordinates give the scalar method's line."""
        rng = np.random.default_rng(7)
        chain = build_mipmaps(Texture(
            texture_id=3, data=rng.random((height, width, 4))
        ))
        address_map = TexelAddressMap()
        levels = rng.integers(-1, chain.num_levels + 1, size=400)
        xs = rng.integers(-3 * width, 3 * width, size=400)
        ys = rng.integers(-3 * height, 3 * height, size=400)
        lines = address_map.texel_lines(chain, levels, xs, ys)
        assert lines.tolist() == [
            address_map.texel_line(chain, level, x, y)
            for level, x, y in zip(levels.tolist(), xs.tolist(), ys.tolist())
        ]
