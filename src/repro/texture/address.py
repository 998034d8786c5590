"""Texel coordinate -> byte address mapping, and the one cache-line
geometry.

The cycle model needs realistic addresses so caches and DRAM banks see
realistic locality.  Real GPUs store textures in a *tiled* (blocked)
layout so that 2D-local texel neighbourhoods map into the same cache
line.  The map stores :data:`~repro.texture.texture.TEXEL_BYTES`-byte
texels in :data:`TILE` x :data:`TILE` tiles, and a cache line is
exactly one tile (:data:`LINE_BYTES`, Table I's 64 bytes): the caches,
the package sizes and the memories all read their line size here.
"""

from __future__ import annotations

import numpy as np

from repro.texture.mipmap import MipmapChain
from repro.texture.texture import TEXEL_BYTES
from repro.units import Bytes

TILE = 4
"""Texels along each side of a tile."""

LINE_BYTES: Bytes = TILE * TILE * TEXEL_BYTES
"""Bytes in a cache line: one tile, so a tile is one line by
construction."""

TEXTURE_BASE = 1 << 28
"""Byte address of texture 0's mip chain."""

TEXTURE_STRIDE = 1 << 24
"""Bytes between consecutive textures' regions, enough for any chain used
with the map: distinct textures then sit in distinct DRAM regions, which
is what matters for bank/vault interleaving."""


class TexelAddressMap:
    """Maps (texture, level, x, y) to a byte address in a tiled layout.

    Each texture occupies a contiguous region starting at
    ``TEXTURE_BASE + texture_id * TEXTURE_STRIDE``; mip levels are laid
    out back to back using the chain's per-level byte offsets.
    """

    def texture_region(self, texture_id: int) -> int:
        """Base byte address of a texture's mip chain."""
        if texture_id < 0:
            raise ValueError("negative texture id")
        return TEXTURE_BASE + texture_id * TEXTURE_STRIDE

    def texel_address(
        self, chain: MipmapChain, level: int, x: int, y: int
    ) -> int:
        """Byte address of texel (x, y) at mip ``level`` (wrapped)."""
        mip = chain.level(level)
        width, height = mip.width, mip.height
        x %= width
        y %= height
        linear = self._tiled_index(x, y, width)
        base = self.texture_region(chain.texture.texture_id)
        return base + mip.byte_offset + linear * TEXEL_BYTES

    def _tiled_index(self, x: int, y: int, width: int) -> int:
        """Index within a tiled layout: tiles in row-major order, texels
        row-major within a tile.  For textures narrower than a tile the
        layout degenerates to row-major."""
        if width < TILE:
            return y * width + x
        tiles_per_row = width // TILE
        tile_x, in_x = divmod(x, TILE)
        tile_y, in_y = divmod(y, TILE)
        tile_index = tile_y * tiles_per_row + tile_x
        return tile_index * TILE * TILE + in_y * TILE + in_x

    def line_address(self, address: int) -> int:
        """Cache-line-aligned address containing ``address``."""
        return (address // LINE_BYTES) * LINE_BYTES

    def texel_line(self, chain: MipmapChain, level: int, x: int, y: int) -> int:
        """Cache line holding texel (x, y) of ``level``."""
        return self.line_address(self.texel_address(chain, level, x, y))

    def texel_lines(
        self,
        chain: MipmapChain,
        levels: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> np.ndarray:
        """:meth:`texel_line` over int64 arrays that broadcast together.

        Integer arithmetic only, so every element equals the scalar
        method's result.  Mip sizes and the tile are powers of two
        (``Texture`` refuses others, and each level halves the last), so
        the wrap ``x % width`` is the mask ``x & (width - 1)`` in two's
        complement, negative coordinates included, and the tile's ``//``
        and ``%`` are shifts and masks.
        """
        mips = chain.levels
        clamped = np.clip(levels, 0, chain.max_level)
        width = np.array([mip.width for mip in mips], dtype=np.int64)[clamped]
        height = np.array([mip.height for mip in mips], dtype=np.int64)[clamped]
        byte_offset = np.array(
            [mip.byte_offset for mip in mips], dtype=np.int64
        )[clamped]
        x = xs & (width - 1)
        y = ys & (height - 1)
        shift = TILE.bit_length() - 1
        tiled = (
            (((y >> shift) * (width >> shift) + (x >> shift)) << (2 * shift))
            + ((y & (TILE - 1)) << shift)
            + (x & (TILE - 1))
        )
        linear = np.where(width < TILE, y * width + x, tiled)
        base = self.texture_region(chain.texture.texture_id)
        address = base + byte_offset + linear * TEXEL_BYTES
        return (address // LINE_BYTES) * LINE_BYTES
