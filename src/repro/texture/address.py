"""Texel coordinate -> byte address mapping.

The cycle model needs realistic addresses so caches and DRAM banks see
realistic locality.  Real GPUs store textures in a *tiled* (blocked)
layout so that 2D-local texel neighbourhoods map into the same cache
line; the map uses 4x4 texel tiles, one 64-byte line for RGBA8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.texture.mipmap import MipmapChain
from repro.units import Bytes


@dataclass(frozen=True)
class TexelAddressMap:
    """Maps (texture, level, x, y) to a byte address in a tiled layout.

    Each texture occupies a contiguous region starting at
    ``texture_base + texture_id * texture_stride``; mip levels are laid
    out back to back using the chain's per-level byte offsets.

    ``texture_stride`` must be large enough to hold any chain used with
    the map; a generous default keeps distinct textures in distinct DRAM
    regions, which is what matters for bank/vault interleaving.
    """

    bytes_per_texel: int = 4
    tile_size: int = 4
    texture_base: int = 1 << 28
    texture_stride: int = 1 << 24

    def __post_init__(self) -> None:
        if self.tile_size <= 0 or (self.tile_size & (self.tile_size - 1)) != 0:
            raise ValueError("tile size must be a positive power of two")
        if self.bytes_per_texel <= 0:
            raise ValueError("bytes per texel must be positive")

    def texture_region(self, texture_id: int) -> int:
        """Base byte address of a texture's mip chain."""
        if texture_id < 0:
            raise ValueError("negative texture id")
        return self.texture_base + texture_id * self.texture_stride

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
        return base + mip.byte_offset + linear * self.bytes_per_texel

    def _tiled_index(self, x: int, y: int, width: int) -> int:
        """Index within a tiled layout: tiles in row-major order, texels
        row-major within a tile.  For textures narrower than a tile the
        layout degenerates to row-major."""
        tile = self.tile_size
        if width < tile:
            return y * width + x
        tiles_per_row = width // tile
        tile_x, in_x = divmod(x, tile)
        tile_y, in_y = divmod(y, tile)
        tile_index = tile_y * tiles_per_row + tile_x
        return tile_index * tile * tile + in_y * tile + in_x

    def line_address(self, address: int, line_bytes: Bytes = 64) -> int:
        """Cache-line-aligned address containing ``address``."""
        if line_bytes <= 0:
            raise ValueError("line size must be positive")
        return (address // line_bytes) * line_bytes

    def texel_line(
        self, chain: MipmapChain, level: int, x: int, y: int, line_bytes: Bytes = 64
    ) -> int:
        """Cache line holding texel (x, y) of ``level``."""
        return self.line_address(self.texel_address(chain, level, x, y), line_bytes)

    def texel_lines(
        self,
        chain: MipmapChain,
        levels: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        line_bytes: Bytes = 64,
    ) -> np.ndarray:
        """:meth:`texel_line` over int64 arrays that broadcast together.

        Integer arithmetic only, so every element equals the scalar
        method's result.  Mip sizes and the tile are powers of two
        (``Texture`` and ``__post_init__`` refuse others, and each level
        halves the last), so the wrap ``x % width`` is the mask
        ``x & (width - 1)`` in two's complement, negative coordinates
        included, and the tile's ``//`` and ``%`` are shifts and masks.
        """
        if line_bytes <= 0:
            raise ValueError("line size must be positive")
        mips = chain.levels
        clamped = np.clip(levels, 0, chain.max_level)
        width = np.array([mip.width for mip in mips], dtype=np.int64)[clamped]
        height = np.array([mip.height for mip in mips], dtype=np.int64)[clamped]
        byte_offset = np.array(
            [mip.byte_offset for mip in mips], dtype=np.int64
        )[clamped]
        x = xs & (width - 1)
        y = ys & (height - 1)
        tile = self.tile_size
        shift = tile.bit_length() - 1
        tiled = (
            (((y >> shift) * (width >> shift) + (x >> shift)) << (2 * shift))
            + ((y & (tile - 1)) << shift)
            + (x & (tile - 1))
        )
        linear = np.where(width < tile, y * width + x, tiled)
        base = self.texture_region(chain.texture.texture_id)
        address = base + byte_offset + linear * self.bytes_per_texel
        return (address // line_bytes) * line_bytes
