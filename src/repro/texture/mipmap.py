"""Mipmap chain construction and mip-level layout.

Mipmaps are pre-calculated sequences of progressively lower-resolution
representations of one texture (paper footnote 1).  The chain is built by
2x2 box filtering, which is what fixed-function GPU mip generation does;
level 0 is the full-resolution image and the last level is 1x1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.texture.texture import TEXEL_BYTES, Texture
from repro.units import Bytes


def downsample_box(image: np.ndarray) -> np.ndarray:
    """One 2x2 box-filter reduction step.

    Dimensions of 1 are preserved (mip chains of non-square textures
    degenerate to 1xN strips before reaching 1x1).
    """
    height, width = image.shape[:2]
    new_height = max(1, height // 2)
    new_width = max(1, width // 2)
    if height == 1 and width == 1:
        raise ValueError("cannot downsample a 1x1 image")
    if height > 1 and width > 1:
        reshaped = image[: new_height * 2, : new_width * 2]
        return 0.25 * (
            reshaped[0::2, 0::2]
            + reshaped[1::2, 0::2]
            + reshaped[0::2, 1::2]
            + reshaped[1::2, 1::2]
        )
    if height == 1:
        reshaped = image[:, : new_width * 2]
        return 0.5 * (reshaped[:, 0::2] + reshaped[:, 1::2])
    reshaped = image[: new_height * 2, :]
    return 0.5 * (reshaped[0::2, :] + reshaped[1::2, :])


@dataclass
class MipLevel:
    """One level of a mipmap chain plus its byte offset in memory."""

    level: int
    data: np.ndarray
    byte_offset: int

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass
class MipmapChain:
    """A full mip pyramid for one texture.

    The chain also assigns each level a byte offset so the address map in
    :mod:`repro.texture.address` can produce distinct, realistic addresses
    for texels of different levels of the same texture.
    """

    texture: Texture
    levels: List[MipLevel] = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return self.num_levels - 1

    def level(self, index: int) -> MipLevel:
        """Fetch a level, clamping to the valid range."""
        clamped = min(max(index, 0), self.max_level)
        return self.levels[clamped]

    @property
    def total_bytes(self) -> Bytes:
        last = self.levels[-1]
        return last.byte_offset + last.width * last.height * TEXEL_BYTES


def build_mipmaps(texture: Texture) -> MipmapChain:
    """Construct the full box-filtered mip chain for ``texture``."""
    levels: List[MipLevel] = []
    image = texture.data
    offset = 0
    level_index = 0
    while True:
        levels.append(MipLevel(level=level_index, data=image, byte_offset=offset))
        offset += image.shape[0] * image.shape[1] * TEXEL_BYTES
        if image.shape[0] == 1 and image.shape[1] == 1:
            break
        image = downsample_box(image)
        level_index += 1
    return MipmapChain(texture=texture, levels=levels)
