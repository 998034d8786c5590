"""Texel formats and cache-line packing arithmetic."""

from __future__ import annotations
from repro.units import Bytes

from dataclasses import dataclass


@dataclass(frozen=True)
class TexelFormat:
    """A texel storage format.

    The paper's traffic arithmetic (e.g. "16x anisotropic requires
    16 x 2 x 4 = 128 texels, 32x the fetches of bilinear") assumes a
    four-component RGBA color per texel; RGBA8 at 4 bytes/texel is the
    format modern GPUs default to and the one we use throughout.
    """

    name: str
    bytes_per_texel: int
    components: int = 4

    def __post_init__(self) -> None:
        if self.bytes_per_texel <= 0:
            raise ValueError("bytes per texel must be positive")
        if self.components <= 0:
            raise ValueError("component count must be positive")

    def texels_per_line(self, line_bytes: Bytes) -> int:
        """How many texels fit in one cache line."""
        if line_bytes < self.bytes_per_texel:
            raise ValueError("cache line smaller than one texel")
        return line_bytes // self.bytes_per_texel


RGBA8 = TexelFormat(name="rgba8", bytes_per_texel=4, components=4)
