"""The Texture object: an RGBA image plus sampling metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.texture.formats import RGBA8, TexelFormat
from repro.units import Bytes


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class Texture:
    """A 2D texture with float RGBA data in [0, 1].

    Data is stored as ``float64[height, width, 4]``.  Keeping the
    functional representation in floating point makes the filter-reorder
    equality (paper section V-B) hold to rounding error rather than to
    8-bit quantization; the architectural model separately accounts
    bytes using :class:`~repro.texture.formats.TexelFormat`.
    """

    texture_id: int
    data: np.ndarray
    fmt: TexelFormat = field(default=RGBA8)
    name: str = ""

    def __post_init__(self) -> None:
        if self.data.ndim != 3 or self.data.shape[2] != 4:
            raise ValueError("texture data must have shape (h, w, 4)")
        if not _is_power_of_two(self.data.shape[0]) or not _is_power_of_two(
            self.data.shape[1]
        ):
            raise ValueError("texture dimensions must be powers of two")
        self.data = np.asarray(self.data, dtype=np.float64)
        # Written so that NaN fails: every comparison with NaN is false.
        if not ((self.data >= 0.0) & (self.data <= 1.0)).all():
            raise ValueError("texel values must lie in [0, 1]")

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def size_bytes(self) -> Bytes:
        return self.width * self.height * self.fmt.bytes_per_texel

    def texel(self, x: int, y: int) -> np.ndarray:
        """Fetch one texel with wrap (repeat) addressing."""
        return self.data[y % self.height, x % self.width]

    def texels_wrapped(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorised wrapped texel gather; returns (n, 4)."""
        return self.data[ys % self.height, xs % self.width]
