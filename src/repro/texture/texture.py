"""The Texture object: an RGBA image plus sampling metadata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.units import Bytes

TEXEL_BYTES: Bytes = 4
"""Bytes per texel in memory: four 8-bit color components, the format
modern GPUs default to and the one the paper's traffic arithmetic
assumes ("16x anisotropic requires 16 x 2 x 4 = 128 texels")."""


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class Texture:
    """A 2D texture with float RGBA data in [0, 1].

    Data is stored as ``float64[height, width, 4]``.  Keeping the
    functional representation in floating point makes the filter-reorder
    equality (paper section V-B) hold to rounding error rather than to
    8-bit quantization; the architectural model separately accounts
    :data:`TEXEL_BYTES` per texel.
    """

    texture_id: int
    data: np.ndarray
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
        return self.width * self.height * TEXEL_BYTES

    def texel(self, x: int, y: int) -> np.ndarray:
        """Fetch one texel with wrap (repeat) addressing."""
        return self.data[y % self.height, x % self.width]
