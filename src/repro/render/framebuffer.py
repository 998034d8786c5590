"""Z-buffered RGBA framebuffer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Framebuffer:
    """An RGBA color buffer with a depth buffer.

    Depth follows the convention smaller-is-closer (camera-space depth is
    stored directly); the depth test is strict less-than, matching the
    early-Z behaviour of the modelled pipeline.
    """

    width: int
    height: int
    color: np.ndarray = field(init=False)
    depth: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.color = np.zeros((self.height, self.width, 4), dtype=np.float64)
        self.depth = np.full((self.height, self.width), np.inf)

    def depth_test(self, x: int, y: int, z: float) -> bool:
        """Early-Z test: True when the fragment is visible so far."""
        return bool(z < self.depth[y, x])

    def depth_test_batch(
        self, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray
    ) -> np.ndarray:
        """Vectorised early-Z over unique pixels; returns the pass mask.

        Callers guarantee ``(xs, ys)`` pairs are distinct (true for the
        fragments of one triangle), so the gathered comparison equals a
        sequential per-fragment test.
        """
        return zs < self.depth[ys, xs]

    def write_colors(
        self, xs: np.ndarray, ys: np.ndarray, colors: np.ndarray
    ) -> None:
        """Commit shaded fragments in order: each pixel keeps its last.

        The image equals that of writing the fragments one at a time.
        numpy does not say which value an assignment with duplicate
        indices keeps, so only each pixel's last fragment is scattered.
        Depth is left alone: the rasterizer's early-Z already wrote each
        pixel's nearest depth, which for fragments that passed it in
        order is the last one's.
        """
        pixels = ys * self.width + xs
        _, from_end = np.unique(pixels[::-1], return_index=True)
        last = len(pixels) - 1 - from_end
        self.color[ys[last], xs[last]] = colors[last]

    def clear(self) -> None:
        self.color.fill(0.0)
        self.depth.fill(np.inf)

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def rgb_image(self) -> np.ndarray:
        """The RGB channels as float64 (h, w, 3)."""
        return self.color[:, :, :3]
