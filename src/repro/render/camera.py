"""Pinhole camera with look-at view and perspective projection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError("cannot normalise a zero vector")
    return vector / norm


@dataclass
class Camera:
    """A right-handed look-at camera.

    The camera looks from ``position`` toward ``target``; ``fov_y`` is the
    vertical field of view in radians.  ``view_matrix`` maps world space
    to camera space (camera looks down -z); ``projection_matrix`` maps
    camera space to clip space.
    """

    position: np.ndarray
    target: np.ndarray
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    fov_y: float = math.radians(60.0)
    near: float = 0.1
    far: float = 500.0

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        if self.near <= 0 or self.far <= self.near:
            raise ValueError("require 0 < near < far")
        if not 0 < self.fov_y < math.pi:
            raise ValueError("field of view must be in (0, pi)")
        if np.allclose(self.position, self.target):
            raise ValueError("camera position and target coincide")

    @property
    def forward(self) -> np.ndarray:
        return _normalize(self.target - self.position)

    def view_matrix(self) -> np.ndarray:
        """4x4 world-to-camera matrix."""
        forward = self.forward
        right = _normalize(np.cross(forward, self.up))
        true_up = np.cross(right, forward)
        rotation = np.eye(4)
        rotation[0, :3] = right
        rotation[1, :3] = true_up
        rotation[2, :3] = -forward
        translation = np.eye(4)
        translation[:3, 3] = -self.position
        return rotation @ translation

    def projection_matrix(self, aspect: float) -> np.ndarray:
        """4x4 perspective projection (OpenGL-style clip space)."""
        if aspect <= 0:
            raise ValueError("aspect ratio must be positive")
        f = 1.0 / math.tan(self.fov_y / 2.0)
        near, far = self.near, self.far
        matrix = np.zeros((4, 4))
        matrix[0, 0] = f / aspect
        matrix[1, 1] = f
        matrix[2, 2] = (far + near) / (near - far)
        matrix[2, 3] = 2.0 * far * near / (near - far)
        matrix[3, 2] = -1.0
        return matrix

    def view_projection(self, width: int, height: int) -> np.ndarray:
        """Combined world-to-clip matrix for a framebuffer size."""
        if width <= 0 or height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        return self.projection_matrix(width / height) @ self.view_matrix()
