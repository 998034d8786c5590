"""Scenes of textured triangles.

A scene is a flat list of :class:`TexturedTriangle` plus the textures they
reference.  Triangles carry per-vertex texture coordinates expressed in
*texture-space units* (0..1 across the texture); the rasterizer converts
them to texel units using the bound texture's level-0 dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.texture.mipmap import MipmapChain, build_mipmaps
from repro.texture.texture import Texture


@dataclass
class TexturedTriangle:
    """One triangle: world-space vertices and per-vertex UVs."""

    vertices: np.ndarray  # (3, 3) world positions
    uvs: np.ndarray       # (3, 2) texture coordinates in [0, n] tiling units
    texture_id: int

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.uvs = np.asarray(self.uvs, dtype=np.float64)
        if self.vertices.shape != (3, 3):
            raise ValueError("vertices must be (3, 3)")
        if self.uvs.shape != (3, 2):
            raise ValueError("uvs must be (3, 2)")
        if self.texture_id < 0:
            raise ValueError("negative texture id")

    @property
    def normal(self) -> np.ndarray:
        """Unit geometric normal of the triangle plane."""
        edge1 = self.vertices[1] - self.vertices[0]
        edge2 = self.vertices[2] - self.vertices[0]
        cross = np.cross(edge1, edge2)
        norm = float(np.linalg.norm(cross))
        if norm == 0.0:
            raise ValueError("degenerate triangle")
        return cross / norm


@dataclass
class Scene:
    """Triangles plus the texture set they sample."""

    triangles: List[TexturedTriangle] = field(default_factory=list)
    textures: Dict[int, Texture] = field(default_factory=dict)
    name: str = "scene"
    _chains: Dict[int, MipmapChain] = field(default_factory=dict, repr=False)

    def add_texture(self, texture: Texture) -> None:
        if texture.texture_id in self.textures:
            raise ValueError(f"duplicate texture id {texture.texture_id}")
        self.textures[texture.texture_id] = texture

    def add_triangle(self, triangle: TexturedTriangle) -> None:
        if triangle.texture_id not in self.textures:
            raise ValueError(
                f"triangle references unknown texture {triangle.texture_id}"
            )
        self.triangles.append(triangle)

    def add_quad(
        self,
        corners: Sequence[Sequence[float]],
        texture_id: int,
        uv_scale: float = 1.0,
    ) -> None:
        """Add a quad (two triangles) from four corners in winding order.

        UVs run (0,0) -> (uv_scale, uv_scale) across the quad, i.e. the
        texture tiles ``uv_scale`` times in each direction.
        """
        if len(corners) != 4:
            raise ValueError("a quad needs exactly four corners")
        c = [np.asarray(corner, dtype=np.float64) for corner in corners]
        uv = [
            np.array([0.0, 0.0]),
            np.array([uv_scale, 0.0]),
            np.array([uv_scale, uv_scale]),
            np.array([0.0, uv_scale]),
        ]
        self.add_triangle(
            TexturedTriangle(
                vertices=np.stack([c[0], c[1], c[2]]),
                uvs=np.stack([uv[0], uv[1], uv[2]]),
                texture_id=texture_id,
            )
        )
        self.add_triangle(
            TexturedTriangle(
                vertices=np.stack([c[0], c[2], c[3]]),
                uvs=np.stack([uv[0], uv[2], uv[3]]),
                texture_id=texture_id,
            )
        )

    def mipmap_chain(self, texture_id: int) -> MipmapChain:
        """The (cached) mip chain of one texture."""
        if texture_id not in self._chains:
            if texture_id not in self.textures:
                raise KeyError(f"unknown texture {texture_id}")
            self._chains[texture_id] = build_mipmaps(self.textures[texture_id])
        return self._chains[texture_id]

    @property
    def num_vertices(self) -> int:
        return 3 * len(self.triangles)

    @property
    def texture_bytes(self) -> int:
        return sum(texture.size_bytes for texture in self.textures.values())
