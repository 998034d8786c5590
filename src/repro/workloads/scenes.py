"""Procedural scene builders.

Each builder produces a scene geometry style that stresses texture
filtering differently:

* ``corridor`` -- long indoor hallway: floor and ceiling recede from the
  camera (high anisotropy at the far end), walls at moderate angles.
* ``arena`` -- a room viewed from above: mostly face-on surfaces,
  moderate anisotropy, heavy overdraw from layered props.
* ``terrain`` -- a large outdoor ground plane at a grazing angle with
  distant walls: the most anisotropy-hungry style.
* ``chamber`` -- small dark room: face-on surfaces, small textures, the
  least texture-bound style.

All camera and geometry parameters are deterministic functions of the
seed, so workloads reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.render.camera import Camera
from repro.render.scene import Scene
from repro.workloads.textures import ProceduralTextureLibrary


class SceneStyle(Enum):
    """The geometry archetypes used by the game workloads."""

    CORRIDOR = "corridor"
    ARENA = "arena"
    TERRAIN = "terrain"
    CHAMBER = "chamber"


@dataclass(frozen=True)
class BuiltScene:
    """A scene plus its camera."""

    scene: Scene
    camera: Camera


def _corridor(library: ProceduralTextureLibrary, texture_size: int,
              seed: int, uv_tiling: float) -> BuiltScene:
    scene = Scene(name="corridor")
    floor = library.create("wood", texture_size, seed=seed)
    wall = library.create("brick", texture_size, seed=seed + 1)
    ceiling = library.create("noise", texture_size, seed=seed + 2)
    far_wall = library.create("grate", texture_size, seed=seed + 3)
    for texture in (floor, wall, ceiling, far_wall):
        scene.add_texture(texture)

    length, width, height = 120.0, 8.0, 5.0
    # Floor and ceiling recede from the camera -> grazing angles.
    scene.add_quad(
        [(-width / 2, 0, 0), (width / 2, 0, 0),
         (width / 2, 0, -length), (-width / 2, 0, -length)],
        floor.texture_id, uv_scale=uv_tiling,
    )
    scene.add_quad(
        [(-width / 2, height, 0), (-width / 2, height, -length),
         (width / 2, height, -length), (width / 2, height, 0)],
        ceiling.texture_id, uv_scale=uv_tiling,
    )
    # Side walls.
    scene.add_quad(
        [(-width / 2, 0, 0), (-width / 2, 0, -length),
         (-width / 2, height, -length), (-width / 2, height, 0)],
        wall.texture_id, uv_scale=uv_tiling,
    )
    scene.add_quad(
        [(width / 2, 0, 0), (width / 2, height, 0),
         (width / 2, height, -length), (width / 2, 0, -length)],
        wall.texture_id, uv_scale=uv_tiling,
    )
    # Far wall, face-on.
    scene.add_quad(
        [(-width / 2, 0, -length), (width / 2, 0, -length),
         (width / 2, height, -length), (-width / 2, height, -length)],
        far_wall.texture_id, uv_scale=1.0,
    )
    camera = Camera(
        position=np.array([0.0, 1.8, 2.0]),
        target=np.array([0.0, 1.4, -30.0]),
        fov_y=math.radians(70.0),
    )
    return BuiltScene(scene=scene, camera=camera)


def _arena(library: ProceduralTextureLibrary, texture_size: int,
           seed: int, uv_tiling: float) -> BuiltScene:
    scene = Scene(name="arena")
    ground = library.create("checker", texture_size, seed=seed)
    wall = library.create("brick", texture_size, seed=seed + 1)
    prop = library.create("grate", texture_size, seed=seed + 2)
    crate = library.create("wood", texture_size, seed=seed + 3)
    for texture in (ground, wall, prop, crate):
        scene.add_texture(texture)

    size, height = 60.0, 10.0
    scene.add_quad(
        [(-size / 2, 0, size / 2), (size / 2, 0, size / 2),
         (size / 2, 0, -size / 2), (-size / 2, 0, -size / 2)],
        ground.texture_id, uv_scale=uv_tiling,
    )
    scene.add_quad(
        [(-size / 2, 0, -size / 2), (size / 2, 0, -size / 2),
         (size / 2, height, -size / 2), (-size / 2, height, -size / 2)],
        wall.texture_id, uv_scale=uv_tiling / 2,
    )
    # Layered props for overdraw: crates at staggered depths.
    rng = np.random.default_rng(seed)
    for index in range(6):
        cx = -20.0 + 8.0 * index + 2.0 * rng.random()
        cz = -10.0 - 4.0 * (index % 3)
        half = 2.0
        texture = crate if index % 2 == 0 else prop
        scene.add_quad(
            [(cx - half, 0, cz), (cx + half, 0, cz),
             (cx + half, 2 * half, cz), (cx - half, 2 * half, cz)],
            texture.texture_id, uv_scale=1.0,
        )
    camera = Camera(
        position=np.array([0.0, 6.0, 28.0]),
        target=np.array([0.0, 1.0, -10.0]),
        fov_y=math.radians(60.0),
    )
    return BuiltScene(scene=scene, camera=camera)


def _terrain(library: ProceduralTextureLibrary, texture_size: int,
             seed: int, uv_tiling: float) -> BuiltScene:
    scene = Scene(name="terrain")
    ground = library.create("noise", texture_size, seed=seed)
    road = library.create("checker", texture_size, seed=seed + 1)
    cliff = library.create("brick", texture_size, seed=seed + 2)
    for texture in (ground, road, cliff):
        scene.add_texture(texture)

    extent = 400.0
    scene.add_quad(
        [(-extent / 2, 0, 10.0), (extent / 2, 0, 10.0),
         (extent / 2, 0, -extent), (-extent / 2, 0, -extent)],
        ground.texture_id, uv_scale=uv_tiling,
    )
    # A road strip straight ahead: maximum anisotropy along the view.
    scene.add_quad(
        [(-4.0, 0.02, 10.0), (4.0, 0.02, 10.0),
         (4.0, 0.02, -extent), (-4.0, 0.02, -extent)],
        road.texture_id, uv_scale=uv_tiling,
    )
    # Distant cliffs, face-on.
    scene.add_quad(
        [(-extent / 2, 0, -extent), (extent / 2, 0, -extent),
         (extent / 2, 40.0, -extent), (-extent / 2, 40.0, -extent)],
        cliff.texture_id, uv_scale=uv_tiling / 4,
    )
    camera = Camera(
        position=np.array([0.0, 2.2, 8.0]),
        target=np.array([0.0, 1.0, -60.0]),
        fov_y=math.radians(75.0),
        far=1000.0,
    )
    return BuiltScene(scene=scene, camera=camera)


def _chamber(library: ProceduralTextureLibrary, texture_size: int,
             seed: int, uv_tiling: float) -> BuiltScene:
    scene = Scene(name="chamber")
    wall = library.create("noise", texture_size, seed=seed)
    floor = library.create("grate", texture_size, seed=seed + 1)
    for texture in (wall, floor):
        scene.add_texture(texture)

    size, height = 16.0, 6.0
    scene.add_quad(
        [(-size / 2, 0, size / 2), (size / 2, 0, size / 2),
         (size / 2, 0, -size / 2), (-size / 2, 0, -size / 2)],
        floor.texture_id, uv_scale=uv_tiling,
    )
    for sign in (-1.0, 1.0):
        scene.add_quad(
            [(sign * size / 2, 0, size / 2), (sign * size / 2, 0, -size / 2),
             (sign * size / 2, height, -size / 2), (sign * size / 2, height, size / 2)],
            wall.texture_id, uv_scale=uv_tiling / 2,
        )
    scene.add_quad(
        [(-size / 2, 0, -size / 2), (size / 2, 0, -size / 2),
         (size / 2, height, -size / 2), (-size / 2, height, -size / 2)],
        wall.texture_id, uv_scale=uv_tiling / 2,
    )
    camera = Camera(
        position=np.array([0.0, 2.5, 7.0]),
        target=np.array([0.0, 1.5, -4.0]),
        fov_y=math.radians(65.0),
    )
    return BuiltScene(scene=scene, camera=camera)


_BUILDERS = {
    SceneStyle.CORRIDOR: _corridor,
    SceneStyle.ARENA: _arena,
    SceneStyle.TERRAIN: _terrain,
    SceneStyle.CHAMBER: _chamber,
}


def build_scene(
    style: SceneStyle,
    texture_size: int = 256,
    seed: int = 0,
    uv_tiling: float = 16.0,
) -> BuiltScene:
    """Build a scene of the given style.

    ``texture_size`` is the level-0 resolution of every texture in the
    scene; ``uv_tiling`` controls how many times surface textures repeat
    (more tiling -> higher texel frequency -> deeper into the mip chain
    and more anisotropy-sensitive).
    """
    if texture_size < 16:
        raise ValueError("texture size must be at least 16")
    builder = _BUILDERS[style]
    return builder(ProceduralTextureLibrary(), texture_size, seed, uv_tiling)
