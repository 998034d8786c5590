"""Tests for the rasterizer: coverage, depth, derivatives, clipping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.raster import Rasterizer
from repro.render.scene import Scene
from repro.workloads.textures import ProceduralTextureLibrary


def make_scene():
    scene = Scene()
    library = ProceduralTextureLibrary()
    scene.add_texture(library.create("checker", 64, seed=1))
    scene.add_texture(library.create("brick", 64, seed=2))
    return scene


def facing_camera(distance=10.0):
    return Camera(
        position=np.array([0.0, 0.0, distance]),
        target=np.array([0.0, 0.0, 0.0]),
        fov_y=math.radians(60.0),
    )


def add_fullscreen_wall(scene, texture_id=0, z=0.0, half=100.0):
    scene.add_quad(
        [(-half, -half, z), (half, -half, z), (half, half, z), (-half, half, z)],
        texture_id,
        uv_scale=8.0,
    )


class TestCoverage:
    def test_fullscreen_wall_covers_every_pixel_once(self):
        scene = make_scene()
        add_fullscreen_wall(scene)
        framebuffer = Framebuffer(16, 12)
        rasterizer = Rasterizer(tile_size=4)
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        covered = set(zip(trace.pixel_x.tolist(), trace.pixel_y.tolist()))
        assert len(trace) == 16 * 12
        assert len(covered) == 16 * 12

    def test_offscreen_triangle_generates_nothing(self):
        scene = make_scene()
        scene.add_quad(
            [(100, 100, 0), (101, 100, 0), (101, 101, 0), (100, 101, 0)], 0
        )
        framebuffer = Framebuffer(16, 12)
        rasterizer = Rasterizer()
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        assert len(trace) == 0

    def test_stats_recorded(self):
        scene = make_scene()
        add_fullscreen_wall(scene)
        framebuffer = Framebuffer(8, 8)
        rasterizer = Rasterizer(tile_size=4)
        rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        assert rasterizer.stats.triangles_submitted == 2
        assert rasterizer.stats.fragments_generated >= 64


@st.composite
def planar_grids(draw):
    """A flat grid of 1-4 x 1-4 quads with a random tilt and position,
    half of them crossing the near plane of :func:`facing_camera`, and
    a framebuffer of 8-48 pixels a side."""
    columns = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    pitch = draw(st.floats(-1.4, 1.4))
    yaw = draw(st.floats(-1.4, 1.4))
    quad = draw(st.floats(0.5, 6.0))
    centre = np.array([
        draw(st.floats(-4.0, 4.0)),
        draw(st.floats(-4.0, 4.0)),
        draw(st.floats(-12.0, 8.0)),
    ])
    if draw(st.booleans()):
        # Centred on the near plane and tilted off it: part of the grid
        # lies in front of the camera and part behind.
        centre[2] = 10.0 - facing_camera().near
        pitch = math.copysign(max(abs(pitch), 0.2), pitch)
    across = np.array([math.cos(yaw), 0.0, -math.sin(yaw)])
    up = np.array([
        math.sin(yaw) * math.sin(pitch), math.cos(pitch),
        math.cos(yaw) * math.sin(pitch),
    ])
    points = [
        [
            centre + (i - columns / 2) * quad * across
            + (j - rows / 2) * quad * up
            for j in range(rows + 1)
        ]
        for i in range(columns + 1)
    ]
    scene = make_scene()
    for i in range(columns):
        for j in range(rows):
            scene.add_quad(
                [points[i][j], points[i + 1][j],
                 points[i + 1][j + 1], points[i][j + 1]],
                0,
            )
    size = (draw(st.integers(8, 48)), draw(st.integers(8, 48)))
    return scene, size


class TestPlanarMesh:
    @settings(max_examples=150, deadline=None)
    @given(planar_grids())
    def test_each_pixel_covered_at_most_once(self, grid):
        """The top-left rule in ``_covered``: triangles that share an
        edge never both claim a pixel.  Early-Z would kill a second
        fragment at equal depth and hide the double cover, so no
        fragment may be killed either."""
        scene, (width, height) = grid
        rasterizer = Rasterizer()
        batches = rasterizer.rasterize_batches(
            scene, facing_camera(), Framebuffer(width, height)
        )
        pixels = [
            pixel for batch in batches
            for pixel in zip(batch.x.tolist(), batch.y.tolist())
        ]
        assert len(pixels) == len(set(pixels))
        assert rasterizer.stats.fragments_early_z_killed == 0


class TestDepth:
    def test_early_z_kills_occluded_fragments(self):
        scene = make_scene()
        add_fullscreen_wall(scene, texture_id=0, z=0.0)   # near (drawn first)
        add_fullscreen_wall(scene, texture_id=1, z=-5.0)  # far (behind)
        framebuffer = Framebuffer(8, 8)
        rasterizer = Rasterizer(tile_size=4)
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        # The far wall is drawn after the near wall and should be fully
        # early-Z culled.
        assert bool(np.all(trace.texture_id == 0))
        assert rasterizer.stats.fragments_early_z_killed == 64

    def test_overdraw_when_far_drawn_first(self):
        scene = make_scene()
        add_fullscreen_wall(scene, texture_id=1, z=-5.0)  # far first
        add_fullscreen_wall(scene, texture_id=0, z=0.0)   # near second
        framebuffer = Framebuffer(8, 8)
        rasterizer = Rasterizer(tile_size=4)
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        # Both walls shade: 2x the pixels (immediate-mode overdraw).
        assert len(trace) == 2 * 64


class TestDerivatives:
    def test_face_on_wall_has_unit_texel_density(self):
        # A wall whose texture maps n texels across m pixels should have
        # |du/dx| ~ n/m, independent of position.
        scene = make_scene()
        half = 10.0
        scene.add_quad(
            [(-half, -half, 0), (half, -half, 0), (half, half, 0), (-half, half, 0)],
            0,
            uv_scale=1.0,
        )
        width = 32
        framebuffer = Framebuffer(width, 32)
        rasterizer = Rasterizer()
        camera = Camera(
            position=np.array([0.0, 0.0, 10.0 / math.tan(math.radians(30.0))]),
            target=np.array([0.0, 0.0, 0.0]),
            fov_y=math.radians(60.0),
        )
        batches = rasterizer.rasterize_batches(scene, camera, framebuffer)
        x, y, dudx, dvdx = (
            np.concatenate([getattr(batch, name) for batch in batches])
            for name in ("x", "y", "dudx", "dvdx")
        )
        # 64 texels across ~32 pixels -> du/dx ~ 2 texels/pixel.
        centre = (abs(x - 16) < 4) & (abs(y - 16) < 4)
        assert centre.any()
        assert dudx[centre] == pytest.approx(2.0, rel=0.2)
        assert bool(np.all(np.abs(dvdx[centre]) < 0.2))

    def test_grazing_floor_is_anisotropic(self):
        scene = make_scene()
        scene.add_quad(
            [(-20, 0, 5), (20, 0, 5), (20, 0, -200), (-20, 0, -200)],
            0,
            uv_scale=16.0,
        )
        camera = Camera(
            position=np.array([0.0, 1.0, 6.0]),
            target=np.array([0.0, 0.0, -50.0]),
        )
        framebuffer = Framebuffer(32, 24)
        rasterizer = Rasterizer(max_anisotropy=16)
        trace = rasterizer.rasterize_scene(scene, camera, framebuffer)
        assert trace.footprint.anisotropy.max() > 2.0

    def test_camera_angle_face_on_vs_grazing(self):
        scene = make_scene()
        add_fullscreen_wall(scene)  # facing the camera
        framebuffer = Framebuffer(8, 8)
        rasterizer = Rasterizer()
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        assert trace.camera_angle.max() < math.radians(45.0)


class TestClipping:
    def test_triangle_behind_camera_culled(self):
        scene = make_scene()
        add_fullscreen_wall(scene, z=20.0)  # behind the camera at z=10
        framebuffer = Framebuffer(8, 8)
        rasterizer = Rasterizer()
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        assert len(trace) == 0
        assert rasterizer.stats.triangles_clipped_away == 2

    def test_plane_crossing_near_plane_is_clipped_not_culled(self):
        # A floor passing under the camera crosses the near plane; it
        # must still produce fragments (sub-triangles), not vanish.
        scene = make_scene()
        scene.add_quad(
            [(-20, 0, 20), (20, 0, 20), (20, 0, -200), (-20, 0, -200)],
            0,
            uv_scale=4.0,
        )
        camera = Camera(
            position=np.array([0.0, 1.0, 0.0]),
            target=np.array([0.0, 0.0, -50.0]),
        )
        framebuffer = Framebuffer(16, 12)
        rasterizer = Rasterizer()
        trace = rasterizer.rasterize_scene(scene, camera, framebuffer)
        assert len(trace) > 0

    def test_requests_carry_tiles(self):
        scene = make_scene()
        add_fullscreen_wall(scene)
        framebuffer = Framebuffer(16, 16)
        rasterizer = Rasterizer(tile_size=4)
        trace = rasterizer.rasterize_scene(scene, facing_camera(), framebuffer)
        tiles = set(zip(trace.tile_x.tolist(), trace.tile_y.tolist()))
        assert len(tiles) == 16  # 4x4 tiles
        assert np.array_equal(trace.tile_x, trace.pixel_x // 4)
        assert np.array_equal(trace.tile_y, trace.pixel_y // 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Rasterizer(tile_size=0)
        with pytest.raises(ValueError):
            Rasterizer(max_anisotropy=0)
