"""Tests for scenes and textured triangles."""

import numpy as np
import pytest

from repro.render.scene import Scene, TexturedTriangle
from repro.workloads.textures import ProceduralTextureLibrary


def make_scene_with_texture():
    scene = Scene()
    texture = ProceduralTextureLibrary().create("checker", 32, seed=1)
    scene.add_texture(texture)
    return scene, texture


class TestTexturedTriangle:
    def test_normal_unit_length(self):
        triangle = TexturedTriangle(
            vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
            uvs=np.zeros((3, 2)),
            texture_id=0,
        )
        assert np.linalg.norm(triangle.normal) == pytest.approx(1.0)
        assert np.allclose(triangle.normal, [0, 0, 1])

    def test_degenerate_triangle_rejected_on_normal(self):
        triangle = TexturedTriangle(
            vertices=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
            uvs=np.zeros((3, 2)),
            texture_id=0,
        )
        with pytest.raises(ValueError):
            _ = triangle.normal

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TexturedTriangle(
                vertices=np.zeros((3, 2)), uvs=np.zeros((3, 2)), texture_id=0
            )
        with pytest.raises(ValueError):
            TexturedTriangle(
                vertices=np.zeros((3, 3)), uvs=np.zeros((2, 2)), texture_id=0
            )
        with pytest.raises(ValueError):
            TexturedTriangle(
                vertices=np.zeros((3, 3)), uvs=np.zeros((3, 2)), texture_id=-1
            )


class TestScene:
    def test_add_quad_creates_two_triangles(self):
        scene, texture = make_scene_with_texture()
        scene.add_quad(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], texture.texture_id
        )
        assert len(scene.triangles) == 2
        assert scene.num_vertices == 6

    def test_quad_uv_tiling(self):
        scene, texture = make_scene_with_texture()
        scene.add_quad(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
            texture.texture_id,
            uv_scale=4.0,
        )
        all_uvs = np.concatenate([t.uvs for t in scene.triangles])
        assert all_uvs.max() == pytest.approx(4.0)

    def test_unknown_texture_rejected(self):
        scene = Scene()
        with pytest.raises(ValueError):
            scene.add_quad([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], 99)

    def test_duplicate_texture_rejected(self):
        scene, texture = make_scene_with_texture()
        with pytest.raises(ValueError):
            scene.add_texture(texture)

    def test_quad_needs_four_corners(self):
        scene, texture = make_scene_with_texture()
        with pytest.raises(ValueError):
            scene.add_quad([(0, 0, 0), (1, 0, 0)], texture.texture_id)

    def test_mipmap_chain_cached(self):
        scene, texture = make_scene_with_texture()
        chain_a = scene.mipmap_chain(texture.texture_id)
        chain_b = scene.mipmap_chain(texture.texture_id)
        assert chain_a is chain_b

    def test_mipmap_chain_unknown_texture(self):
        scene = Scene()
        with pytest.raises(KeyError):
            scene.mipmap_chain(5)

    def test_texture_bytes(self):
        scene, texture = make_scene_with_texture()
        assert scene.texture_bytes == 32 * 32 * 4
