"""Tests for the camera."""

import numpy as np
import pytest

from repro.render.camera import Camera


def make_camera(**overrides):
    defaults = dict(
        position=np.array([0.0, 0.0, 5.0]),
        target=np.array([0.0, 0.0, 0.0]),
    )
    defaults.update(overrides)
    return Camera(**defaults)


class TestCamera:
    def test_forward_is_unit_toward_target(self):
        camera = make_camera()
        assert np.allclose(camera.forward, [0.0, 0.0, -1.0])

    def test_view_matrix_moves_camera_to_origin(self):
        camera = make_camera()
        eye = np.append(camera.position, 1.0)
        transformed = camera.view_matrix() @ eye
        assert np.allclose(transformed[:3], 0.0)

    def test_view_matrix_looks_down_negative_z(self):
        camera = make_camera()
        target = np.append(camera.target, 1.0)
        transformed = camera.view_matrix() @ target
        assert transformed[2] < 0

    def test_view_matrix_is_rigid(self):
        camera = make_camera(position=np.array([3.0, 4.0, 5.0]),
                             target=np.array([-1.0, 0.5, -2.0]))
        rotation = camera.view_matrix()[:3, :3]
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)

    def test_projection_centre_maps_to_origin(self):
        camera = make_camera()
        projection = camera.projection_matrix(aspect=1.0)
        point = projection @ np.array([0.0, 0.0, -10.0, 1.0])
        ndc = point[:3] / point[3]
        assert np.allclose(ndc[:2], 0.0)

    def test_projection_depth_range(self):
        camera = make_camera(near=1.0, far=100.0)
        projection = camera.projection_matrix(aspect=1.0)
        near_point = projection @ np.array([0.0, 0.0, -1.0, 1.0])
        far_point = projection @ np.array([0.0, 0.0, -100.0, 1.0])
        assert near_point[2] / near_point[3] == pytest.approx(-1.0)
        assert far_point[2] / far_point[3] == pytest.approx(1.0)

    def test_view_projection_shape(self):
        camera = make_camera()
        assert camera.view_projection(640, 480).shape == (4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_camera(near=0.0)
        with pytest.raises(ValueError):
            make_camera(near=10.0, far=5.0)
        with pytest.raises(ValueError):
            make_camera(fov_y=0.0)
        with pytest.raises(ValueError):
            make_camera(target=np.array([0.0, 0.0, 5.0]))
        camera = make_camera()
        with pytest.raises(ValueError):
            camera.projection_matrix(aspect=0.0)
        with pytest.raises(ValueError):
            camera.view_projection(0, 480)
