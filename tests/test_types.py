"""Domain-type invariants: camera poses and point clouds."""

import numpy as np
import pytest

from splatcloud.errors import DomainError
from splatcloud.types import CameraPose, PointCloud


def make_pose(**overrides):
    base = dict(image_id=0, width=640, height=480, fx=500.0, fy=500.0,
                cx=320.0, cy=240.0, world_to_camera=np.eye(4))
    base.update(overrides)
    return CameraPose(**base)


def test_valid_pose_accepted():
    pose = make_pose()
    np.testing.assert_array_equal(pose.camera_centre, [0.0, 0.0, 0.0])


def test_negative_focal_rejected():
    with pytest.raises(DomainError):
        make_pose(fx=-1.0)


def test_principal_point_must_be_inside():
    with pytest.raises(DomainError):
        make_pose(cx=700.0)
    with pytest.raises(DomainError):
        make_pose(cy=0.0)


def test_non_orthonormal_rotation_rejected():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(DomainError):
        make_pose(world_to_camera=bad)


def _w2c_with(row, col, value):
    m = np.eye(4)
    m[row, col] = value
    return m


@pytest.mark.parametrize("overrides", [
    {"fx": np.inf}, {"fy": np.inf}, {"cx": np.nan},
    {"world_to_camera": _w2c_with(1, 3, np.nan)},
    {"world_to_camera": _w2c_with(0, 2, np.inf)},
], ids=["fx-inf", "fy-inf", "cx-nan", "tvec-nan", "rotation-inf"])
def test_non_finite_pose_rejected_naming_the_image(overrides):
    with pytest.raises(DomainError, match="pose 3: intrinsics and world_to_camera must be finite"):
        make_pose(image_id=3, **overrides)


def test_camera_centre_inverts_translation():
    rotation = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    w2c = np.eye(4)
    w2c[:3, :3] = rotation
    w2c[:3, 3] = [1.0, 2.0, 3.0]
    pose = make_pose(world_to_camera=w2c)
    recovered = pose.rotation @ pose.camera_centre + pose.translation
    np.testing.assert_allclose(recovered, np.zeros(3), atol=1e-14)


def test_pointcloud_length_mismatch():
    with pytest.raises(DomainError):
        PointCloud(points=np.zeros((3, 3)), colours=np.zeros((2, 3), dtype=np.uint8))


def test_pointcloud_normals_must_be_unit():
    with pytest.raises(DomainError):
        PointCloud(points=np.zeros((1, 3)), colours=np.zeros((1, 3), dtype=np.uint8),
                   normals=np.array([[0.5, 0.0, 0.0]]))


def test_pointcloud_take_preserves_alignment():
    cloud = PointCloud(points=np.arange(12).reshape(4, 3).astype(np.float32),
                       colours=np.arange(12).reshape(4, 3).astype(np.uint8))
    subset = cloud.take(np.array([True, False, True, False]))
    np.testing.assert_array_equal(subset.points[:, 0], [0.0, 6.0])
    np.testing.assert_array_equal(subset.colours[:, 0], [0, 6])
