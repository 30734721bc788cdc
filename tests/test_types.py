"""Domain-type invariants: camera poses, point clouds and the row-subset rule."""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from splatcloud.errors import DomainError
from splatcloud.scene import ContributionState
from splatcloud.types import CameraPose, PointCloud, RawGaussians

from conftest import random_scene


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


@pytest.mark.parametrize("size", [(0, 480), (640, 0), (65536, 480), (640, 2**40)])
def test_image_size_outside_one_to_65535_rejected_naming_the_image(size):
    width, height = size
    with pytest.raises(DomainError, match=f"pose 3: image size {width}x{height} outside"):
        make_pose(image_id=3, width=width, height=height, cx=0.5, cy=0.5)


def test_largest_image_size_accepted():
    pose = make_pose(width=65535, height=65535)
    assert (pose.width, pose.height) == (65535, 65535)


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


def _table(kind: str):
    rng = np.random.default_rng(31)
    n = 6
    if kind == "raw":
        return RawGaussians(position=rng.random((n, 3)), log_scale=rng.random((n, 3)),
                            rotation=rng.random((n, 4)) + 0.1, logit_opacity=rng.random(n),
                            sh_dc=rng.random((n, 3)))
    if kind.startswith("scene"):
        scene = random_scene(rng, n)
        if kind == "scene+contribution":
            scene.contribution = ContributionState(
                best_contribution=rng.random(n), best_colour=rng.random((n, 3)),
                best_key=rng.integers(0, 9 << 32, n), views=(make_pose(), make_pose(image_id=1)))
        return scene
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=rng.random((n, 3)), colours=rng.integers(0, 256, (n, 3)),
                      normals=normals if kind == "cloud+normals" else None)


def _columns(table, prefix=""):
    """(dotted field name, value) for every field, nested tables flattened."""
    for f in fields(table):
        value = getattr(table, f.name)
        if is_dataclass(value):
            yield from _columns(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


@pytest.mark.parametrize("selector", [
    np.array([4, 0, 5, 2, 1, 3]), np.array([True, False, True, True, False, True]), slice(1, 5),
], ids=["permutation", "mask", "slice"])
@pytest.mark.parametrize("kind", ["raw", "scene", "scene+contribution", "cloud",
                                  "cloud+normals"])
def test_take_carries_every_column(kind, selector):
    table = _table(kind)
    columns = dict(_columns(table))
    views = columns.pop("contribution.views", None)
    assert all(value is None or isinstance(value, np.ndarray) for value in columns.values())
    assert ("contribution.best_key" in columns) == (kind == "scene+contribution")
    subset = dict(_columns(table.take(selector)))
    assert subset.pop("contribution.views", None) is views  # shared whole, not subset
    assert subset.keys() == columns.keys()
    for name, value in columns.items():
        if value is None:
            assert subset[name] is None, name
        else:
            assert subset[name].dtype == value.dtype, name
            np.testing.assert_array_equal(subset[name], value[selector], err_msg=name)
