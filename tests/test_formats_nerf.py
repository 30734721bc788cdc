"""NeRF transforms.json loading."""

import json

import numpy as np
import pytest

from splatcloud.errors import FileFormatError
from splatcloud.formats import load_cameras_nerf_json


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_focal_from_camera_angle(tmp_path):
    # fx = 0.5 * 800 / tan(pi/4) = 400
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": np.pi / 2,
        "frames": [{"file_path": "r_0", "transform_matrix": np.eye(4).tolist()}],
    })
    (pose,) = load_cameras_nerf_json(path)
    assert pose.fx == pytest.approx(400.0)
    assert pose.fy == pytest.approx(400.0)
    assert (pose.cx, pose.cy) == (400.0, 400.0)
    assert (pose.width, pose.height) == (800, 800)


def test_identity_transform_converts_to_axis_flip(tmp_path):
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": np.pi / 2,
        "frames": [{"file_path": "r_0", "transform_matrix": np.eye(4).tolist()}],
    })
    (pose,) = load_cameras_nerf_json(path)
    np.testing.assert_allclose(pose.world_to_camera, np.diag([1.0, -1.0, -1.0, 1.0]),
                               atol=1e-12)


def test_empty_frames_gives_empty_list(tmp_path):
    path = write_json(tmp_path / "transforms.json",
                      {"camera_angle_x": 0.8, "frames": []})
    assert load_cameras_nerf_json(path) == []


def test_missing_intrinsics_is_error(tmp_path):
    path = write_json(tmp_path / "transforms.json", {
        "frames": [{"file_path": "r_0", "transform_matrix": np.eye(4).tolist()}],
    })
    with pytest.raises(FileFormatError, match="camera_angle_x"):
        load_cameras_nerf_json(path)


def test_singular_transform_is_error(tmp_path):
    matrix = np.eye(4)
    matrix[0, 0] = 0.0
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": 0.9,
        "frames": [{"file_path": "r_0", "transform_matrix": matrix.tolist()}],
    })
    with pytest.raises(FileFormatError, match="not invertible"):
        load_cameras_nerf_json(path)


def test_per_frame_intrinsics_override_global(tmp_path):
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": np.pi / 2,
        "w": 800, "h": 800,
        "frames": [
            {"file_path": "a", "transform_matrix": np.eye(4).tolist(),
             "fl_x": 123.0, "fl_y": 124.0, "cx": 10.0, "cy": 20.0, "w": 100, "h": 80},
            {"file_path": "b", "transform_matrix": np.eye(4).tolist()},
        ],
    })
    first, second = load_cameras_nerf_json(path)
    assert (first.fx, first.fy, first.cx, first.cy) == (123.0, 124.0, 10.0, 20.0)
    assert (first.width, first.height) == (100, 80)
    assert second.fx == pytest.approx(400.0)


def test_frames_sorted_by_file_path(tmp_path):
    shifted = np.eye(4)
    shifted[0, 3] = 1.0
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": np.pi / 2,
        "frames": [
            {"file_path": "z_last", "transform_matrix": shifted.tolist()},
            {"file_path": "a_first", "transform_matrix": np.eye(4).tolist()},
        ],
    })
    poses = load_cameras_nerf_json(path)
    # a_first sorts first and gets rank 0
    assert poses[0].image_id == 0
    np.testing.assert_allclose(poses[0].world_to_camera,
                               np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12)
    assert poses[1].world_to_camera[0, 3] != 0.0


def test_opengl_to_colmap_geometry(tmp_path):
    # camera at (0, 0, 4) looking down -Z must see the origin 4 units ahead
    c2w = np.eye(4)
    c2w[2, 3] = 4.0
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": np.pi / 2,
        "frames": [{"file_path": "r_0", "transform_matrix": c2w.tolist()}],
    })
    (pose,) = load_cameras_nerf_json(path)
    origin_cam = pose.rotation @ np.zeros(3) + pose.translation
    np.testing.assert_allclose(origin_cam, [0.0, 0.0, 4.0], atol=1e-12)
    np.testing.assert_allclose(pose.camera_centre, [0.0, 0.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("payload, where", [
    ({"camera_angle_x": 0.9, "frames": [
        {"file_path": "a", "transform_matrix": np.eye(4).tolist(), "w": "abc"}]},
     "frame 0: intrinsics must be numbers"),
    ({"camera_angle_x": 0.9, "frames": 5}, "missing 'frames' array"),
    ({"camera_angle_x": 0.9, "frames": [
        {"file_path": "a", "transform_matrix": np.eye(4).tolist()}, "b.png"]},
     "frame 1 is not an object"),
], ids=["string-width", "frames-not-array", "frame-not-object"])
def test_malformed_frames_are_format_errors_naming_the_frame(tmp_path, payload, where):
    path = write_json(tmp_path / "transforms.json", payload)
    with pytest.raises(FileFormatError, match=where):
        load_cameras_nerf_json(path)
