"""NeRF transforms.json loading."""

import json

import numpy as np
import pytest

from reference import sum3_reference
from splatcloud.errors import FileFormatError
from splatcloud.formats import load_cameras_nerf_json
from splatcloud.scene import quats_to_rotmats


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


def test_bottom_row_other_than_affine_is_error(tmp_path):
    matrix = np.eye(4)
    matrix[3, 0] = 0.5  # invertible, but not a rigid camera-to-world transform
    path = write_json(tmp_path / "transforms.json", {
        "camera_angle_x": 0.9,
        "frames": [{"file_path": "r_0", "transform_matrix": matrix.tolist()}],
    })
    with pytest.raises(FileFormatError, match="frame 0: transform_matrix bottom row"):
        load_cameras_nerf_json(path)


def inverse_reference(c2w, add):
    """World-to-camera of a NeRF camera-to-world, in Python floats.

    The y and z axes of ``A`` are flipped; ``A^-1`` is the adjugate, whose
    column i is the cross product of rows i + 1 and i + 2 (one product
    difference an entry), over the determinant; ``add`` adds the three terms
    of the determinant and of each entry of ``A^-1 t``.
    """
    a = [[row[0], -row[1], -row[2]] for row in c2w[:3, :3].tolist()]
    t = c2w[:3, 3].tolist()
    columns = []
    for i in range(3):
        u, v = a[(i + 1) % 3], a[(i + 2) % 3]
        columns.append([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                        u[0] * v[1] - u[1] * v[0]])
    det = add(*(x * y for x, y in zip(a[0], columns[0])))
    rows = [[columns[j][i] / det for j in range(3)] for i in range(3)]
    return [row + [-add(*(x * y for x, y in zip(row, t)))] for row in rows] \
        + [[0.0, 0.0, 0.0, 1.0]]


def test_inverse_adds_its_sums_in_dot3_order(tmp_path):
    # each 3-term sum added as (j0 + j2) + j1; on these poses adding them
    # left to right changes bits
    rng = np.random.default_rng(21)
    matrices = []
    for _ in range(20):
        quat = rng.standard_normal(4)
        c2w = np.eye(4)
        c2w[:3, :3] = quats_to_rotmats(quat / np.linalg.norm(quat))
        c2w[:3, 3] = rng.uniform(-10.0, 10.0, 3)
        matrices.append(c2w)
    path = write_json(tmp_path / "transforms.json", {"camera_angle_x": 0.9, "frames": [
        {"file_path": f"r_{i:02d}", "transform_matrix": c2w.tolist()}
        for i, c2w in enumerate(matrices)]})
    expected = [inverse_reference(c2w, sum3_reference) for c2w in matrices]
    left_to_right = [inverse_reference(c2w, lambda t0, t1, t2: (t0 + t1) + t2)
                     for c2w in matrices]
    assert expected != left_to_right
    assert [pose.world_to_camera.tolist() for pose in load_cameras_nerf_json(path)] == expected
