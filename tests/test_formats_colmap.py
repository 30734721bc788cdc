"""COLMAP camera/image loading in both binary and text form."""

import struct

import numpy as np
import pytest

from splatcloud.errors import FileFormatError
from splatcloud.formats import load_cameras_colmap

from conftest import simple_colmap_model, write_colmap_bin, write_colmap_txt


def test_identity_pose(tmp_path):
    cameras = [{"id": 1, "model": "SIMPLE_PINHOLE", "width": 800, "height": 600,
                "params": (500.0, 400.0, 300.0)}]
    images = [{"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 0.0),
               "camera_id": 1, "name": "a.png"}]
    write_colmap_bin(tmp_path, cameras, images)
    (pose,) = load_cameras_colmap(tmp_path)
    np.testing.assert_array_equal(pose.world_to_camera, np.eye(4))


def test_simple_pinhole_intrinsics(tmp_path):
    cameras = [{"id": 1, "model": "SIMPLE_PINHOLE", "width": 800, "height": 600,
                "params": (500.0, 400.0, 300.0)}]
    images = [{"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 0.0),
               "camera_id": 1, "name": "a.png"}]
    write_colmap_txt(tmp_path, cameras, images)
    (pose,) = load_cameras_colmap(tmp_path)
    assert (pose.fx, pose.fy, pose.cx, pose.cy) == (500.0, 500.0, 400.0, 300.0)
    assert (pose.width, pose.height) == (800, 600)


def test_binary_and_text_identical(tmp_path):
    cameras, images = simple_colmap_model()
    bin_dir = tmp_path / "bin"
    txt_dir = tmp_path / "txt"
    write_colmap_bin(bin_dir, cameras, images)
    write_colmap_txt(txt_dir, cameras, images)
    from_bin = load_cameras_colmap(bin_dir)
    from_txt = load_cameras_colmap(txt_dir)
    assert len(from_bin) == len(from_txt) == 3
    for a, b in zip(from_bin, from_txt):
        assert a.image_id == b.image_id
        assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
        assert (a.width, a.height) == (b.width, b.height)
        np.testing.assert_array_equal(a.world_to_camera, b.world_to_camera)


@pytest.mark.parametrize("count", [2**40, 2**62], ids=["2^40", "2^62"])
def test_2d_point_count_past_the_end_is_format_error(tmp_path, count):
    write_colmap_bin(tmp_path, *simple_colmap_model())
    path = tmp_path / "images.bin"
    data = bytearray(path.read_bytes())
    at = data.index(b"a_second.png\x00") + len(b"a_second.png\x00")
    data[at:at + 8] = struct.pack("<Q", count)
    path.write_bytes(data)
    with pytest.raises(FileFormatError,
                       match=rf"images\.bin: image 'a_second\.png' declares {count} 2D points"):
        load_cameras_colmap(tmp_path)


def test_non_utf8_image_name_is_format_error(tmp_path):
    write_colmap_bin(tmp_path, *simple_colmap_model())
    path = tmp_path / "images.bin"
    path.write_bytes(path.read_bytes().replace(b"b_first.png", b"b_first\xff.pn"))
    with pytest.raises(FileFormatError, match=r"images\.bin: image 3 name is not UTF-8"):
        load_cameras_colmap(tmp_path)


@pytest.mark.parametrize("name, keep, what", [
    ("cameras.bin", 20, "camera header"),
    ("images.bin", 50, "image header"),
])
def test_truncated_binary_file_error_names_the_file(tmp_path, name, keep, what):
    write_colmap_bin(tmp_path, *simple_colmap_model())
    path = tmp_path / name
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FileFormatError) as caught:
        load_cameras_colmap(tmp_path)
    assert str(caught.value) == f"{path}: unexpected end of file while reading {what}"


def test_poses_sorted_by_image_name(tmp_path):
    cameras, images = simple_colmap_model()
    write_colmap_bin(tmp_path, cameras, images)
    poses = load_cameras_colmap(tmp_path)
    # names a_second, b_first, c_third map onto image ids 1, 3, 2
    assert [p.image_id for p in poses] == [1, 3, 2]


def test_binary_preferred_over_text(tmp_path):
    cameras, images = simple_colmap_model()
    write_colmap_bin(tmp_path, cameras, images)
    # text copy with a broken camera model would fail if parsed
    write_colmap_txt(tmp_path, [dict(cameras[0], model="SIMPLE_RADIAL")], images[:1])
    poses = load_cameras_colmap(tmp_path)
    assert len(poses) == 3


def test_unsupported_model_rejected(tmp_path):
    cameras = [{"id": 1, "model": "SIMPLE_RADIAL", "width": 800, "height": 600,
                "params": (500.0, 400.0, 300.0, 0.01)}]
    images = [{"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 0.0),
               "camera_id": 1, "name": "a.png"}]
    write_colmap_txt(tmp_path, cameras, images)
    with pytest.raises(FileFormatError, match="unsupported camera model: SIMPLE_RADIAL"):
        load_cameras_colmap(tmp_path)


def test_missing_camera_reference(tmp_path):
    cameras = [{"id": 1, "model": "PINHOLE", "width": 640, "height": 480,
                "params": (500.0, 500.0, 320.0, 240.0)}]
    images = [{"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 0.0),
               "camera_id": 7, "name": "a.png"}]
    write_colmap_bin(tmp_path, cameras, images)
    with pytest.raises(FileFormatError, match="missing camera_id 7"):
        load_cameras_colmap(tmp_path)


def test_empty_directory(tmp_path):
    with pytest.raises(FileFormatError, match="cameras.bin"):
        load_cameras_colmap(tmp_path)


def test_rotation_assembled_from_quaternion(tmp_path):
    sq = np.sqrt(0.5)
    cameras = [{"id": 1, "model": "PINHOLE", "width": 640, "height": 480,
                "params": (500.0, 500.0, 320.0, 240.0)}]
    images = [{"id": 1, "qvec": (sq, 0.0, 0.0, sq), "tvec": (1.0, 2.0, 3.0),
               "camera_id": 1, "name": "a.png"}]
    write_colmap_bin(tmp_path, cameras, images)
    (pose,) = load_cameras_colmap(tmp_path)
    # 90 degrees about z: x -> y
    np.testing.assert_allclose(pose.rotation @ np.array([1.0, 0, 0]),
                               [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(pose.translation, [1.0, 2.0, 3.0])


GOOD_CAMERA_LINE = "1 PINHOLE 640 480 500.0 500.0 320.0 240.0"
GOOD_IMAGE_LINE = "1 1.0 0.0 0.0 0.0 0.0 0.0 0.0 1 a.png"


def write_text_model(directory, camera_line=GOOD_CAMERA_LINE, image_line=GOOD_IMAGE_LINE):
    (directory / "cameras.txt").write_text(f"# CAMERA_ID, MODEL, WIDTH, HEIGHT\n{camera_line}\n")
    (directory / "images.txt").write_text(f"# IMAGE_ID, ...\n# NAME\n{image_line}\n\n")


@pytest.mark.parametrize("camera_line, image_line, where", [
    ("1 PINHOLE abc 480 500.0 500.0 320.0 240.0", GOOD_IMAGE_LINE, "cameras.txt:2: bad camera"),
    ("1 PINHOLE 640 480 500.0", GOOD_IMAGE_LINE, "cameras.txt:2: a PINHOLE camera has 4"),
    (GOOD_CAMERA_LINE, "1 1.0 0.0 0.0 0.0 0.0 0.0", "images.txt:3: bad image"),
], ids=["non-integer-width", "one-pinhole-parameter", "short-pose-line"])
def test_malformed_text_line_is_format_error_naming_the_line(
        tmp_path, camera_line, image_line, where):
    write_text_model(tmp_path, camera_line, image_line)
    with pytest.raises(FileFormatError, match=where):
        load_cameras_colmap(tmp_path)
