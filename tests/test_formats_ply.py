"""Gaussian PLY loading and point-cloud PLY writing."""

import numpy as np
import pytest

from reference import read_ply_reference
from splatcloud.errors import FileFormatError, TruncatedFileError
from splatcloud.formats import (
    load_gaussians_ply,
    read_pointcloud_ply,
    write_gaussians_ply,
    write_pointcloud_ply,
)
from splatcloud.types import PointCloud

from conftest import random_records

ASCII_FIXTURE = """ply
format ascii 1.0
comment three hand-written gaussians
element vertex 3
property float x
property float y
property float z
property float f_dc_0
property float f_dc_1
property float f_dc_2
property float f_rest_1
property float f_rest_0
property float opacity
property float scale_0
property float scale_1
property float scale_2
property float rot_0
property float rot_1
property float rot_2
property float rot_3
end_header
0 0 0 0 0 0 0.25 0.125 0.5 0 0 0 1 0 0 0
1.5 -2.25 3 0.5 -0.5 1 1 2 -1 -0.5 -1 -1.5 0.5 0.5 0.5 0.5
-4 5 -6 1.25 0 -1.25 -3 4 2 0.25 0 -0.25 0 1 0 0
"""


def test_ascii_fixture_field_exact(tmp_path):
    # expected values read straight off the fixture text above
    path = tmp_path / "scene.ply"
    path.write_text(ASCII_FIXTURE)
    records = load_gaussians_ply(path)
    assert len(records) == 3

    first = records[0]
    np.testing.assert_array_equal(first.position, [0, 0, 0])
    np.testing.assert_array_equal(first.log_scale, [0, 0, 0])
    np.testing.assert_array_equal(first.rotation, [1, 0, 0, 0])
    assert first.logit_opacity == 0.5
    #  f_rest columns are gathered in index order regardless of file order
    np.testing.assert_array_equal(first.sh_rest, [0.125, 0.25])

    second = records[1]
    np.testing.assert_array_equal(second.position, [1.5, -2.25, 3])
    np.testing.assert_array_equal(second.sh_dc, [0.5, -0.5, 1])
    np.testing.assert_array_equal(second.log_scale, [-0.5, -1, -1.5])
    np.testing.assert_array_equal(second.rotation, [0.5, 0.5, 0.5, 0.5])
    assert second.logit_opacity == -1.0
    np.testing.assert_array_equal(second.sh_rest, [2, 1])

    third = records[2]
    np.testing.assert_array_equal(third.position, [-4, 5, -6])
    np.testing.assert_array_equal(third.rotation, [0, 1, 0, 0])


def test_identity_scale_and_rotation(tmp_path):
    path = tmp_path / "identity.ply"
    path.write_text(ASCII_FIXTURE)
    record = load_gaussians_ply(path)[0]
    np.testing.assert_array_equal(record.log_scale, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(record.rotation, (1.0, 0.0, 0.0, 0.0))


def test_missing_opacity_property(tmp_path):
    text = ASCII_FIXTURE.replace("property float opacity\n", "")
    text = text.replace("0 0 0 0 0 0 0.25 0.125 0.5 0 0 0 1 0 0 0",
                        "0 0 0 0 0 0 0.25 0.125 0 0 0 1 0 0 0")
    text = text.replace("1.5 -2.25 3 0.5 -0.5 1 1 2 -1 -0.5 -1 -1.5 0.5 0.5 0.5 0.5",
                        "1.5 -2.25 3 0.5 -0.5 1 1 2 -0.5 -1 -1.5 0.5 0.5 0.5 0.5")
    text = text.replace("-4 5 -6 1.25 0 -1.25 -3 4 2 0.25 0 -0.25 0 1 0 0",
                        "-4 5 -6 1.25 0 -1.25 -3 4 0.25 0 -0.25 0 1 0 0")
    path = tmp_path / "broken.ply"
    path.write_text(text)
    with pytest.raises(FileFormatError, match="missing property: opacity"):
        load_gaussians_ply(path)


def test_binary_truncated_body_reports_offset(tmp_path, rng):
    records = random_records(rng, 4)
    path = tmp_path / "scene.ply"
    write_gaussians_ply(records, path, binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TruncatedFileError) as excinfo:
        load_gaussians_ply(path)
    assert excinfo.value.byte_offset == len(data) - 10


def test_binary_ascii_agree(tmp_path, rng):
    records = random_records(rng, 16)
    bin_path = tmp_path / "scene_bin.ply"
    txt_path = tmp_path / "scene_ascii.ply"
    write_gaussians_ply(records, bin_path, binary=True)
    write_gaussians_ply(records, txt_path, binary=False)
    loaded_bin = load_gaussians_ply(bin_path)
    loaded_txt = load_gaussians_ply(txt_path)
    assert len(loaded_bin) == len(loaded_txt) == 16
    for a, b in zip(loaded_bin, loaded_txt):
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        assert a.logit_opacity == b.logit_opacity


def test_roundtrip_preserves_order_and_values(tmp_path, rng):
    # loader + writer reproduce float32 inputs exactly, record i stays record i
    records = random_records(rng, 50)
    path = tmp_path / "roundtrip.ply"
    write_gaussians_ply(records, path)
    loaded = load_gaussians_ply(path)
    assert len(loaded) == len(records)
    for original, parsed in zip(records, loaded):
        np.testing.assert_array_equal(parsed.position,
                                      original.position.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(parsed.log_scale,
                                      original.log_scale.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(parsed.rotation,
                                      original.rotation.astype(np.float32).astype(np.float64))


def test_zero_norm_quaternion_rejected(tmp_path):
    text = ASCII_FIXTURE.replace("0.25 0 -0.25 0 1 0 0", "0.25 0 -0.25 0 0 0 0")
    path = tmp_path / "zeroquat.ply"
    path.write_text(text)
    records = load_gaussians_ply(path)
    assert len(records) == 2


def test_not_a_ply(tmp_path):
    path = tmp_path / "scene.ply"
    path.write_bytes(b"OFF\n1 2 3\n")
    with pytest.raises(FileFormatError):
        load_gaussians_ply(path)


@pytest.mark.parametrize("line", ["element vertex abc", "element vertex", "element vertex -3"])
def test_bad_element_count_is_format_error(tmp_path, line):
    path = tmp_path / "scene.ply"
    path.write_text(ASCII_FIXTURE.replace("element vertex 3", line))
    with pytest.raises(FileFormatError) as caught:
        load_gaussians_ply(path)
    assert str(path) in str(caught.value) and f"'{line}'" in str(caught.value)


# ---------------------------------------------------------------------------
# point cloud writer


def test_write_single_point_layout_and_roundtrip(tmp_path):
    cloud = PointCloud(points=np.array([[0.0, 0.0, 0.0]], dtype=np.float32),
                       colours=np.array([[255, 0, 0]], dtype=np.uint8))
    path = tmp_path / "one.ply"
    write_pointcloud_ply(cloud, path)
    data = path.read_bytes()
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    assert len(data) - header_end == 15  # 3 float32 + 3 uchar

    again = read_pointcloud_ply(path)
    np.testing.assert_array_equal(again.points, cloud.points)
    np.testing.assert_array_equal(again.colours, cloud.colours)


def test_write_empty_cloud(tmp_path):
    cloud = PointCloud(points=np.zeros((0, 3), dtype=np.float32),
                       colours=np.zeros((0, 3), dtype=np.uint8))
    path = tmp_path / "empty.ply"
    write_pointcloud_ply(cloud, path)
    assert b"element vertex 0" in path.read_bytes()
    assert len(read_pointcloud_ply(path)) == 0


def test_write_normals_after_blue(tmp_path, rng):
    n = 17
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(
        points=rng.standard_normal((n, 3)).astype(np.float32),
        colours=rng.integers(0, 256, (n, 3), dtype=np.uint8),
        normals=normals.astype(np.float32),
    )
    path = tmp_path / "normals.ply"
    write_pointcloud_ply(cloud, path)

    header = path.read_bytes().split(b"end_header")[0].decode()
    blue = header.index("property uchar blue")
    assert header.index("property float nx") > blue

    again = read_pointcloud_ply(path)
    np.testing.assert_array_equal(again.points, cloud.points)
    np.testing.assert_array_equal(again.colours, cloud.colours)
    np.testing.assert_array_equal(again.normals, cloud.normals)


def test_writer_against_independent_parser(tmp_path, rng):
    # the output must be consumable by a second, separately-written reader
    n = 23
    cloud = PointCloud(
        points=rng.standard_normal((n, 3)).astype(np.float32),
        colours=rng.integers(0, 256, (n, 3), dtype=np.uint8),
    )
    path = tmp_path / "oracle.ply"
    write_pointcloud_ply(cloud, path)
    columns = read_ply_reference(path)
    np.testing.assert_array_equal(
        np.stack([columns["x"], columns["y"], columns["z"]], axis=1).astype(np.float32),
        cloud.points,
    )
    np.testing.assert_array_equal(
        np.stack([columns["red"], columns["green"], columns["blue"]], axis=1),
        cloud.colours,
    )


def test_positions_bit_exact(tmp_path, rng):
    values = rng.standard_normal((40, 3)).astype(np.float32)
    cloud = PointCloud(points=values, colours=np.zeros((40, 3), dtype=np.uint8))
    path = tmp_path / "bits.ply"
    write_pointcloud_ply(cloud, path)
    again = read_pointcloud_ply(path)
    assert again.points.tobytes() == values.tobytes()
