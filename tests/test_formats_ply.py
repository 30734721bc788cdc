"""Gaussian PLY loading and point-cloud PLY writing."""

from dataclasses import fields

import numpy as np
import pytest

from reference import read_cloud, read_ply_reference
from splatcloud.cli import main
from splatcloud.errors import FileFormatError, TruncatedFileError
from splatcloud.formats import load_gaussians_ply, write_pointcloud_ply
from splatcloud.types import PointCloud

from conftest import random_records, write_scene_ply

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
    raw = load_gaussians_ply(path)
    assert len(raw) == 3

    np.testing.assert_array_equal(raw.position[0], [0, 0, 0])
    np.testing.assert_array_equal(raw.log_scale[0], [0, 0, 0])
    np.testing.assert_array_equal(raw.rotation[0], [1, 0, 0, 0])
    assert raw.logit_opacity[0] == 0.5

    np.testing.assert_array_equal(raw.position[1], [1.5, -2.25, 3])
    np.testing.assert_array_equal(raw.sh_dc[1], [0.5, -0.5, 1])
    np.testing.assert_array_equal(raw.log_scale[1], [-0.5, -1, -1.5])
    np.testing.assert_array_equal(raw.rotation[1], [0.5, 0.5, 0.5, 0.5])
    assert raw.logit_opacity[1] == -1.0

    np.testing.assert_array_equal(raw.position[2], [-4, 5, -6])
    np.testing.assert_array_equal(raw.rotation[2], [0, 1, 0, 0])


def test_identity_scale_and_rotation(tmp_path):
    path = tmp_path / "identity.ply"
    path.write_text(ASCII_FIXTURE)
    raw = load_gaussians_ply(path)
    np.testing.assert_array_equal(raw.log_scale[0], (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(raw.rotation[0], (1.0, 0.0, 0.0, 0.0))


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
    write_scene_ply(records, path, binary=True)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TruncatedFileError) as excinfo:
        load_gaussians_ply(path)
    assert excinfo.value.byte_offset == len(data) - 10


def test_binary_ascii_agree(tmp_path, rng):
    records = random_records(rng, 16)
    bin_path = tmp_path / "scene_bin.ply"
    txt_path = tmp_path / "scene_ascii.ply"
    write_scene_ply(records, bin_path, binary=True)
    write_scene_ply(records, txt_path, binary=False)
    loaded_bin = load_gaussians_ply(bin_path)
    loaded_txt = load_gaussians_ply(txt_path)
    assert len(loaded_bin) == len(loaded_txt) == 16
    np.testing.assert_array_equal(loaded_bin.position, loaded_txt.position)
    np.testing.assert_array_equal(loaded_bin.rotation, loaded_txt.rotation)
    np.testing.assert_array_equal(loaded_bin.logit_opacity, loaded_txt.logit_opacity)


def test_roundtrip_preserves_order_and_values(tmp_path, rng):
    # loader + writer reproduce float32 inputs exactly, record i stays record i
    records = random_records(rng, 50)
    path = tmp_path / "roundtrip.ply"
    write_scene_ply(records, path)
    loaded = load_gaussians_ply(path)
    assert len(loaded) == len(records)
    np.testing.assert_array_equal(loaded.position,
                                  records.position.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.log_scale,
                                  records.log_scale.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.rotation,
                                  records.rotation.astype(np.float32).astype(np.float64))


def test_writer_and_loader_agree_with_reference_parser(tmp_path, rng):
    # every column lands in its named property as float32; the f_rest
    # columns between f_dc_2 and opacity move no other column
    records = random_records(rng, 40)
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path, sh_rest=rng.uniform(-1.0, 1.0, (40, 5)))
    columns = read_ply_reference(path)
    loaded = load_gaussians_ply(path)
    for field, names in [
        ("position", ["x", "y", "z"]),
        ("sh_dc", ["f_dc_0", "f_dc_1", "f_dc_2"]),
        ("logit_opacity", ["opacity"]),
        ("log_scale", ["scale_0", "scale_1", "scale_2"]),
        ("rotation", ["rot_0", "rot_1", "rot_2", "rot_3"]),
    ]:
        parsed = np.array([columns[n] for n in names]).T.reshape(getattr(records, field).shape)
        np.testing.assert_array_equal(parsed, getattr(records, field).astype(np.float32))
        np.testing.assert_array_equal(getattr(loaded, field), parsed)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_f_rest_columns_are_ignored(tmp_path, rng, caplog, binary):
    # higher-order SH are not read: 0, 9 or 45 f_rest columns, or 45 that are
    # NaN in every row, load the same bytes and drop no row
    records = random_records(rng, 30)
    n = len(records)
    loaded = []
    for i, sh_rest in enumerate([np.zeros((n, 0)), rng.uniform(-1.0, 1.0, (n, 9)),
                                 rng.uniform(-1.0, 1.0, (n, 45)), np.full((n, 45), np.nan)]):
        path = tmp_path / f"rest{i}.ply"
        write_scene_ply(records, path, binary=binary, sh_rest=sh_rest)
        raw = load_gaussians_ply(path)
        loaded.append([(column.dtype, column.shape, column.tobytes())
                       for column in (getattr(raw, f.name) for f in fields(raw))])
    assert all(columns == loaded[0] for columns in loaded)
    assert loaded[0][0][1] == (n, 3)
    assert not any("dropped" in message for message in caplog.messages)


def test_non_finite_rows_dropped(tmp_path, rng, caplog):
    records = random_records(rng, 50)
    records.position[3, 1] = np.nan
    records.logit_opacity[10] = np.nan
    records.sh_dc[20, 2] = np.nan
    records.rotation[30, 0] = np.inf
    path = tmp_path / "nonfinite.ply"
    write_scene_ply(records, path)
    loaded = load_gaussians_ply(path)
    keep = np.setdiff1d(np.arange(50), [3, 10, 20, 30])
    assert len(loaded) == 46
    np.testing.assert_array_equal(loaded.position,
                                  records.position[keep].astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.logit_opacity,
                                  records.logit_opacity[keep].astype(np.float32).astype(np.float64))
    for column in (loaded.position, loaded.log_scale, loaded.rotation,
                   loaded.logit_opacity, loaded.sh_dc):
        assert np.isfinite(column).all()
    assert any("dropped 4 invalid records" in message for message in caplog.messages)


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


@pytest.mark.parametrize("original, line", [
    pytest.param(original, bad, id=bad) for original, bad in [
        ("element vertex 3", "element vertex abc"),
        ("element vertex 3", "element vertex"),
        ("element vertex 3", "element vertex -3"),
        ("format ascii 1.0", "format"),
        ("property float x", "property float"),
        ("property float x", "property list uchar"),
    ]
])
def test_bad_element_count_is_format_error(tmp_path, original, line):
    path = tmp_path / "scene.ply"
    path.write_text(ASCII_FIXTURE.replace(original, line))
    with pytest.raises(FileFormatError) as caught:
        load_gaussians_ply(path)
    assert str(path) in str(caught.value) and f"'{line}'" in str(caught.value)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
def test_duplicate_property_is_format_error(tmp_path, rng, binary):
    path = tmp_path / "scene.ply"
    write_scene_ply(random_records(rng, 3), path, binary=binary)
    path.write_bytes(path.read_bytes().replace(b"float rot_1\n", b"float rot_0\n"))
    with pytest.raises(FileFormatError, match="declares property 'rot_0' twice"):
        load_gaussians_ply(path)


def test_non_numeric_ascii_value_is_format_error(tmp_path):
    path = tmp_path / "scene.ply"
    path.write_text(ASCII_FIXTURE.replace("1.5 -2.25 3", "1.5 abc 3"))
    with pytest.raises(FileFormatError) as caught:
        load_gaussians_ply(path)
    assert str(path) in str(caught.value) and "vertex line 1" in str(caught.value)
    assert "'abc'" in str(caught.value)


def test_non_numeric_ascii_value_is_cli_runtime_error(tmp_path, capsys):
    path = tmp_path / "scene.ply"
    path.write_text(ASCII_FIXTURE.replace("1.5 -2.25 3", "1.5 abc 3"))
    out = tmp_path / "cloud.ply"
    assert main([str(path), str(out)]) == 1
    err = capsys.readouterr().err
    assert "load-gaussians" in err and str(path) in err and "vertex line 1" in err
    assert not out.exists()


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

    again = read_cloud(path)
    np.testing.assert_array_equal(again.points, cloud.points)
    np.testing.assert_array_equal(again.colours, cloud.colours)


def test_write_empty_cloud(tmp_path):
    cloud = PointCloud(points=np.zeros((0, 3), dtype=np.float32),
                       colours=np.zeros((0, 3), dtype=np.uint8))
    path = tmp_path / "empty.ply"
    write_pointcloud_ply(cloud, path)
    assert b"element vertex 0" in path.read_bytes()
    assert len(read_cloud(path)) == 0


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

    again = read_cloud(path)
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
    again = read_cloud(path)
    assert again.points.tobytes() == values.tobytes()

