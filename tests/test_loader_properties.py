"""Property tests: a damaged input file either loads or fails with a typed error.

Each loader gets a small valid file that was truncated or had bytes
overwritten (at random, or with special text or float values); a PLY header
may also declare more vertices than the body holds, or big-endian data, and
a COLMAP ``images.bin`` more 2D points than an image holds. It
must load, with only finite rows, or raise a ``SplatCloudError`` subclass;
any other exception, including a numpy RuntimeWarning, fails the test.
"""

import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from splatcloud.errors import SplatCloudError
from splatcloud.formats import (
    load_cameras_colmap,
    load_cameras_nerf_json,
    load_gaussians_ply,
    load_gaussians_splat,
)

from conftest import (
    encode_splat,
    random_records,
    simple_colmap_model,
    write_colmap_bin,
    write_colmap_txt,
    write_scene_ply,
)

ROWS = 12

# Values a loader must not trip over, as float32 fields and as text.
SIGNALLING_NAN = b"\x01\x00\x80\x7f"
FLOAT_SPECIALS = [np.float32(v).tobytes() for v in (np.nan, np.inf, -np.inf, -0.0, 1e-45)] + [
    SIGNALLING_NAN]
TEXT_SPECIALS = [b"nan", b"inf", b"-1e999", b"0", b"\n", b"\xff"]


@functools.cache
def sources() -> dict[str, bytes]:
    """Valid input files, by name, as bytes (written on first use)."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        raw = random_records(np.random.default_rng(7), ROWS)
        write_scene_ply(raw, directory / "binary.ply")
        write_scene_ply(raw, directory / "ascii.ply", binary=False)
        (directory / "scene.splat").write_bytes(encode_splat(raw))
        write_colmap_txt(directory, *simple_colmap_model())
        write_colmap_bin(directory, *simple_colmap_model())
        (directory / "transforms.json").write_text(json.dumps({
            "camera_angle_x": 0.9,
            "frames": [{"file_path": f"r_{i}", "w": 64, "h": 48,
                        "transform_matrix": np.eye(4).tolist()} for i in range(3)],
        }))
        return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


@st.composite
def damaged(draw, source: bytes, body: int = 0) -> bytes:
    """``source`` truncated, or with one to eight overwrites.

    An overwrite is a random byte or a special text value anywhere, or a
    special float32 on a whole four-byte field of the body starting at
    ``body``.
    """
    how = draw(st.sampled_from(["truncate", "bytes", "fields"]))
    if how == "truncate":
        return source[:draw(st.integers(0, len(source) - 1))]
    if how == "bytes":
        at = st.integers(0, len(source) - 1)
        chunks = st.one_of(st.binary(min_size=1, max_size=1), st.sampled_from(TEXT_SPECIALS))
    else:
        at = st.integers(0, (len(source) - body) // 4 - 1).map(lambda field: body + 4 * field)
        chunks = st.sampled_from(FLOAT_SPECIALS)
    out = bytearray(source)
    for start, chunk in draw(st.lists(st.tuples(at, chunks), min_size=1, max_size=8)):
        chunk = chunk[:len(out) - start]  # keep the length
        out[start:start + len(chunk)] = chunk
    return bytes(out)


def loads_or_fails_typed(load, path):
    try:
        return load(path)
    except SplatCloudError:
        return None


@given(data=st.data())
def test_damaged_ply_loads_or_fails_typed(workdir, data):
    source = sources()[data.draw(st.sampled_from(["binary.ply", "ascii.ply"]))]
    header = data.draw(st.one_of(st.none(), st.sampled_from(["oversized count", "big endian"])))
    if header == "oversized count":
        count = data.draw(st.integers(ROWS + 1, 2**62))
        source = source.replace(b"element vertex %d\n" % ROWS, b"element vertex %d\n" % count)
    elif header == "big endian":
        source = source.replace(b"binary_little_endian", b"binary_big_endian")
    body = source.index(b"end_header\n") + len(b"end_header\n")
    path = workdir / "scene.ply"
    path.write_bytes(data.draw(damaged(source, body)))
    raw = loads_or_fails_typed(load_gaussians_ply, path)
    assert raw is None or raw.valid_rows().all()


@given(data=st.data())
def test_damaged_splat_loads_or_fails_typed(workdir, data):
    path = workdir / "scene.splat"
    path.write_bytes(data.draw(damaged(sources()["scene.splat"])))
    raw = loads_or_fails_typed(load_gaussians_splat, path)
    assert raw is None or raw.valid_rows().all()


@given(data=st.data())
def test_damaged_colmap_text_loads_or_fails_typed(workdir, data):
    target = data.draw(st.sampled_from(["cameras.txt", "images.txt"]))
    for name in ("cameras.txt", "images.txt"):
        source = sources()[name]
        (workdir / name).write_bytes(data.draw(damaged(source)) if name == target else source)
    loads_or_fails_typed(load_cameras_colmap, workdir)


@given(data=st.data())
def test_damaged_colmap_binary_loads_or_fails_typed(workdir, data):
    # a directory of its own: the loader prefers the binary pair over the text one
    directory = workdir / "binary"
    directory.mkdir(exist_ok=True)
    target = data.draw(st.sampled_from(["cameras.bin", "images.bin"]))
    for name in ("cameras.bin", "images.bin"):
        source = sources()[name]
        if name == target:
            if name == "images.bin" and data.draw(st.booleans()):
                # more 2D points than the image holds
                image = data.draw(st.sampled_from([b"a_second.png", b"b_first.png"]))
                at = source.index(image + b"\x00") + len(image) + 1
                count = data.draw(st.integers(3, 2**62))
                source = source[:at] + struct.pack("<Q", count) + source[at + 8:]
            source = data.draw(damaged(source))
        (directory / name).write_bytes(source)
    loads_or_fails_typed(load_cameras_colmap, directory)


@given(data=st.data())
def test_damaged_nerf_json_loads_or_fails_typed(workdir, data):
    path = workdir / "transforms.json"
    path.write_bytes(data.draw(damaged(sources()["transforms.json"])))
    loads_or_fails_typed(load_cameras_nerf_json, path)


@pytest.mark.parametrize("name, load", [("binary.ply", load_gaussians_ply),
                                        ("scene.splat", load_gaussians_splat)])
def test_signalling_nan_drops_its_row_without_a_warning(workdir, name, load):
    # widening a signalling NaN to float64 raises numpy's invalid-value flag
    source = sources()[name]
    body = source.index(b"end_header\n") + len(b"end_header\n") if name.endswith(".ply") else 0
    path = workdir / name
    path.write_bytes(source[:body] + SIGNALLING_NAN + source[body + 4:])
    assert len(load(path)) == ROWS - 1
