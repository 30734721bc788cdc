"""Binary .splat decoding and the decode/encode fixed point."""

import math
import struct

import numpy as np
import pytest

from splatcloud.errors import DomainError, FileFormatError
from splatcloud.formats import (
    encode_gaussians_splat,
    load_gaussians_splat,
    write_gaussians_splat,
)

from conftest import random_records


def pack_record(position, scale, rgba, quat_bytes):
    return struct.pack("<3f3f4B4B", *position, *scale, *rgba, *quat_bytes)


def test_reference_record(tmp_path):
    # byte-formula oracle: scale 1 -> log 0, quat byte b -> (b - 128) / 128
    path = tmp_path / "one.splat"
    path.write_bytes(pack_record((0, 0, 0), (1, 1, 1), (128, 128, 128, 255),
                                 (255, 128, 128, 128)))
    raw = load_gaussians_splat(path)
    assert len(raw) == 1
    np.testing.assert_array_equal(raw.position[0], [0, 0, 0])
    np.testing.assert_array_equal(raw.log_scale[0], [0, 0, 0])
    np.testing.assert_allclose(raw.rotation[0], [0.9921875, 0, 0, 0], atol=0)
    # rgb byte 128 -> inverse of colour = 0.5 + C0 * sh
    np.testing.assert_allclose(raw.sh_dc[0], [0.006950799415315724] * 3, rtol=1e-12)


def test_alpha_byte_255_clamps(tmp_path):
    path = tmp_path / "alpha.splat"
    path.write_bytes(pack_record((0, 0, 0), (1, 1, 1), (0, 0, 0, 255), (255, 128, 128, 128)))
    raw = load_gaussians_splat(path)
    assert len(raw) == 1
    expected = math.log((1 - 1 / 512) / (1 / 512))  # logit(1 - 1/512)
    assert raw.logit_opacity[0] == pytest.approx(expected, rel=1e-12)


def test_alpha_byte_0_clamps(tmp_path):
    path = tmp_path / "alpha0.splat"
    path.write_bytes(pack_record((0, 0, 0), (1, 1, 1), (0, 0, 0, 0), (255, 128, 128, 128)))
    raw = load_gaussians_splat(path)
    assert len(raw) == 1
    assert raw.logit_opacity[0] == pytest.approx(math.log((1 / 512) / (1 - 1 / 512)))


def test_length_not_multiple_of_32(tmp_path):
    path = tmp_path / "bad.splat"
    path.write_bytes(b"\x00" * 33)
    with pytest.raises(FileFormatError, match="remainder 1"):
        load_gaussians_splat(path)


def test_non_positive_scale(tmp_path):
    path = tmp_path / "scale.splat"
    path.write_bytes(pack_record((0, 0, 0), (1, -1, 1), (0, 0, 0, 128), (255, 128, 128, 128)))
    with pytest.raises(FileFormatError, match="non-positive scale"):
        load_gaussians_splat(path)


def test_non_finite_records_dropped(tmp_path, caplog):
    good = (1.0, 1.0, 1.0)
    path = tmp_path / "nonfinite.splat"
    path.write_bytes(b"".join([
        pack_record((0, 0, 0), good, (0, 0, 0, 128), (255, 128, 128, 128)),
        pack_record((math.nan, 0, 0), good, (0, 0, 0, 128), (255, 128, 128, 128)),
        pack_record((0, math.inf, 0), good, (0, 0, 0, 128), (255, 128, 128, 128)),
        pack_record((0, 0, 0), (1.0, math.inf, 1.0), (0, 0, 0, 128), (255, 128, 128, 128)),
        pack_record((4, 0, 0), good, (0, 0, 0, 128), (255, 128, 128, 128)),
    ]))
    raw = load_gaussians_splat(path)
    assert raw.position[:, 0].tolist() == [0, 4]
    assert np.isfinite(raw.position).all() and np.isfinite(raw.log_scale).all()
    assert any("dropped 3 invalid records" in message for message in caplog.messages)


def test_decode_encode_decode_fixed_point(tmp_path, rng):
    # after one decode the values sit on the u8/f32 grid; encoding is lossless
    n = 64
    raw = b"".join(
        pack_record(
            rng.uniform(-10, 10, 3),
            rng.uniform(0.01, 4.0, 3),
            rng.integers(0, 256, 4),
            rng.integers(0, 256, 4),
        )
        for _ in range(n)
    )
    path = tmp_path / "fuzz.splat"
    path.write_bytes(raw)
    first = load_gaussians_splat(path)
    assert len(first) == n or len(first) == n - sum(
        1 for i in range(n) if raw[32 * i + 28:32 * i + 32] == bytes([128] * 4))

    encoded = encode_gaussians_splat(first)
    path2 = tmp_path / "fuzz2.splat"
    path2.write_bytes(encoded)
    second = load_gaussians_splat(path2)

    assert len(first) == len(second)
    np.testing.assert_array_equal(first.position, second.position)
    np.testing.assert_array_equal(first.log_scale, second.log_scale)
    np.testing.assert_array_equal(first.rotation, second.rotation)
    np.testing.assert_array_equal(first.sh_dc, second.sh_dc)
    np.testing.assert_array_equal(first.logit_opacity, second.logit_opacity)
    assert encode_gaussians_splat(second) == encoded


def test_write_helper_roundtrip(tmp_path, rng):
    path = tmp_path / "write.splat"
    raw = pack_record((1, 2, 3), (0.5, 0.25, 2.0), (10, 20, 30, 200), (200, 100, 50, 25))
    path.write_bytes(raw)
    records = load_gaussians_splat(path)
    out = tmp_path / "copy.splat"
    write_gaussians_splat(records, out)
    assert out.read_bytes() == raw


def test_order_preserved(tmp_path):
    raw = b"".join(
        pack_record((i, 0, 0), (1, 1, 1), (i, 0, 0, 128), (255, 128, 128, 128))
        for i in range(5)
    )
    path = tmp_path / "order.splat"
    path.write_bytes(raw)
    records = load_gaussians_splat(path)
    assert records.position[:, 0].tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("column, index", [
    ("position", (1, 0)), ("log_scale", (2, 2)), ("rotation", (3, 1)),
    ("logit_opacity", 4), ("sh_dc", (5, 0)),
])
def test_encode_rejects_non_finite_rows(rng, column, index):
    raw = random_records(rng, 8)
    getattr(raw, column)[index] = np.nan
    raw.rotation[6] = 0.0
    with pytest.raises(DomainError, match="cannot encode 2 invalid gaussians"):
        encode_gaussians_splat(raw)
