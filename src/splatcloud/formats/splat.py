"""Reader/writer for the community 32-byte ``.splat`` format.

Record layout (little endian):
  bytes  0-11  position, 3 x float32
  bytes 12-23  linear scale, 3 x float32
  bytes 24-27  RGBA, 4 x uint8
  bytes 28-31  quaternion (w, x, y, z), uint8 each, decoded as (b - 128) / 128
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DomainError, FileFormatError
from ..scene import SH_C0
from ..types import RawGaussians
from .atomic import atomic_write

RECORD_SIZE = 32

# Alpha bytes of 0/255 would give infinite logits; clamp 1/512 away from both ends.
ALPHA_CLAMP = 1.0 / 512.0

_RECORD_DTYPE = np.dtype([
    ("position", "<f4", 3),
    ("scale", "<f4", 3),
    ("rgba", "u1", 4),
    ("quat", "u1", 4),
])


def load_gaussians_splat(path) -> RawGaussians:
    """Decode a .splat file into raw Gaussians.

    Rows with a non-finite position or scale, or a zero-norm quaternion,
    are dropped with a warning (:meth:`RawGaussians.drop_invalid`).
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) % RECORD_SIZE != 0:
        raise FileFormatError(
            f"{path}: length {len(data)} is not a multiple of {RECORD_SIZE} "
            f"(remainder {len(data) % RECORD_SIZE})"
        )
    table = np.frombuffer(data, dtype=_RECORD_DTYPE)

    scale = table["scale"].astype(np.float64)
    if np.any(scale <= 0):
        bad = int(np.argwhere(scale <= 0)[0][0])
        raise FileFormatError(f"{path}: record {bad} has non-positive scale (log undefined)")
    log_scale = np.log(scale)

    rgba = table["rgba"].astype(np.float64)
    sh_dc = (rgba[:, :3] / 255.0 - 0.5) / SH_C0
    alpha = np.clip(rgba[:, 3] / 255.0, ALPHA_CLAMP, 1.0 - ALPHA_CLAMP)
    logit_opacity = np.log(alpha / (1.0 - alpha))

    rotation = (table["quat"].astype(np.float64) - 128.0) / 128.0
    position = table["position"].astype(np.float64)

    raw = RawGaussians(position=position, log_scale=log_scale, rotation=rotation,
                       logit_opacity=logit_opacity, sh_dc=sh_dc)
    return raw.drop_invalid(path)


def encode_gaussians_splat(raw: RawGaussians) -> bytes:
    """Encode raw Gaussians back into .splat bytes (inverse of the loader).

    Decode -> encode -> decode is a fixed point: the first decode already
    lands on the u8-quantised grid, so re-encoding reproduces the bytes.
    Raises :class:`DomainError` if any row fails :meth:`RawGaussians.valid_rows`.
    """
    invalid = int(np.count_nonzero(~raw.valid_rows()))
    if invalid:
        raise DomainError(f"cannot encode {invalid} invalid gaussians as .splat "
                          f"(non-finite value or zero quaternion)")
    table = np.empty(len(raw), dtype=_RECORD_DTYPE)
    table["position"] = raw.position.astype(np.float32)
    table["scale"] = np.exp(raw.log_scale).astype(np.float32)
    colour = np.clip(0.5 + SH_C0 * raw.sh_dc, 0.0, 1.0)
    opacity = 1.0 / (1.0 + np.exp(-raw.logit_opacity))
    table["rgba"][:, :3] = np.floor(colour * 255.0 + 0.5).astype(np.uint8)
    table["rgba"][:, 3] = np.floor(opacity * 255.0 + 0.5).astype(np.uint8)
    quat = np.clip(np.floor(raw.rotation * 128.0 + 128.0 + 0.5), 0, 255)
    table["quat"] = quat.astype(np.uint8)
    return table.tobytes()


def write_gaussians_splat(raw: RawGaussians, path) -> None:
    with atomic_write(path) as fh:
        fh.write(encode_gaussians_splat(raw))
