"""Reader for the community 32-byte ``.splat`` format.

Record layout (little endian):
  bytes  0-11  position, 3 x float32
  bytes 12-23  linear scale, 3 x float32
  bytes 24-27  RGBA, 4 x uint8
  bytes 28-31  quaternion (w, x, y, z), uint8 each, decoded as (b - 128) / 128
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FileFormatError
from ..scene import SH_C0
from ..types import RawGaussians

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

    with np.errstate(invalid="ignore"):  # a signalling NaN; drop_invalid removes its row
        position = table["position"].astype(np.float64)
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

    raw = RawGaussians(position=position, log_scale=log_scale, rotation=rotation,
                       logit_opacity=logit_opacity, sh_dc=sh_dc)
    return raw.drop_invalid(path)
