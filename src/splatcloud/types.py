"""Core domain types shared by the loaders, renderer and samplers.

Columnar tables hold one row per element in every array field and share one
row-subset rule, :func:`take_rows`.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

# Largest image width or height a camera may declare; the colour pass
# allocates whole images, so a corrupt size must fail at load instead.
MAX_IMAGE_SIDE = 65535

# Normals whose length a point cloud checks at once: bounds the float64
# temporaries of the check.
NORMAL_CHECK_ROWS = 1 << 15


def take_rows(table, selector):
    """The rows ``selector`` picks from every column of a columnar dataclass.

    ``selector`` is a boolean mask, an index array or a slice, applied to each
    ndarray field in turn; a nested table is subset the same way and ``None``
    stays ``None``. The result is a shallow copy of ``table``: the constructor
    does not run again, since a row subset of valid columns is still valid.
    Classes expose this as ``take``.
    """
    subset = copy.copy(table)
    for f in fields(table):
        value = getattr(table, f.name)
        if isinstance(value, np.ndarray):
            setattr(subset, f.name, _rows(value, selector))
        elif is_dataclass(value):
            setattr(subset, f.name, take_rows(value, selector))
    return subset


def _rows(column: np.ndarray, selector) -> np.ndarray:
    if isinstance(selector, np.ndarray) and selector.dtype == bool and column.ndim > 1:
        # A mask as wide as the column keeps numpy on its boolean path; a
        # one-wide mask would first become an 8-byte index per kept row.
        wide = np.broadcast_to(selector.reshape((-1,) + (1,) * (column.ndim - 1)), column.shape)
        return column[wide].reshape((np.count_nonzero(selector),) + column.shape[1:])
    return column[selector]


def dot3(a, b):
    """``sum_j a[..., j] * b[..., j]`` over a last axis of 3, as ``(j0 + j2) + j1``.

    The order is written out rather than left to a numpy summation kernel,
    whose order depends on its SIMD build. It matches what numpy 2.4's
    ``einsum`` gave on x86-64 for the sums it replaced, so their outputs kept
    their bytes.
    """
    return (a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]


@dataclass
class RawGaussians:
    """Gaussians exactly as stored on disk, before any activation; one row each.

    ``rotation`` holds raw (w, x, y, z) quaternions that may be unnormalised;
    ``log_scale`` holds the log of the per-axis standard deviation;
    ``sh_dc`` holds the degree-0 SH coefficients, the only colour term the
    pipeline reads. Every column is stored as a C-contiguous float64 array.
    ``invalid_dropped`` counts the rows :meth:`drop_invalid` removed on the
    way to this table; it is not a column.
    """

    invalid_dropped = 0

    position: np.ndarray        # (N, 3)
    log_scale: np.ndarray       # (N, 3)
    rotation: np.ndarray        # (N, 4)
    logit_opacity: np.ndarray   # (N,)
    sh_dc: np.ndarray           # (N, 3)

    @np.errstate(invalid="ignore")  # widening a signalling NaN; drop_invalid removes its row
    def __post_init__(self):
        for name, width in (("position", 3), ("log_scale", 3), ("rotation", 4), ("sh_dc", 3)):
            values = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, values.reshape(-1, width))
        self.logit_opacity = np.ascontiguousarray(self.logit_opacity, dtype=np.float64).reshape(-1)
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if len(lengths) > 1:
            raise DomainError(f"raw gaussian columns must share one length, got {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.position)

    take = take_rows

    def valid_rows(self) -> np.ndarray:
        """Boolean mask of the rows activation can use.

        A row is valid only if every field is finite and its quaternion has
        a non-zero norm.
        """
        keep = np.isfinite(self.logit_opacity)
        for values in (self.position, self.log_scale, self.rotation, self.sh_dc):
            keep &= np.isfinite(values).all(axis=1)
        with np.errstate(over="ignore"):
            keep &= np.linalg.norm(self.rotation, axis=1) > 0.0
        return keep

    def drop_invalid(self, source) -> "RawGaussians":
        """Remove the rows :meth:`valid_rows` rejects, warning with their count."""
        keep = self.valid_rows()
        if keep.all():
            return self
        dropped = int(np.count_nonzero(~keep))
        log.warning("%s: dropped %d invalid records (non-finite value or zero quaternion)",
                    source, dropped)
        subset = self.take(keep)
        subset.invalid_dropped = dropped
        return subset


@dataclass(frozen=True)
class CameraPose:
    """Pinhole intrinsics plus a world-to-camera rigid transform.

    Follows the COLMAP convention: the camera looks down +Z, x points right
    and y points down in camera space.
    """

    image_id: int
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    world_to_camera: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.world_to_camera, dtype=np.float64)
        if m.shape != (4, 4):
            raise DomainError(f"world_to_camera must be 4x4, got {m.shape}")
        object.__setattr__(self, "world_to_camera", m)
        if not (np.isfinite([self.fx, self.fy, self.cx, self.cy]).all() and np.isfinite(m).all()):
            raise DomainError(
                f"pose {self.image_id}: intrinsics and world_to_camera must be finite")
        if not (1 <= self.width <= MAX_IMAGE_SIDE and 1 <= self.height <= MAX_IMAGE_SIDE):
            raise DomainError(f"pose {self.image_id}: image size {self.width}x{self.height} "
                              f"outside 1..{MAX_IMAGE_SIDE} pixels per side")
        if not (self.fx > 0 and self.fy > 0):
            raise DomainError(f"focal lengths must be positive (fx={self.fx}, fy={self.fy})")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise DomainError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )
        r = m[:3, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-5):
            raise DomainError(f"rotation block of pose {self.image_id} is not orthonormal")

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_camera[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_camera[:3, 3]

    @property
    def camera_centre(self) -> np.ndarray:
        """Camera position in world coordinates, ``-R^T t`` with :func:`dot3`'s sums."""
        return -dot3(self.rotation.T, self.translation)

    def scaled(self, scale: float) -> "CameraPose":
        """Return a copy rendered at ``scale`` times the original resolution.

        Intrinsics scale by the ratio each side took after rounding to whole
        pixels, so the principal point stays inside the image.
        """
        if scale == 1.0:
            return self
        width = max(1, int(round(self.width * scale)))
        height = max(1, int(round(self.height * scale)))
        sx, sy = width / self.width, height / self.height
        return replace(self, width=width, height=height, fx=self.fx * sx, fy=self.fy * sy,
                       cx=self.cx * sx, cy=self.cy * sy)


def _worst_unit_deviation(normals: np.ndarray) -> float:
    """Largest ``| ||n|| - 1 |`` over the rows, from a float64 norm; NaN if any is NaN."""
    return np.abs(np.linalg.norm(normals.astype(np.float64), axis=1) - 1.0).max()


def quantize_colours(colours_unit: np.ndarray) -> np.ndarray:
    """[0, 1] floats to uint8 with round-half-up per channel."""
    return np.clip(np.floor(colours_unit * 255.0 + 0.5), 0, 255).astype(np.uint8)


@dataclass
class PointCloud:
    """Positions with 8-bit colours and optional unit normals."""

    points: np.ndarray
    colours: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float32).reshape(-1, 3)
        self.colours = np.ascontiguousarray(self.colours, dtype=np.uint8).reshape(-1, 3)
        if len(self.points) != len(self.colours):
            raise DomainError(
                f"points/colours length mismatch: {len(self.points)} vs {len(self.colours)}"
            )
        if self.normals is not None:
            self.normals = np.ascontiguousarray(self.normals, dtype=np.float32).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise DomainError(
                    f"points/normals length mismatch: {len(self.points)} vs {len(self.normals)}"
                )
            # np.max, unlike max(), keeps a NaN block's NaN as the worst
            worst = np.max([_worst_unit_deviation(self.normals[lo:lo + NORMAL_CHECK_ROWS])
                            for lo in range(0, len(self.normals), NORMAL_CHECK_ROWS)],
                           initial=0.0)
            if not worst <= 1e-4:
                raise DomainError(f"normals must be unit length (worst deviation {worst:.2e})")

    def __len__(self) -> int:
        return len(self.points)

    take = take_rows
