"""Core domain types shared by the loaders, renderer and samplers."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)


@dataclass
class RawGaussians:
    """Gaussians exactly as stored on disk, before any activation; one row each.

    ``rotation`` holds raw (w, x, y, z) quaternions that may be unnormalised;
    ``log_scale`` holds the log of the per-axis standard deviation.
    ``sh_rest`` keeps any higher-order SH coefficients so that round trips
    are lossless, but nothing downstream reads them. Every column is stored
    as a C-contiguous float64 array.
    """

    position: np.ndarray        # (N, 3)
    log_scale: np.ndarray       # (N, 3)
    rotation: np.ndarray        # (N, 4)
    logit_opacity: np.ndarray   # (N,)
    sh_dc: np.ndarray           # (N, 3)
    sh_rest: np.ndarray | None = None  # (N, K); None means K = 0

    def __post_init__(self):
        for name, width in (("position", 3), ("log_scale", 3), ("rotation", 4), ("sh_dc", 3)):
            values = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, values.reshape(-1, width))
        self.logit_opacity = np.ascontiguousarray(self.logit_opacity, dtype=np.float64).reshape(-1)
        rest = np.zeros((len(self.position), 0)) if self.sh_rest is None else self.sh_rest
        self.sh_rest = np.ascontiguousarray(rest, dtype=np.float64)
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if self.sh_rest.ndim != 2 or len(lengths) > 1:
            raise DomainError(f"raw gaussian columns must be (N, ...) arrays with one N, "
                              f"got lengths {sorted(lengths)} and sh_rest {self.sh_rest.shape}")

    def __len__(self) -> int:
        return len(self.position)

    def take(self, selector) -> "RawGaussians":
        """Subset by boolean mask, index array or slice, preserving order."""
        return RawGaussians(
            position=self.position[selector],
            log_scale=self.log_scale[selector],
            rotation=self.rotation[selector],
            logit_opacity=self.logit_opacity[selector],
            sh_dc=self.sh_dc[selector],
            sh_rest=self.sh_rest[selector],
        )

    def valid_rows(self) -> np.ndarray:
        """Boolean mask of the rows activation can use.

        A row is valid only if every field read downstream (all but
        ``sh_rest``) is finite and its quaternion has a non-zero norm.
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
        log.warning("%s: dropped %d invalid records (non-finite value or zero quaternion)",
                    source, int(np.count_nonzero(~keep)))
        return self.take(keep)


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
        """Camera position in world coordinates."""
        return -self.rotation.T @ self.translation

    def scaled(self, scale: float) -> "CameraPose":
        """Return a copy rendered at ``scale`` times the original resolution."""
        if scale == 1.0:
            return self
        return CameraPose(
            image_id=self.image_id,
            width=max(1, int(round(self.width * scale))),
            height=max(1, int(round(self.height * scale))),
            fx=self.fx * scale,
            fy=self.fy * scale,
            cx=self.cx * scale,
            cy=self.cy * scale,
            world_to_camera=self.world_to_camera,
        )


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
            norms = np.linalg.norm(self.normals.astype(np.float64), axis=1)
            if len(norms) and not np.all(np.abs(norms - 1.0) <= 1e-4):
                worst = float(np.abs(norms - 1.0).max())
                raise DomainError(f"normals must be unit length (worst deviation {worst:.2e})")

    def __len__(self) -> int:
        return len(self.points)

    def take(self, selector) -> "PointCloud":
        """Subset by boolean mask or index array, preserving order."""
        return PointCloud(
            points=self.points[selector],
            colours=self.colours[selector],
            normals=None if self.normals is None else self.normals[selector],
        )
