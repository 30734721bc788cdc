"""Render-ready Gaussian scene: activation, covariance assembly and filters."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import FilterConfig
from .errors import DomainError
from .types import RawGaussians, take_rows

log = logging.getLogger(__name__)

# Degree-0 SH basis constant; colour = 0.5 + C0 * coefficient.
SH_C0 = 0.28209479177387814

# Diagonal regularisation ladder for near-singular covariances.
CHOLESKY_EPS = 1e-8
CHOLESKY_ATTEMPTS = 4

# Rows whose covariances activate assembles at once: bounds the (rows, 3, 3)
# float64 temporaries of the assembly and the epsilon ladder.
ACTIVATE_BLOCK_ROWS = 1 << 12

# sigmoid(+-36) is still strictly inside (0, 1) in float64.
_LOGIT_LIMIT = 36.0


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_LOGIT_LIMIT, _LOGIT_LIMIT)))


def quats_to_rotmats(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for an (N, 4) array of unit (w, x, y, z) quaternions."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    rot = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    rot[..., 0, 0] = 1 - 2 * (y * y + z * z)
    rot[..., 0, 1] = 2 * (x * y - w * z)
    rot[..., 0, 2] = 2 * (x * z + w * y)
    rot[..., 1, 0] = 2 * (x * y + w * z)
    rot[..., 1, 1] = 1 - 2 * (x * x + z * z)
    rot[..., 1, 2] = 2 * (y * z - w * x)
    rot[..., 2, 0] = 2 * (x * z - w * y)
    rot[..., 2, 1] = 2 * (y * z + w * x)
    rot[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def _cholesky3_batch(cov: np.ndarray):
    """Closed-form lower Cholesky factors of (N, 3, 3) matrices.

    Returns (L, ok) where ok flags rows whose pivots were all strictly
    positive and finite; L rows with ok=False are garbage.
    """
    c00, c01, c02 = cov[:, 0, 0], cov[:, 1, 0], cov[:, 2, 0]
    c11, c12, c22 = cov[:, 1, 1], cov[:, 2, 1], cov[:, 2, 2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        l00 = np.sqrt(c00)
        l10 = c01 / l00
        l20 = c02 / l00
        p1 = c11 - l10 * l10
        l11 = np.sqrt(p1)
        l21 = (c12 - l20 * l10) / l11
        p2 = c22 - l20 * l20 - l21 * l21
        l22 = np.sqrt(p2)
    n = len(cov)
    L = np.zeros((n, 3, 3), dtype=np.float64)
    L[:, 0, 0] = l00
    L[:, 1, 0] = l10
    L[:, 1, 1] = l11
    L[:, 2, 0] = l20
    L[:, 2, 1] = l21
    L[:, 2, 2] = l22
    with np.errstate(invalid="ignore"):
        ok = (c00 > 0) & (p1 > 0) & (p2 > 0)
    ok &= np.isfinite(L).all(axis=(1, 2))
    return L, ok


def _regularised_covariances(log_scale: np.ndarray, rotation_unit: np.ndarray):
    """Batched Sigma = R diag(e^{2s}) R^T with the epsilon ladder applied.

    Returns (cov, chol, ok). Rows that never factorise keep ok=False and are
    meant to be dropped by the caller.
    """
    rot = quats_to_rotmats(rotation_unit)
    with np.errstate(over="ignore"):
        variance = np.exp(2.0 * np.asarray(log_scale, dtype=np.float64))
    cov = np.einsum("nij,nj,nkj->nik", rot, variance, rot)

    eye = np.eye(3)
    out = cov.copy()
    chol = np.zeros_like(cov)
    ok = np.zeros(len(cov), dtype=bool)
    eps = CHOLESKY_EPS
    pending = np.arange(len(cov))
    for _ in range(CHOLESKY_ATTEMPTS):
        candidate = cov[pending] + eps * eye
        L, good = _cholesky3_batch(candidate)
        hit = pending[good]
        out[hit] = candidate[good]
        chol[hit] = L[good]
        ok[hit] = True
        pending = pending[~good]
        if len(pending) == 0:
            break
        eps *= 10.0
    return out, chol, ok


@dataclass
class ContributionState:
    """Per-Gaussian running maximum of rendering contribution.

    ``render_all`` creates one per colour pass. ``best_colour`` starts at the
    background colour and is replaced by the colour of the pixel with the
    largest contribution seen so far. The auxiliary image-rank / pixel-index /
    camera-centre columns make the update a total order, so merges commute
    (any tile or thread order gives the same state) and record which camera
    saw each Gaussian best.
    """

    best_contribution: np.ndarray
    best_colour: np.ndarray
    best_image_rank: np.ndarray
    best_pixel_index: np.ndarray
    best_camera_centre: np.ndarray

    @classmethod
    def initial(cls, count: int, background=(0.0, 0.0, 0.0)) -> "ContributionState":
        background = np.asarray(background, dtype=np.float64)
        return cls(
            best_contribution=np.zeros(count),
            best_colour=np.tile(background, (count, 1)),
            best_image_rank=np.full(count, np.iinfo(np.int64).max, dtype=np.int64),
            best_pixel_index=np.full(count, np.iinfo(np.int64).max, dtype=np.int64),
            best_camera_centre=np.full((count, 3), np.nan),
        )

    def offer(self, gaussians, values, colours, image_rank, pixel_index, camera_centre):
        """Merge per-pixel contribution candidates (one row per Gaussian).

        A candidate wins on strictly larger contribution; exact ties go to
        the lower image rank, then the lower row-major pixel index, which
        reproduces first-seen-wins under the fixed iteration order.
        """
        gaussians = np.asarray(gaussians)
        current = self.best_contribution[gaussians]
        better = values > current
        tie = values == current
        if np.any(tie):
            rank_now = self.best_image_rank[gaussians]
            pix_now = self.best_pixel_index[gaussians]
            better |= tie & (
                (image_rank < rank_now)
                | ((image_rank == rank_now) & (pixel_index < pix_now))
            )
        win = gaussians[better]
        self.best_contribution[win] = values[better]
        self.best_colour[win] = colours[better]
        self.best_image_rank[win] = image_rank
        self.best_pixel_index[win] = pixel_index[better]
        self.best_camera_centre[win] = camera_centre


@dataclass
class GaussianScene:
    """Columnar store of activated Gaussian parameters."""

    position: np.ndarray        # (N, 3)
    log_scale: np.ndarray       # (N, 3)
    rotation_unit: np.ndarray   # (N, 4) unit quaternions
    opacity: np.ndarray         # (N,) strictly inside (0, 1)
    covariance: np.ndarray      # (N, 3, 3) SPD
    cov_cholesky: np.ndarray    # (N, 3, 3) lower factors of covariance
    base_colour: np.ndarray     # (N, 3) in [0, 1]
    # None until render_all runs a colour pass
    contribution: ContributionState | None = field(repr=False, default=None)

    @property
    def count(self) -> int:
        return len(self.position)

    def __len__(self) -> int:
        return self.count

    def point_colours(self) -> np.ndarray:
        """Colour source for sampled points: rendered colours when available."""
        if self.contribution is not None:
            return self.contribution.best_colour
        return self.base_colour

    take = take_rows


def activate(raw: RawGaussians) -> GaussianScene:
    """Turn raw Gaussians into a render-ready scene.

    Applies sigmoid to opacity logits, normalises quaternions, evaluates the
    degree-0 SH colour and assembles covariances. Gaussians whose covariance
    cannot be factorised are dropped with a warning. Covariances are
    assembled ``ACTIVATE_BLOCK_ROWS`` rows at a time straight into the
    scene's columns, so no full-size temporary is held beside them.
    """
    if len(raw) == 0:
        raise DomainError("cannot activate an empty set of gaussians")

    rotation_unit = raw.rotation / np.linalg.norm(raw.rotation, axis=1, keepdims=True)
    covariance = np.empty((len(raw), 3, 3))
    chol = np.empty((len(raw), 3, 3))
    ok = np.empty(len(raw), dtype=bool)
    for lo in range(0, len(raw), ACTIVATE_BLOCK_ROWS):
        rows = slice(lo, lo + ACTIVATE_BLOCK_ROWS)
        covariance[rows], chol[rows], ok[rows] = _regularised_covariances(
            raw.log_scale[rows], rotation_unit[rows])
    scene = GaussianScene(
        position=raw.position,
        log_scale=raw.log_scale,
        rotation_unit=rotation_unit,
        opacity=sigmoid(raw.logit_opacity),
        covariance=covariance,
        cov_cholesky=chol,
        base_colour=np.clip(0.5 + SH_C0 * raw.sh_dc, 0.0, 1.0),
    )
    if ok.all():
        return scene
    log.warning("dropping %d degenerate gaussians (covariance not factorisable)",
                int(np.count_nonzero(~ok)))
    if not ok.any():
        raise DomainError("all gaussians were degenerate")
    return scene.take(ok)


def filter_scene(scene: GaussianScene, config: FilterConfig) -> GaussianScene:
    """Keep Gaussians passing every enabled predicate, preserving order."""
    keep = np.ones(scene.count, dtype=bool)
    if config.bbox is not None:
        lo, hi = np.asarray(config.bbox[:3]), np.asarray(config.bbox[3:])
        keep &= np.all((scene.position >= lo) & (scene.position <= hi), axis=1)
    if config.max_scale is not None:
        keep &= np.exp(scene.log_scale).max(axis=1) <= config.max_scale
    if config.min_opacity is not None:
        keep &= scene.opacity >= config.min_opacity
    if not np.any(keep):
        raise DomainError("empty scene after filtering")
    if np.all(keep):
        return scene
    return scene.take(keep)


def cull_unrendered(scene: GaussianScene) -> GaussianScene:
    """Drop Gaussians that contributed to no rendered pixel.

    A no-op when no rendering pass ran (no cameras supplied).
    """
    if scene.contribution is None:
        return scene
    keep = scene.contribution.best_contribution > 0.0
    if not np.any(keep):
        raise DomainError("no gaussian contributed to any rendered image")
    if np.all(keep):
        return scene
    return scene.take(keep)
