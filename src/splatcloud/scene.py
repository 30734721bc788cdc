"""Render-ready Gaussian scene: activation, covariance assembly and filters."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .config import FilterConfig
from .errors import DomainError
from .types import CameraPose, RawGaussians, take_rows

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


def cholesky3(cov: np.ndarray):
    """Closed-form lower Cholesky factors of (N, 3, 3) matrices.

    Returns (L, ok) where ok flags rows whose pivots were all strictly
    positive and finite; L rows with ok=False are garbage. Only element-wise
    ops, no reductions: a row's factor does not depend on the rows beside it.
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


def rotate_diagonal(rot, diagonal):
    """``R diag(d) R^T`` for (N, 3, 3) ``rot`` and (N, 3) ``diagonal``.

    Entry (i, k) adds the products ``(R_ij d_j) R_kj`` as ``(j0 + j1) + j2``,
    the order numpy 2.4's ``einsum("nij,nj,nkj->nik")`` gave on x86-64, so
    the covariances it replaced kept their bytes. All nine entries are
    computed, none mirrored: the sums for (i, k) and (k, i) multiply in a
    different order and need not round alike.
    """
    scaled = rot * diagonal[:, None, :]
    terms = scaled[:, :, None, :] * rot[:, None, :, :]  # [n, i, k, j]
    return (terms[..., 0] + terms[..., 1]) + terms[..., 2]


def _regularised_covariances(log_scale: np.ndarray, rotation_unit: np.ndarray):
    """Batched Sigma = R diag(e^{2s}) R^T with the epsilon ladder applied.

    Returns (cov, ok); a kept row is the very matrix that factorised. Rows
    that never factorise keep ok=False and are meant to be dropped.
    """
    rot = quats_to_rotmats(rotation_unit)
    # an infinite variance times a zero rotation entry gives NaN: the ladder
    # below drops such rows like any other that does not factorise
    with np.errstate(over="ignore", invalid="ignore"):
        variance = np.exp(2.0 * np.asarray(log_scale, dtype=np.float64))
        cov = rotate_diagonal(rot, variance)

    eye = np.eye(3)
    out = cov.copy()
    ok = np.zeros(len(cov), dtype=bool)
    eps = CHOLESKY_EPS
    pending = np.arange(len(cov))
    for _ in range(CHOLESKY_ATTEMPTS):
        candidate = cov[pending] + eps * eye
        good = cholesky3(candidate)[1]
        hit = pending[good]
        out[hit] = candidate[good]
        ok[hit] = True
        pending = pending[~good]
        if len(pending) == 0:
            break
        eps *= 10.0
    return out, ok


UNSEEN_KEY = np.iinfo(np.int64).max  # best_key until an offer wins, above every real key


@dataclass
class ContributionState:
    """Per-Gaussian running maximum of rendering contribution.

    ``render_all`` creates one per colour pass. ``best_colour`` starts at the
    background colour and is replaced by the colour of the pixel with the
    largest contribution seen so far. ``best_key``, that pixel's image rank x
    2^32 + row-major pixel index (``CameraPose`` caps each side at 65535
    pixels), makes the update a total order, so merges commute (any tile
    order, and any merge order of the forked workers' states, gives the same
    state); its rank indexes ``views``, the ordered poses of the pass, which
    ``take`` shares whole as they are a tuple.
    """

    best_contribution: np.ndarray
    best_colour: np.ndarray
    best_key: np.ndarray
    views: tuple[CameraPose, ...]

    @classmethod
    def initial(cls, count: int, background=(0.0, 0.0, 0.0), views=()) -> "ContributionState":
        background = np.asarray(background, dtype=np.float64)
        return cls(
            best_contribution=np.zeros(count),
            best_colour=np.tile(background, (count, 1)),
            best_key=np.full(count, UNSEEN_KEY, dtype=np.int64),
            views=tuple(views),
        )

    def offer(self, gaussians, values, colours, key):
        """Merge contribution candidates, one row per Gaussian.

        A candidate wins on strictly larger contribution; exact ties go to
        the lower key, that is the lower image rank, then the lower pixel
        index, which reproduces first-seen-wins under the fixed iteration
        order.
        """
        current = self.best_contribution[gaussians]
        better = (values > current) | ((values == current) & (key < self.best_key[gaussians]))
        win = gaussians[better]
        self.best_contribution[win] = values[better]
        self.best_colour[win] = colours[better]
        self.best_key[win] = key[better]

    def reached(self):
        """The rows some offer won, 48 bytes each, as ``offer`` arguments:
        ``other.offer(*state.reached())``."""
        rows = np.flatnonzero(self.best_contribution > 0.0)
        return rows, self.best_contribution[rows], self.best_colour[rows], self.best_key[rows]


@dataclass
class GaussianScene:
    """Columnar store of activated Gaussian parameters."""

    position: np.ndarray        # (N, 3)
    log_scale: np.ndarray       # (N, 3)
    rotation_unit: np.ndarray   # (N, 4) unit quaternions
    opacity: np.ndarray         # (N,) strictly inside (0, 1)
    covariance: np.ndarray      # (N, 3, 3) SPD
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

    # the squares added left to right, as ((w^2 + x^2) + y^2) + z^2
    w, x, y, z = raw.rotation.T
    norm = np.sqrt(((w * w + x * x) + y * y) + z * z)
    rotation_unit = raw.rotation / norm[:, None]
    covariance = np.empty((len(raw), 3, 3))
    ok = np.empty(len(raw), dtype=bool)
    for lo in range(0, len(raw), ACTIVATE_BLOCK_ROWS):
        rows = slice(lo, lo + ACTIVATE_BLOCK_ROWS)
        covariance[rows], ok[rows] = _regularised_covariances(
            raw.log_scale[rows], rotation_unit[rows])
    scene = GaussianScene(
        position=raw.position,
        log_scale=raw.log_scale,
        rotation_unit=rotation_unit,
        opacity=sigmoid(raw.logit_opacity),
        covariance=covariance,
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
