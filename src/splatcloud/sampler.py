"""Point generation: volumes, proportional allocation and batched sampling.

Draws are taken per batch of equal-count Gaussians from a counter-based
generator whose key is derived from (global seed, smallest gaussian index,
count), so results do not depend on worker count or batch execution order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import SamplerConfig, map_threads
from .errors import DomainError
from .scene import GaussianScene
from .types import PointCloud

log = logging.getLogger(__name__)

# Allocations above this size are rounded to multiples of this bin width.
BIN_THRESHOLD = 50
BIN_WIDTH = 5


@dataclass
class SampleBatch:
    """Gaussians sharing one per-Gaussian draw count plus their RNG key."""

    gaussian_indices: np.ndarray
    count_per_gaussian: int
    rng_seed: int


@dataclass
class SampleStats:
    requested: int = 0
    allocated: int = 0
    emitted: int = 0
    rejected: int = 0


def gaussian_volume(log_scale):
    """Size proxy sqrt(sum_i (e^{s_i})^2); scalar for one Gaussian, vector for many."""
    arr = np.asarray(log_scale, dtype=np.float64)
    volume = np.sqrt(np.sum(np.exp(arr) ** 2, axis=-1))
    return float(volume) if arr.ndim == 1 else volume


def _round_half_up(x):
    return np.floor(x + 0.5)


def allocate(volumes, total: int, mode: str = "exact") -> np.ndarray:
    """Split ``total`` points across Gaussians proportionally to volume.

    Returns each Gaussian's count as an int64 array. Exact mode uses
    largest-remainder apportionment so counts sum precisely to ``total``
    (remainder ties go to the larger volume, then the lower index). Binned
    mode rounds raw shares above 50 to the nearest multiple of 5 (half up)
    and smaller shares to the nearest integer; its total may deviate from
    the request.
    """
    volumes = np.asarray(volumes, dtype=np.float64)
    if total < 1:
        raise DomainError(f"total point count must be >= 1, got {total}")
    if mode not in ("exact", "binned"):
        raise DomainError(f"unknown allocation mode '{mode}'")
    if np.any(volumes < 0):
        raise DomainError("volumes must be non-negative")
    volume_sum = volumes.sum()
    if volume_sum <= 0:
        raise DomainError("all gaussian volumes are zero")

    shares = total * (volumes / volume_sum)
    if mode == "binned":
        return np.where(
            shares > BIN_THRESHOLD,
            _round_half_up(shares / BIN_WIDTH) * BIN_WIDTH,
            _round_half_up(shares),
        ).astype(np.int64)

    counts = np.floor(shares).astype(np.int64)
    shortfall = int(total - counts.sum())
    if shortfall > 0:
        remainders = shares - np.floor(shares)
        order = np.lexsort((np.arange(len(volumes)), -volumes, -remainders))
        counts[order[:shortfall]] += 1
    return counts


def derive_batch_seed(global_seed: int, smallest_index: int, count: int) -> int:
    """Stable 64-bit key for one batch's counter-based generator."""
    seq = np.random.SeedSequence([int(global_seed), int(smallest_index), int(count)])
    return int(seq.generate_state(1, np.uint64)[0])


def sample_batch(batch: SampleBatch, scene: GaussianScene, sigma_threshold: float,
                 max_rounds: int = 5):
    """Draw ``count_per_gaussian`` points from every Gaussian in the batch.

    Draws use x = mu + L z with z standard normal; a draw is rejected when
    ||z|| (== the Mahalanobis distance of x) exceeds the threshold, and its
    slot is redrawn up to ``max_rounds`` total attempts. Slots still pending
    afterwards are dropped, so a batch may emit fewer points than allocated.

    Returns (points, colours, accepted_per_gaussian, rejected_draws); points
    are grouped by Gaussian in index order.
    """
    if sigma_threshold <= 0:
        raise DomainError(f"sigma threshold must be > 0, got {sigma_threshold}")
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")

    indices = np.asarray(batch.gaussian_indices, dtype=np.int64)
    k = len(indices)
    count = batch.count_per_gaussian
    rng = np.random.Generator(np.random.Philox(key=np.uint64(batch.rng_seed)))
    threshold_sq = float(sigma_threshold) ** 2

    z = rng.standard_normal((k, count, 3))
    pending = np.einsum("kcj,kcj->kc", z, z) > threshold_sq
    rejected = int(np.count_nonzero(pending))
    for _ in range(max_rounds - 1):
        slots = np.nonzero(pending)
        if len(slots[0]) == 0:
            break
        fresh = rng.standard_normal((len(slots[0]), 3))
        accept = np.einsum("nj,nj->n", fresh, fresh) <= threshold_sq
        z[slots] = fresh
        pending[slots] = ~accept
        rejected += int(np.count_nonzero(~accept))

    accepted = ~pending
    chol = scene.cov_cholesky[indices]
    points = scene.position[indices, None, :] + np.einsum("kij,kcj->kci", chol, z)
    accepted_counts = accepted.sum(axis=1)

    colours_unit = scene.point_colours()[indices]
    colours = quantize_colours(colours_unit)
    per_point_colours = np.repeat(colours, accepted_counts, axis=0)
    return points[accepted], per_point_colours, accepted_counts, rejected


def quantize_colours(colours_unit: np.ndarray) -> np.ndarray:
    """[0, 1] floats to uint8 with round-half-up per channel."""
    return np.clip(np.floor(colours_unit * 255.0 + 0.5), 0, 255).astype(np.uint8)


def build_batches(counts: np.ndarray, seed: int) -> list[SampleBatch]:
    """Group Gaussians by identical allocation, smallest counts first."""
    batches = []
    nonzero = np.nonzero(counts > 0)[0]
    for count in np.unique(counts[nonzero]):
        members = nonzero[counts[nonzero] == count]
        batches.append(SampleBatch(
            gaussian_indices=members,
            count_per_gaussian=int(count),
            rng_seed=derive_batch_seed(seed, int(members.min()), int(count)),
        ))
    return batches


def _sample_scene(scene: GaussianScene, total: int, config: SamplerConfig):
    """Shared core: allocate, sample all batches, order by Gaussian index.

    Returns (points float64, colours uint8, gaussian_ids, stats).
    """
    if scene.count == 0:
        raise DomainError("cannot sample from an empty scene")
    volumes = gaussian_volume(scene.log_scale)
    counts = allocate(volumes, total, "exact" if config.exact else "binned")
    batches = build_batches(counts, config.seed)

    def run(batch: SampleBatch):
        return sample_batch(batch, scene, config.sigma, config.max_resample_rounds)

    results = map_threads(run, batches, config.threads)

    stats = SampleStats(requested=total, allocated=int(counts.sum()))
    if not results:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8), \
            np.zeros(0, dtype=np.int64), stats

    points = np.concatenate([r[0] for r in results], axis=0)
    colours = np.concatenate([r[1] for r in results], axis=0)
    gaussian_ids = np.concatenate([
        np.repeat(batch.gaussian_indices, r[2])
        for batch, r in zip(batches, results)
    ])
    stats.rejected = sum(r[3] for r in results)
    stats.emitted = len(points)

    order = np.argsort(gaussian_ids, kind="stable")
    return points[order], colours[order], gaussian_ids[order], stats


def generate_pointcloud(scene: GaussianScene, total: int,
                        config: SamplerConfig) -> tuple[PointCloud, SampleStats]:
    """Sample the whole scene into a coloured point cloud.

    Points come out concatenated in Gaussian-index order; with a fixed seed
    the result is bit-identical across runs and worker counts.
    """
    points, colours, _, stats = _sample_scene(scene, total, config)
    cloud = PointCloud(points=points.astype(np.float32), colours=colours)
    log.info("sampled %d points (requested %d, allocated %d, rejected draws %d)",
             stats.emitted, stats.requested, stats.allocated, stats.rejected)
    return cloud, stats
