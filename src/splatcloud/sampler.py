"""Point generation: volumes, proportional allocation and batched sampling.

Draws are taken per batch of equal-count Gaussians from a counter-based
generator whose key is derived from (global seed, smallest gaussian index,
count), so results do not depend on worker count or batch execution order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import SamplerConfig
from .errors import DomainError
from .scene import GaussianScene, cholesky3, dot3
from .types import PointCloud
from .workers import map_threads

log = logging.getLogger(__name__)

# Allocations above this size are rounded to multiples of this bin width.
BIN_THRESHOLD = 50
BIN_WIDTH = 5

# Draws tested, redrawn or transformed at once by one worker, and rows moved
# at once when the cloud's gaps are closed: bounds the temporaries of a batch.
SAMPLE_BLOCK_POINTS = 1 << 15

# Draws at or beyond this magnitude would be inf in the float32 cloud.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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
    the request. Where that rounding would allocate fewer than half the
    requested points (most shares below 0.5, which round to zero), binned
    mode logs the fact and returns the exact apportionment instead.
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
        counts = np.where(
            shares > BIN_THRESHOLD,
            _round_half_up(shares / BIN_WIDTH) * BIN_WIDTH,
            _round_half_up(shares),
        ).astype(np.int64)
        binned = int(counts.sum())
        if 2 * binned >= total:
            return counts
        log.info("binned allocation gives %d of %d points; using exact apportionment",
                 binned, total)

    counts = np.floor(shares).astype(np.int64)
    shortfall = int(total - counts.sum())
    if shortfall > 0:
        remainders = shares - np.floor(shares)
        order = np.lexsort((np.arange(len(volumes)), -volumes, -remainders))
        counts[order[:shortfall]] += 1
    return counts


def derive_batch_seed(global_seed: int, smallest_index: int, count: int) -> int:
    """Stable 64-bit key for one batch's counter-based generator."""
    if global_seed < 0:
        raise DomainError(f"seed must be >= 0, got {global_seed}")
    seq = np.random.SeedSequence([int(global_seed), int(smallest_index), int(count)])
    return int(seq.generate_state(1, np.uint64)[0])


def sample_batch(batch: SampleBatch, scene: GaussianScene, sigma_threshold: float,
                 max_rounds: int = 5, out=None):
    """Draw ``count_per_gaussian`` points from every Gaussian in the batch.

    Draws use x = mu + L z, z standard normal and L the covariance's lower
    Cholesky factor, which each block computes with :func:`cholesky3`. A draw
    is rejected when ||z|| (== the Mahalanobis distance of x) exceeds the
    threshold, and its slot is redrawn up to ``max_rounds`` total attempts.
    Slots still pending afterwards are dropped, so a batch may emit fewer
    points than allocated. A draw whose point float32 cannot hold (a
    coordinate non-finite or at least float32's maximum in magnitude) is
    dropped too and counted as rejected.

    All of ``z`` is drawn before any redraw, which fixes the generator's
    stream. The acceptance test, each redraw round (in pieces of pending
    slots, which take the same numbers from the stream), and the transform
    with its range check, float32 cast and colour quantisation run over
    blocks of about ``SAMPLE_BLOCK_POINTS`` points; the transform forms one
    coordinate at a time. Each block's draws go straight to their rows: the
    r-th kept draw of Gaussian g lands at row ``starts[g] + r`` of
    ``out = (points, colours, starts)``, and the rows a short Gaussian leaves
    unused are not touched. So a batch holds its float64 draws, one flag per
    draw and one block's temporaries. Without ``out`` the batch fills its
    own arrays, each Gaussian's draws back to back.

    Every 3-term sum, the transform's ``(L z)_i`` and the norm ``||z||^2``,
    is added in the fixed order ``(j0 + j2) + j1`` (see :func:`dot3`), so
    the bytes do not depend on numpy's summation kernels.

    Returns (points float32, colours uint8, accepted_per_gaussian,
    rejected_draws): the arrays written and the batch's counts.
    """
    if not sigma_threshold > 0:  # NaN fails this test too
        raise DomainError(f"sigma threshold must be > 0, got {sigma_threshold}")
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")

    indices = np.asarray(batch.gaussian_indices, dtype=np.int64)
    k = len(indices)
    count = batch.count_per_gaussian
    rng = np.random.Generator(np.random.Philox(key=np.uint64(batch.rng_seed)))
    threshold_sq = float(sigma_threshold) ** 2

    per_block = max(1, SAMPLE_BLOCK_POINTS // count)
    blocks = [slice(lo, lo + per_block) for lo in range(0, k, per_block)]

    z = rng.standard_normal((k, count, 3))
    pending = np.empty((k, count), dtype=bool)
    for members in blocks:
        np.greater(dot3(z[members], z[members]), threshold_sq, out=pending[members])
    rejected = int(np.count_nonzero(pending))
    # flat views: pending slots are listed in row-major order, the order in
    # which their redraws are taken from the stream
    z_slots, pending_slots = z.reshape(-1, 3), pending.reshape(-1)
    for _ in range(max_rounds - 1):
        slots = np.flatnonzero(pending_slots)
        if len(slots) == 0:
            break
        # a round's normals drawn piece by piece are the numbers drawn at once
        for lo in range(0, len(slots), SAMPLE_BLOCK_POINTS):
            piece = slots[lo:lo + SAMPLE_BLOCK_POINTS]
            fresh = rng.standard_normal((len(piece), 3))
            still = dot3(fresh, fresh) > threshold_sq
            z_slots[piece] = fresh
            pending_slots[piece] = still
            rejected += int(np.count_nonzero(still))

    accepted = np.logical_not(pending, out=pending)  # pending is not read again
    if out is None:
        drawn = accepted.sum(axis=1)
        first = np.cumsum(drawn) - drawn
        points = np.empty((int(drawn.sum()), 3), dtype=np.float32)
        colours = np.empty((len(points), 3), dtype=np.uint8)
    else:
        points, colours, starts = out
        first = starts[indices]
    # whole-row views: one 12-byte point or 3-byte colour per element, so a
    # scatter moves rows rather than (n, 3) elements
    point_rows, colour_rows = _rows(points), _rows(colours)
    source = scene.point_colours()
    kept_counts = np.empty(k, dtype=np.int64)
    for members in blocks:
        gaussians = indices[members]
        cholesky = cholesky3(scene.covariance[gaussians])[0]
        centre, block_z = scene.position[gaussians], z[members]
        moved32 = np.empty(block_z.shape, dtype=np.float32)
        in_range = np.ones(block_z.shape[:2], dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(3):  # one coordinate at a time: mu_i + (L z)_i
                coordinate = centre[:, None, i] + dot3(cholesky[:, None, i], block_z)
                # the one float64 -> float32 cast; draws it overflows are dropped below
                moved32[..., i] = coordinate
                in_range &= np.abs(coordinate) < _FLOAT32_MAX  # NaN fails this test
        keep = accepted[members]
        rejected += int(np.count_nonzero(keep & ~in_range))
        keep &= in_range
        kept = kept_counts[members] = keep.sum(axis=1)
        # the block's kept draws are its members' runs back to back: shift
        # each run from its start within the block to its first row
        rows = np.repeat(first[members] - (np.cumsum(kept) - kept), kept) \
            + np.arange(kept.sum())
        point_rows[rows] = _rows(moved32)[keep]
        colour_rows[rows] = np.repeat(_rows(quantize_colours(source[gaussians])), kept)

    if out is None:  # close the rows that out-of-range draws left unused
        _close_gaps((points, colours), first, drawn, kept_counts)
        emitted = int(kept_counts.sum())
        points, colours = points[:emitted], colours[:emitted]
    return points, colours, kept_counts, rejected


def _rows(array: np.ndarray) -> np.ndarray:
    """View a C-contiguous (..., 3) array as (...) elements of one whole row."""
    return array.view(np.dtype((np.void, 3 * array.itemsize)))[..., 0]


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
    """Shared core: allocate, then sample every batch straight into the cloud.

    The cloud is sized by the allocation: draw j of Gaussian g lands at row
    ``starts[g] + j``, where ``starts`` is the exclusive cumulative sum of
    the allocated counts. Each worker's :func:`sample_batch` writes its
    draws straight to their rows, so points arrive in Gaussian-index order
    without a sort and no batch result is held. Draws that were dropped
    leave gaps at the end of their Gaussian's rows, which
    :func:`_close_gaps` then closes in place.

    Returns (points float32, colours uint8, accepted per Gaussian, stats).
    """
    if scene.count == 0:
        raise DomainError("cannot sample from an empty scene")
    volumes = gaussian_volume(scene.log_scale)
    counts = allocate(volumes, total, "exact" if config.exact else "binned")
    starts = np.cumsum(counts) - counts
    allocated = int(counts.sum())
    points = np.empty((allocated, 3), dtype=np.float32)
    colours = np.empty((allocated, 3), dtype=np.uint8)
    accepted = np.zeros(scene.count, dtype=np.int64)

    def run(batch: SampleBatch) -> int:
        _, _, batch_accepted, rejected = sample_batch(
            batch, scene, config.sigma, config.max_resample_rounds,
            out=(points, colours, starts))
        accepted[batch.gaussian_indices] = batch_accepted
        return rejected

    rejected = sum(map_threads(run, build_batches(counts, config.seed), config.threads))
    stats = SampleStats(requested=total, allocated=allocated, emitted=int(accepted.sum()),
                        rejected=rejected)
    _close_gaps((points, colours), starts, counts, accepted)
    return points[:stats.emitted], colours[:stats.emitted], accepted, stats


def _close_gaps(columns, starts: np.ndarray, counts: np.ndarray,
                accepted: np.ndarray) -> None:
    """Move every Gaussian's accepted rows to the front of the cloud, in place.

    Gaussian g holds rows ``starts[g]`` to ``starts[g] + accepted[g]`` and
    leaves ``counts[g] - accepted[g]`` unused rows after them. Only the short
    Gaussians are listed: the rows between one gap and the next move up by
    the shortfall of every gap before them. Rows before the first gap stay
    where they are; the rest move one block of rows at a time, in increasing
    order, so no block reads a row an earlier block overwrote.
    """
    short = np.nonzero(accepted < counts)[0]
    run_from = starts[short] + counts[short]
    run_to = np.append(starts[short[1:]] + accepted[short[1:]], len(columns[0]))
    shifts = np.cumsum(counts[short] - accepted[short])
    for first, end, shift in zip(run_from.tolist(), run_to.tolist(), shifts.tolist()):
        for lo in range(first, end, SAMPLE_BLOCK_POINTS):
            hi = min(lo + SAMPLE_BLOCK_POINTS, end)
            for column in columns:
                column[lo - shift:hi - shift] = column[lo:hi]


def generate_pointcloud(scene: GaussianScene, total: int,
                        config: SamplerConfig) -> tuple[PointCloud, SampleStats]:
    """Sample the whole scene into a coloured point cloud.

    Points are grouped by Gaussian in index order, each Gaussian's run at
    its own row offset; with a fixed seed the result is bit-identical across
    runs and worker counts.
    """
    points, colours, _, stats = _sample_scene(scene, total, config)
    cloud = PointCloud(points=points, colours=colours)
    log.info("sampled %d points (requested %d, allocated %d, rejected draws %d)",
             stats.emitted, stats.requested, stats.allocated, stats.rejected)
    return cloud, stats
