"""Meshing preparation: surface selection, normals and outlier removal.

The output of :func:`export_surface_cloud` is an oriented point cloud meant
to feed an external Poisson Surface Reconstruction step; no meshing happens
here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import SurfaceConfig
from .errors import DomainError
from .sampler import SampleStats, _sample_scene, colour_points
from .scene import UNSEEN_KEY, GaussianScene, quats_to_rotmats
from .types import PointCloud, dot3
from .workers import map_threads, thread_workers

log = logging.getLogger(__name__)

# k-NN result rows outlier removal holds at once at k = 20, over all its
# threads: each takes blocks of SOR_BLOCK_ROWS // threads rows, and a block's
# (k + 1)-wide distance and index arrays are freed before its thread takes the
# next. A larger k holds proportionally fewer rows (SOR_BLOCK_ROWS * 21 / (k + 1)
# in all), so memory grows neither with k, nor with the cloud size, nor with
# the thread count.
SOR_BLOCK_ROWS = 1 << 13
_SOR_BLOCK_WIDTH = 21  # k + 1 at k = 20


@dataclass
class SurfaceSelection:
    """Mask of Gaussians whose best contribution reaches the scene mean."""

    surface_mask: np.ndarray
    mean_contribution: float


def select_surface(scene: GaussianScene) -> SurfaceSelection:
    """Keep Gaussians with best_contribution >= mean over all Gaussians.

    The maximum is always at least the mean, so the selection is non-empty
    whenever any Gaussian contributed at all.
    """
    state = scene.contribution
    if state is None:
        raise DomainError("surface selection requires a completed rendering pass")
    # clamp to the max: the float mean of identical values can round above
    # them, which would otherwise empty the selection
    threshold = min(float(state.best_contribution.mean()),
                    float(state.best_contribution.max()))
    mask = state.best_contribution >= threshold
    return SurfaceSelection(surface_mask=mask, mean_contribution=threshold)


def surface_normals(scene: GaussianScene) -> np.ndarray:
    """Unit normal per Gaussian: the rotated axis of the smallest scale.

    The sign is chosen so the normal points towards the centre of the view
    that recorded the Gaussian's best contribution, ``views[best_key >> 32]``
    (non-negative dot product with centre - mean). Gaussians never seen by a
    camera keep the unflipped axis.
    """
    rot = quats_to_rotmats(scene.rotation_unit)
    smallest = np.argmin(scene.log_scale, axis=1)
    normals = np.take_along_axis(rot, smallest[:, None, None], axis=2)[:, :, 0]

    state = scene.contribution
    seen = np.flatnonzero(state.best_key != UNSEEN_KEY)
    centres = np.array([view.camera_centre for view in state.views])
    towards = centres[state.best_key[seen] >> 32] - scene.position[seen]
    normals[seen[dot3(normals[seen], towards) < 0.0]] *= -1.0
    return normals


def remove_statistical_outliers(points: np.ndarray, k_neighbours: int = 20,
                                std_ratio: float = 2.0, workers: int = 1) -> np.ndarray:
    """Rows of ``points`` whose mean k-NN distance is at most mean + std_ratio * std.

    ``points`` is an (n, 3) array of positions, used as it is when it is
    float64 and converted otherwise; the result is the surviving row indices
    in increasing order, so ``cloud.take(remove_statistical_outliers(
    cloud.points))`` is the cleaned cloud. Only positions are read: the
    caller builds any other column for the survivors alone.

    Exact nearest neighbours via a KD-tree, queried in blocks of points
    taken in the tree's own point order from one queue, which the calling
    thread and its helpers (``thread_workers(workers)`` threads in all, see
    :func:`map_threads`) share; each query runs on one thread and releases
    the GIL. Each thread's block is its share of ``SOR_BLOCK_ROWS * 21 //
    (k + 1)`` rows (at least one), so the threads together hold the
    (k + 1)-wide results of ``SOR_BLOCK_ROWS`` rows at k = 20, and as many
    bytes at any other k. Each query's result is independent of the split
    and the order, so the survivors are the same for any worker count and
    block size. Beside the positions the filter holds the tree (about 15
    bytes a point), one float64 mean distance a point and the blocks in
    flight; it returns 8 bytes a survivor.
    """
    if k_neighbours < 1:
        raise DomainError(f"k_neighbours must be >= 1, got {k_neighbours}")
    if not std_ratio > 0:  # also rejects NaN, which would keep no point
        raise DomainError(f"std_ratio must be > 0, got {std_ratio}")
    positions = np.asarray(points, dtype=np.float64)  # no copy of a float64 array
    if len(positions) <= k_neighbours:
        raise DomainError(
            f"outlier removal needs more than {k_neighbours} points, got {len(positions)}"
        )
    from scipy.spatial import cKDTree  # imported here so only --mesh-prep loads scipy

    # 64-point leaves, not the default 16: the tree's nodes and indices take
    # about 15 bytes a point rather than 27 and build a little faster, and an
    # exact query returns the same distances whatever the tree's shape
    tree = cKDTree(positions, leafsize=64)
    mean_distance = np.empty(len(positions))
    rows_in_flight = max(1, SOR_BLOCK_ROWS * _SOR_BLOCK_WIDTH // (k_neighbours + 1))
    block_rows = max(1, rows_in_flight // thread_workers(workers))

    def query(start):
        # in the tree's leaf order, neighbouring queries walk the same nodes
        rows = tree.indices[start:start + block_rows]
        distances = tree.query(positions[rows], k=k_neighbours + 1)[0]
        mean_distance[rows] = distances[:, 1:].mean(axis=1)  # column 0 is the point itself

    map_threads(query, range(0, len(positions), block_rows), workers)
    del tree, positions  # free a converted copy before the survivors are listed
    threshold = mean_distance.mean() + std_ratio * mean_distance.std()
    kept = np.flatnonzero(mean_distance <= threshold)
    removed = len(mean_distance) - len(kept)
    if removed:
        log.info("statistical outlier removal dropped %d of %d points",
                 removed, len(mean_distance))
    return kept


def export_surface_cloud(scene: GaussianScene,
                         config: SurfaceConfig) -> tuple[PointCloud, SampleStats]:
    """Sample an oriented point cloud from the surface Gaussians.

    Selection -> allocation of ``surface_points`` across the selected subset
    -> sampling -> statistical outlier removal on the positions -> the
    survivors' points, colours and normals. The result is independent of
    the main cloud's point budget.

    The sampler places points only. Its float32 points become the float64
    positions the KD-tree needs (an exact cast) and are freed, so while the
    filter runs the stage holds 24 bytes of positions a point beside the
    filter's own tree, mean distances and blocks. The survivors' float32
    points are cast back from the positions block by block; their colours
    (:func:`~splatcloud.sampler.colour_points`) and normals are each
    Gaussian's, repeated by its number of survivors. No point, colour or
    normal is built for a dropped row; the cloud returned is 27 bytes a
    point.
    """
    selection = select_surface(scene)
    subset = scene.take(selection.surface_mask)
    normals = surface_normals(subset)
    log.info("surface selection kept %d of %d gaussians (mean contribution %.4g)",
             subset.count, scene.count, selection.mean_contribution)

    points, accepted, stats = _sample_scene(subset, config.surface_points, config)
    positions = points.astype(np.float64)
    del points
    kept = remove_statistical_outliers(positions, config.sor_k, config.sor_std,
                                       thread_workers(config.threads))
    points = np.empty((len(kept), 3), dtype=np.float32)
    for lo in range(0, len(kept), SOR_BLOCK_ROWS):  # no float64 copy of the survivors
        points[lo:lo + SOR_BLOCK_ROWS] = positions[kept[lo:lo + SOR_BLOCK_ROWS]]
    del positions
    # the points are grouped by Gaussian, accepted[g] rows each in index order,
    # and every point of a Gaussian has its colour and normal
    survivors = np.diff(np.searchsorted(kept, np.cumsum(accepted)), prepend=0)
    del kept
    cloud = PointCloud(
        points=points,
        colours=colour_points(subset, survivors),
        normals=np.repeat(normals.astype(np.float32), survivors, axis=0))
    return cloud, stats
