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
from .sampler import SampleStats, _sample_scene
from .scene import UNSEEN_KEY, GaussianScene, dot3, quats_to_rotmats
from .types import PointCloud
from .workers import map_threads, thread_workers

log = logging.getLogger(__name__)

# k-NN result rows outlier removal holds at once, over all its threads: each
# takes blocks of SOR_BLOCK_ROWS // threads rows, and a block's (k + 1)-wide
# distance and index arrays are freed before its thread takes the next, so
# memory grows neither with k times the cloud size nor with the thread count.
SOR_BLOCK_ROWS = 1 << 14


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


def remove_statistical_outliers(cloud: PointCloud, k_neighbours: int = 20,
                                std_ratio: float = 2.0, workers: int = 1) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + std_ratio * std.

    Exact nearest neighbours via a KD-tree, queried in blocks of
    ``SOR_BLOCK_ROWS // thread_workers(workers)`` points taken in the tree's
    own point order from one queue, which the calling thread and its helpers
    (``thread_workers(workers)`` threads in all, see :func:`map_threads`)
    share; each query runs on one thread and releases the GIL, and the
    threads together hold at most ``SOR_BLOCK_ROWS`` result rows. Each
    query's result is independent of the split and the order, so the
    survivors (in their original order) are the same for any worker count
    and block size.
    """
    if k_neighbours < 1:
        raise DomainError(f"k_neighbours must be >= 1, got {k_neighbours}")
    if not std_ratio > 0:  # also rejects NaN, which would keep no point
        raise DomainError(f"std_ratio must be > 0, got {std_ratio}")
    if len(cloud) <= k_neighbours:
        raise DomainError(
            f"outlier removal needs more than {k_neighbours} points, got {len(cloud)}"
        )
    from scipy.spatial import cKDTree  # imported here so only --mesh-prep loads scipy

    points = cloud.points.astype(np.float64)
    # 64-point leaves, not the default 16: the tree's nodes and indices take
    # about 15 bytes a point rather than 27 and build a little faster, and an
    # exact query returns the same distances whatever the tree's shape
    tree = cKDTree(points, leafsize=64)
    mean_distance = np.empty(len(points))
    block_rows = max(1, SOR_BLOCK_ROWS // thread_workers(workers))

    def query(start):
        # in the tree's leaf order, neighbouring queries walk the same nodes
        rows = tree.indices[start:start + block_rows]
        distances = tree.query(points[rows], k=k_neighbours + 1)[0]
        mean_distance[rows] = distances[:, 1:].mean(axis=1)  # column 0 is the point itself

    map_threads(query, range(0, len(points), block_rows), workers)
    del tree, points  # free before take() copies the survivors
    threshold = mean_distance.mean() + std_ratio * mean_distance.std()
    keep = mean_distance <= threshold
    removed = int(np.count_nonzero(~keep))
    if removed:
        log.info("statistical outlier removal dropped %d of %d points", removed, len(cloud))
    return cloud.take(keep)


def export_surface_cloud(scene: GaussianScene,
                         config: SurfaceConfig) -> tuple[PointCloud, SampleStats]:
    """Sample an oriented point cloud from the surface Gaussians.

    Selection -> allocation of ``surface_points`` across the selected subset
    -> sampling -> per-point normals -> statistical outlier removal. The
    result is independent of the main cloud's point budget.
    """
    selection = select_surface(scene)
    subset = scene.take(selection.surface_mask)
    normals = surface_normals(subset)
    log.info("surface selection kept %d of %d gaussians (mean contribution %.4g)",
             subset.count, scene.count, selection.mean_contribution)

    points, colours, accepted, stats = _sample_scene(subset, config.surface_points, config)
    cloud = PointCloud(points=points, colours=colours,
                       normals=np.repeat(normals.astype(np.float32), accepted, axis=0))
    cloud = remove_statistical_outliers(cloud, config.sor_k, config.sor_std,
                                        workers=thread_workers(config.threads))
    return cloud, stats
