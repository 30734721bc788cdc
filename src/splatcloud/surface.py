"""Meshing preparation: surface selection, normals and outlier removal.

The output of :func:`export_surface_cloud` is an oriented point cloud meant
to feed an external Poisson Surface Reconstruction step; no meshing happens
here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import SurfaceConfig, resolve_workers
from .errors import DomainError
from .sampler import SampleStats, _sample_scene
from .scene import GaussianScene, quats_to_rotmats
from .types import PointCloud

log = logging.getLogger(__name__)

# Rows per k-NN query in outlier removal: each block's (k + 1)-wide distance
# and index arrays are freed before the next, so memory does not grow with
# k times the cloud size.
SOR_BLOCK_ROWS = 1 << 15


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

    The sign is chosen so the normal points towards the camera centre that
    recorded the Gaussian's best contribution (non-negative dot product with
    centre - mean). Gaussians never seen by a camera keep the unflipped axis.
    """
    rot = quats_to_rotmats(scene.rotation_unit)
    smallest = np.argmin(scene.log_scale, axis=1)
    normals = np.take_along_axis(rot, smallest[:, None, None], axis=2)[:, :, 0]

    centres = scene.contribution.best_camera_centre
    seen = np.isfinite(centres).all(axis=1)
    towards = centres - scene.position
    flip = seen & (np.einsum("nj,nj->n", normals, towards) < 0.0)
    normals[flip] *= -1.0
    return normals


def remove_statistical_outliers(cloud: PointCloud, k_neighbours: int = 20,
                                std_ratio: float = 2.0, workers: int = 1) -> PointCloud:
    """Drop points whose mean k-NN distance exceeds mean + std_ratio * std.

    Exact nearest neighbours via a KD-tree queried on ``workers`` threads,
    ``SOR_BLOCK_ROWS`` points at a time in the tree's own point order; each
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
    tree = cKDTree(points)
    mean_distance = np.empty(len(points))
    for start in range(0, len(points), SOR_BLOCK_ROWS):
        # in the tree's leaf order, neighbouring queries walk the same nodes
        rows = tree.indices[start:start + SOR_BLOCK_ROWS]
        distances = tree.query(points[rows], k=k_neighbours + 1, workers=workers)[0]
        mean_distance[rows] = distances[:, 1:].mean(axis=1)  # column 0 is the point itself
        del distances  # free this block before the next one is queried
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
                                        workers=resolve_workers(config.threads))
    return cloud, stats
