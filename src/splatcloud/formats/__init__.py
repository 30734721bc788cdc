"""Input/output format support: 3DGS PLY, .splat, COLMAP models, NeRF JSON."""

from .atomic import atomic_write
from .colmap import load_cameras_colmap
from .nerf import load_cameras_nerf_json
from .ply import load_gaussians_ply, write_pointcloud_ply
from .splat import load_gaussians_splat

__all__ = [
    "atomic_write",
    "load_cameras_colmap",
    "load_cameras_nerf_json",
    "load_gaussians_ply",
    "load_gaussians_splat",
    "write_pointcloud_ply",
]
