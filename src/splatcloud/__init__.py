"""splatcloud: convert 3D Gaussian splatting scenes into coloured point clouds."""

from .config import FilterConfig, PipelineConfig, RenderConfig, SamplerConfig, SurfaceConfig
from .pipeline import PipelineStats, detect_format, run
from .types import CameraPose, PointCloud, RawGaussians

__version__ = "0.1.0"

__all__ = [
    "CameraPose",
    "FilterConfig",
    "PipelineConfig",
    "PipelineStats",
    "PointCloud",
    "RawGaussians",
    "RenderConfig",
    "SamplerConfig",
    "SurfaceConfig",
    "detect_format",
    "run",
    "__version__",
]
