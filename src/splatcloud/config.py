"""Configuration objects for every pipeline stage."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import UsageError

DEFAULT_NUM_POINTS = 10_000_000
DEFAULT_SURFACE_POINTS = 5_000_000
DEFAULT_TILE_BUDGET = 2**24
DEFAULT_TILE_SIZE = 64


def resolve_workers(threads: int) -> int:
    """Worker count for a ``--threads`` value: 0 means one per CPU."""
    return threads if threads > 0 else (os.cpu_count() or 1)


@dataclass
class FilterConfig:
    """Optional pre-sampling scene filters; ``None`` disables a filter."""

    bbox_min: tuple[float, float, float] | None = None
    bbox_max: tuple[float, float, float] | None = None
    max_scale: float | None = None
    min_opacity: float | None = None

    def any_enabled(self) -> bool:
        return any(
            v is not None
            for v in (self.bbox_min, self.bbox_max, self.max_scale, self.min_opacity)
        )


@dataclass
class RenderConfig:
    render_scale: float = 1.0
    skip_cameras: int = 0
    tile_size: int = DEFAULT_TILE_SIZE
    tile_budget: int = DEFAULT_TILE_BUDGET
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    save_renders: Path | None = None
    threads: int = 0


@dataclass
class SamplerConfig:
    sigma: float = 2.0
    exact: bool = False
    max_resample_rounds: int = 5
    seed: int = 0
    threads: int = 0


@dataclass
class SurfaceConfig:
    surface_points: int = DEFAULT_SURFACE_POINTS
    sor_k: int = 20
    sor_std: float = 2.0


@dataclass
class PipelineConfig:
    """Everything the end-to-end pipeline needs, mirroring the CLI flags."""

    input_gaussians: Path
    output: Path
    input_cameras: Path | None = None
    num_points: int = DEFAULT_NUM_POINTS
    sigma: float = 2.0
    exact: bool = False
    max_resample_rounds: int = 5
    seed: int = 0
    render_scale: float = 1.0
    skip_cameras: int = 0
    tile_budget: int = DEFAULT_TILE_BUDGET
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    save_renders: Path | None = None
    filters: FilterConfig = field(default_factory=FilterConfig)
    mesh_prep: bool = False
    surface_points: int = DEFAULT_SURFACE_POINTS
    sor_k: int = 20
    sor_std: float = 2.0
    threads: int = 0

    def validate(self):
        if self.num_points < 1:
            raise UsageError(f"--num-points must be >= 1, got {self.num_points}")
        if not (0.0 < self.render_scale <= 1.0):
            raise UsageError(f"--render-scale must be in (0, 1], got {self.render_scale}")
        if self.sigma <= 0:
            raise UsageError(f"--sigma must be > 0, got {self.sigma}")
        if self.max_resample_rounds < 1:
            raise UsageError(
                f"--max-resample-rounds must be >= 1, got {self.max_resample_rounds}"
            )
        if self.tile_budget < 1:
            raise UsageError(f"--tile-budget must be >= 1, got {self.tile_budget}")
        if self.skip_cameras < 0:
            raise UsageError(f"--skip-cameras must be >= 0, got {self.skip_cameras}")
        if self.surface_points < 1:
            raise UsageError(f"--surface-points must be >= 1, got {self.surface_points}")
        if self.sor_k < 1:
            raise UsageError(f"--sor-k must be >= 1, got {self.sor_k}")
        if self.sor_std <= 0:
            raise UsageError(f"--sor-std must be > 0, got {self.sor_std}")
        if self.threads < 0:
            raise UsageError(f"--threads must be >= 0, got {self.threads}")
        if not all(0.0 <= c <= 1.0 for c in self.background):
            raise UsageError("background colour channels must be within 0..255")

    def render_config(self) -> RenderConfig:
        return RenderConfig(
            render_scale=self.render_scale,
            skip_cameras=self.skip_cameras,
            tile_budget=self.tile_budget,
            background=self.background,
            save_renders=self.save_renders,
            threads=self.threads,
        )

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(
            sigma=self.sigma,
            exact=self.exact,
            max_resample_rounds=self.max_resample_rounds,
            seed=self.seed,
            threads=self.threads,
        )

    def surface_config(self) -> SurfaceConfig:
        return SurfaceConfig(
            surface_points=self.surface_points,
            sor_k=self.sor_k,
            sor_std=self.sor_std,
        )
