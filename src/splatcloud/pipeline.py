"""End-to-end pipeline: load, activate, filter, render, cull, sample, write."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import formats
from .config import PipelineConfig
from .errors import PipelineError, SplatCloudError, UsageError
from .renderer import RenderStats, render_all
from .sampler import SampleStats, generate_pointcloud
from .scene import activate, cull_unrendered, filter_scene
from .surface import export_surface_cloud

log = logging.getLogger(__name__)

SUPPORTED_FORMATS = "a 3DGS .ply file, a .splat file, a COLMAP model directory, " \
    "or a NeRF transforms .json"


@dataclass
class PipelineStats:
    """Machine-readable run report (see --stats-json)."""

    gaussians_loaded: int = 0
    gaussians_after_filters: int = 0
    gaussians_after_cull: int = 0
    cameras: int = 0
    render: RenderStats | None = None
    points: SampleStats | None = None
    surface_points: SampleStats | None = None
    surface_points_after_cleanup: int | None = None
    output: str = ""
    surface_output: str | None = None
    timings_seconds: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        render = None
        if self.render is not None:
            render = {
                "images": self.render.images_rendered,
                "tiles": self.render.tiles,
                "tiles_subdivided": self.render.tiles_subdivided,
                "max_tile_product": self.render.max_tile_product,
                "singular_skips": self.render.singular_skips,
                "pairs_evaluated": self.render.pairs_evaluated,
                "pixels_terminated": self.render.pixels_terminated,
            }
        points = None
        if self.points is not None:
            points = {
                "requested": self.points.requested,
                "allocated": self.points.allocated,
                "emitted": self.points.emitted,
                "rejected_draws": self.points.rejected,
            }
        surface = None
        if self.surface_points is not None:
            surface = {
                "requested": self.surface_points.requested,
                "allocated": self.surface_points.allocated,
                "emitted": self.surface_points.emitted,
                "rejected_draws": self.surface_points.rejected,
                "after_cleanup": self.surface_points_after_cleanup,
            }
        return {
            "gaussians": {
                "loaded": self.gaussians_loaded,
                "after_filters": self.gaussians_after_filters,
                "after_cull": self.gaussians_after_cull,
            },
            "cameras": self.cameras,
            "render": render,
            "points": points,
            "surface": surface,
            "output": self.output,
            "surface_output": self.surface_output,
            "timings_seconds": self.timings_seconds,
        }


def detect_format(path) -> str:
    """Classify an input path as ply | splat | colmap-dir | nerf-json."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{path}: no such file or directory")
    if path.is_dir():
        for stem in ("cameras.bin", "cameras.txt"):
            if (path / stem).exists():
                return "colmap-dir"
        raise UsageError(f"{path}: directory holds no cameras.bin/cameras.txt")
    suffix = path.suffix.lower()
    if suffix == ".splat":
        return "splat"
    if suffix == ".json":
        return "nerf-json"
    if suffix == ".ply":
        return "ply"
    with open(path, "rb") as fh:
        if fh.read(4).startswith(b"ply"):
            return "ply"
    raise UsageError(f"{path}: unrecognised format; expected {SUPPORTED_FORMATS}")


class _StageClock:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self.current = "startup"

    def run(self, name: str, fn):
        self.current = name
        started = time.perf_counter()
        result = fn()
        self.timings[name] = round(time.perf_counter() - started, 6)
        return result


def _load_gaussians(path: Path):
    fmt = detect_format(path)
    if fmt == "ply":
        return formats.load_gaussians_ply(path)
    if fmt == "splat":
        return formats.load_gaussians_splat(path)
    raise UsageError(f"{path}: expected a .ply or .splat gaussian scene, found {fmt}")


def _load_cameras(path: Path):
    fmt = detect_format(path)
    if fmt == "colmap-dir":
        return formats.load_cameras_colmap(path)
    if fmt == "nerf-json":
        return formats.load_cameras_nerf_json(path)
    raise UsageError(f"{path}: expected a COLMAP directory or transforms .json, found {fmt}")


def surface_output_path(output: Path) -> Path:
    return output.with_name(output.stem + "_surface.ply")


def run(config: PipelineConfig) -> PipelineStats:
    """Execute the full conversion; raises PipelineError with the failing stage.

    Partially written output files are removed on failure.
    """
    config.validate()
    stats = PipelineStats()
    clock = _StageClock()
    created: list[Path] = []
    total_start = time.perf_counter()

    try:
        records = clock.run("load-gaussians", lambda: _load_gaussians(Path(config.input_gaussians)))
        stats.gaussians_loaded = len(records)
        log.info("loaded %d gaussians from %s", len(records), config.input_gaussians)

        poses = []
        if config.input_cameras is not None:
            poses = clock.run("load-cameras", lambda: _load_cameras(Path(config.input_cameras)))
            stats.cameras = len(poses)
            log.info("loaded %d camera poses from %s", len(poses), config.input_cameras)

        scene = clock.run("activate", lambda: activate(records, config.background))

        if config.filters.any_enabled():
            scene = clock.run("filter", lambda s=scene: filter_scene(s, config.filters))
            log.info("filters retained %d of %d gaussians", scene.count, stats.gaussians_loaded)
        stats.gaussians_after_filters = scene.count

        if poses:
            stats.render = clock.run(
                "render", lambda s=scene: render_all(s, poses, config.render_config()))
            log.info("rendered %d images in %.2fs", stats.render.images_rendered,
                     stats.render.seconds)
            scene = clock.run("cull", lambda s=scene: cull_unrendered(s))
            log.info("culled to %d gaussians with non-zero contribution", scene.count)
        else:
            log.warning(
                "no camera poses supplied: skipping the colour rendering pass; "
                "point colours will be the raw per-gaussian base colours"
            )
        stats.gaussians_after_cull = scene.count

        def sample(s=scene):
            return generate_pointcloud(s, config.num_points, config.sampler_config())
        cloud, stats.points = clock.run("sample", sample)

        output = Path(config.output)
        def write():
            created.append(output)
            formats.write_pointcloud_ply(cloud, output)
        clock.run("write", write)
        stats.output = str(output)
        log.info("wrote %d points to %s", len(cloud), output)

        if config.mesh_prep:
            if not poses:
                raise UsageError("--mesh-prep requires camera poses (--cameras)")
            def surface(s=scene):
                return export_surface_cloud(s, config.sampler_config(), config.surface_config())
            surface_cloud, stats.surface_points = clock.run("surface", surface)
            stats.surface_points_after_cleanup = len(surface_cloud)
            spath = surface_output_path(output)
            def write_surface():
                created.append(spath)
                formats.write_pointcloud_ply(surface_cloud, spath)
            clock.run("write-surface", write_surface)
            stats.surface_output = str(spath)
            log.info("wrote %d oriented surface points to %s", len(surface_cloud), spath)
    except Exception as err:
        for path in created:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        if isinstance(err, UsageError):
            raise
        if isinstance(err, SplatCloudError):
            raise PipelineError(clock.current, err) from err
        raise PipelineError(clock.current, err) from err

    stats.timings_seconds = dict(clock.timings)
    stats.timings_seconds["total"] = round(time.perf_counter() - total_start, 6)
    return stats
