"""End-to-end pipeline: load, activate, filter, render, cull, sample, write."""

from __future__ import annotations

import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import formats
from .config import PipelineConfig
from .errors import PipelineError, UsageError
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
        """The ``--stats-json`` report: these fields with the stage counts nested."""
        return {
            "gaussians": {
                "loaded": self.gaussians_loaded,
                "after_filters": self.gaussians_after_filters,
                "after_cull": self.gaussians_after_cull,
            },
            "cameras": self.cameras,
            "render": _stage_report(self.render),
            "points": _stage_report(self.points),
            "surface": _stage_report(
                self.surface_points, after_cleanup=self.surface_points_after_cleanup),
            "output": self.output,
            "surface_output": self.surface_output,
            "timings_seconds": self.timings_seconds,
        }


# How RenderStats/SampleStats fields are named in the report.
_REPORT_NAMES = {"images_rendered": "images", "rejected": "rejected_draws"}


def _stage_report(stats, **extra) -> dict | None:
    if stats is None:
        return None
    return {_REPORT_NAMES.get(k, k): v for k, v in asdict(stats).items()} | extra


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


# The files load_cameras_colmap may read from a model directory.
_COLMAP_FILES = ("cameras.bin", "images.bin", "cameras.txt", "images.txt")


def surface_output_path(output: Path) -> Path:
    return output.with_name(output.stem + "_surface.ply")


def _check_outputs(config: PipelineConfig) -> None:
    """Raise :class:`UsageError` for an output path that cannot be written or names an input.

    The main output and, under ``--mesh-prep``, its ``_surface.ply`` sibling
    must be a file in an existing directory and must not be an input: the
    scene, the cameras path or a COLMAP model file in it, through a symlink
    or hard link either. An existing output file may be replaced. When the
    colour pass runs, ``--save-renders`` must not be or lie under a file.
    """
    inputs = [Path(config.input_gaussians)]
    if config.input_cameras is not None:
        cameras = Path(config.input_cameras)
        inputs.append(cameras)
        if cameras.is_dir():
            inputs += [cameras / name for name in _COLMAP_FILES]

    def check(path: Path) -> None:
        if path.is_dir():
            raise UsageError(f"{path}: the output is a directory")
        if not path.parent.is_dir():
            raise UsageError(f"{path}: no such directory {path.parent}")
        for source in inputs:
            if _same_file(path, source):
                raise UsageError(f"{path}: the output would replace the input {source}")

    output = Path(config.output)
    check(output)
    if config.mesh_prep:
        check(surface_output_path(output))
    if config.input_cameras is not None and config.save_renders is not None:
        renders = Path(config.save_renders)
        existing = next(p for p in (renders, *renders.parents) if p.exists())
        if not existing.is_dir():
            raise UsageError(f"{renders}: --save-renders needs a directory; {existing} is a file")


def _same_file(a: Path, b: Path) -> bool:
    if a.exists() and b.exists():
        return os.path.samefile(a, b)  # links count
    return a.resolve() == b.resolve()


def run(config: PipelineConfig) -> PipelineStats:
    """Execute the full conversion; raises PipelineError with the failing stage.

    The options and output paths are checked before any input is read.

    Each output file appears only once it is complete, so a failure leaves
    no partial file behind; a failure in the surface stage keeps the main
    cloud already written.
    """
    config.validate()
    _check_outputs(config)
    stats = PipelineStats()
    clock = _StageClock()
    total_start = time.perf_counter()

    try:
        raw = clock.run("load-gaussians", lambda: _load_gaussians(Path(config.input_gaussians)))
        stats.gaussians_loaded = len(raw)
        log.info("loaded %d gaussians from %s", len(raw), config.input_gaussians)

        poses = []
        if config.input_cameras is not None:
            poses = clock.run("load-cameras", lambda: _load_cameras(Path(config.input_cameras)))
            stats.cameras = len(poses)
            log.info("loaded %d camera poses from %s", len(poses), config.input_cameras)
            if config.mesh_prep and not poses:
                raise UsageError(f"--mesh-prep requires camera poses; "
                                 f"{config.input_cameras} holds none")

        scene = clock.run("activate", lambda: activate(raw))
        del raw  # the scene keeps what it needs; free the other columns before sampling

        if config.filters_enabled():
            scene = clock.run("filter", lambda s=scene: filter_scene(s, config))
            log.info("filters retained %d of %d gaussians", scene.count, stats.gaussians_loaded)
        stats.gaussians_after_filters = scene.count

        if poses:
            stats.render = clock.run(
                "render", lambda s=scene: render_all(s, poses, config))
            log.info("rendered %d images in %.2fs", stats.render.images_rendered,
                     clock.timings["render"])
            scene = clock.run("cull", lambda s=scene: cull_unrendered(s))
            log.info("culled to %d gaussians with non-zero contribution", scene.count)
        else:
            log.warning(
                "no camera poses supplied: skipping the colour rendering pass; "
                "point colours will be the raw per-gaussian base colours"
            )
        stats.gaussians_after_cull = scene.count

        def sample(s=scene):
            return generate_pointcloud(s, config.num_points, config)
        cloud, stats.points = clock.run("sample", sample)

        output = Path(config.output)
        clock.run("write", lambda: formats.write_pointcloud_ply(cloud, output))
        stats.output = str(output)
        log.info("wrote %d points to %s", len(cloud), output)
        del cloud  # written; free it before the surface stage samples its own cloud

        if config.mesh_prep:
            def surface(s=scene):
                return export_surface_cloud(s, config)
            surface_cloud, stats.surface_points = clock.run("surface", surface)
            stats.surface_points_after_cleanup = len(surface_cloud)
            spath = surface_output_path(output)
            clock.run("write-surface",
                      lambda: formats.write_pointcloud_ply(surface_cloud, spath))
            stats.surface_output = str(spath)
            log.info("wrote %d oriented surface points to %s", len(surface_cloud), spath)
    except UsageError:
        raise
    except Exception as err:
        raise PipelineError(clock.current, err) from err

    stats.timings_seconds = dict(clock.timings)
    stats.timings_seconds["total"] = round(time.perf_counter() - total_start, 6)
    return stats
