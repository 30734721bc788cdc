"""Configuration objects for every pipeline stage.

Each option is declared once, as a dataclass field made by :func:`option`.
The field's metadata holds its help text, metavar, string parser and range
check: ``splatcloud.cli`` builds its flags and config-file keys from them and
:meth:`PipelineConfig.validate` runs the checks. :class:`PipelineConfig`
inherits every stage config's fields, so it is accepted wherever a stage
config is.
"""

from __future__ import annotations

import math
import os
from argparse import ArgumentTypeError
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

from .errors import UsageError


def resolve_workers(threads: int) -> int:
    """Worker count for a ``--threads`` value: 0 means one per CPU."""
    return threads if threads > 0 else (os.cpu_count() or 1)


def parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ArgumentTypeError(f"expected a boolean, got '{text}'")


def _parse_background(text: str) -> tuple[float, float, float]:
    """``R,G,B`` with 0-255 channels, as 0..1 floats."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ArgumentTypeError("background must be R,G,B with values 0-255")
    values = [int(p) for p in parts]
    if not all(0 <= v <= 255 for v in values):
        raise ArgumentTypeError("background channels must be within 0-255")
    return tuple(v / 255.0 for v in values)


def option(default=MISSING, help="", metavar=None, *, parse=None, check=None, key=None):
    """A config field that is also a command-line flag and a config-file key.

    ``help`` may name ``{default}``. ``parse`` turns the option's text into a
    value; it defaults to the type of ``default``, and a boolean option is a
    bare flag. ``check`` is a ``(predicate, requirement)`` pair for
    :meth:`PipelineConfig.validate`. ``key`` replaces the field name as the
    config-file key (the flag is ``--`` plus the key with dashes). A field
    without a default is a positional argument.
    """
    if parse is None:
        parse = parse_bool if isinstance(default, bool) else type(default)
    return field(default=default, metadata={
        "help": help, "metavar": metavar, "parse": parse, "check": check, "key": key})


def option_key(f: Field) -> str:
    return f.metadata["key"] or f.name


def option_flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# Comparisons with NaN are false, so NaN fails every check written as "v op bound".
def _at_least(low):
    return (lambda v: v >= low), f"must be >= {low}"


def _above(low):
    return (lambda v: v > low), f"must be > {low}"


def _within(low, high):
    return (lambda v: low <= v <= high), f"must be within {low}..{high}"


def _threads():
    # RenderConfig and SamplerConfig each need it; PipelineConfig inherits one field.
    return option(0, "worker threads, 0 = auto (results are thread-count independent)", "N",
                  check=_at_least(0))


@dataclass
class FilterConfig:
    """Optional pre-sampling scene filters; ``None`` disables a filter."""

    bbox_min: tuple[float, float, float] | None = None
    bbox_max: tuple[float, float, float] | None = None
    max_scale: float | None = option(
        None, "drop gaussians whose largest linear scale exceeds S", "S", parse=float,
        check=_above(0))
    min_opacity: float | None = option(
        None, "drop gaussians with opacity below O", "O", parse=float, check=_within(0, 1))

    def any_enabled(self) -> bool:
        return any(
            v is not None
            for v in (self.bbox_min, self.bbox_max, self.max_scale, self.min_opacity)
        )


@dataclass
class RenderConfig:
    render_scale: float = option(
        1.0, "resolution multiplier in (0, 1] for the colour pass", "F",
        check=((lambda v: 0.0 < v <= 1.0), "must be in (0, 1]"))
    skip_cameras: int = option(
        0, "skip every K-th camera (0 or 1 = keep all)", "K", check=_at_least(0))
    tile_size: int = 64
    tile_budget: int = option(
        2**24, "max gaussian-pixel overlaps per tile (default {default})", "N",
        check=_at_least(1))
    background: tuple[float, float, float] = option(
        (0.0, 0.0, 0.0), "background colour 0-255 per channel (default black)", "R,G,B",
        parse=_parse_background,
        check=((lambda c: all(0.0 <= v <= 1.0 for v in c)), "channels must be within 0..1"))
    save_renders: Path | None = option(
        None, "dump rendered images as PPM files into DIR", "DIR", parse=Path)
    threads: int = _threads()


@dataclass
class SamplerConfig:
    sigma: float = option(
        2.0, "Mahalanobis rejection threshold (default {default})", "S", check=_above(0))
    exact: bool = option(False, "disable 5-point binning for exact per-gaussian counts")
    max_resample_rounds: int = option(
        5, "draw attempts per point slot (default {default})", "N", check=_at_least(1))
    seed: int = option(0, "RNG seed (default {default})")
    threads: int = _threads()


@dataclass
class SurfaceConfig:
    surface_points: int = option(
        5_000_000, "surface cloud point budget (default {default})", "N", check=_at_least(1))
    sor_k: int = option(
        20, "neighbours for statistical outlier removal (default {default})", "K",
        check=_at_least(1))
    sor_std: float = option(
        2.0, "outlier removal std-ratio (default {default})", "R", check=_above(0))


@dataclass(kw_only=True)
class PipelineConfig(SurfaceConfig, RenderConfig, SamplerConfig):
    """Everything the end-to-end pipeline needs; its options are the CLI flags."""

    input_gaussians: Path = option(
        help="gaussian scene (.ply or .splat)", parse=Path, key="input")
    output: Path = option(help="output point cloud .ply", parse=Path)
    input_cameras: Path | None = option(
        None, "camera poses: COLMAP model dir or NeRF transforms .json", "PATH",
        parse=Path, key="cameras")
    num_points: int = option(
        10_000_000, "total points to sample (default {default})", "N", check=_at_least(1))
    filters: FilterConfig = field(default_factory=FilterConfig)
    mesh_prep: bool = option(False, "also export an oriented surface cloud (_surface.ply)")

    def validate(self):
        """Raise :class:`UsageError` naming the flag of the first option out of range."""
        for config in (self, self.filters):
            for f in fields(config):
                check = f.metadata.get("check")
                value = getattr(config, f.name)
                off = value is None and f.default is None  # e.g. a filter left off
                if check is not None and not off and not check[0](value):
                    raise UsageError(f"{option_flag(option_key(f))} {check[1]}, got {value}")
        for corner in (self.filters.bbox_min, self.filters.bbox_max):
            if corner is not None and not all(math.isfinite(v) for v in corner):
                raise UsageError(f"--bbox values must be finite, got {corner}")
        if self.mesh_prep and self.input_cameras is None:
            raise UsageError("--mesh-prep requires camera poses (--cameras)")
