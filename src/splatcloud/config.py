"""Configuration objects for every pipeline stage.

Each option is declared once, as a dataclass field made by :func:`option`.
The field's metadata holds its help text, metavar, string parser and range
check: ``splatcloud.cli`` builds its flags and config-file keys from them and
:meth:`PipelineConfig.validate` runs the checks. :class:`PipelineConfig`
inherits every stage config's fields (filters included), so it is one flat
set of options and is accepted wherever a stage config is.
"""

from __future__ import annotations

import math
import os
from argparse import ArgumentTypeError
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

from .errors import UsageError


def resolve_workers(threads: int) -> int:
    """Worker count for a ``--threads`` value: 0 means one per CPU."""
    return threads if threads > 0 else (os.cpu_count() or 1)


def map_threads(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``--threads`` workers.

    Runs serially when there is one worker or at most one item. The results
    are in the order of ``items`` either way.
    """
    workers = resolve_workers(threads)
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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


def _parse_bbox(text: str) -> tuple[float, ...]:
    """``X0,Y0,Z0,X1,Y1,Z1``: the min corner, then the max corner."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 6:
        raise ArgumentTypeError("bbox must be minx,miny,minz,maxx,maxy,maxz")
    return tuple(parts)


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

    bbox: tuple[float, float, float, float, float, float] | None = option(
        None, "keep only gaussians inside this box", "X0,Y0,Z0,X1,Y1,Z1", parse=_parse_bbox,
        check=((lambda b: all(math.isfinite(v) for v in b)), "values must be finite"))
    max_scale: float | None = option(
        None, "drop gaussians whose largest linear scale exceeds S", "S", parse=float,
        check=_above(0))
    min_opacity: float | None = option(
        None, "drop gaussians with opacity below O", "O", parse=float, check=_within(0, 1))

    def filters_enabled(self) -> bool:
        return any(getattr(self, f.name) is not None for f in fields(FilterConfig))


@dataclass
class RenderConfig:
    render_scale: float = option(
        1.0, "resolution multiplier in (0, 1] for the colour pass", "F",
        check=((lambda v: 0.0 < v <= 1.0), "must be in (0, 1]"))
    skip_cameras: int = option(
        0, "skip every K-th camera (0 or 1 = keep all)", "K", check=_at_least(0))
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
class SurfaceConfig(SamplerConfig):
    """Surface sampling draws like the main sampler, with its own budget."""

    surface_points: int = option(
        5_000_000, "surface cloud point budget (default {default})", "N", check=_at_least(1))
    sor_k: int = option(
        20, "neighbours for statistical outlier removal (default {default})", "K",
        check=_at_least(1))
    sor_std: float = option(
        2.0, "outlier removal std-ratio (default {default})", "R", check=_above(0))


@dataclass(kw_only=True)
class PipelineConfig(FilterConfig, SurfaceConfig, RenderConfig):
    """Everything the end-to-end pipeline needs; its options are the CLI flags."""

    input_gaussians: Path = option(
        help="gaussian scene (.ply or .splat)", parse=Path, key="input")
    output: Path = option(help="output point cloud .ply", parse=Path)
    input_cameras: Path | None = option(
        None, "camera poses: COLMAP model dir or NeRF transforms .json", "PATH",
        parse=Path, key="cameras")
    num_points: int = option(
        10_000_000, "total points to sample (default {default})", "N", check=_at_least(1))
    mesh_prep: bool = option(False, "also export an oriented surface cloud (_surface.ply)")

    def validate(self):
        """Raise :class:`UsageError` naming the flag of the first option out of range."""
        for f in fields(self):
            check = f.metadata.get("check")
            value = getattr(self, f.name)
            off = value is None and f.default is None  # e.g. a filter left off
            if check is not None and not off and not check[0](value):
                raise UsageError(f"{option_flag(option_key(f))} {check[1]}, got {value}")
        if self.mesh_prep and self.input_cameras is None:
            raise UsageError("--mesh-prep requires camera poses (--cameras)")
