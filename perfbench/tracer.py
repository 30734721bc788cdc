"""Span tracer installed from outside the program, plus the traced-child entry point.

Each wrapper replaces a public function at the name its caller looks it up
by (``pipeline`` imports ``render_all`` into its own namespace, ``renderer``
calls its module-level ``project``, and so on). One span is recorded per
call: name, start, end, parent span, thread and run id, plus work counters
read from the call's arguments and return value through public attributes
only. Spans stay in memory and are written as JSONL when the run ends.

Run as a script it converts one scene exactly like ``python -m splatcloud.cli``
with the wrappers installed::

    python3 perfbench/tracer.py SPANS.jsonl RUN_ID -- <splatcloud cli arguments>
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


def _rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _project(args, kwargs, result):
    bbox = result.bbox
    areas = (bbox[:, 2] - bbox[:, 0]) * (bbox[:, 3] - bbox[:, 1])
    return {"projected": len(result), "inbox_evals": int(areas.sum())}


def _tile_scene(args, kwargs, result):
    return {
        "tiles": len(result),
        "tiles_subdivided": sum(1 for t in result if t.level > 0),
        "tile_pairs": sum(len(t.members) for t in result),
        "tile_px_evals": sum(len(t.members) * t.pixels for t in result),
    }


def _render_image(args, kwargs, result):
    buffers, _ = result
    return {"terminated_px": int(buffers.terminated.sum())}


def _composite_tile(args, kwargs, result):
    return {"contributing": len(result.rows)}


def _sample_stats(args, kwargs, result):
    _, stats = result
    return {"allocated": stats.allocated, "emitted": stats.emitted,
            "rejected": stats.rejected, "rss_hwm_mb": _rss_hwm_mb()}


def _sample_batch(args, kwargs, result):
    _, _, accepted, rejected = result
    return {"emitted": int(accepted.sum()), "rejected": int(rejected)}


def _activate(args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    return {"dropped": len(records) - result.count}


def _cull(args, kwargs, result):
    return {"kept": result.count}


def _select(args, kwargs, result):
    return {"selected": int(result.surface_mask.sum())}


def _sor(args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    return {"queries": len(cloud), "removed": len(cloud) - len(result)}


def _write(args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path), "surface": cloud.normals is not None}


def _rss(args, kwargs, result):
    return {"rss_hwm_mb": _rss_hwm_mb()}


# (module, attribute path, span name, counter reader). Span names are
# "<layer>.<function>"; the layer is the package module the function belongs to.
TARGETS = (
    ("splatcloud.cli", "run", "pipeline.run", None),
    ("splatcloud.formats", "load_gaussians_ply", "formats.load_gaussians_ply", None),
    ("splatcloud.formats", "load_gaussians_splat", "formats.load_gaussians_splat", None),
    ("splatcloud.formats", "load_cameras_colmap", "formats.load_cameras_colmap", None),
    ("splatcloud.formats", "load_cameras_nerf_json", "formats.load_cameras_nerf_json", None),
    ("splatcloud.formats", "write_pointcloud_ply", "formats.write_pointcloud_ply", _write),
    ("splatcloud.pipeline", "activate", "scene.activate", _activate),
    ("splatcloud.pipeline", "filter_scene", "scene.filter_scene", None),
    ("splatcloud.pipeline", "cull_unrendered", "scene.cull_unrendered", _cull),
    ("splatcloud.pipeline", "render_all", "renderer.render_all", _rss),
    ("splatcloud.renderer", "render_image", "renderer.render_image", _render_image),
    ("splatcloud.renderer", "project", "renderer.project", _project),
    ("splatcloud.renderer", "tile_scene", "renderer.tile_scene", _tile_scene),
    ("splatcloud.renderer", "composite_tile", "renderer.composite_tile", _composite_tile),
    ("splatcloud.scene", "ContributionState.offer", "renderer.offer", None),
    ("splatcloud.pipeline", "generate_pointcloud", "sampler.generate_pointcloud",
     _sample_stats),
    ("splatcloud.sampler", "allocate", "sampler.allocate", None),
    ("splatcloud.sampler", "build_batches", "sampler.build_batches", None),
    ("splatcloud.sampler", "sample_batch", "sampler.sample_batch", _sample_batch),
    ("splatcloud.pipeline", "export_surface_cloud", "surface.export_surface_cloud", None),
    ("splatcloud.surface", "select_surface", "surface.select_surface", _select),
    ("splatcloud.surface", "surface_normals", "surface.surface_normals", None),
    ("splatcloud.surface", "remove_statistical_outliers",
     "surface.remove_statistical_outliers", _sor),
)

# What a counter reader may raise when a public return type changes shape;
# the counter is then reported missing instead of failing the conversion.
_COUNTER_ERRORS = (AttributeError, KeyError, IndexError, TypeError, ValueError)


class Tracer:
    """Collects spans from every thread of one traced conversion."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.unmeasured: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, stack: list[int]):
        # A worker thread's span belongs to the call that dispatched it,
        # which is the innermost span open on the main thread.
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, fn, name: str, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = tracer._stacks.setdefault(thread, [])
            span = {"kind": "span", "run": tracer.run_id, "id": next(tracer._ids),
                    "parent": tracer._parent(stack), "name": name, "thread": thread}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counters is not None:
                try:
                    span["counters"] = counters(args, kwargs, result)
                except _COUNTER_ERRORS:
                    span["counters_missing"] = True
            return result

        return traced

    def install(self) -> None:
        """Replace every target that exists; list the others as unmeasured."""
        for module_name, attr_path, name, counters in TARGETS:
            *parents, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(name)
                continue
            setattr(owner, attr, self.wrap(original, name, counters))

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "meta", "run": self.run_id,
                                 "unmeasured": self.unmeasured}) + "\n")
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> tuple[list[dict], list[str]]:
    """(spans, unmeasured span names) from a file written by :meth:`Tracer.dump`."""
    spans, unmeasured = [], []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == "meta":
                unmeasured = record["unmeasured"]
            else:
                spans.append(record)
    return spans, unmeasured


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.jsonl RUN_ID -- <cli arguments>")
    import splatcloud.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return splatcloud.cli.main(cli_args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
