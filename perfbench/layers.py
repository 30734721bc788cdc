"""Per-layer metrics from the spans of one traced conversion.

Layers are the package modules: ``formats``, ``scene``, ``renderer``,
``sampler``, ``surface`` and ``pipeline``; ``cli``/``config`` count as set-up.
A span's self time is its duration minus the part of it that its child
spans on the same thread cover. Spans of tile and batch calls run on worker
threads; they give the ``*_busy_s`` and ``*.parallel_eff`` figures, and
their time is part of the self time of the main-thread call that waited for
them.
"""

from __future__ import annotations

from collections import defaultdict

MB = 1024.0 * 1024.0

# metric -> (unit, better, spans it needs). A metric whose spans could not be
# installed is left out of the report rather than read as zero.
METRICS = {
    "formats.load_gaussians_s": ("s", "lower", ("formats.load_gaussians_ply",
                                                "formats.load_gaussians_splat")),
    "formats.load_cameras_s": ("s", "lower", ("formats.load_cameras_colmap",
                                              "formats.load_cameras_nerf_json")),
    "formats.write_s": ("s", "lower", ("formats.write_pointcloud_ply",)),
    "formats.write_mb": ("MB", "lower", ("formats.write_pointcloud_ply",)),
    "formats.write_surface_s": ("s", "lower", ("formats.write_pointcloud_ply",)),
    "scene.activate_s": ("s", "lower", ("scene.activate",)),
    "scene.activate_dropped": ("count", "lower", ("scene.activate",)),
    "scene.cull_s": ("s", "lower", ("scene.cull_unrendered",)),
    "scene.cull_kept": ("count", "higher", ("scene.cull_unrendered",)),
    "renderer.project_s": ("s", "lower", ("renderer.project",)),
    "renderer.projected": ("count", "lower", ("renderer.project",)),
    "renderer.tile_s": ("s", "lower", ("renderer.tile_scene",)),
    "renderer.tiles": ("count", "lower", ("renderer.tile_scene",)),
    "renderer.tiles_subdivided": ("count", "lower", ("renderer.tile_scene",)),
    "renderer.tile_pairs": ("count", "lower", ("renderer.tile_scene",)),
    "renderer.composite_s": ("s", "lower", ("renderer.render_image", "renderer.project",
                                            "renderer.tile_scene")),
    "renderer.composite_busy_s": ("s", "lower", ("renderer.composite_tile",)),
    "renderer.parallel_eff": ("ratio", "higher", ("renderer.composite_tile",)),
    "renderer.merge_s": ("s", "lower", ("renderer.offer",)),
    "renderer.tile_px_evals": ("count", "lower", ("renderer.tile_scene",)),
    "renderer.inbox_evals": ("count", "lower", ("renderer.project",)),
    "renderer.inbox_frac": ("ratio", "higher", ("renderer.project", "renderer.tile_scene")),
    "renderer.terminated_px": ("count", "higher", ("renderer.render_image",)),
    "renderer.contributing": ("count", "lower", ("renderer.composite_tile",)),
    "renderer.rss_hwm_mb": ("MB", "lower", ("renderer.render_all",)),
    "sampler.sample_s": ("s", "lower", ("sampler.generate_pointcloud",)),
    "sampler.batches": ("count", "lower", ("sampler.generate_pointcloud",
                                           "sampler.sample_batch")),
    "sampler.allocated": ("count", "higher", ("sampler.generate_pointcloud",)),
    "sampler.draws": ("count", "lower", ("sampler.generate_pointcloud",
                                         "sampler.sample_batch")),
    "sampler.rejected": ("count", "lower", ("sampler.generate_pointcloud",)),
    "sampler.accept_frac": ("ratio", "higher", ("sampler.generate_pointcloud",
                                                "sampler.sample_batch")),
    "sampler.parallel_eff": ("ratio", "higher", ("sampler.generate_pointcloud",
                                                 "sampler.sample_batch")),
    "sampler.rss_hwm_mb": ("MB", "lower", ("sampler.generate_pointcloud",)),
    "surface.select_s": ("s", "lower", ("surface.select_surface",)),
    "surface.selected": ("count", "higher", ("surface.select_surface",)),
    "surface.normals_s": ("s", "lower", ("surface.surface_normals",)),
    "surface.sample_s": ("s", "lower", ("surface.export_surface_cloud",
                                        "surface.select_surface", "surface.surface_normals",
                                        "surface.remove_statistical_outliers")),
    "surface.sor_s": ("s", "lower", ("surface.remove_statistical_outliers",)),
    "surface.sor_knn_queries": ("count", "lower", ("surface.remove_statistical_outliers",)),
    "surface.sor_removed": ("count", "lower", ("surface.remove_statistical_outliers",)),
    "pipeline.self_s": ("s", "lower", ("pipeline.run",)),
    "setup.self_s": ("s", "lower", ("pipeline.run",)),
    "trace.wall_s": ("s", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}


def _duration(span) -> float:
    return span["end"] - span["start"]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanTree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for span in spans:
            self.children[span["parent"]].append(span)

    def named(self, name: str, under: str | None = None) -> list[dict]:
        found = [s for s in self.spans if s["name"] == name]
        if under is not None:
            found = [s for s in found if self.has_ancestor(s, under)]
        return found

    def has_ancestor(self, span, name: str) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def total(self, *names: str, under: str | None = None) -> float:
        return sum(_duration(s) for n in names for s in self.named(n, under))

    def counter(self, name: str, key: str, under: str | None = None) -> float:
        return sum(s.get("counters", {}).get(key, 0) for s in self.named(name, under))

    def self_time(self, span) -> float:
        same_thread = [(c["start"], c["end"]) for c in self.children[span["id"]]
                       if c["thread"] == span["thread"]]
        return _duration(span) - _covered(same_thread)

    def layer_self(self) -> dict[str, float]:
        """Self time per layer over main-thread spans; sums to the run span."""
        root = self.named("pipeline.run")
        main = root[0]["thread"] if root else None
        out = defaultdict(float)
        for span in self.spans:
            if span["thread"] == main:
                out[span["name"].split(".")[0]] += self.self_time(span)
        return dict(out)

    def parallel_eff(self, worker_span: str, parent_span: str, workers: int,
                     under: str | None = None) -> float:
        """Busy time of worker spans over workers x the window they ran in."""
        busy = window = 0.0
        for parent in self.named(parent_span, under):
            kids = [c for c in self.children[parent["id"]] if c["name"] == worker_span]
            if not kids:
                continue
            busy += sum(_duration(c) for c in kids)
            window += max(c["end"] for c in kids) - min(c["start"] for c in kids)
        return busy / (workers * window) if window > 0 else 0.0


def account(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Set-up plus self time per layer: together they make up the traced wall time."""
    tree = SpanTree([s for s in spans if not s.get("error")])
    run = tree.named("pipeline.run")
    out = {"setup": traced_wall - (_duration(run[0]) if run else 0.0)}
    out.update(sorted(tree.layer_self().items()))
    out["wall"] = traced_wall
    return out


def layer_metrics(spans: list[dict], unmeasured: list[str], traced_wall: float,
                  workers: int) -> dict[str, float]:
    """Every per-layer metric whose spans were installed, for one traced conversion.

    ``trace.overhead_s`` needs the untraced wall time and is filled in by the
    caller. Layers that did not run on a workload report zero.
    """
    tree = SpanTree([s for s in spans if not s.get("error")])
    own_time = account(spans, traced_wall)
    main_cloud = "sampler.generate_pointcloud"
    batch = "sampler.sample_batch"

    writes = tree.named("formats.write_pointcloud_ply")
    surface_writes = [w for w in writes if w.get("counters", {}).get("surface")]
    main_writes = [w for w in writes if w not in surface_writes]
    tile_px = tree.counter("renderer.tile_scene", "tile_px_evals")
    inbox = tree.counter("renderer.project", "inbox_evals")
    emitted = tree.counter(batch, "emitted", under=main_cloud)
    draws = emitted + tree.counter(batch, "rejected", under=main_cloud)
    renders = tree.named("renderer.render_image")
    render_hwm = [s.get("counters", {}).get("rss_hwm_mb", 0.0)
                  for s in tree.named("renderer.render_all")]
    sample_hwm = [s.get("counters", {}).get("rss_hwm_mb", 0.0)
                  for s in tree.named(main_cloud)]

    values = {
        "formats.load_gaussians_s": tree.total("formats.load_gaussians_ply",
                                               "formats.load_gaussians_splat"),
        "formats.load_cameras_s": tree.total("formats.load_cameras_colmap",
                                             "formats.load_cameras_nerf_json"),
        "formats.write_s": sum(_duration(w) for w in main_writes),
        "formats.write_mb": sum(w.get("counters", {}).get("bytes", 0) for w in writes) / MB,
        "formats.write_surface_s": sum(_duration(w) for w in surface_writes),
        "scene.activate_s": tree.total("scene.activate"),
        "scene.activate_dropped": tree.counter("scene.activate", "dropped"),
        "scene.cull_s": tree.total("scene.cull_unrendered"),
        "scene.cull_kept": tree.counter("scene.cull_unrendered", "kept"),
        "renderer.project_s": tree.total("renderer.project"),
        "renderer.projected": tree.counter("renderer.project", "projected"),
        "renderer.tile_s": tree.total("renderer.tile_scene"),
        "renderer.tiles": tree.counter("renderer.tile_scene", "tiles"),
        "renderer.tiles_subdivided": tree.counter("renderer.tile_scene", "tiles_subdivided"),
        "renderer.tile_pairs": tree.counter("renderer.tile_scene", "tile_pairs"),
        "renderer.composite_s": sum(
            _duration(r) - sum(_duration(c) for c in tree.children[r["id"]]
                               if c["name"] in ("renderer.project", "renderer.tile_scene"))
            for r in renders),
        "renderer.composite_busy_s": tree.total("renderer.composite_tile"),
        "renderer.parallel_eff": tree.parallel_eff(
            "renderer.composite_tile", "renderer.render_image", workers),
        "renderer.merge_s": tree.total("renderer.offer"),
        "renderer.tile_px_evals": tile_px,
        "renderer.inbox_evals": inbox,
        "renderer.inbox_frac": inbox / tile_px if tile_px else 0.0,
        "renderer.terminated_px": tree.counter("renderer.render_image", "terminated_px"),
        "renderer.contributing": tree.counter("renderer.composite_tile", "contributing"),
        "renderer.rss_hwm_mb": max(render_hwm, default=0.0),
        "sampler.sample_s": tree.total(main_cloud),
        "sampler.batches": float(len(tree.named(batch, under=main_cloud))),
        "sampler.allocated": tree.counter(main_cloud, "allocated"),
        "sampler.draws": draws,
        "sampler.rejected": tree.counter(main_cloud, "rejected"),
        "sampler.accept_frac": emitted / draws if draws else 0.0,
        "sampler.parallel_eff": tree.parallel_eff(batch, main_cloud, workers),
        "sampler.rss_hwm_mb": max(sample_hwm, default=0.0),
        "surface.select_s": tree.total("surface.select_surface"),
        "surface.selected": tree.counter("surface.select_surface", "selected"),
        "surface.normals_s": tree.total("surface.surface_normals"),
        "surface.sample_s": tree.total("surface.export_surface_cloud") - tree.total(
            "surface.select_surface", "surface.surface_normals",
            "surface.remove_statistical_outliers", under="surface.export_surface_cloud"),
        "surface.sor_s": tree.total("surface.remove_statistical_outliers"),
        "surface.sor_knn_queries": tree.counter("surface.remove_statistical_outliers",
                                                "queries"),
        "surface.sor_removed": tree.counter("surface.remove_statistical_outliers", "removed"),
        "pipeline.self_s": own_time.get("pipeline", 0.0),
        "setup.self_s": own_time["setup"],
        "trace.wall_s": traced_wall,
    }
    missing = set(unmeasured)
    missing.update(s["name"] for s in spans if s.get("counters_missing"))
    return {name: float(value) for name, value in values.items()
            if not missing.intersection(METRICS[name][2])}
