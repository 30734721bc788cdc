"""End-to-end pipeline: what a run keeps alive between stages, and the drops it reports."""

import weakref

import numpy as np

from splatcloud import pipeline
from splatcloud.config import PipelineConfig
from conftest import random_records, write_scene_ply


def test_loaded_gaussians_are_released_before_sampling(tmp_path, rng, monkeypatch):
    path = tmp_path / "scene.ply"
    write_scene_ply(random_records(rng, 20), path)
    activate, generate_pointcloud = pipeline.activate, pipeline.generate_pointcloud
    loaded, alive_when_sampling = [], []

    def tracking_activate(raw, *args):
        loaded.append(weakref.ref(raw))
        return activate(raw, *args)

    def checking_generate_pointcloud(*args):
        alive_when_sampling.append(loaded[0]() is not None)
        return generate_pointcloud(*args)

    monkeypatch.setattr(pipeline, "activate", tracking_activate)
    monkeypatch.setattr(pipeline, "generate_pointcloud", checking_generate_pointcloud)
    pipeline.run(PipelineConfig(input_gaussians=path, output=tmp_path / "cloud.ply",
                                num_points=100, threads=1))
    assert alive_when_sampling == [False]


def test_stats_count_every_dropped_row(tmp_path, rng):
    records = random_records(rng, 40, spread=2.0)
    records.position[0, 0] = np.nan  # two invalid rows at load
    records.rotation[1] = 0.0
    records.log_scale[2] = 400.0  # an infinite variance: a degenerate covariance
    path = tmp_path / "scene.ply"
    write_scene_ply(records, path)
    stats = pipeline.run(PipelineConfig(input_gaussians=path, output=tmp_path / "cloud.ply",
                                        num_points=500, threads=1, bbox=(-1, -1, -1, 1, 1, 1)))
    report = stats.as_dict()
    dropped = report["dropped"]
    assert report["gaussians"]["loaded"] == 38
    assert dropped["invalid_at_load"] == 2
    assert dropped["degenerate_at_activate"] == 1
    assert 0 < dropped["filtered"] == 37 - report["gaussians"]["after_filters"]
    assert dropped["culled"] == 0  # no cameras, no colour pass to cull by
    assert dropped["rejected_draws"] == report["points"]["rejected_draws"] > 0
    assert dropped["surface_rejected_draws"] is None and dropped["outliers_removed"] is None
