"""End-to-end pipeline: what a run keeps alive between stages."""

import weakref

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
