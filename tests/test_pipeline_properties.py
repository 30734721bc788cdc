"""Property test: every point a conversion writes is finite.

Small random scenes, as 3DGS PLY or .splat, with no cameras or with two
views in COLMAP or NeRF form, and with or without ``--mesh-prep``, go
through ``pipeline.run``. The run must convert or fail with a typed,
stage-tagged error, and every point of every output file, read back by the
reference parser, must be finite.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from reference import read_cloud
from splatcloud import pipeline
from splatcloud.config import PipelineConfig
from splatcloud.errors import PipelineError, SplatCloudError

from conftest import encode_splat, random_records, write_colmap_bin, write_scene_ply


def write_cameras(directory: Path, kind: str, distance: float) -> Path:
    """Two 64x64 views of the origin from ``distance``: front and side."""
    if kind == "colmap":
        camera = {"id": 1, "model": "SIMPLE_PINHOLE", "width": 64, "height": 64,
                  "params": (60.0, 32.0, 32.0)}
        half = math.sqrt(0.5)
        images = [
            {"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, distance),
             "camera_id": 1, "name": "front.png"},
            {"id": 2, "qvec": (half, 0.0, half, 0.0), "tvec": (0.0, 0.0, distance),
             "camera_id": 1, "name": "side.png"},
        ]
        write_colmap_bin(directory / "sparse", [camera], images)
        return directory / "sparse"
    # OpenGL camera-to-world: the camera looks down its -Z axis
    front = np.eye(4)
    front[2, 3] = distance
    side = np.array([[0.0, 0.0, 1.0, distance], [0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    path = directory / "transforms.json"
    path.write_text(json.dumps({"fl_x": 60.0, "w": 64, "h": 64, "frames": [
        {"file_path": "front", "transform_matrix": front.tolist()},
        {"file_path": "side", "transform_matrix": side.tolist()},
    ]}))
    return path


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 40),
    spread=st.sampled_from([1e-3, 1.0, 1e3]),
    log_scales=st.sampled_from([(-12.0, -8.0), (-2.5, -0.5), (0.0, 3.0)]),
    scene_format=st.sampled_from(["ply", "splat"]),
    cameras=st.sampled_from([None, "colmap", "nerf"]),
    mesh_prep=st.booleans(),
    num_points=st.integers(1, 3000),
    sigma=st.sampled_from([0.5, 3.0, math.inf]),
    threads=st.integers(1, 2),
)
@settings(max_examples=30)
def test_every_output_point_is_finite(seed, count, spread, log_scales, scene_format,
                                      cameras, mesh_prep, num_points, sigma, threads):
    raw = random_records(np.random.default_rng(seed), count, spread=spread,
                         log_scale_range=log_scales)
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        scene = directory / f"scene.{scene_format}"
        if scene_format == "ply":
            write_scene_ply(raw, scene)
        else:
            scene.write_bytes(encode_splat(raw))
        output = directory / "cloud.ply"
        camera_path = None if cameras is None else write_cameras(directory, cameras, 5.0 * spread)
        config = PipelineConfig(
            input_gaussians=scene, input_cameras=camera_path, output=output,
            num_points=num_points, surface_points=num_points, sigma=sigma, seed=seed,
            threads=threads, mesh_prep=mesh_prep and cameras is not None)
        try:
            pipeline.run(config)
        except PipelineError as err:
            assert isinstance(err.cause, SplatCloudError), err
        for path in (output, pipeline.surface_output_path(output)):
            if path.exists():
                assert np.isfinite(read_cloud(path).points).all(), path
