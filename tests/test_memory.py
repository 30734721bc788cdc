"""Memory guards: sampling and writing stay within a few output sizes.

numpy reports its buffers to ``tracemalloc``, so a traced peak is the
largest set of arrays alive at once, measured in-process.
"""

import tracemalloc

import numpy as np
import pytest

from splatcloud.config import SamplerConfig
from splatcloud.formats import write_pointcloud_ply
from splatcloud.sampler import generate_pointcloud
from splatcloud.scene import activate
from splatcloud.types import RawGaussians

POINT_BYTES = 15  # one output vertex: xyz float32 + rgb uint8


def varied_scene(n, seed=12):
    """``n`` Gaussians whose scales span two orders of magnitude."""
    rng = np.random.default_rng(seed)
    return activate(RawGaussians(
        position=rng.uniform(-1.0, 1.0, (n, 3)),
        log_scale=rng.uniform(-5.0, -0.5, (n, 3)),
        rotation=rng.standard_normal((n, 4)),
        logit_opacity=rng.uniform(-1.0, 3.0, n),
        sh_dc=rng.uniform(-1.5, 1.5, (n, 3)),
    ))


@pytest.mark.parametrize("exact", [True, False])
def test_sampling_and_writing_peaks_stay_near_output_size(tmp_path, exact):
    scene = varied_scene(20_000)
    config = SamplerConfig(exact=exact, seed=4, threads=2)
    tracemalloc.start()
    try:
        cloud, _ = generate_pointcloud(scene, 1_000_000, config)
        _, sample_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with_cloud, _ = tracemalloc.get_traced_memory()
        write_pointcloud_ply(cloud, tmp_path / "cloud.ply")
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output_bytes = POINT_BYTES * len(cloud)
    assert len(cloud) > 900_000
    assert sample_peak <= 3.0 * output_bytes, \
        f"sampling peaked at {sample_peak / output_bytes:.2f}x the output"
    assert write_peak - with_cloud <= 1.25 * output_bytes, \
        f"writing peaked at {(write_peak - with_cloud) / output_bytes:.2f}x the output"
