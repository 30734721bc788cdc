"""Memory guards: activation holds little beyond the scene it builds,
sampling at most twice the output and writing a small part of it, outlier
removal a few tens of bytes per point, and a row subset little more than
the rows it keeps.

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
from splatcloud.surface import remove_statistical_outliers
from splatcloud.types import PointCloud, RawGaussians

POINT_BYTES = 15  # one output vertex: xyz float32 + rgb uint8


def varied_raw(n, seed=12):
    """``n`` raw Gaussians whose scales span two orders of magnitude."""
    rng = np.random.default_rng(seed)
    return RawGaussians(
        position=rng.uniform(-1.0, 1.0, (n, 3)),
        log_scale=rng.uniform(-5.0, -0.5, (n, 3)),
        rotation=rng.standard_normal((n, 4)),
        logit_opacity=rng.uniform(-1.0, 3.0, n),
        sh_dc=rng.uniform(-1.5, 1.5, (n, 3)),
    )


def varied_scene(n, seed=12):
    return activate(varied_raw(n, seed))


def test_activate_memory_does_not_grow_with_n():
    # the scene's new columns are the output; covariances are assembled one
    # block of rows at a time, so only the small per-row temporaries (the
    # quaternion norms, the colour clamp) grow with n. Seven full-size
    # (n, 3, 3) temporaries would cost about 380 bytes per Gaussian
    above_output = {}
    for n in (20_000, 80_000):
        raw = varied_raw(n)
        tracemalloc.start()
        try:
            scene = activate(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(column.nbytes for column in (
            scene.rotation_unit, scene.opacity, scene.covariance, scene.cov_cholesky,
            scene.base_colour))
        above_output[n] = peak - output
    slope = (above_output[80_000] - above_output[20_000]) / 60_000
    assert slope <= 32, f"activate holds {slope:.0f} bytes per Gaussian beyond its output"


@pytest.mark.parametrize("exact", [True, False])
def test_sampling_and_writing_peaks_stay_near_output_size(tmp_path, exact):
    scene = varied_scene(20_000)
    config = SamplerConfig(exact=exact, seed=4, threads=2)
    # the cloud itself is 1x; the rest is the batches in flight and the
    # write's one block of rows
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
    assert sample_peak <= 2.0 * output_bytes, \
        f"sampling peaked at {sample_peak / output_bytes:.2f}x the output"
    assert write_peak - with_cloud <= 0.25 * output_bytes, \
        f"writing peaked at {(write_peak - with_cloud) / output_bytes:.2f}x the output"


def oriented_cloud(n, seed=3):
    """``n`` points uniform in a cube, with random unit normals."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=rng.uniform(-1.0, 1.0, (n, 3)),
                      colours=rng.integers(0, 256, (n, 3), dtype=np.uint8),
                      normals=normals)


def test_outlier_removal_memory_does_not_grow_with_k():
    # k = 20 neighbours would cost (k + 1) * 16 = 336 bytes per point if every
    # distance and index were held at once; the float64 copy, the tree's index
    # array, the mean distances and the survivors' copy stay well under 128
    remove_statistical_outliers(oriented_cloud(100), 20)  # loads scipy untraced
    peaks = {}
    for n in (40_000, 160_000):  # both above one query block
        cloud = oriented_cloud(n)
        tracemalloc.start()
        try:
            remove_statistical_outliers(cloud, 20, 2.0, workers=2)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    slope = (peaks[160_000] - peaks[40_000]) / 120_000
    assert slope <= 128, f"outlier removal holds {slope:.0f} bytes per point"


def test_take_holds_little_more_than_the_kept_rows():
    # the kept rows are 27 bytes a point (xyz and normal float32, rgb uint8);
    # re-checking the normals or indexing each column through an 8-byte row
    # index would add up to 64 more
    cloud = oriented_cloud(160_000)
    keep = np.random.default_rng(5).random(len(cloud)) < 0.97
    kept_bytes = 27 * int(np.count_nonzero(keep))
    tracemalloc.start()
    try:
        cloud.take(keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * kept_bytes, f"take peaked at {peak / kept_bytes:.2f}x the kept rows"
