"""Memory guards: loading holds the file and the columns it reads, activation
holds little beyond the scene it builds, projection a few hundred bytes per
Gaussian beyond its output, compositing at most 14 bytes per kept pair of a
tile, the colour pass's parent its contribution state and one worker's
rows at a time, sampling its draws and one block (at most twice the output
in all) and
writing a small part of it, outlier removal a few tens of bytes per point and
a fixed number of k-NN rows at any thread count, a row subset little more
than the rows it keeps, and a point cloud's normals check one block of rows.

numpy reports its buffers to ``tracemalloc``, so a traced peak is the
largest set of arrays alive at once, measured in-process.
"""

import os
import tracemalloc

import numpy as np
import pytest

from splatcloud.config import RenderConfig, SamplerConfig
from splatcloud.formats import load_gaussians_ply, write_pointcloud_ply
from splatcloud.renderer import (
    TILE_BUDGET,
    ImageBuffers,
    ProjectedGaussians,
    composite_tile,
    project,
    render_all,
    tile_scene,
)
from splatcloud.sampler import SampleBatch, derive_batch_seed, generate_pointcloud, sample_batch
from splatcloud.scene import GaussianScene, activate
from splatcloud.surface import remove_statistical_outliers
from splatcloud.types import PointCloud, RawGaussians
from splatcloud.workers import thread_workers

from conftest import frontal_pose, perfbench_gen

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


def test_load_memory_is_the_file_and_the_read_columns(tmp_path):
    # 62 float32 properties a row, as trained scenes store them. The file is
    # read whole; the five columns read are 112 bytes of float64 a row and the
    # row checks a few tens more. Widening the 45 f_rest columns would add 360
    gen = perfbench_gen()
    peaks, sizes = {}, {}
    for n in (20_000, 80_000):
        path = tmp_path / f"scene{n}.ply"
        gen.write_gaussians_ply(gen.sphere_scene(np.random.default_rng(n), n), path)
        sizes[n] = path.stat().st_size
        tracemalloc.start()
        try:
            raw = load_gaussians_ply(path)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(raw) == n
    row_bytes = (sizes[80_000] - sizes[20_000]) / 60_000
    slope = (peaks[80_000] - peaks[20_000]) / 60_000
    assert row_bytes == 248
    assert slope <= row_bytes + 200, f"loading holds {slope:.0f} bytes per Gaussian"


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
            scene.rotation_unit, scene.opacity, scene.covariance, scene.base_colour))
        above_output[n] = peak - output
    slope = (above_output[80_000] - above_output[20_000]) / 60_000
    assert slope <= 32, f"activate holds {slope:.0f} bytes per Gaussian beyond its output"


def test_projection_memory_beyond_its_output():
    # the projection returns 104 bytes a kept row; camera-space means, the
    # boxes, T = J R and the temporaries of T (C T^T) hold 243 more at the
    # peak. Forming the (n, 3, 3) camera-space covariance and a zero-filled
    # (n, 2, 3) Jacobian for two einsums instead held 267
    pose = frontal_pose(width=640, height=480, focal=500.0, distance=5.0)
    above_output = {}
    for n in (20_000, 80_000):
        scene = varied_scene(n)
        tracemalloc.start()
        try:
            projected = project(scene, pose)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(projected) == n
        above_output[n] = peak - sum(column.nbytes for column in vars(projected).values())
    slope = (above_output[80_000] - above_output[20_000]) / 60_000
    assert slope <= 256, f"project holds {slope:.0f} bytes per Gaussian beyond its output"


def deep_tile(depth, side=32):
    """One tile of ``depth`` faint members over every pixel, within ``TILE_BUDGET``."""
    rng = np.random.default_rng(depth)
    projected = ProjectedGaussians(
        gaussian_index=np.arange(depth),
        mean2d=side / 2 + rng.uniform(-0.5, 0.5, (depth, 2)),
        cov2d=np.tile(np.eye(2) * 1e4, (depth, 1, 1)),
        depth=np.arange(1.0, depth + 1),
        opacity=np.full(depth, 0.005),
        bbox=np.tile([0, 0, side, side], (depth, 1)),
    )
    scene = GaussianScene(
        position=np.zeros((depth, 3)), log_scale=np.zeros((depth, 3)),
        rotation_unit=np.tile([1.0, 0.0, 0.0, 0.0], (depth, 1)), opacity=projected.opacity,
        covariance=np.tile(np.eye(3), (depth, 1, 1)),
        base_colour=rng.uniform(0.0, 1.0, (depth, 3)))
    (tile,) = tile_scene(projected, side, side, TILE_BUDGET)
    return tile, projected, scene


def test_composite_memory_grows_by_the_kept_pairs():
    # a tile keeps each run's surviving (member, pixel, weight) triples, 4 + 2
    # + 8 bytes a pair, until it sums its colours; the rest of a run goes when
    # the next starts. Keeping them as int64 members and pixels would cost 24
    # bytes a pair. Summing at every pixel (--save-renders) adds each run's
    # pairs in before the next run starts and keeps none; concatenating the
    # runs' triples and bincounting them there cost about 32
    for planes in (False, True):
        peaks, kept = {}, {}
        for depth in (400, 1600):  # 0.995^1600 > 1e-4: every pair of every member is kept
            tile, projected, scene = deep_tile(depth)
            buffers = ImageBuffers.allocate(32, 32)
            tracemalloc.start()
            try:
                result = composite_tile(tile, projected, scene, buffers, planes=planes)
                _, peaks[depth] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not buffers.terminated.any()
            kept[depth] = result.pairs_evaluated
            assert kept[depth] == depth * tile.pixels
        slope = (peaks[1600] - peaks[400]) / (kept[1600] - kept[400])
        assert slope <= 16, \
            f"composite (planes={planes}) holds {slope:.1f} bytes per kept pair"


def grid_scene(columns, rows):
    """Small, half-opaque Gaussians 2 pixels apart in the plane of ``grid_poses``."""
    x, y = np.meshgrid(np.arange(columns), np.arange(rows))
    n = columns * rows
    position = np.zeros((n, 3))
    position[:, 0] = (2 * x.ravel() - columns + 0.5) / 100.0
    position[:, 1] = (2 * y.ravel() - rows + 0.5) / 100.0
    return activate(RawGaussians(
        position=position, log_scale=np.full((n, 3), np.log(1e-3)),
        rotation=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), logit_opacity=np.zeros(n),
        sh_dc=np.zeros((n, 3))))


def test_colour_pass_parent_holds_its_state_and_one_worker_rows():
    # at 3 workers each forked child renders one of 3 views that all reach
    # every Gaussian, and sends its 48 bytes a Gaussian of reached rows.
    # This process renders nothing and merges each worker's rows as they
    # arrive: its 40-byte state, one worker's rows and their pickle buffer.
    # Rendering a view here and holding every payload until the last
    # arrived peaked at about 380
    peaks = {}
    for columns, rows in ((100, 50), (200, 100)):
        scene = grid_scene(columns, rows)
        poses = [frontal_pose(i, width=2 * columns + 16, height=2 * rows + 16, focal=500.0)
                 for i in range(3)]
        tracemalloc.start()
        try:
            render_all(scene, poses, RenderConfig(threads=3))
            _, peaks[scene.count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (scene.contribution.best_contribution > 0).all()
        assert (scene.contribution.best_key >> 32 == 0).all()  # every view ties
    slope = (peaks[20_000] - peaks[5_000]) / 15_000
    assert slope <= 40 + 2 * 48 + 16, \
        f"the colour pass's parent holds {slope:.0f} bytes per Gaussian"


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


def test_sampling_holds_its_draws_and_one_block():
    # a batch holds its float64 draws (24 bytes a draw), a pending flag each
    # and two int64 row offsets per Gaussian; the acceptance test, the
    # redraws, the transform and the colours run one block at a time. Testing
    # or quantising the whole batch at once held about 42 bytes a draw
    count = 5
    scene = varied_scene(200_000)
    peaks = {}
    for k in (100_000, 200_000):  # many blocks each, so a block's temporaries cancel
        batch = SampleBatch(np.arange(k), count, derive_batch_seed(6, 0, count))
        out = (np.empty((k * count, 3), dtype=np.float32),
               np.empty((k * count, 3), dtype=np.uint8), np.arange(k) * count)
        tracemalloc.start()
        try:
            sample_batch(batch, scene, 2.0, out=out)
            _, peaks[k] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    slope = (peaks[200_000] - peaks[100_000]) / (100_000 * count)
    assert slope <= 34, f"sampling holds {slope:.1f} bytes per draw"


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


@pytest.mark.parametrize("workers", [1, 4])
def test_outlier_removal_holds_a_fixed_number_of_rows_in_flight(monkeypatch, workers):
    # its threads share 2^14 k-NN result rows, each a block's k + 1 float64
    # distances and intp indices and its float64 query point: 21 * 16 + 24
    # bytes at k = 20. Beside them sit the float64 copy of the positions, the
    # tree's index array and the mean distances, 40 bytes a point. One
    # 2^15-row block, or a fixed 2^13-row block per thread at 4 threads,
    # holds twice the rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    assert thread_workers(workers) == workers
    remove_statistical_outliers(oriented_cloud(100), 20)  # loads scipy untraced
    n = 1 << 17  # 8 blocks at 1 worker, 32 at 4
    cloud = oriented_cloud(n)
    tracemalloc.start()
    try:
        remove_statistical_outliers(cloud, 20, 2.0, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    in_flight = (peak - 40 * n) / ((1 << 14) * (21 * 16 + 24))
    assert in_flight <= 1.2, f"outlier removal holds {in_flight:.2f}x 2^14 rows in flight"


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


def test_point_cloud_checks_its_normals_one_block_at_a_time():
    # the float64 norm of one block of rows at a time; a float64 copy of every
    # normal and the norm's temporaries held about 64 bytes a point
    peaks = {}
    for n in (40_000, 160_000):
        cloud = oriented_cloud(n)
        columns = cloud.points, cloud.colours, cloud.normals  # float32 already: no copies
        tracemalloc.start()
        try:
            PointCloud(*columns)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    slope = (peaks[160_000] - peaks[40_000]) / 120_000
    assert slope <= 4, f"checking the normals holds {slope:.1f} bytes per point"
