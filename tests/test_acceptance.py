"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (lines also appear in captured output on plain runs).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2

from reference import (
    composite_reference,
    read_cloud,
    mahalanobis_reference,
    merge_best,
    sor_reference,
)
from splatcloud import renderer
from splatcloud.config import (
    PipelineConfig,
    RenderConfig,
    SamplerConfig,
    SurfaceConfig,
)
from splatcloud.formats import (
    load_cameras_colmap,
    load_gaussians_splat,
    write_pointcloud_ply,
)
from splatcloud.pipeline import run
from splatcloud.renderer import RenderConfig as _RC  # noqa: F401
from splatcloud.renderer import project, render_all, render_image, tile_scene
from splatcloud.sampler import (
    SampleBatch,
    allocate,
    build_batches,
    gaussian_volume,
    generate_pointcloud,
    sample_batch,
)
from splatcloud.scene import ContributionState, activate
from splatcloud.surface import export_surface_cloud, remove_statistical_outliers
from splatcloud.types import PointCloud, RawGaussians

from conftest import (
    concat,
    encode_splat,
    frontal_pose,
    orbit_pose,
    random_records,
    random_scene,
    simple_colmap_model,
    write_colmap_bin,
    write_colmap_txt,
    write_scene_ply,
)
from test_surface import wall_records


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[acceptance {number:02d}] FAIL  {title}", flush=True)
        raise
    print(f"[acceptance {number:02d}] PASS  {title}", flush=True)


def test_01_compositing_conservation():
    with criterion(1, "per-pixel contribution + residual transmittance sums to 1"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(50):
            scene = random_scene(rng, int(rng.integers(1, 21)), spread=1.2,
                                 opacity_logit_range=(-1.0, 5.0))
            pose = frontal_pose(width=64, height=64, focal=55.0)
            buffers, _ = render_image(scene, pose, RenderConfig(threads=1))
            np.testing.assert_allclose(
                buffers.weight_sum + buffers.t_final, 1.0, atol=1e-5)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_02_tiled_equals_bruteforce(monkeypatch):
    monkeypatch.setattr(renderer, "TILE_BUDGET", 600)
    monkeypatch.setattr(renderer, "TILE_SIZE", 16)
    with criterion(2, "tiled rendering matches the untiled sequential oracle"):
        rng = np.random.default_rng(202)
        started = time.perf_counter()
        for index in range(20):
            scene = random_scene(rng, int(rng.integers(4, 21)), spread=1.1,
                                 opacity_logit_range=(-1.0, 5.0))
            pose = frontal_pose(width=48, height=40, focal=42.0,
                                centre_offset=(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            config = RenderConfig(threads=1)

            state = ContributionState.initial(scene.count, config.background)
            buffers, stats = render_image(scene, pose, config, 0, state)
            assert stats.tiles_subdivided > 0, "budget must force subdivision"

            projected = project(scene, pose)
            image, _, _, _, best = composite_reference(
                projected, scene.base_colour, config.background,
                pose.width, pose.height)

            np.testing.assert_allclose(buffers.image, image, atol=1e-6)
            for gaussian, (value, pixel, colour) in best.items():
                assert state.best_key[gaussian] % 2**32 == pixel, \
                    f"scene {index}: argmax pixel differs for gaussian {gaussian}"
                np.testing.assert_allclose(state.best_colour[gaussian], colour,
                                           atol=1e-6)
            unseen = np.setdiff1d(np.arange(scene.count), list(best))
            assert np.all(state.best_contribution[unseen] == 0.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def occlusion_fixture(rng):
    """Opaque front wall hiding a rear layer, uniform front colour."""
    front = RawGaussians(
        position=[[(ix - 3) * 0.4, (iy - 3) * 0.4, 0.0] for ix in range(7) for iy in range(7)],
        log_scale=np.tile([-1.1, -1.1, -4.0], (49, 1)),
        rotation=np.tile([1.0, 0.0, 0.0, 0.0], (49, 1)),
        logit_opacity=np.full(49, 6.5),
        sh_dc=np.tile([1.4, 1.0, -0.8], (49, 1)),
    )
    positions, colours = [], []
    for _ in range(6):
        positions.append(np.concatenate([rng.uniform(-0.6, 0.6, 2), [1.5]]))
        colours.append(rng.uniform(-1.0, 1.0, 3))
    rear = RawGaussians(
        position=positions,
        log_scale=np.tile([-1.6, -1.6, -1.6], (6, 1)),
        rotation=np.tile([1.0, 0.0, 0.0, 0.0], (6, 1)),
        logit_opacity=np.full(6, 2.0),
        sh_dc=colours,
    )
    return front, rear


def test_03_colour_reassignment_under_occlusion():
    with criterion(3, "hidden gaussians adopt the front surface's pixel colour"):
        rng = np.random.default_rng(303)
        front, rear = occlusion_fixture(rng)
        scene = activate(concat(front, rear))
        pose = frontal_pose(width=40, height=40, focal=36.0, distance=5.0)
        state = ContributionState.initial(scene.count, (0.0, 0.0, 0.0))
        buffers, _ = render_image(scene, pose, RenderConfig(threads=1), 0, state)

        projected = project(scene, pose)
        image, _, _, _, best = composite_reference(
            projected, scene.base_colour, (0.0, 0.0, 0.0), pose.width, pose.height)
        merged = merge_best({}, best)

        front_colour = scene.base_colour[0]
        for gaussian in range(len(front), scene.count):
            value, pixel, colour = merged[gaussian]
            # exact agreement with the brute-force per-pixel oracle
            assert state.best_key[gaussian] % 2**32 == pixel
            assert state.best_contribution[gaussian] == pytest.approx(value, rel=1e-9)
            np.testing.assert_allclose(state.best_colour[gaussian], colour, atol=1e-9)
            # the recorded colour is the implementation's own rendered pixel
            y, x = divmod(int(state.best_key[gaussian] % 2**32), pose.width)
            np.testing.assert_array_equal(state.best_colour[gaussian],
                                          buffers.image[y, x])
            # and that pixel colour is the (front-dominated) surface colour
            np.testing.assert_allclose(state.best_colour[gaussian], front_colour,
                                       atol=0.03)
            assert value < 0.02, "rear contributions must be occlusion-scaled"
        assert all(state.best_contribution[len(front):] > 0.0)


def test_04_sampling_statistics():
    with criterion(4, "acceptance rate matches chi-square; moments match scales"):
        scene = activate(RawGaussians(
            position=np.zeros(3), log_scale=np.zeros(3),
            rotation=np.array([1.0, 0, 0, 0]), logit_opacity=0.0, sh_dc=np.zeros(3),
        ))
        batch = build_batches(np.array([1_000_000]), seed=404)[0]
        points, _, _, _ = sample_batch(batch, scene, sigma_threshold=2.0, max_rounds=1)
        rate = len(points) / 1_000_000
        expected = chi2.cdf(4.0, 3)  # = P(chi^2_3 <= 4) ~ 0.7385
        assert abs(rate - expected) <= 0.005, f"rate {rate:.4f} vs {expected:.4f}"

        rng = np.random.default_rng(405)
        log_scale = rng.uniform(-1.5, 0.8, 3)
        quat = rng.standard_normal(4)
        aniso = activate(RawGaussians(
            position=np.zeros(3), log_scale=log_scale,
            rotation=quat / np.linalg.norm(quat), logit_opacity=0.0, sh_dc=np.zeros(3),
        ))
        batch = build_batches(np.array([100_000]), seed=406)[0]
        points, _, _, _ = sample_batch(batch, aniso, sigma_threshold=6.0, max_rounds=5)
        eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(points.T)))
        np.testing.assert_allclose(eigenvalues, np.sort(np.exp(2 * log_scale)),
                                   rtol=0.05)


def test_05_mahalanobis_hard_bound():
    with criterion(5, "no emitted point exceeds the sigma threshold"):
        from splatcloud.sampler import _sample_scene
        rng = np.random.default_rng(505)
        emitted = 0
        # the sampler rejects on ||z||; verify every point via the covariance
        # route instead (the oracle's explicit inverse of Sigma)
        for sigma in (1.5, 2.0, 2.5, 3.0):
            scene = random_scene(rng, 30, spread=2.0)
            points, _, accepted, _ = _sample_scene(
                scene, 30_000, SamplerConfig(sigma=sigma, exact=True,
                                             seed=int(rng.integers(1 << 31)), threads=1))
            gaussian_ids = np.repeat(np.arange(scene.count), accepted)
            emitted += len(points)
            for gaussian in np.unique(gaussian_ids):
                member = points[gaussian_ids == gaussian]
                distances = mahalanobis_reference(member, scene.position[gaussian],
                                                  scene.covariance[gaussian])
                assert np.all(distances <= sigma + 1e-9), \
                    f"sigma {sigma}: max D_M {distances.max():.6f}"
        assert emitted >= 100_000, f"fuzz volume too small: {emitted}"


def test_06_exact_allocation():
    with criterion(6, "largest-remainder totals, monotonicity and 5-point bins"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            volumes = rng.uniform(0.0, 10.0, n) * (rng.uniform(0, 1, n) > 0.1)
            if volumes.sum() == 0:
                volumes[int(rng.integers(n))] = rng.uniform(0.5, 2.0)
            total = int(rng.integers(1, 100_000))
            counts = allocate(volumes, total, "exact")
            assert counts.sum() == total
            order = np.argsort(-volumes, kind="stable")
            assert np.all(np.diff(counts[order]) <= 0)

            binned = allocate(volumes, total, "binned")
            over = binned[binned > 50]
            assert np.all(over % 5 == 0)


def test_07_volume_formula():
    with criterion(7, "volume equals direct formula evaluation to 1e-12 relative"):
        rng = np.random.default_rng(707)
        table = rng.uniform(-9, 4, (100, 3))
        got = gaussian_volume(table)
        for i in range(100):
            direct = np.sqrt(sum(np.exp(s) ** 2 for s in table[i]))
            assert got[i] == pytest.approx(direct, rel=1e-12)


def test_08_format_roundtrips(tmp_path):
    with criterion(8, "PLY, .splat and COLMAP round-trips are lossless"):
        rng = np.random.default_rng(808)

        # point cloud PLY: positions bit-exact after write -> read
        cloud = PointCloud(points=rng.standard_normal((500, 3)).astype(np.float32),
                           colours=rng.integers(0, 256, (500, 3), dtype=np.uint8))
        path = tmp_path / "cloud.ply"
        write_pointcloud_ply(cloud, path)
        again = read_cloud(path)
        assert again.points.tobytes() == cloud.points.tobytes()
        assert again.colours.tobytes() == cloud.colours.tobytes()

        # .splat: decode -> encode -> decode is a fixed point
        records = random_records(rng, 200)
        splat_path = tmp_path / "scene.splat"
        splat_path.write_bytes(encode_splat(records))
        first = load_gaussians_splat(splat_path)
        encoded = encode_splat(first)
        (tmp_path / "scene2.splat").write_bytes(encoded)
        second = load_gaussians_splat(tmp_path / "scene2.splat")
        assert encode_splat(second) == encoded
        assert first.position.tobytes() == second.position.tobytes()
        assert first.log_scale.tobytes() == second.log_scale.tobytes()
        assert first.rotation.tobytes() == second.rotation.tobytes()

        # gaussian PLY round trip through the fixture writer
        ply_path = tmp_path / "gauss.ply"
        write_scene_ply(records, ply_path)
        from splatcloud.formats import load_gaussians_ply
        loaded = load_gaussians_ply(ply_path)
        assert len(loaded) == len(records)
        np.testing.assert_array_equal(loaded.position, records.position.astype(np.float32))

        # COLMAP: binary and text forms of one model give identical poses
        cameras, images = simple_colmap_model()
        write_colmap_bin(tmp_path / "bin", cameras, images)
        write_colmap_txt(tmp_path / "txt", cameras, images)
        for a, b in zip(load_cameras_colmap(tmp_path / "bin"),
                        load_cameras_colmap(tmp_path / "txt")):
            assert a.image_id == b.image_id
            assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == \
                (b.fx, b.fy, b.cx, b.cy, b.width, b.height)
            np.testing.assert_array_equal(a.world_to_camera, b.world_to_camera)


def test_09_surface_pipeline():
    with criterion(9, "wall normals within 5 degrees; SOR matches the n^2 oracle"):
        rng = np.random.default_rng(909)
        scene = activate(wall_records(rng, nx=7, ny=7, jitter_deg=1.5))
        pose = frontal_pose(width=72, height=72, focal=60.0, distance=5.0)
        render_all(scene, [pose], RenderConfig(threads=1))
        cloud, _ = export_surface_cloud(scene, SurfaceConfig(
            sigma=2.0, seed=9, threads=1, surface_points=6000, sor_k=12, sor_std=2.0))
        cosines = cloud.normals @ np.array([0.0, 0.0, -1.0], dtype=np.float32)
        fraction = np.mean(cosines >= np.cos(np.deg2rad(5.0)))
        assert fraction >= 0.99, f"only {fraction:.3f} of normals within 5 degrees"

        points = rng.standard_normal((1000, 3)).astype(np.float32)
        points[::53] *= 7.0
        raw = PointCloud(points=points, colours=np.zeros((1000, 3), dtype=np.uint8))
        cleaned = raw.take(remove_statistical_outliers(raw.points, 20, 2.0))
        keep = sor_reference(points, 20, 2.0)
        np.testing.assert_array_equal(cleaned.points, points[keep])
        assert keep.sum() < 1000, "fixture must contain actual outliers"


def test_10_end_to_end_determinism(tmp_path):
    with criterion(10, "byte-identical output across thread counts, under 60s"):
        rng = np.random.default_rng(1010)
        started = time.perf_counter()
        records = random_records(rng, 10_000, spread=1.2,
                                 log_scale_range=(-4.5, -3.2),
                                 opacity_logit_range=(0.0, 4.0))
        scene_path = tmp_path / "scene.ply"
        write_scene_ply(records, scene_path)
        cameras = [{"id": 1, "model": "PINHOLE", "width": 160, "height": 120,
                    "params": (130.0, 130.0, 80.0, 60.0)}]
        images = [
            {"id": 1, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 5.0),
             "camera_id": 1, "name": "front.png"},
            {"id": 2, "qvec": (np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0),
             "tvec": (0.0, 0.0, 5.0), "camera_id": 1, "name": "side.png"},
        ]
        write_colmap_bin(tmp_path / "sparse", cameras, images)

        outputs = []
        for threads, name in ((1, "one.ply"), (4, "four.ply")):
            config = PipelineConfig(
                input_gaussians=scene_path,
                input_cameras=tmp_path / "sparse",
                output=tmp_path / name,
                num_points=200_000,
                seed=42,
                exact=True,
                threads=threads,
                mesh_prep=True,
                surface_points=50_000,
                sor_k=10,
            )
            run(config)
            outputs.append((tmp_path / name).read_bytes())
            outputs.append((tmp_path / name.replace(".ply", "_surface.ply")).read_bytes())
        assert outputs[0] == outputs[2], "main cloud differs between thread counts"
        assert outputs[1] == outputs[3], "surface cloud differs between thread counts"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_11_performance_sanity():
    with criterion(11, "full-HD 100k-gaussian render respects the tile budget"):
        rng = np.random.default_rng(1111)
        scene = random_scene(rng, 100_000, spread=1.5,
                             log_scale_range=(-5.5, -4.0),
                             opacity_logit_range=(0.0, 3.0))
        pose = frontal_pose(width=1920, height=1080, focal=900.0, distance=5.0)

        config = RenderConfig(threads=0)
        started = time.perf_counter()
        stats = render_all(scene, [pose], config)
        elapsed = time.perf_counter() - started
        assert stats.max_tile_product <= renderer.TILE_BUDGET
        assert stats.tiles_subdivided == 0

        lowered = renderer.TILE_BUDGET // 100
        projected = project(scene, pose)
        tiles = tile_scene(projected, pose.width, pose.height, lowered)
        subdivided = sum(1 for t in tiles if t.level > 0)
        assert subdivided > 0, "lowered budget must trigger subdivision"
        for tile in tiles:
            assert tile.product <= lowered or tile.pixels == 1

        # non-gating: report the wall time for the record
        print(f"  [info] 1920x1080 render of 100k gaussians: {elapsed:.2f}s, "
              f"{stats.tiles} tiles, max product {stats.max_tile_product}")
