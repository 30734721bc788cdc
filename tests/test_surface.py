"""Surface selection, normal estimation and statistical outlier removal."""

import os

import numpy as np
import pytest

from reference import (
    composite_reference,
    merge_best,
    sample_scene_reference,
    sor_reference,
    sum3_reference,
)
from splatcloud.config import RenderConfig, SurfaceConfig
from splatcloud.errors import DomainError
from splatcloud import surface
from splatcloud.renderer import project, render_all
from splatcloud.sampler import SampleBatch  # noqa: F401  (re-exported surface input)
from splatcloud.scene import activate, quats_to_rotmats
from splatcloud.surface import (
    export_surface_cloud,
    remove_statistical_outliers,
    select_surface,
    surface_normals,
)
from splatcloud.types import PointCloud, RawGaussians

from conftest import concat, frontal_pose, random_scene, seen_from


def rendered_scene(rng, n=4):
    scene = random_scene(rng, n)
    scene.contribution = seen_from(scene.count, [0.0, 0.0, -5.0])
    return scene


# ---------------------------------------------------------------------------
# selection


def test_select_keeps_at_or_above_mean(rng):
    scene = rendered_scene(rng, 2)
    scene.contribution.best_contribution[:] = [0.9, 0.1]
    selection = select_surface(scene)
    assert selection.mean_contribution == pytest.approx(0.5)
    np.testing.assert_array_equal(selection.surface_mask, [True, False])


def test_select_all_equal_keeps_everything(rng):
    scene = rendered_scene(rng, 3)
    scene.contribution.best_contribution[:] = 0.4
    np.testing.assert_array_equal(select_surface(scene).surface_mask, [True] * 3)


def test_select_zero_heavy(rng):
    scene = rendered_scene(rng, 3)
    scene.contribution.best_contribution[:] = [0.0, 0.0, 0.9]
    selection = select_surface(scene)
    assert selection.mean_contribution == pytest.approx(0.3)
    np.testing.assert_array_equal(selection.surface_mask, [False, False, True])


def test_select_requires_rendering(rng):
    scene = random_scene(rng, 3)
    with pytest.raises(DomainError):
        select_surface(scene)


def test_select_never_empty_when_any_positive(rng):
    for _ in range(50):
        scene = rendered_scene(rng, 10)
        scene.contribution.best_contribution[:] = rng.uniform(0, 1, 10) * \
            (rng.uniform(0, 1, 10) > 0.5)
        if scene.contribution.best_contribution.max() == 0:
            continue
        assert select_surface(scene).surface_mask.any()


# ---------------------------------------------------------------------------
# normals


def scene_with(log_scale, rotation, camera_centre=(0.0, 0.0, -5.0)):
    scene = activate(RawGaussians(
        position=np.zeros(3),
        log_scale=np.asarray(log_scale, dtype=np.float64),
        rotation=np.asarray(rotation, dtype=np.float64),
        logit_opacity=2.0,
        sh_dc=np.zeros(3),
    ))
    scene.contribution = seen_from(scene.count, camera_centre)
    scene.contribution.best_contribution[:] = 1.0
    return scene


def test_normal_is_smallest_axis_oriented_to_camera():
    scene = scene_with([0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0])
    normals = surface_normals(scene)
    # axis 2 is thinnest; the camera sits at -z, so the normal flips to -e_z
    np.testing.assert_allclose(normals[0], [0.0, 0.0, -1.0], atol=1e-12)


def test_normal_tie_picks_axis_zero():
    scene = scene_with([0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0],
                       camera_centre=(7.0, 0.0, 0.0))
    normals = surface_normals(scene)
    np.testing.assert_allclose(normals[0], [1.0, 0.0, 0.0], atol=1e-12)


def test_normal_rotated_axis():
    # 90 degrees about y maps e_z onto e_x (up to sign fixed by the camera)
    half = np.sqrt(0.5)
    scene = scene_with([0.0, 0.0, -1.0], [half, 0.0, half, 0.0],
                       camera_centre=(6.0, 0.0, 0.0))
    normals = surface_normals(scene)
    np.testing.assert_allclose(np.abs(normals[0]), [1.0, 0.0, 0.0], atol=1e-12)
    assert normals[0] @ np.array([6.0, 0.0, 0.0]) >= 0.0


def test_normals_unit_and_towards_camera(rng):
    scene = random_scene(rng, 50)
    contributions = rng.uniform(0.1, 1.0, 50)
    centres = rng.uniform(-8, 8, (50, 3))
    scene.contribution = seen_from(50, centres)
    scene.contribution.best_contribution[:] = contributions
    normals = surface_normals(scene)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
    dots = np.einsum("nj,nj->n", normals, centres - scene.position)
    assert np.all(dots >= 0.0)


def test_orientation_sum_keeps_its_order(rng):
    # each row's products normal_j * towards_j are about (1e16, -1e16, -1):
    # added as (p0 + p2) + p1 they cancel to 0 and the normal stays, while a
    # left-to-right sum gives -1 and would flip it
    n = 50
    scene = activate(RawGaussians(
        position=np.zeros((n, 3)), log_scale=np.tile([0.0, 0.0, -1.0], (n, 1)),
        rotation=rng.standard_normal((n, 4)), logit_opacity=np.full(n, 2.0),
        sh_dc=np.zeros((n, 3))))
    axis = quats_to_rotmats(scene.rotation_unit)[:, :, 2]
    centres = np.stack([1e16 / axis[:, 0], -1e16 / axis[:, 1], -1.0 / axis[:, 2]], axis=1)
    scene.contribution = seen_from(n, centres)
    scene.contribution.best_contribution[:] = 1.0
    products = (axis * centres).tolist()
    expected = [sum3_reference(*row) < 0.0 for row in products]
    left_to_right = [(p0 + p1) + p2 < 0.0 for p0, p1, p2 in products]
    assert expected != left_to_right
    flipped = (surface_normals(scene) != axis).any(axis=1)
    assert flipped.tolist() == expected


# ---------------------------------------------------------------------------
# statistical outlier removal


def sphere_cloud(rng, n=100, radius=1.0):
    directions = rng.standard_normal((n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions.astype(np.float32) * radius


def test_far_outlier_removed(rng):
    points = np.vstack([sphere_cloud(rng), [[100.0, 0.0, 0.0]]]).astype(np.float32)
    cloud = PointCloud(points=points, colours=np.zeros((101, 3), dtype=np.uint8))
    cleaned = remove_statistical_outliers(cloud, k_neighbours=10, std_ratio=2.0)
    assert len(cleaned) == 100
    assert np.all(np.linalg.norm(cleaned.points, axis=1) < 2.0)


def test_uniform_grid_keeps_everything():
    # k=1: every grid point's nearest neighbour is exactly 1 away -> std == 0
    grid = np.stack(np.meshgrid(np.arange(5), np.arange(5), np.arange(5)),
                    axis=-1).reshape(-1, 3).astype(np.float32)
    cloud = PointCloud(points=grid, colours=np.zeros((125, 3), dtype=np.uint8))
    cleaned = remove_statistical_outliers(cloud, k_neighbours=1, std_ratio=2.0)
    assert len(cleaned) == 125


def test_matches_bruteforce_oracle(rng):
    points = rng.standard_normal((1000, 3)).astype(np.float32)
    points[::97] *= 6.0  # sprinkle outliers
    cloud = PointCloud(points=points, colours=np.zeros((1000, 3), dtype=np.uint8))
    cleaned = remove_statistical_outliers(cloud, k_neighbours=20, std_ratio=2.0)
    keep = sor_reference(points, 20, 2.0)
    np.testing.assert_array_equal(cleaned.points, points[keep])


def test_survivor_order_preserved(rng):
    points = rng.standard_normal((300, 3)).astype(np.float32)
    colours = np.arange(900, dtype=np.uint32).reshape(300, 3) % 256
    cloud = PointCloud(points=points, colours=colours.astype(np.uint8))
    cleaned = remove_statistical_outliers(cloud, k_neighbours=10, std_ratio=1.5)
    keep = sor_reference(points, 10, 1.5)
    np.testing.assert_array_equal(cleaned.colours, cloud.colours[keep])


def test_same_survivors_at_any_worker_count(rng):
    points = rng.standard_normal((3000, 3)).astype(np.float32)
    points[::101] *= 5.0
    colours = rng.integers(0, 256, (3000, 3), dtype=np.uint8)
    cloud = PointCloud(points=points, colours=colours)
    one = remove_statistical_outliers(cloud, 20, 2.0, workers=1)
    two = remove_statistical_outliers(cloud, 20, 2.0, workers=2)
    assert len(one) < len(cloud)
    assert one.points.tobytes() == two.points.tobytes()
    assert one.colours.tobytes() == two.colours.tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_same_survivors_at_any_block_size(monkeypatch, rng, workers):
    n = 500
    points = rng.standard_normal((n, 3)).astype(np.float32)
    points[::37] *= 5.0
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(points=points, colours=rng.integers(0, 256, (n, 3), dtype=np.uint8),
                       normals=normals)
    expected = cloud.take(sor_reference(points, 12, 1.5))
    assert len(expected) < n
    for block_rows in (7, n, 4 * n):  # 7 does not divide n
        monkeypatch.setattr(surface, "SOR_BLOCK_ROWS", block_rows)
        cleaned = remove_statistical_outliers(cloud, 12, 1.5, workers=workers)
        assert cleaned.points.tobytes() == expected.points.tobytes()
        assert cleaned.colours.tobytes() == expected.colours.tobytes()
        assert cleaned.normals.tobytes() == expected.normals.tobytes()


def fibonacci_sphere(n):
    """Near-uniform sphere covering; keeps neighbour spacing tight."""
    k = np.arange(n, dtype=np.float64)
    phi = np.arccos(1.0 - 2.0 * (k + 0.5) / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)


def test_idempotent_on_sphere_fixture():
    points = np.vstack([fibonacci_sphere(200), [[50.0, 0.0, 0.0]]]).astype(np.float32)
    cloud = PointCloud(points=points, colours=np.zeros((201, 3), dtype=np.uint8))
    once = remove_statistical_outliers(cloud, 15, 2.0)
    assert len(once) == 200  # exactly the far point goes
    twice = remove_statistical_outliers(once, 15, 2.0)
    assert len(twice) == len(once)


def test_too_few_points_error(rng):
    cloud = PointCloud(points=np.zeros((5, 3), dtype=np.float32),
                       colours=np.zeros((5, 3), dtype=np.uint8))
    with pytest.raises(DomainError):
        remove_statistical_outliers(cloud, k_neighbours=5)


@pytest.mark.parametrize("std_ratio", [0.0, -1.0, float("nan")])
def test_non_positive_or_nan_std_ratio_error(rng, std_ratio):
    cloud = PointCloud(points=rng.standard_normal((50, 3)),
                       colours=np.zeros((50, 3), dtype=np.uint8))
    with pytest.raises(DomainError, match="std_ratio"):
        remove_statistical_outliers(cloud, 10, std_ratio)


# ---------------------------------------------------------------------------
# full surface export


def wall_records(rng, nx=6, ny=6, jitter_deg=1.5):
    """Thin gaussians tiling the z=0 plane, normals nominally +-e_z."""
    positions, quats = [], []
    for ix in range(nx):
        for iy in range(ny):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = np.deg2rad(jitter_deg) * rng.uniform(-1, 1)
            quats.append(np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis]))
            positions.append([(ix - nx / 2 + 0.5) * 0.4, (iy - ny / 2 + 0.5) * 0.4, 0.0])
    n = len(positions)
    return RawGaussians(
        position=np.array(positions),
        log_scale=np.tile([-1.2, -1.2, -4.0], (n, 1)),
        rotation=np.array(quats),
        logit_opacity=np.full(n, 3.0),
        sh_dc=np.tile([1.0, 0.8, -0.5], (n, 1)),
    )


def test_planar_wall_normals(rng):
    scene = activate(wall_records(rng))
    pose = frontal_pose(width=64, height=64, focal=55.0, distance=5.0)
    render_all(scene, [pose], RenderConfig(threads=1))
    cloud, _ = export_surface_cloud(scene, SurfaceConfig(
        sigma=2.0, seed=3, threads=1, surface_points=4000, sor_k=10, sor_std=2.0))
    assert cloud.normals is not None and len(cloud) > 1000
    # camera sits at z = -5, so the wall normal must be -e_z
    cosines = cloud.normals @ np.array([0.0, 0.0, -1.0], dtype=np.float32)
    within_5_deg = np.mean(cosines >= np.cos(np.deg2rad(5.0)))
    assert within_5_deg >= 0.99


def test_occluded_layer_absent(rng):
    # opaque front wall at z=0; hidden rear layer at z=2 (camera at z=-5)
    front = wall_records(rng, nx=4, ny=4, jitter_deg=0.5)
    rear = wall_records(rng, nx=2, ny=2, jitter_deg=0.5)
    rear.position[:, 2] = 2.0
    scene = activate(concat(front, rear))
    pose = frontal_pose(width=48, height=48, focal=40.0, distance=5.0)
    render_all(scene, [pose], RenderConfig(threads=1))

    selection = select_surface(scene)
    assert not selection.surface_mask[len(front):].any()
    assert selection.surface_mask[:len(front)].any()

    # cross-check the mask against the sequential contribution oracle
    projected = project(scene, pose)
    _, _, _, _, best = composite_reference(
        projected, scene.base_colour, (0.0, 0.0, 0.0), pose.width, pose.height)
    merged = merge_best({}, best)
    contributions = np.zeros(scene.count)
    for gaussian, (value, _, _) in merged.items():
        contributions[gaussian] = value
    expected_mask = contributions >= contributions.mean()
    np.testing.assert_array_equal(selection.surface_mask, expected_mask)

    cloud, _ = export_surface_cloud(scene, SurfaceConfig(
        sigma=2.0, seed=5, threads=1, surface_points=2000, sor_k=10, sor_std=2.0))
    assert np.all(cloud.points[:, 2] < 1.0)


@pytest.mark.parametrize("threads", [1, 3])
def test_every_surface_point_carries_its_gaussians_normal(monkeypatch, threads):
    rng = np.random.default_rng(909)
    scene = random_scene(rng, 300, log_scale_range=(-5.0, 0.5))
    scene.contribution = seen_from(scene.count, [0.0, 0.0, -5.0])
    scene.contribution.best_contribution[:] = rng.uniform(0.0, 1.0, scene.count)
    monkeypatch.setattr(surface, "remove_statistical_outliers", lambda cloud, *_, **__: cloud)
    config = SurfaceConfig(sigma=1.0, max_resample_rounds=1, seed=8, threads=threads,
                           surface_points=30_000)
    cloud, _ = export_surface_cloud(scene, config)

    selection = select_surface(scene)
    assert 0 < selection.surface_mask.sum() < scene.count
    normals = surface_normals(scene)[selection.surface_mask]
    points, _, gaussian_ids = sample_scene_reference(
        scene.take(selection.surface_mask), config.surface_points, config)
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.normals.tobytes() == normals[gaussian_ids].astype(np.float32).tobytes()


def test_threads_above_the_cpu_count_start_no_more_threads(monkeypatch, thread_starts):
    # --threads 64 on 2 usable CPUs: sampling and outlier removal each start
    # one helper thread, and the k-NN queries start none of their own
    rng = np.random.default_rng(909)
    scene = rendered_scene(rng, 300)
    scene.contribution.best_contribution[:] = rng.uniform(0.0, 1.0, scene.count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(surface, "SOR_BLOCK_ROWS", 256)
    _, stats = export_surface_cloud(scene, SurfaceConfig(seed=8, threads=64,
                                                         surface_points=2000))
    blocks = -(-stats.emitted // 256)
    assert blocks >= 4
    assert len(thread_starts) <= 2


def test_surface_export_rejects_nan_std_ratio(rng):
    # SurfaceConfig is not validated here, so the filter itself must refuse
    # the NaN that would otherwise drop every point
    scene = rendered_scene(rng, 50)
    with pytest.raises(DomainError, match="std_ratio"):
        export_surface_cloud(scene, SurfaceConfig(seed=8, threads=1, surface_points=2000,
                                                  sor_std=float("nan")))


def test_surface_export_rejects_nan_sigma(rng):
    # as above: SurfaceConfig is not validated, so the sampler must refuse it
    scene = rendered_scene(rng, 50)
    with pytest.raises(DomainError, match="sigma"):
        export_surface_cloud(scene, SurfaceConfig(seed=8, threads=1, surface_points=2000,
                                                  sigma=float("nan")))


def test_surface_requires_rendering(rng):
    scene = random_scene(rng, 5)
    with pytest.raises(DomainError):
        export_surface_cloud(scene, SurfaceConfig())
