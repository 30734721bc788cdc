"""Projection, tiling and compositing against independent oracles."""

import os
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from reference import (
    composite_reference,
    finite_difference_screen_cov,
    merge_best,
    sampled_screen_cov,
    tiles_reference,
)
from splatcloud import renderer
from splatcloud.config import RenderConfig
from splatcloud.errors import DomainError
from splatcloud.renderer import (
    COV2D_LOWPASS,
    ImageBuffers,
    ProjectedGaussians,
    RenderStats,
    Tile,
    TileComposite,
    composite_tile,
    project,
    render_all,
    render_image,
    tile_scene,
    tile_shares,
    write_ppm,
)
from splatcloud.scene import ContributionState, GaussianScene, activate, quats_to_rotmats
from splatcloud.types import CameraPose

from conftest import (
    assert_no_child_left,
    concat,
    frontal_pose,
    orbit_pose,
    random_records,
    random_scene,
    state_bytes,
)


def colour_scene(colours, opacities) -> GaussianScene:
    """Minimal scene carrying just what compositing reads."""
    n = len(colours)
    return GaussianScene(
        position=np.zeros((n, 3)),
        log_scale=np.zeros((n, 3)),
        rotation_unit=np.tile([1.0, 0, 0, 0], (n, 1)),
        opacity=np.asarray(opacities, dtype=np.float64),
        covariance=np.tile(np.eye(3), (n, 1, 1)),
        base_colour=np.asarray(colours, dtype=np.float64),
    )


def synthetic_projection(n, mean2d, depth, opacity, bbox, cov2d=None) -> ProjectedGaussians:
    if cov2d is None:
        cov2d = np.tile(np.eye(2), (n, 1, 1))
    return ProjectedGaussians(
        gaussian_index=np.arange(n),
        mean2d=np.asarray(mean2d, dtype=np.float64),
        cov2d=np.asarray(cov2d, dtype=np.float64),
        depth=np.asarray(depth, dtype=np.float64),
        opacity=np.asarray(opacity, dtype=np.float64),
        bbox=np.asarray(bbox, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# projection


def test_on_axis_projection_lands_on_principal_point(rng):
    scene = random_scene(rng, 1)
    scene.position[:] = 0.0
    pose = frontal_pose(width=100, height=80, focal=100.0, distance=10.0)
    projected = project(scene, pose)
    assert len(projected) == 1
    np.testing.assert_allclose(projected.mean2d[0], [50.0, 40.0], atol=1e-12)
    assert projected.depth[0] == pytest.approx(10.0)


def test_screen_covariance_matches_finite_differences(rng):
    # cov2d minus the low-pass must equal J Sigma J^T from numeric Jacobians
    for _ in range(25):
        scene = random_scene(rng, 1, spread=0.8)
        pose = orbit_pose(0, rng.uniform(0, 2 * np.pi), width=640, height=480,
                          focal=rng.uniform(80, 400), distance=rng.uniform(4, 9))
        projected = project(scene, pose)
        if len(projected) == 0:
            continue
        expected = finite_difference_screen_cov(pose, scene.position[0], scene.covariance[0])
        got = projected.cov2d[0] - COV2D_LOWPASS * np.eye(2)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-7)


def test_screen_covariance_matches_sampled_fit(rng):
    # project 3-sigma samples of the gaussian and fit a 2D covariance
    scene = random_scene(rng, 1, spread=0.0, log_scale_range=(-2.5, -1.5))
    pose = frontal_pose(width=640, height=480, focal=300.0, distance=8.0)
    projected = project(scene, pose)
    fitted = sampled_screen_cov(pose, scene.position[0],
                                np.linalg.cholesky(scene.covariance[0]))
    got = projected.cov2d[0] - COV2D_LOWPASS * np.eye(2)
    # off-diagonals sit near zero; tolerate 5x the Monte-Carlo standard error
    mc_error = 5.0 * np.sqrt(np.prod(np.diag(fitted)) / 200_000)
    np.testing.assert_allclose(got, fitted, rtol=0.05, atol=mc_error)


def test_projection_adds_its_sums_in_dot3_order():
    # the camera transform, then T = J R and T (C T^T), each 3-term sum added as
    # (j0 + j2) + j1; on covariances of mixed sizes another order changes bits
    rng = np.random.default_rng(25)
    scene = random_scene(rng, 200, log_scale_range=(-8.0, 2.0))
    quat = rng.standard_normal(4)
    world_to_camera = np.eye(4)
    world_to_camera[:3, :3] = quats_to_rotmats(quat / np.linalg.norm(quat))
    world_to_camera[2, 3] = 6.0
    pose = CameraPose(image_id=0, width=640, height=480, fx=520.0, fy=470.0,
                      cx=317.5, cy=243.0, world_to_camera=world_to_camera)
    projected = project(scene, pose)
    assert len(projected) > 150
    rot, shift = pose.rotation.tolist(), pose.translation.tolist()
    fx, fy, cx, cy = pose.fx, pose.fy, pose.cx, pose.cy

    def expected(add3):
        means, depths, covs = [], [], []
        for row in projected.gaussian_index.tolist():
            p, c = scene.position[row].tolist(), scene.covariance[row].tolist()
            x, y, z = (add3(*(p[j] * r[j] for j in range(3))) + s for r, s in zip(rot, shift))
            iz = 1.0 / z
            t = [[fx * iz * rot[0][k] - fx * x * iz * iz * rot[2][k] for k in range(3)],
                 [fy * iz * rot[1][k] - fy * y * iz * iz * rot[2][k] for k in range(3)]]
            ct = [[add3(*(c[j][k] * t[l][k] for k in range(3))) for j in range(3)]
                  for l in range(2)]
            cov = [[add3(*(t[i][j] * ct[l][j] for j in range(3))) for l in range(2)]
                   for i in range(2)]
            cov[0][0] += COV2D_LOWPASS
            cov[1][1] += COV2D_LOWPASS
            means.append([fx * x * iz + cx, fy * y * iz + cy])
            depths.append(z)
            covs.append(cov)
        return means, depths, covs

    means, depths, covs = expected(lambda a0, a1, a2: (a0 + a2) + a1)
    assert covs != expected(lambda a0, a1, a2: (a0 + a1) + a2)[2]
    assert projected.mean2d.tolist() == means
    assert projected.depth.tolist() == depths
    assert projected.cov2d.tolist() == covs


def test_non_finite_screen_covariance_excluded(rng):
    # one unit in front of fx = 1000, variances near 1e305 overflow the screen
    # covariance: row 0 everywhere; row 1, whose long axis lies near its viewing
    # ray, only in the off-diagonal, whose products overflow with opposite signs
    # while the diagonal's cancel; row 2 is an ordinary Gaussian
    records = random_records(rng, 3)
    records.position[:] = [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]
    records.log_scale[:2] = [[352.0, 352.0, 352.0], [352.0, 340.0, 340.0]]
    records.rotation[1] = [0.5266, 0.5219, -0.4719, 0.4771]
    scene = activate(records)
    assert scene.count == 3
    projected = project(scene, frontal_pose(width=256, height=256, focal=1000.0, distance=1.0))
    assert projected.gaussian_index.tolist() == [2]


def test_behind_camera_excluded(rng):
    scene = random_scene(rng, 1)
    scene.position[:] = [0.0, 0.0, -6.0]  # behind a camera at z = -5
    pose = frontal_pose(distance=5.0)
    assert len(project(scene, pose)) == 0


def test_far_offscreen_excluded(rng):
    scene = random_scene(rng, 1, log_scale_range=(-4.0, -3.5))
    scene.position[:] = [50.0, 0.0, 0.0]
    pose = frontal_pose(width=64, height=64, focal=60.0, distance=5.0)
    assert len(project(scene, pose)) == 0


def test_projection_sorted_by_depth(rng):
    scene = random_scene(rng, 40, spread=1.5)
    # row 40 copies row 7: an equal-depth pair that must come out in index order
    scene = scene.take(np.r_[np.arange(40), 7])
    pose = frontal_pose(width=128, height=128, focal=80.0)
    projected = project(scene, pose)
    assert np.all(np.diff(projected.depth) >= 0)
    order = list(projected.gaussian_index)
    assert order.index(7) + 1 == order.index(40)


# ---------------------------------------------------------------------------
# tiling


def test_grid_only_no_subdivision():
    projected = synthetic_projection(
        1, [[64.0, 64.0]], [1.0], [0.5], [[0, 0, 128, 128]])
    tiles = tile_scene(projected, 128, 128, budget=10**9)
    assert len(tiles) == 4
    assert all((t.x1 - t.x0, t.y1 - t.y0) == (64, 64) for t in tiles)
    assert all(len(t.members) == 1 for t in tiles)
    assert all(t.level == 0 for t in tiles)


def test_budget_forces_one_split():
    projected = synthetic_projection(
        1, [[64.0, 64.0]], [1.0], [0.5], [[0, 0, 128, 128]])
    tiles = tile_scene(projected, 128, 128, budget=2048)
    assert len(tiles) == 16
    assert all((t.x1 - t.x0, t.y1 - t.y0) == (32, 32) for t in tiles)
    assert all(t.level == 1 for t in tiles)
    # membership after the split agrees with brute-force rect intersection
    for tile in tiles:
        bx0, by0, bx1, by1 = projected.bbox[0]
        overlaps = bx0 < tile.x1 and bx1 > tile.x0 and by0 < tile.y1 and by1 > tile.y0
        assert (len(tile.members) == 1) == overlaps


def test_tiles_respect_budget_or_are_single_pixel(rng):
    scene = random_scene(rng, 60, spread=1.0)
    pose = frontal_pose(width=96, height=80, focal=70.0)
    projected = project(scene, pose)
    tiles = tile_scene(projected, 96, 80, budget=500)
    for tile in tiles:
        assert tile.product <= 500 or tile.pixels == 1
    covered = sum(t.pixels for t in tiles)
    assert covered == 96 * 80  # tiles partition the image


def test_gaussian_outside_every_tile():
    # bbox misses the 64x64 image entirely -> appears in no tile
    projected = synthetic_projection(
        2,
        [[100.0, 100.0], [32.0, 32.0]],
        [1.0, 2.0],
        [0.5, 0.5],
        [[96, 96, 128, 128], [24, 24, 40, 40]],
    )
    tiles = tile_scene(projected, 64, 64, budget=10**9)
    members = np.concatenate([t.members for t in tiles])
    assert 0 not in members
    assert 1 in members


def test_tile_members_sorted_by_depth_then_index():
    # rows in projection order: by depth, then gaussian index
    projected = synthetic_projection(
        3,
        [[8.0, 8.0]] * 3,
        [1.0, 1.0, 2.0],
        [0.5] * 3,
        [[0, 0, 16, 16]] * 3,
    )
    projected.gaussian_index = np.array([1, 2, 0])
    tiles = tile_scene(projected, 16, 16, budget=10**9)
    (tile,) = tiles
    depths = projected.depth[tile.members]
    assert np.all(np.diff(depths) >= 0)
    # gaussians 1 and 2 share a depth; the tile keeps the projection's order
    assert list(tile.members) == [0, 1, 2]
    assert list(projected.gaussian_index[tile.members]) == [1, 2, 0]

    # split tiles keep that order too
    for tile in tile_scene(projected, 16, 16, budget=64):
        assert list(tile.members) == [0, 1, 2]


def test_subdivision_stops_at_single_pixel():
    projected = synthetic_projection(
        2, [[1.0, 1.0]] * 2, [1.0, 2.0], [0.5] * 2, [[0, 0, 2, 2]] * 2)
    tiles = tile_scene(projected, 2, 2, budget=1)
    assert all(t.pixels == 1 for t in tiles)
    assert len(tiles) == 4


def random_boxes(rng, n, width, height, margin):
    """Integer half-open boxes anywhere within ``margin`` pixels of the image."""
    x = rng.integers(-margin, width + margin, (n, 2))
    y = rng.integers(-margin, height + margin, (n, 2))
    x.sort(axis=1)
    y.sort(axis=1)
    return np.stack([x[:, 0], y[:, 0], x[:, 1] + 1, y[:, 1] + 1], axis=1)


def box_projection(bbox) -> ProjectedGaussians:
    n = len(bbox)
    return synthetic_projection(n, np.zeros((n, 2)), np.arange(n) + 1.0, np.full(n, 0.5),
                                bbox)


def sorted_tiles(tiles):
    return sorted(((t.x0, t.y0, t.x1, t.y1), t.level, list(t.members)) for t in tiles)


IMAGE_SIZES = [(1, 1), (1, 9), (9, 1), (7, 5), (63, 65), (64, 64), (130, 67), (257, 71)]


@pytest.mark.parametrize("width, height", IMAGE_SIZES)
def test_tiles_match_plain_loop_oracle(width, height):
    # Boxes straddling and beyond the image edges, clipped and kept the way
    # project() clips and keeps them.
    rng = np.random.default_rng(width * 1000 + height)
    for budget in (1, 40, 700, 10**9):
        n = int(rng.integers(0, 25))
        bbox = random_boxes(rng, n, width, height, margin=40)
        bbox = np.clip(bbox, 0, [width, height, width, height])
        bbox = bbox[(bbox[:, 2] > bbox[:, 0]) & (bbox[:, 3] > bbox[:, 1])]
        tiles = tile_scene(box_projection(bbox), width, height, budget)
        assert sorted_tiles(tiles) == sorted(tiles_reference(bbox, width, height, budget))


@pytest.mark.parametrize("width, height", IMAGE_SIZES)
def test_tiles_match_oracle_for_unclipped_boxes(width, height):
    # Boxes past any image edge join no tile they miss, including the grid
    # tiles of the row above or below.
    rng = np.random.default_rng(width * 1000 + height + 1)
    for budget in (1, 40, 10**9):
        bbox = random_boxes(rng, int(rng.integers(0, 25)), width, height, margin=200)
        tiles = tile_scene(box_projection(bbox), width, height, budget)
        assert sorted_tiles(tiles) == sorted(tiles_reference(bbox, width, height, budget))


# ---------------------------------------------------------------------------
# compositing, hand-computed cases


def centred_tile_setup(opacities, colours, depths=None):
    n = len(opacities)
    depths = list(range(1, n + 1)) if depths is None else depths
    projected = synthetic_projection(
        n, [[8.5, 8.5]] * n, depths, opacities, [[0, 0, 16, 16]] * n)
    scene = colour_scene(colours, opacities)
    tile = Tile(0, 0, 16, 16, members=np.arange(n))
    buffers = ImageBuffers.allocate(16, 16)
    return projected, scene, tile, buffers


def test_single_gaussian_composite():
    background = np.array([1.0, 1.0, 1.0])
    projected, scene, tile, buffers = centred_tile_setup([0.6], [[1.0, 0.0, 0.0]])
    result = composite_tile(tile, projected, scene, buffers, background=background)
    # centred on pixel (8, 8): a = 0.6, t = 1, C = 0.6
    np.testing.assert_array_equal(result.rows, [0])
    assert result.values[0] == pytest.approx(0.6, abs=0)
    np.testing.assert_allclose(buffers.image[8, 8],
                               0.6 * np.array([1.0, 0, 0]) + 0.4 * background, atol=0)
    assert result.pixel_index[0] == 8 * 16 + 8


def test_two_gaussians_composite():
    background = np.array([0.25, 0.25, 0.25])
    c1, c2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    projected, scene, tile, buffers = centred_tile_setup([0.6, 0.5], [c1, c2])
    result = composite_tile(tile, projected, scene, buffers, background=background)
    # front to back: C1 = 0.6, C2 = 0.5 * 0.4 = 0.2, residual 0.2 of background
    np.testing.assert_array_equal(result.rows, [0, 1])
    assert result.values[0] == pytest.approx(0.6, abs=0)
    assert result.values[1] == pytest.approx(0.2, abs=1e-15)
    np.testing.assert_allclose(buffers.image[8, 8],
                               0.6 * c1 + 0.2 * c2 + 0.2 * background, atol=1e-15)


def test_empty_tile_is_background():
    background = np.array([0.1, 0.2, 0.3])
    scene = colour_scene(np.zeros((1, 3)), [0.5])
    projected = synthetic_projection(1, [[100.0, 100.0]], [1.0], [0.5],
                                     [[96, 96, 104, 104]])
    tile = Tile(0, 0, 8, 8, members=np.zeros(0, dtype=np.int64))
    buffers = ImageBuffers.allocate(8, 8)
    result = composite_tile(tile, projected, scene, buffers, background=background)
    assert np.all(buffers.image == background)
    assert len(result.rows) == len(result.values) == 0


def test_singular_cov2d_skipped_with_counter():
    projected = synthetic_projection(
        1, [[8.5, 8.5]], [1.0], [0.6], [[0, 0, 16, 16]],
        cov2d=np.zeros((1, 2, 2)))
    scene = colour_scene([[1.0, 0, 0]], [0.6])
    tile = Tile(0, 0, 16, 16, members=np.array([0]))
    buffers = ImageBuffers.allocate(16, 16)
    result = composite_tile(tile, projected, scene, buffers)
    assert result.singular_skips == 1
    assert np.all(buffers.image == 0.0)


# ---------------------------------------------------------------------------
# full-image rendering against the sequential oracle


def assert_matches_reference(scene, pose, config=None, atol=1e-9):
    config = config or RenderConfig(threads=1)
    projected = project(scene, pose)
    state = scene.contribution = ContributionState.initial(scene.count, config.background)
    buffers, stats = render_image(scene, pose, config, 0, state)
    image, t_final, weight_sum, terminated, best = composite_reference(
        projected, scene.base_colour, config.background, pose.width, pose.height)

    np.testing.assert_allclose(buffers.image, image, atol=atol)
    np.testing.assert_allclose(buffers.t_final, t_final, atol=atol)
    np.testing.assert_allclose(buffers.weight_sum, weight_sum, atol=atol)
    np.testing.assert_array_equal(buffers.terminated, terminated)

    for gaussian, (value, pixel, colour) in best.items():
        assert state.best_key[gaussian] % 2**32 == pixel
        assert state.best_contribution[gaussian] == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(state.best_colour[gaussian], colour, atol=atol)
    unseen = np.setdiff1d(np.arange(scene.count), list(best))
    assert np.all(state.best_contribution[unseen] == 0.0)
    return buffers, stats


def test_render_matches_sequential_reference(rng):
    for _ in range(5):
        scene = random_scene(rng, 12, spread=1.2)
        pose = frontal_pose(width=48, height=40, focal=45.0)
        assert_matches_reference(scene, pose)


def test_render_matches_reference_with_subdivision(rng, monkeypatch):
    scene = random_scene(rng, 15, spread=1.0)
    pose = frontal_pose(width=48, height=48, focal=45.0)
    monkeypatch.setattr(renderer, "TILE_BUDGET", 800)
    _, stats = assert_matches_reference(scene, pose, RenderConfig(threads=1))
    assert stats.tiles_subdivided > 0


def test_render_matches_reference_with_early_termination(rng):
    # opaque stack: transmittance collapses below 1e-4 mid-list
    records = random_records(rng, 14, spread=0.05, log_scale_range=(-1.0, -0.4),
                             opacity_logit_range=(4.5, 6.0))
    scene = activate(records)
    pose = frontal_pose(width=32, height=32, focal=40.0)
    buffers, _ = assert_matches_reference(scene, pose)
    assert buffers.terminated.any(), "fixture must actually trigger the early-out"


def test_pair_chunking_is_exact_and_drops_terminated_pixels(rng, monkeypatch):
    # an opaque stack in front hides small gaussians behind it, so with short
    # chunks every pair of those members lands on a terminated pixel
    front = random_records(rng, 14, spread=0.05, log_scale_range=(-0.6, -0.3),
                           opacity_logit_range=(4.5, 6.0))
    hidden = random_records(rng, 10, spread=0.1, log_scale_range=(-3.0, -2.5))
    hidden.position[:, 2] += 1.5
    scene = activate(concat(front, hidden))
    pose = frontal_pose(width=32, height=32, focal=40.0)

    runs = []
    for chunk_pairs in (1, 509, renderer._CHUNK_PAIRS):
        monkeypatch.setattr(renderer, "_CHUNK_PAIRS", chunk_pairs)
        buffers, stats = assert_matches_reference(scene, pose)
        runs.append((buffers, state_bytes(scene.contribution), stats))

    buffers, columns, stats = runs[0]
    assert stats.pixels_terminated == np.count_nonzero(buffers.terminated) > 0
    assert any(buffers.terminated[y0:y1, x0:x1].all()
               for x0, y0, x1, y1 in project(scene, pose).bbox), \
        "fixture must hide some member wholly behind terminated pixels"
    assert stats.pairs_evaluated < runs[-1][2].pairs_evaluated

    for other, other_columns, _ in runs[1:]:
        for plane in ("image", "t_final", "weight_sum", "terminated"):
            assert getattr(buffers, plane).tobytes() == getattr(other, plane).tobytes()
        assert other_columns == columns


def test_deep_pixels_and_dead_members_composite_exactly(monkeypatch):
    # three opaque layers terminate the top-left 8x8 block and 20 small
    # members sit wholly behind it; 1100 faint members stack on pixel (12, 12)
    opaque, faint, hidden = 3, 1100, 20
    n = opaque + faint + hidden
    rng = np.random.default_rng(5)
    mean2d = np.concatenate([np.full((opaque, 2), 4.0), np.full((faint, 2), 12.5),
                             rng.uniform(1.0, 7.0, (hidden, 2))])
    corner = np.floor(mean2d[-hidden:]).astype(np.int64) - 1
    bbox = np.concatenate([np.tile([0, 0, 8, 8], (opaque, 1)),
                           np.tile([12, 12, 13, 13], (faint, 1)),
                           np.concatenate([corner, corner + 2], axis=1)])
    cov2d = np.tile(np.eye(2), (n, 1, 1))
    cov2d[:opaque] *= 1e4
    opacity = np.concatenate([np.full(opaque, 0.995), np.full(faint, 0.005),
                              np.full(hidden, 0.5)])
    projected = synthetic_projection(n, mean2d, np.arange(1.0, n + 1), opacity, bbox, cov2d)
    scene = colour_scene(rng.uniform(0.0, 1.0, (n, 3)), opacity)
    tile = Tile(0, 0, 16, 16, members=np.arange(n))
    image, t_final, weight_sum, terminated, best = composite_reference(
        projected, scene.base_colour, (0.0, 0.0, 0.0), 16, 16)
    assert terminated[:8, :8].all() and not terminated[12, 12]
    assert len(best) > opaque + 1000, "the faint stack must stay live past depth 1000"

    runs = []
    for chunk_pairs in (1, 509, renderer._CHUNK_PAIRS):
        monkeypatch.setattr(renderer, "_CHUNK_PAIRS", chunk_pairs)
        buffers = ImageBuffers.allocate(16, 16)
        result = composite_tile(tile, projected, scene, buffers)
        np.testing.assert_allclose(buffers.image, image, atol=1e-9)
        np.testing.assert_allclose(buffers.t_final, t_final, atol=1e-9)
        np.testing.assert_allclose(buffers.weight_sum, weight_sum, atol=1e-9)
        np.testing.assert_array_equal(buffers.terminated, terminated)
        assert sorted(result.rows) == sorted(best)
        for row, value, pixel, colour in zip(result.rows, result.values, result.pixel_index,
                                             result.colours):
            assert (value, pixel) == (pytest.approx(best[row][0], rel=1e-9), best[row][1])
            np.testing.assert_allclose(colour, best[row][2], atol=1e-9)
        runs.append([buffers.image, buffers.t_final, buffers.weight_sum, buffers.terminated,
                     result.rows, result.values, result.pixel_index, result.colours])

    for other in runs[1:]:
        assert [a.tobytes() for a in other] == [a.tobytes() for a in runs[0]]


def assert_lean_composite_equals_full(tile, projected, scene, width, height):
    full, lean = ImageBuffers.allocate(width, height), ImageBuffers.allocate(width, height)
    expected = composite_tile(tile, projected, scene, full)
    result = composite_tile(tile, projected, scene, lean, planes=False)
    for field in fields(TileComposite):
        a, b = getattr(result, field.name), getattr(expected, field.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
    assert lean.terminated.tobytes() == full.terminated.tobytes()
    untouched = ImageBuffers.allocate(width, height)
    for plane in ("image", "t_final", "weight_sum"):
        assert getattr(lean, plane).tobytes() == getattr(untouched, plane).tobytes()
    return expected


def test_lean_composite_returns_the_full_candidates(rng, monkeypatch):
    # the deep-pixel and dead-member tile, and the hidden stack's tiles: sums
    # at the best pixels only give the candidates of sums at every pixel
    opaque, faint, hidden = 3, 1100, 20
    n = opaque + faint + hidden
    deep = np.random.default_rng(5)
    mean2d = np.concatenate([np.full((opaque, 2), 4.0), np.full((faint, 2), 12.5),
                             deep.uniform(1.0, 7.0, (hidden, 2))])
    corner = np.floor(mean2d[-hidden:]).astype(np.int64) - 1
    bbox = np.concatenate([np.tile([0, 0, 8, 8], (opaque, 1)),
                           np.tile([12, 12, 13, 13], (faint, 1)),
                           np.concatenate([corner, corner + 2], axis=1)])
    cov2d = np.tile(np.eye(2), (n, 1, 1))
    cov2d[:opaque] *= 1e4
    opacity = np.concatenate([np.full(opaque, 0.995), np.full(faint, 0.005),
                              np.full(hidden, 0.5)])
    deep_projection = synthetic_projection(n, mean2d, np.arange(1.0, n + 1), opacity, bbox,
                                           cov2d)
    deep_scene = colour_scene(deep.uniform(0.0, 1.0, (n, 3)), opacity)

    front = random_records(rng, 14, spread=0.05, log_scale_range=(-0.6, -0.3),
                           opacity_logit_range=(4.5, 6.0))
    behind = random_records(rng, 10, spread=0.1, log_scale_range=(-3.0, -2.5))
    behind.position[:, 2] += 1.5
    stack = activate(concat(front, behind))
    stack_projection = project(stack, frontal_pose(width=32, height=32, focal=40.0))
    monkeypatch.setattr(renderer, "TILE_SIZE", 16)
    stack_tiles = tile_scene(stack_projection, 32, 32, renderer.TILE_BUDGET)

    for chunk_pairs in (1, 509, renderer._CHUNK_PAIRS):
        monkeypatch.setattr(renderer, "_CHUNK_PAIRS", chunk_pairs)
        result = assert_lean_composite_equals_full(
            Tile(0, 0, 16, 16, members=np.arange(n)), deep_projection, deep_scene, 16, 16)
        assert len(result.rows) > opaque + 1000
        terminated = 0
        for tile in stack_tiles:
            buffers = ImageBuffers.allocate(32, 32)
            assert_lean_composite_equals_full(tile, stack_projection, stack, 32, 32)
            composite_tile(tile, stack_projection, stack, buffers, planes=False)
            terminated += int(np.count_nonzero(buffers.terminated))
        assert terminated > 0, "the stack must terminate pixels"


def test_transmittance_conservation(rng):
    scene = random_scene(rng, 18, spread=1.0)
    pose = frontal_pose(width=64, height=64, focal=55.0)
    buffers, _ = render_image(scene, pose, RenderConfig(threads=1))
    np.testing.assert_allclose(buffers.weight_sum + buffers.t_final, 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# render_all behaviour


def test_render_all_requires_poses(rng):
    scene = random_scene(rng, 3)
    with pytest.raises(DomainError):
        render_all(scene, [], RenderConfig())


def test_best_colour_matches_bruteforce_over_images(rng):
    scene = random_scene(rng, 10, spread=1.0)
    poses = [orbit_pose(i, angle, width=40, height=40, focal=36.0)
             for i, angle in enumerate([0.0, 0.7, 4.0])]
    render_all(scene, poses, RenderConfig(threads=1))

    global_best = {}
    for pose in sorted(poses, key=lambda p: p.image_id):
        projected = project(scene, pose)
        _, _, _, _, best = composite_reference(
            projected, scene.base_colour, (0.0, 0.0, 0.0), pose.width, pose.height)
        merge_best(global_best, best)

    state = scene.contribution
    for gaussian in range(scene.count):
        if gaussian in global_best:
            value, _, colour = global_best[gaussian]
            assert state.best_contribution[gaussian] == pytest.approx(value, rel=1e-9)
            np.testing.assert_allclose(state.best_colour[gaussian], colour, atol=1e-9)
        else:
            assert state.best_contribution[gaussian] == 0.0


def test_unseen_gaussian_keeps_background_colour(rng):
    background = (0.2, 0.4, 0.6)
    scene = random_scene(rng, 2)
    scene.position[0] = [0.0, 0.0, 0.0]
    scene.position[1] = [0.0, 0.0, -20.0]  # behind the camera
    pose = frontal_pose(distance=5.0)
    render_all(scene, [pose], RenderConfig(background=background, threads=1))
    assert scene.contribution.best_contribution[1] == 0.0
    np.testing.assert_array_equal(scene.contribution.best_colour[1], background)
    assert scene.contribution.best_contribution[0] > 0.0


def test_subdivided_equals_giant_tile(rng, monkeypatch):
    scene = random_scene(rng, 16, spread=1.0)
    pose = frontal_pose(width=56, height=48, focal=48.0)

    state_a = ContributionState.initial(scene.count, (0, 0, 0))
    monkeypatch.setattr(renderer, "TILE_BUDGET", 700)
    buffers_a, stats_a = render_image(scene, pose, RenderConfig(threads=1), 0, state_a)
    assert stats_a.tiles_subdivided > 0
    best_a = (state_a.best_contribution.copy(), state_a.best_key.copy(),
              state_a.best_colour.copy())

    state_b = ContributionState.initial(scene.count, (0, 0, 0))
    monkeypatch.setattr(renderer, "TILE_BUDGET", 2**40)
    monkeypatch.setattr(renderer, "TILE_SIZE", 4096)
    buffers_b, stats_b = render_image(scene, pose, RenderConfig(threads=1), 0, state_b)
    assert stats_b.tiles == 1

    assert buffers_a.image.tobytes() == buffers_b.image.tobytes()
    np.testing.assert_array_equal(best_a[1], state_b.best_key)
    assert best_a[0].tobytes() == state_b.best_contribution.tobytes()
    assert best_a[2].tobytes() == state_b.best_colour.tobytes()


def test_rendering_deterministic_across_threads(rng, monkeypatch):
    monkeypatch.setattr(renderer, "TILE_SIZE", 16)
    scene = random_scene(rng, 30, spread=1.2)
    poses = [orbit_pose(i, a, width=72, height=60, focal=60.0)
             for i, a in enumerate([0.0, 1.3])]

    def run(threads):
        render_all(scene, poses, RenderConfig(threads=threads))
        state = scene.contribution
        return (state.best_contribution.copy(), state.best_colour.copy(),
                state.best_key.copy())

    one = run(1)
    four = run(4)
    for a, b in zip(one, four):
        np.testing.assert_array_equal(a, b)


def test_rendered_images_bit_identical_between_runs(rng):
    scene = random_scene(rng, 20, spread=1.0)
    pose = frontal_pose(width=64, height=64, focal=55.0)
    first, _ = render_image(scene, pose, RenderConfig(threads=1))
    second, _ = render_image(scene, pose, RenderConfig(threads=1))
    assert first.image.tobytes() == second.image.tobytes()


def test_image_invariant_under_input_permutation(rng):
    # with distinct depths the depth sort fully determines composite order,
    # so shuffling the input records cannot change the image
    records = random_records(rng, 15, spread=1.0)
    pose = frontal_pose(width=40, height=40, focal=38.0)
    base, _ = render_image(activate(records), pose, RenderConfig(threads=1))
    shuffled = records.take(rng.permutation(15))
    permuted, _ = render_image(activate(shuffled), pose, RenderConfig(threads=1))
    assert base.image.tobytes() == permuted.image.tobytes()


def test_render_all_logs_progress_per_view(rng, caplog):
    scene = random_scene(rng, 5)
    poses = [frontal_pose(image_id=i, width=16, height=16) for i in range(3)]
    with caplog.at_level("INFO", logger="splatcloud.renderer"):
        render_all(scene, poses, RenderConfig(threads=1))
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert [line.split(" (")[0] for line in lines] == [
        "rendered view 1/3", "rendered view 2/3", "rendered view 3/3"]
    assert all("elapsed, ETA" in line for line in lines)


def test_skip_cameras_drops_every_kth(rng):
    scene = random_scene(rng, 5)
    poses = [frontal_pose(image_id=i) for i in range(6)]
    stats = render_all(scene, poses, RenderConfig(skip_cameras=3, threads=1))
    assert stats.images_rendered == 4  # drops ranks 2 and 5
    # the first pose is never a K-th one, so a single pose always renders
    for k in (2, 3, 7):
        stats = render_all(scene, poses[:1], RenderConfig(skip_cameras=k, threads=1))
        assert stats.images_rendered == 1


def test_render_scale_halves_resolution(rng):
    scene = random_scene(rng, 6)
    pose = frontal_pose(width=64, height=48)
    scaled = pose.scaled(0.5)
    assert (scaled.width, scaled.height) == (32, 24)
    assert scaled.fx == pose.fx * 0.5
    stats = render_all(scene, [pose], RenderConfig(render_scale=0.5, threads=1))
    assert stats.images_rendered == 1


def test_render_scale_keeps_the_principal_point_inside(rng):
    # 201 * 0.5 rounds to 100 pixels, so cx = 200.9 scaled by 0.5 would land
    # at 100.45, outside the 100-pixel-wide scaled image
    pose = replace(frontal_pose(width=201, height=100, focal=100.0), cx=200.9)
    scaled = pose.scaled(0.5)
    assert (scaled.width, scaled.height) == (100, 50)
    assert scaled.fx == pose.fx * (100 / 201) and scaled.cx == pose.cx * (100 / 201)
    assert scaled.fy == pose.fy * 0.5 and scaled.cy == pose.cy * 0.5
    assert 0 < scaled.cx < scaled.width
    stats = render_all(random_scene(rng, 6), [pose], RenderConfig(render_scale=0.5, threads=1))
    assert stats.images_rendered == 1


def test_save_renders_writes_ppm(rng, tmp_path):
    scene = random_scene(rng, 6)
    pose = frontal_pose(width=20, height=10)
    render_all(scene, [pose], RenderConfig(threads=1, save_renders=tmp_path / "out"))
    ppm = tmp_path / "out" / "render_0000.ppm"
    assert ppm.exists()
    data = ppm.read_bytes()
    assert data.startswith(b"P6\n20 10\n255\n")
    assert len(data) == len(b"P6\n20 10\n255\n") + 20 * 10 * 3


# ---------------------------------------------------------------------------
# render_all in forked worker processes


def ppm_bytes(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.fixture
def four_views(rng, monkeypatch):
    # 16-pixel tiles, so a Gaussian offers candidates from several tiles per view
    monkeypatch.setattr(renderer, "TILE_SIZE", 16)
    scene = random_scene(rng, 30, spread=1.2)
    poses = [orbit_pose(i, a, width=48, height=40, focal=40.0)
             for i, a in enumerate([0.0, 1.3, 2.6, 4.0])]
    return scene, poses


def test_worker_processes_match_the_serial_loop(four_views, tmp_path, forks):
    scene, poses = four_views
    # one view after another, offering straight into one state
    expected_state = ContributionState.initial(scene.count)
    (tmp_path / "serial").mkdir()
    for rank, pose in enumerate(poses):
        buffers, _ = render_image(scene, pose, RenderConfig(threads=1), rank, expected_state)
        write_ppm(tmp_path / "serial" / f"render_{rank:04d}.ppm", buffers.image)

    stats = []
    for workers in (1, 2, 3):
        forks.clear()
        config = RenderConfig(threads=workers, save_renders=tmp_path / str(workers))
        stats.append(render_all(scene, poses, config))
        assert len(forks) == (workers if workers > 1 else 0)
        assert state_bytes(scene.contribution) == state_bytes(expected_state)
        assert ppm_bytes(config.save_renders) == ppm_bytes(tmp_path / "serial")
    assert stats[0] == stats[1] == stats[2]
    assert stats[0].images_rendered == 4


def test_worker_count_is_capped_by_the_views(four_views, forks):
    scene, poses = four_views
    render_all(scene, poses[:2], RenderConfig(threads=64))
    assert len(forks) == 2


def test_no_fork_while_another_thread_runs(four_views, tmp_path, forks):
    scene, poses = four_views
    render_all(scene, poses, RenderConfig(threads=1, save_renders=tmp_path / "serial"))
    expected = state_bytes(scene.contribution)

    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        render_all(scene, poses, RenderConfig(threads=2, save_renders=tmp_path / "threaded"))
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert forks == []
    assert state_bytes(scene.contribution) == expected
    assert ppm_bytes(tmp_path / "threaded") == ppm_bytes(tmp_path / "serial")


def test_no_fork_where_the_platform_has_none(four_views, tmp_path, monkeypatch):
    scene, poses = four_views
    render_all(scene, poses, RenderConfig(threads=1, save_renders=tmp_path / "serial"))
    expected = state_bytes(scene.contribution)

    monkeypatch.delattr(os, "fork")
    render_all(scene, poses, RenderConfig(threads=2, save_renders=tmp_path / "no-fork"))
    assert_no_child_left()
    assert state_bytes(scene.contribution) == expected
    assert ppm_bytes(tmp_path / "no-fork") == ppm_bytes(tmp_path / "serial")


def test_progress_is_logged_as_each_forked_view_arrives(four_views, caplog, forks):
    scene, poses = four_views
    with caplog.at_level("INFO", logger="splatcloud.renderer"):
        render_all(scene, poses, RenderConfig(threads=2))
    assert len(forks) == 2
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert [line.split(" (")[0] for line in lines] == [
        f"rendered view {i}/4" for i in range(1, 5)]
    assert sorted(line.split("image_id=")[1].split(")")[0] for line in lines) == [
        "0", "1", "2", "3"]


@pytest.fixture
def five_views(four_views):
    scene, poses = four_views
    return scene, poses + [orbit_pose(4, 5.2, width=48, height=40, focal=40.0)]


def test_leftover_views_are_shared_by_every_worker(five_views, forks, monkeypatch):
    scene, poses = five_views
    expected_state = ContributionState.initial(scene.count)
    views = [render_image(scene, pose, RenderConfig(threads=1), rank, expected_state)[1]
             for rank, pose in enumerate(poses)]
    expected_stats = RenderStats(**{f.name: sum(getattr(v, f.name) for v in views)
                                    for f in fields(RenderStats)})
    expected_stats.max_tile_product = max(v.max_tile_product for v in views)

    calls = []  # the (rank, share) items this process renders
    real_render_image = renderer.render_image

    def render_image_here(scene, pose, config, image_rank=0, contributions=None, **options):
        calls.append((image_rank, options["share"]))
        return real_render_image(scene, pose, config, image_rank, contributions, **options)

    items = []  # the (rank, share) items render_all deals, item i to worker i % W
    real_map_forked = renderer.map_forked

    def map_forked_here(fn, work, threads, *callbacks):
        items[:] = work
        return real_map_forked(fn, work, threads, *callbacks)

    monkeypatch.setattr(renderer, "render_image", render_image_here)
    monkeypatch.setattr(renderer, "map_forked", map_forked_here)
    # 0, 1, 2 and 1 views left over: worker 0 renders views 0, W, ... whole,
    # then part 0 of the first view left over. One worker is this process;
    # two or more are forked children, and this process renders none
    whole = (0, 1)
    first = {1: [(rank, whole) for rank in range(5)],
             2: [(0, whole), (2, whole), (4, (0, 2))],
             3: [(0, whole), (3, (0, 2))],  # view 3 in two parts, view 4 in one
             4: [(0, whole), (4, (0, 4))]}
    here = {1: first[1], 2: [], 3: [], 4: []}
    for workers in (1, 2, 3, 4):
        forks.clear()
        calls.clear()
        stats = render_all(scene, poses, RenderConfig(threads=workers))
        assert len(forks) == (workers if workers > 1 else 0)
        assert items[::workers] == first[workers]
        assert calls == here[workers]
        assert state_bytes(scene.contribution) == state_bytes(expected_state)
        assert stats == expected_stats
    assert expected_stats.images_rendered == 5


def test_a_share_composites_only_its_own_tiles(five_views):
    scene, poses = five_views
    pose, config = poses[0], RenderConfig(threads=1)
    whole_state = ContributionState.initial(scene.count)
    whole, whole_stats = render_image(scene, pose, config, 0, whole_state, planes=False)
    projected = project(scene, pose)
    tiles = tile_scene(projected, pose.width, pose.height, renderer.TILE_BUDGET)
    assert len(tiles) > 3

    def estimate(tile):  # its members' box areas, clipped to the tile
        return sum(max(0, min(x1, tile.x1) - max(x0, tile.x0))
                   * max(0, min(y1, tile.y1) - max(y0, tile.y0))
                   for x0, y0, x1, y1 in projected.bbox[tile.members].tolist())

    dealt = tile_shares(tiles, projected.bbox, 3)
    position = {(t.x0, t.y0, t.x1, t.y1): i for i, t in enumerate(tiles)}
    held = [[position[t.x0, t.y0, t.x1, t.y1] for t in own] for own in dealt]
    assert sorted(sum(held, [])) == list(range(len(tiles)))  # disjoint, and every tile
    assert all(indices == sorted(indices) for indices in held)  # in tile_scene's order
    totals = [sum(estimate(t) for t in own) for own in dealt]
    assert max(totals) - min(totals) <= max(estimate(t) for t in tiles)

    shared_state = ContributionState.initial(scene.count)
    shares = [render_image(scene, pose, config, 0, shared_state, planes=False, share=(k, 3))
              for k in range(3)]
    assert [stats.images_rendered for _, stats in shares] == [1, 0, 0]
    for own, (buffers, stats) in zip(dealt, shares):
        assert stats.tiles == len(own)
        assert stats.tiles_subdivided == sum(1 for t in own if t.level > 0)
        assert stats.max_tile_product == max(t.product for t in own)
        inside = np.zeros_like(whole.terminated)
        for t in own:
            inside[t.y0:t.y1, t.x0:t.x1] = True
        assert np.array_equal(buffers.terminated, whole.terminated & inside)
        assert stats.pixels_terminated == np.count_nonzero(buffers.terminated)
    for field in ("tiles", "tiles_subdivided", "singular_skips", "pairs_evaluated",
                  "pixels_terminated"):
        assert sum(getattr(stats, field) for _, stats in shares) == getattr(whole_stats, field)
    assert state_bytes(shared_state) == state_bytes(whole_state)


def test_a_shared_view_is_logged_once_its_last_share_arrives(five_views, caplog, forks,
                                                             monkeypatch):
    scene, poses = five_views
    arrivals = []  # per result this process receives: its view, and whether it logged
    real_map_forked = renderer.map_forked

    def map_forked_here(fn, items, threads, on_result, finish, on_finish):
        def receive(result):
            before = len(caplog.records)
            on_result(result)
            arrivals.append((result[0], len(caplog.records) > before))
        return real_map_forked(fn, items, threads, receive, finish, on_finish)

    monkeypatch.setattr(renderer, "map_forked", map_forked_here)
    with caplog.at_level("INFO", logger="splatcloud.renderer"):
        render_all(scene, poses, RenderConfig(threads=3))  # view 3 in two parts, view 4 in one
    assert len(forks) == 3
    lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert [line.split(" (")[0] for line in lines] == [
        f"rendered view {i}/5" for i in range(1, 6)]
    assert sorted(line.split("image_id=")[1].split(")")[0] for line in lines) == [
        "0", "1", "2", "3", "4"]
    assert sorted(rank for rank, _ in arrivals) == [0, 1, 2, 3, 3, 4]
    for rank in range(5):
        logged = [line for view, line in arrivals if view == rank]
        assert logged == [False] * (len(logged) - 1) + [True]


def test_write_ppm_quantisation(tmp_path):
    image = np.zeros((1, 2, 3))
    image[0, 0] = [0.0, 0.5, 1.0]
    image[0, 1] = [127.4 / 255.0, 127.6 / 255.0, 0.002]
    path = tmp_path / "q.ppm"
    write_ppm(path, image)
    payload = path.read_bytes().split(b"255\n", 1)[1]
    assert list(payload) == [0, 128, 255, 127, 128, 1]
