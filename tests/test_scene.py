"""Activation, covariance construction and scene filters."""

import math

import numpy as np
import pytest

from splatcloud import scene as scene_module
from splatcloud.config import FilterConfig
from splatcloud.errors import DomainError
from splatcloud.scene import (
    ContributionState,
    activate,
    cholesky3,
    cull_unrendered,
    filter_scene,
    quats_to_rotmats,
    rotate_diagonal,
)
from splatcloud.types import RawGaussians

from conftest import concat, random_records, random_scene, state_bytes


def make_record(**overrides) -> RawGaussians:
    base = dict(
        position=np.zeros(3),
        log_scale=np.zeros(3),
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        logit_opacity=0.0,
        sh_dc=np.zeros(3),
    )
    base.update(overrides)
    return RawGaussians(**base)


def test_sigmoid_of_zero_logit():
    scene = activate(make_record(logit_opacity=0.0))
    assert scene.opacity[0] == 0.5


def test_zero_sh_gives_grey():
    scene = activate(make_record(sh_dc=np.zeros(3)))
    np.testing.assert_array_equal(scene.base_colour[0], [0.5, 0.5, 0.5])


def test_colour_clamped():
    # 0.5 + 0.28209479 * (+-1.7725) = 1.000013 / -0.000013 before clamping
    scene = activate(make_record(sh_dc=np.array([1.7725, 0.0, -1.7725])))
    np.testing.assert_allclose(scene.base_colour[0], [1.0, 0.5, 0.0], atol=0)


def test_quaternion_normalised():
    scene = activate(make_record(rotation=np.array([2.0, 0.0, 0.0, 0.0])))
    np.testing.assert_allclose(scene.rotation_unit[0], [1, 0, 0, 0], atol=0)


def test_activate_empty_is_error():
    with pytest.raises(DomainError):
        activate(make_record().take(slice(0, 0)))


def test_activate_idempotent_normalisation(rng):
    records = random_records(rng, 30)
    scene = activate(records)
    again = activate(RawGaussians(
        position=scene.position,
        log_scale=scene.log_scale,
        rotation=scene.rotation_unit,
        logit_opacity=records.logit_opacity,
        sh_dc=records.sh_dc,
    ))
    assert np.abs(again.rotation_unit - scene.rotation_unit).max() < 1e-12
    assert np.abs(again.covariance - scene.covariance).max() < 1e-12


# ---------------------------------------------------------------------------
# covariance


def covariance_of(log_scale, rotation) -> np.ndarray:
    return activate(make_record(log_scale=log_scale, rotation=rotation)).covariance[0]


def test_identity_covariance():
    cov = covariance_of(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(cov, np.eye(3), atol=1e-7)


def test_axis_scaling():
    cov = covariance_of(np.array([np.log(2.0), 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(cov, np.diag([4.0, 1.0, 1.0]), atol=1e-7)


def test_rotation_conjugation():
    # 90 degrees about z moves the long x axis onto y
    half = np.sqrt(0.5)
    cov = covariance_of(np.array([np.log(2.0), 0.0, 0.0]), np.array([half, 0.0, 0.0, half]))
    np.testing.assert_allclose(cov, np.diag([1.0, 4.0, 1.0]), atol=1e-7)


def test_degenerate_covariance_raises():
    # one row whose epsilon ladder is exhausted leaves nothing to keep
    with pytest.raises(DomainError, match="all gaussians were degenerate"):
        activate(make_record(log_scale=np.array([400.0, 400.0, 400.0])))


def test_eigenvalues_match_scales(rng):
    # randomized property: eigenvalues of Sigma are e^{2s} (sorted), Sigma is SPD
    for _ in range(100):
        log_scale = rng.uniform(-3, 1.5, 3)
        quat = rng.standard_normal(4)
        quat /= np.linalg.norm(quat)
        cov = covariance_of(log_scale, quat)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        eigenvalues = np.sort(np.linalg.eigvalsh(cov))
        np.testing.assert_allclose(eigenvalues, np.sort(np.exp(2 * log_scale)),
                                   rtol=1e-5, atol=1e-7)
        np.linalg.cholesky(cov)  # must not raise


def test_scene_cholesky_matches_covariance(rng):
    scene = random_scene(rng, 50)
    factor, ok = cholesky3(scene.covariance)
    assert ok.all()
    recon = factor @ np.transpose(factor, (0, 2, 1))
    np.testing.assert_allclose(recon, scene.covariance, rtol=1e-10, atol=1e-12)


def test_rotate_diagonal_keeps_its_order():
    # each entry adds (R_ij d_j) R_kj as (j0 + j1) + j2; on diagonals of mixed
    # sizes another order, or mirroring one triangle, would change bytes
    rng = np.random.default_rng(21)
    quats = rng.standard_normal((500, 4))
    rot = quats_to_rotmats(quats / np.linalg.norm(quats, axis=1, keepdims=True))
    diagonal = rng.uniform(0.5, 2.0, (500, 3)) * 10.0 ** rng.integers(-8, 9, (500, 3))

    def entries(add3):
        return [[[add3(*(r[i][j] * d[j] * r[k][j] for j in range(3))) for k in range(3)]
                 for i in range(3)] for r, d in zip(rot.tolist(), diagonal.tolist())]

    expected = entries(lambda a0, a1, a2: (a0 + a1) + a2)
    assert expected != entries(lambda a0, a1, a2: (a0 + a2) + a1)
    assert any(m[i][k] != m[k][i] for m in expected for i, k in ((0, 1), (0, 2), (1, 2)))
    assert rotate_diagonal(rot, diagonal).tolist() == expected


def test_quaternion_norm_adds_its_squares_left_to_right():
    # ((w^2 + x^2) + y^2) + z^2, then the square root; on components of mixed
    # sizes another order changes bits
    rng = np.random.default_rng(26)
    quats = rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-3, 4, (500, 4))
    scene = activate(RawGaussians(position=np.zeros((500, 3)), log_scale=np.zeros((500, 3)),
                                  rotation=quats, logit_opacity=np.zeros(500),
                                  sh_dc=np.zeros((500, 3))))

    def unit(add4):
        return [[c / math.sqrt(add4(*(c * c for c in q))) for c in q] for q in quats.tolist()]

    expected = unit(lambda a0, a1, a2, a3: ((a0 + a1) + a2) + a3)
    assert expected != unit(lambda a0, a1, a2, a3: (a0 + a1) + (a2 + a3))
    assert expected != unit(lambda a0, a1, a2, a3: ((a3 + a2) + a1) + a0)
    assert scene.rotation_unit.tolist() == expected


def test_activate_drops_degenerate(rng):
    records = random_records(rng, 5)
    degenerate = make_record(log_scale=np.array([400.0, 400.0, 400.0]))
    scene = activate(concat(records.take(slice(0, 2)), degenerate, records.take(slice(2, None))))
    assert scene.count == 5


@pytest.mark.parametrize("block_rows", [7, 30, 120])
def test_activate_in_blocks_keeps_every_byte(monkeypatch, rng, block_rows):
    # rows 6 and 7 sit on both sides of the first edge of a 7-row block; the
    # default block holds all 30 rows at once
    records = random_records(rng, 30)
    records.log_scale[[6, 7, 20]] = 400.0
    whole = activate(records)
    monkeypatch.setattr(scene_module, "ACTIVATE_BLOCK_ROWS", block_rows)
    blocked = activate(records)
    assert blocked.count == 27
    for name in ("position", "log_scale", "rotation_unit", "opacity", "covariance",
                 "base_colour"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name


def test_quats_to_rotmats_orthonormal(rng):
    quats = rng.standard_normal((40, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    rots = quats_to_rotmats(quats)
    eyes = rots @ np.transpose(rots, (0, 2, 1))
    np.testing.assert_allclose(eyes, np.broadcast_to(np.eye(3), (40, 3, 3)), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(rots), np.ones(40), atol=1e-12)


# ---------------------------------------------------------------------------
# filters


def test_bbox_removes_outside():
    scene = activate(concat(make_record(position=np.array([10.0, 0.0, 0.0])),
                            make_record(position=np.zeros(3))))
    filtered = filter_scene(scene, FilterConfig(bbox=(-5, -5, -5, 5, 5, 5)))
    assert filtered.count == 1
    np.testing.assert_array_equal(filtered.position[0], [0, 0, 0])


def test_min_opacity_keeps_at_threshold():
    scene = activate(make_record(logit_opacity=0.0))  # opacity 0.5
    assert filter_scene(scene, FilterConfig(min_opacity=0.3)).count == 1
    assert filter_scene(scene, FilterConfig(min_opacity=0.5)).count == 1


def test_all_filters_disabled_is_identity(rng):
    scene = random_scene(rng, 20)
    filtered = filter_scene(scene, FilterConfig())
    assert filtered is scene


def test_filters_match_bruteforce_predicates(rng):
    scene = random_scene(rng, 100, spread=3.0)
    filters = FilterConfig(bbox=(-2, -2, -2, 2, 2, 2), max_scale=0.25, min_opacity=0.4)
    expected = []
    for i in range(scene.count):
        inside = np.all(scene.position[i] >= -2) and np.all(scene.position[i] <= 2)
        small = np.exp(scene.log_scale[i]).max() <= 0.25
        opaque = scene.opacity[i] >= 0.4
        if inside and small and opaque:
            expected.append(i)
    assert expected, "fixture should retain something"
    filtered = filter_scene(scene, filters)
    kept_positions = scene.position[expected]
    np.testing.assert_array_equal(filtered.position, kept_positions)


def test_filter_composition_order_irrelevant(rng):
    scene = random_scene(rng, 120, spread=3.0)
    a = FilterConfig(min_opacity=0.4)
    b = FilterConfig(max_scale=0.3)
    one = filter_scene(filter_scene(scene, a), b)
    two = filter_scene(filter_scene(scene, b), a)
    np.testing.assert_array_equal(one.position, two.position)


def test_filter_everything_is_error():
    scene = activate(make_record(position=np.array([10.0, 0.0, 0.0])))
    with pytest.raises(DomainError, match="empty scene after filtering"):
        filter_scene(scene, FilterConfig(bbox=(-1, -1, -1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# culling


def test_cull_without_render_is_identity(rng):
    scene = random_scene(rng, 10)
    assert cull_unrendered(scene) is scene


def test_cull_removes_zero_contribution(rng):
    scene = random_scene(rng, 4)
    scene.contribution = ContributionState.initial(scene.count)
    scene.contribution.best_contribution[:] = [0.5, 0.0, 0.25, 0.0]
    culled = cull_unrendered(scene)
    assert culled.count == 2
    np.testing.assert_array_equal(culled.position, scene.position[[0, 2]])


def test_cull_all_positive_is_identity(rng):
    scene = random_scene(rng, 4)
    scene.contribution = ContributionState.initial(scene.count)
    scene.contribution.best_contribution[:] = 0.1
    assert cull_unrendered(scene) is scene


def test_cull_everything_is_error(rng):
    scene = random_scene(rng, 4)
    scene.contribution = ContributionState.initial(scene.count)
    with pytest.raises(DomainError):
        cull_unrendered(scene)


# ---------------------------------------------------------------------------
# contribution merge


def test_merging_states_is_a_total_order():
    rng = np.random.default_rng(24)
    count = 43
    last = 65535 * 65535 - 1  # the largest pixel index a pose allows
    # Rows 40 to 42 take only candidates of one value at the key's limits:
    # row 40 at (rank 0, pixel last) and (rank 1, pixel 0); rows 41 and 42
    # at pixels last and 0 of one view, the higher pixel offered first for
    # row 41 and second for row 42
    limits = {(0, 0): (40, last), (1, 0): (40, 0), (2, 0): (41, last), (2, 1): (41, 0),
              (3, 0): (42, 0), (3, 1): (42, last)}
    views = []  # per view: two tiles' candidates, as render_image offers them
    for rank in range(6):
        tiles = []
        for part, pixels in enumerate((np.arange(0, 50), np.arange(50, 100))):
            gaussians = rng.choice(np.arange(1, 40), 20, replace=False)
            values = rng.choice([0.25, 0.5, 0.75], 20)  # exact ties within and across views
            if rank < 2 and part == 0:
                # Gaussian 0 ties exactly in views 0 and 1, so the lower rank
                # arrives second in one of the merge orders below
                gaussians[-1], values[-1] = 0, 0.9
            colours = rng.uniform(0.0, 1.0, (20, 3))
            pixel = rng.choice(pixels, 20)
            if (rank, part) in limits:
                row, at = limits[rank, part]
                gaussians, values = np.append(gaussians, row), np.append(values, 0.5)
                colours, pixel = np.append(colours, [[0.5, 0.5, 0.5]], axis=0), np.append(pixel, at)
            tiles.append((gaussians, values, colours, (rank << 32) + pixel))
        views.append(tiles)

    def offered(ranks):
        state = ContributionState.initial(count, (0.1, 0.2, 0.3))
        for rank in ranks:
            for tile in views[rank]:
                state.offer(*tile)
        return state

    expected = offered(range(6))
    assert expected.best_key[0] >> 32 == 0
    assert expected.best_key[40:].tolist() == [last, 2 << 32, 3 << 32]
    for first, second in (((1, 3, 5), (0, 2, 4)), ((0, 2, 4), (1, 3, 5))):
        merged = offered(first)
        merged.offer(*offered(second).reached())
        assert state_bytes(merged) == state_bytes(expected), (first, second)
