"""Activation, covariance construction and scene filters."""

import numpy as np
import pytest

from splatcloud import scene as scene_module
from splatcloud.config import FilterConfig
from splatcloud.errors import DomainError
from splatcloud.scene import (
    ContributionState,
    activate,
    cull_unrendered,
    filter_scene,
    quats_to_rotmats,
)
from splatcloud.types import RawGaussians

from conftest import concat, random_records, random_scene


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
    recon = scene.cov_cholesky @ np.transpose(scene.cov_cholesky, (0, 2, 1))
    np.testing.assert_allclose(recon, scene.covariance, rtol=1e-10, atol=1e-12)


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
                 "cov_cholesky", "base_colour"):
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
