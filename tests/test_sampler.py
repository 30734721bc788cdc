"""Volumes, allocation, Mahalanobis rejection and point generation."""

import logging
import math

import numpy as np
import pytest
from scipy.stats import chi2

from reference import (
    cholesky3_reference,
    encode_cloud_reference,
    largest_remainder_reference,
    mahalanobis_reference,
    sample_batch_reference,
    sample_scene_reference,
    sum3_reference,
)
from splatcloud import sampler
from splatcloud import scene as scene_module
from splatcloud.config import FilterConfig, SamplerConfig
from splatcloud.errors import DomainError
from splatcloud.formats import ply, write_pointcloud_ply
from splatcloud.sampler import (
    SampleBatch,
    allocate,
    build_batches,
    derive_batch_seed,
    gaussian_volume,
    generate_pointcloud,
    quantize_colours,
    sample_batch,
)
from splatcloud.scene import ContributionState, activate, cholesky3, dot3, filter_scene
from splatcloud.types import RawGaussians

from conftest import perfbench_gen, random_records, random_scene


def single_gaussian_scene(log_scale=(0.0, 0.0, 0.0), rotation=(1.0, 0, 0, 0)):
    return activate(RawGaussians(
        position=np.zeros(3),
        log_scale=np.asarray(log_scale, dtype=np.float64),
        rotation=np.asarray(rotation, dtype=np.float64),
        logit_opacity=0.0,
        sh_dc=np.zeros(3),
    ))


# ---------------------------------------------------------------------------
# volume


def test_volume_unit_scales():
    assert gaussian_volume([0.0, 0.0, 0.0]) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_volume_elongated():
    assert gaussian_volume([math.log(3.0), 0.0, 0.0]) == \
        pytest.approx(math.sqrt(11.0), rel=1e-12)


def test_volume_tiny_no_underflow():
    volume = gaussian_volume([-20.0, -20.0, -20.0])
    assert volume == pytest.approx(3.5700227962682207e-09, rel=1e-12)
    assert volume > 0.0


def test_volume_formula_random(rng):
    # acceptance-style: direct evaluation of the formula on random log-scales
    for _ in range(100):
        s = rng.uniform(-8, 3, 3)
        direct = math.sqrt(sum(math.exp(v) ** 2 for v in s))
        assert gaussian_volume(s) == pytest.approx(direct, rel=1e-12)
    table = rng.uniform(-8, 3, (100, 3))
    vector = gaussian_volume(table)
    for i in range(100):
        assert vector[i] == pytest.approx(gaussian_volume(table[i]), rel=1e-15)


# ---------------------------------------------------------------------------
# allocation


def test_allocate_symmetric():
    counts = allocate([1.0, 1.0], 10, "exact")
    np.testing.assert_array_equal(counts, [5, 5])


def test_allocate_remainder_tie_prefers_larger_volume():
    # shares (7.5, 2.5): both remainders 0.5, the larger volume wins the spare
    counts = allocate([3.0, 1.0], 10, "exact")
    np.testing.assert_array_equal(counts, [8, 2])


def test_allocate_binned_rounds_to_multiples_of_five():
    counts = allocate([52.4, 47.6], 100, "binned")
    np.testing.assert_array_equal(counts, [50, 48])
    counts = allocate([52.6, 47.4], 100, "binned")
    np.testing.assert_array_equal(counts, [55, 47])


def test_allocate_binned_small_counts_kept():
    counts = allocate([10.0, 10.0, 30.0], 50, "binned")
    np.testing.assert_array_equal(counts, [10, 10, 30])


def test_allocate_exact_sums_and_monotone(rng):
    for _ in range(200):
        n = int(rng.integers(1, 40))
        volumes = rng.uniform(0.0, 10.0, n)
        if volumes.sum() == 0:
            volumes[0] = 1.0
        total = int(rng.integers(1, 5000))
        counts = allocate(volumes, total, "exact")
        assert counts.sum() == total
        assert np.all(counts >= 0)
        order = np.argsort(-volumes, kind="stable")
        assert np.all(np.diff(counts[order]) <= 0)


def test_allocate_matches_reference(rng):
    for _ in range(50):
        n = int(rng.integers(2, 25))
        volumes = rng.uniform(0.01, 5.0, n)
        total = int(rng.integers(1, 1000))
        counts = allocate(volumes, total, "exact")
        np.testing.assert_array_equal(
            counts, largest_remainder_reference(volumes.tolist(), total))


def test_allocate_binned_invariant(rng):
    for _ in range(50):
        volumes = rng.uniform(0.01, 5.0, int(rng.integers(2, 30)))
        counts = allocate(volumes, int(rng.integers(100, 20000)), "binned")
        big = counts[counts > 50]
        assert np.all(big % 5 == 0)


def colour_pass_volumes():
    """Volumes of the benchmark's colour-pass scene at seed 1 (12000 Gaussians)."""
    columns = perfbench_gen().sphere_scene(np.random.default_rng([1, 12000]), 12000)
    return gaussian_volume(columns["log_scale"])


@pytest.mark.parametrize("total, binned", [(1000, 0), (5000, 1547)])
def test_allocate_binned_falls_back_to_exact_below_half(caplog, total, binned):
    # most shares of these requests are below 0.5 and round to zero
    volumes = colour_pass_volumes()
    with caplog.at_level(logging.INFO, logger="splatcloud.sampler"):
        counts = allocate(volumes, total, "binned")
    np.testing.assert_array_equal(counts, allocate(volumes, total, "exact"))
    assert counts.sum() == total
    assert f"binned allocation gives {binned} of {total} points" in caplog.text


def test_allocate_binned_keeps_exactly_half(caplog):
    # shares (0.93, 0.27 x4) bin to one point of two: half the request, kept;
    # shares (1.4, 0.4 x4) bin to one point of three: exact apportionment
    volumes = [14.0, 4.0, 4.0, 4.0, 4.0]
    with caplog.at_level(logging.INFO, logger="splatcloud.sampler"):
        np.testing.assert_array_equal(allocate(volumes, 2, "binned"), [1, 0, 0, 0, 0])
        assert caplog.text == ""
        np.testing.assert_array_equal(allocate(volumes, 3, "binned"), [1, 1, 1, 0, 0])
    assert "binned allocation gives 1 of 3 points" in caplog.text


def test_allocate_zero_volumes_error():
    with pytest.raises(DomainError, match="zero"):
        allocate([0.0, 0.0], 10, "exact")


# ---------------------------------------------------------------------------
# Mahalanobis distance


# The oracle that referees the sampler's rejection, pinned on hand-computed values.


def test_mahalanobis_at_mean():
    assert mahalanobis_reference([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], np.eye(3)) == 0.0


def test_mahalanobis_euclidean_case():
    assert mahalanobis_reference([2.0, 0.0, 0.0], np.zeros(3), np.eye(3)) == pytest.approx(2.0)


def test_mahalanobis_scaled_axis():
    cov = np.diag([4.0, 1.0, 1.0])
    assert mahalanobis_reference([2.0, 0.0, 0.0], np.zeros(3), cov) == pytest.approx(1.0)


def test_mahalanobis_reference_rows_match_single_points(rng):
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 0.1 * np.eye(3)
    mean = rng.standard_normal(3)
    points = rng.standard_normal((50, 3))
    rows = mahalanobis_reference(points, mean, cov)
    assert rows.shape == (50,)
    for point, distance in zip(points, rows):
        assert distance == pytest.approx(mahalanobis_reference(point, mean, cov), rel=1e-12)


def test_mahalanobis_identity_with_cholesky_draws(rng):
    # D_M(mu + L z) == ||z||, the fast-rejection identity
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.05 * np.eye(3)
        chol = np.linalg.cholesky(cov)
        mean = rng.standard_normal(3)
        z = rng.standard_normal(3)
        assert mahalanobis_reference(mean + chol @ z, mean, cov) == \
            pytest.approx(float(np.linalg.norm(z)), rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# batched sampling


def batch_for(scene, count, seed=0):
    indices = np.arange(scene.count)
    return SampleBatch(indices, count,
                       derive_batch_seed(seed, 0, count))


def test_all_emitted_points_within_threshold(rng):
    scene = random_scene(rng, 8)
    batch = build_batches(np.full(8, 200), seed=3)[0]
    points, _, counts, _ = sample_batch(batch, scene, sigma_threshold=2.0, max_rounds=5)
    offset = 0
    for gaussian, count in zip(batch.gaussian_indices, counts):
        distances = mahalanobis_reference(points[offset:offset + count],
                                          scene.position[gaussian],
                                          scene.covariance[gaussian])
        assert np.all(distances <= 2.0 + 1e-9)
        offset += count


def test_acceptance_rate_matches_chi_square():
    # P(chi2_3 <= 4) ~ 0.7385; one draw round makes emitted/allocated the rate
    scene = single_gaussian_scene()
    batch = batch_for(scene, 1_000_000)
    points, _, _, rejected = sample_batch(batch, scene, sigma_threshold=2.0, max_rounds=1)
    rate = len(points) / 1_000_000
    assert rate == pytest.approx(chi2.cdf(4.0, 3), abs=0.005)
    assert rejected == 1_000_000 - len(points)


def test_shortfall_after_five_rounds():
    scene = single_gaussian_scene()
    n = 1_000_000
    batch = batch_for(scene, n)
    points, _, _, _ = sample_batch(batch, scene, sigma_threshold=2.0, max_rounds=5)
    p = chi2.cdf(4.0, 3)
    expected_shortfall = (1.0 - p) ** 5
    observed = (n - len(points)) / n
    # 3x the binomial standard error around the analytic shortfall
    tolerance = 3.0 * math.sqrt(expected_shortfall * (1 - expected_shortfall) / n)
    assert observed == pytest.approx(expected_shortfall, abs=tolerance)


def test_sample_moments_match_scales(rng):
    # loose regime: threshold 6 makes truncation negligible
    log_scale = rng.uniform(-1.5, 0.5, 3)
    quat = rng.standard_normal(4)
    scene = activate(RawGaussians(
        position=np.array([3.0, -2.0, 1.0]),
        log_scale=log_scale,
        rotation=quat / np.linalg.norm(quat),
        logit_opacity=1.0,
        sh_dc=np.zeros(3),
    ))
    n = 100_000
    points, _, _, _ = sample_batch(batch_for(scene, n), scene,
                                   sigma_threshold=6.0, max_rounds=5)
    sigma_axis = np.sqrt(np.diag(scene.covariance[0]))
    np.testing.assert_allclose(points.mean(axis=0), scene.position[0],
                               atol=(4.0 * sigma_axis / math.sqrt(n)).max())
    eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(points.T)))
    np.testing.assert_allclose(eigenvalues, np.sort(np.exp(2 * log_scale)), rtol=0.05)


def test_rejection_scale_invariant(rng):
    # same seed, scaled covariance: the accept/reject pattern is identical
    base = single_gaussian_scene(log_scale=(0.2, -0.3, 0.1))
    scaled = single_gaussian_scene(log_scale=(0.2 + math.log(7), -0.3 + math.log(7),
                                              0.1 + math.log(7)))
    b1 = batch_for(base, 20_000, seed=11)
    b2 = batch_for(scaled, 20_000, seed=11)
    p1, _, c1, r1 = sample_batch(b1, base, 2.0, 1)
    p2, _, c2, r2 = sample_batch(b2, scaled, 2.0, 1)
    assert r1 == r2
    np.testing.assert_array_equal(c1, c2)


def test_sample_batch_deterministic(rng):
    scene = random_scene(rng, 5)
    batch = build_batches(np.full(5, 64), seed=42)[0]
    first = sample_batch(batch, scene, 2.0, 5)
    second = sample_batch(batch, scene, 2.0, 5)
    assert first[0].tobytes() == second[0].tobytes()
    np.testing.assert_array_equal(first[2], second[2])


@pytest.mark.parametrize("block_points", [7, 1 << 15])
def test_draws_past_float32_are_dropped_as_rejected(monkeypatch, rng, block_points):
    # the middle Gaussian's draws reach past float32's largest value on the +x
    # side; its neighbours' draws come from the same stream either way
    records = RawGaussians(position=np.zeros((3, 3)), log_scale=np.full((3, 3), -1.0),
                           rotation=np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
                           logit_opacity=np.zeros(3), sh_dc=np.zeros((3, 3)))
    safe = activate(records)
    records.position[1, 0] = 3.4028e38
    records.log_scale[1] = 78.0
    limit = activate(records)
    batch = batch_for(limit, 300)
    monkeypatch.setattr(sampler, "SAMPLE_BLOCK_POINTS", block_points)
    points, colours, counts, rejected = sample_batch(batch, limit, math.inf, 1)
    safe_points, _, safe_counts, safe_rejected = sample_batch(batch, safe, math.inf, 1)
    assert np.isfinite(points).all()
    assert safe_rejected == 0 and list(safe_counts) == [300, 300, 300]
    assert counts[0] == counts[2] == 300 and 0 < counts[1] < 300
    assert rejected == 900 - counts.sum() == len(safe_points) - len(points)
    assert len(colours) == len(points)
    assert points[:300].tobytes() == safe_points[:300].tobytes()
    assert points[-300:].tobytes() == safe_points[-300:].tobytes()


def test_three_term_sums_keep_their_order():
    # a float32 point rarely shows a last-bit change of its float64 sum, so the
    # order is pinned on the float64 sums themselves, on terms of mixed sizes
    # where the three ways to add them disagree
    rng = np.random.default_rng(12)
    a = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-8, 9, (500, 3))
    b = rng.standard_normal((500, 3))
    expected = [sum3_reference(*(x * y for x, y in zip(row_a, row_b)))
                for row_a, row_b in zip(a.tolist(), b.tolist())]
    left_to_right = [(x0 * y0 + x1 * y1) + x2 * y2
                     for (x0, x1, x2), (y0, y1, y2) in zip(a.tolist(), b.tolist())]
    assert expected != left_to_right
    assert dot3(a, b).tolist() == expected


@pytest.mark.parametrize("into_cloud", [False, True], ids=["own-arrays", "into-cloud"])
@pytest.mark.parametrize("block_points", [7, 1 << 15])
@pytest.mark.parametrize("rounds", [1, 5])
@pytest.mark.parametrize("count, members", [(1, 40), (37, 20), (300, 8)])
def test_sample_batch_matches_draw_oracle(monkeypatch, count, members, rounds, block_points,
                                          into_cloud):
    # sigma 1.5 rejects about half of the first draws, so redraws and short
    # Gaussians both occur; the batch takes every other Gaussian of the scene
    scene = random_scene(np.random.default_rng(count), 2 * members,
                         log_scale_range=(-5.0, 0.5))
    batch = SampleBatch(np.arange(1, 2 * members, 2), count, derive_batch_seed(4, 1, count))
    expected, expected_colours, expected_accepted, expected_rejected = \
        sample_batch_reference(batch, scene, 1.5, rounds)
    monkeypatch.setattr(sampler, "SAMPLE_BLOCK_POINTS", block_points)
    out = None
    if into_cloud:
        # each Gaussian owns count + 3 rows, in reverse index order, after 5 spare rows
        starts = (scene.count - 1 - np.arange(scene.count)) * (count + 3) + 5
        size = scene.count * (count + 3) + 5
        out = (np.full((size, 3), -7.0, dtype=np.float32),
               np.full((size, 3), 9, dtype=np.uint8), starts)
    points, colours, accepted, rejected = sample_batch(batch, scene, 1.5, rounds, out=out)
    assert rejected == expected_rejected > 0
    np.testing.assert_array_equal(accepted, expected_accepted)
    if into_cloud:
        rows = np.concatenate([np.arange(starts[g], starts[g] + n)
                               for g, n in zip(batch.gaussian_indices, accepted)])
        untouched = np.ones(len(points), dtype=bool)
        untouched[rows] = False
        assert (points[untouched] == -7.0).all() and (colours[untouched] == 9).all()
        points, colours = points[rows], colours[rows]
    assert points.tobytes() == expected.tobytes()
    assert colours.tobytes() == expected_colours.tobytes()


@pytest.mark.parametrize("block_points", [7, 1 << 15])
def test_draws_past_float32_match_draw_oracle(monkeypatch, block_points):
    # the scene of test_draws_past_float32_are_dropped_as_rejected: the middle
    # Gaussian's draws reach past float32 on the +x side
    records = RawGaussians(position=np.zeros((3, 3)), log_scale=np.full((3, 3), -1.0),
                           rotation=np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
                           logit_opacity=np.zeros(3), sh_dc=np.zeros((3, 3)))
    records.position[1, 0] = 3.4028e38
    records.log_scale[1] = 78.0
    scene = activate(records)
    batch = batch_for(scene, 300)
    expected, _, expected_accepted, expected_rejected = \
        sample_batch_reference(batch, scene, math.inf, 1)
    monkeypatch.setattr(sampler, "SAMPLE_BLOCK_POINTS", block_points)
    points, _, accepted, rejected = sample_batch(batch, scene, math.inf, 1)
    assert 0 < expected_accepted[1] < 300 and rejected == expected_rejected
    np.testing.assert_array_equal(accepted, expected_accepted)
    assert points.tobytes() == expected.tobytes()


def test_sample_batch_alone_gives_the_in_cloud_rows():
    # one draw round at sigma 1 leaves most Gaussians short, so a batch's rows
    # in the cloud sit between other batches' rows, after gaps were closed
    scene = random_scene(np.random.default_rng(707), 200, log_scale_range=(-5.0, 0.5))
    config = SamplerConfig(sigma=1.0, max_resample_rounds=1, exact=True, seed=3, threads=2)
    cloud, _ = generate_pointcloud(scene, 10_000, config)
    counts = allocate(gaussian_volume(scene.log_scale), 10_000, "exact")
    batches = build_batches(counts, config.seed)
    alone = [sample_batch(batch, scene, 1.0, 1) for batch in batches]
    accepted = np.zeros(scene.count, dtype=np.int64)
    for batch, (_, _, batch_accepted, _) in zip(batches, alone):
        accepted[batch.gaussian_indices] = batch_accepted
    assert len(batches) > 10 and accepted.sum() < counts.sum() // 2
    starts = np.cumsum(accepted) - accepted
    for batch, (points, colours, _, _) in zip(batches, alone):
        rows = np.concatenate([np.arange(starts[g], starts[g] + accepted[g])
                               for g in batch.gaussian_indices])
        assert cloud.points[rows].tobytes() == points.tobytes()
        assert cloud.colours[rows].tobytes() == colours.tobytes()


# ---------------------------------------------------------------------------
# generate_pointcloud


def test_single_gaussian_exact_count():
    scene = single_gaussian_scene()
    cloud, stats = generate_pointcloud(
        scene, 100, SamplerConfig(sigma=10.0, exact=True, seed=1, threads=1))
    assert len(cloud) == 100
    assert stats.requested == stats.allocated == stats.emitted == 100


def test_two_equal_gaussians_split_evenly(rng):
    scene = random_scene(rng, 2)
    scene.log_scale[1] = scene.log_scale[0]
    volumes = gaussian_volume(scene.log_scale)
    counts = allocate(volumes, 10, "exact")
    np.testing.assert_array_equal(counts, [5, 5])


def test_pointcloud_deterministic_across_threads(rng):
    scene = random_scene(rng, 40)
    config1 = SamplerConfig(sigma=2.0, exact=True, seed=9, threads=1)
    config4 = SamplerConfig(sigma=2.0, exact=True, seed=9, threads=4)
    one, _ = generate_pointcloud(scene, 5000, config1)
    four, _ = generate_pointcloud(scene, 5000, config4)
    assert one.points.tobytes() == four.points.tobytes()
    assert one.colours.tobytes() == four.colours.tobytes()


def test_points_ordered_by_gaussian(rng):
    scene = random_scene(rng, 6, spread=40.0, log_scale_range=(-3.0, -2.8))
    cloud, _ = generate_pointcloud(
        scene, 600, SamplerConfig(sigma=3.0, exact=True, seed=4, threads=1))
    # gaussians are far apart relative to their size: points cluster, and the
    # cluster order must follow the gaussian index order
    owners = np.argmin(
        np.linalg.norm(cloud.points[:, None, :] - scene.position[None], axis=2), axis=1)
    assert np.all(np.diff(owners) >= 0)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_pointcloud_matches_sorted_reference(threads, exact):
    # widely spread scales give many batches; one draw round at sigma 1 drops
    # about 80% of the slots, so most Gaussians emit fewer points than allocated
    scene = random_scene(np.random.default_rng(808), 400, log_scale_range=(-5.0, 0.5))
    config = SamplerConfig(sigma=1.0, max_resample_rounds=1, exact=exact, seed=6,
                           threads=threads)
    cloud, stats = generate_pointcloud(scene, 40_000, config)
    points, colours, _ = sample_scene_reference(scene, 40_000, config)
    assert stats.emitted < stats.allocated // 2
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.colours.tobytes() == colours.tobytes()


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("rounds", [1, 5])
def test_blocked_sampling_and_writing_keep_every_byte(tmp_path, monkeypatch, threads, rounds):
    # the reference draws with the default blocks, which hold each of these
    # batches whole; a block of 7 splits every batch and every write, and one
    # draw round leaves gaps after almost every Gaussian's rows
    scene = random_scene(np.random.default_rng(909), 300, log_scale_range=(-5.0, 0.5))
    config = SamplerConfig(sigma=2.0, max_resample_rounds=rounds, exact=True, seed=8,
                           threads=threads)
    points, colours, _ = sample_scene_reference(scene, 20_000, config)
    monkeypatch.setattr(sampler, "SAMPLE_BLOCK_POINTS", 7)
    monkeypatch.setattr(ply, "WRITE_BLOCK_ROWS", 7)
    cloud, stats = generate_pointcloud(scene, 20_000, config)
    assert stats.emitted < stats.allocated
    assert cloud.points.tobytes() == points.tobytes()
    assert cloud.colours.tobytes() == colours.tobytes()
    write_pointcloud_ply(cloud, tmp_path / "cloud.ply")
    assert (tmp_path / "cloud.ply").read_bytes() == encode_cloud_reference(points, colours)


def test_colours_use_rendered_best(rng):
    scene = random_scene(rng, 3)
    scene.contribution = ContributionState.initial(scene.count)
    scene.contribution.best_colour[:] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    scene.contribution.best_contribution[:] = 0.5
    cloud, _ = generate_pointcloud(
        scene, 30, SamplerConfig(sigma=5.0, exact=True, seed=2, threads=1))
    unique = {tuple(c) for c in cloud.colours.tolist()}
    assert unique <= {(255, 0, 0), (0, 255, 0), (0, 0, 255)}


def test_colours_use_base_colours_until_rendered(rng):
    scene = random_scene(rng, 3)
    assert scene.contribution is None
    cloud, _ = generate_pointcloud(
        scene, 30, SamplerConfig(sigma=5.0, exact=True, seed=2, threads=1))
    unique = {tuple(c) for c in cloud.colours.tolist()}
    assert unique <= {tuple(c) for c in quantize_colours(scene.base_colour).tolist()}


def test_colour_quantisation_rounds_half_up():
    colours = np.array([[0.0, 0.5, 1.0], [127.4 / 255.0, 127.5 / 255.0, 0.999]])
    quantized = quantize_colours(colours)
    np.testing.assert_array_equal(quantized, [[0, 128, 255], [127, 128, 255]])


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_non_positive_or_nan_sigma_error(rng, sigma):
    # a NaN threshold would reject no draw at all: every compare with it is false
    scene = random_scene(rng, 50)
    with pytest.raises(DomainError, match="sigma"):
        generate_pointcloud(scene, 20_000, SamplerConfig(sigma=sigma, seed=1, threads=1))


def test_generate_empty_scene_error(rng):
    scene = random_scene(rng, 2).take(np.zeros(2, dtype=bool))
    with pytest.raises(DomainError):
        generate_pointcloud(scene, 10, SamplerConfig())


def test_batches_group_by_count():
    counts = np.array([3, 7, 3, 0, 7, 7])
    batches = build_batches(counts, seed=5)
    assert [b.count_per_gaussian for b in batches] == [3, 7]
    np.testing.assert_array_equal(batches[0].gaussian_indices, [0, 2])
    np.testing.assert_array_equal(batches[1].gaussian_indices, [1, 4, 5])
    # seeds derive from (global seed, smallest member, count)
    assert batches[0].rng_seed == derive_batch_seed(5, 0, 3)
    assert batches[1].rng_seed == derive_batch_seed(5, 1, 7)


def test_negative_seed_is_domain_error(rng):
    scene = random_scene(rng, 10)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        generate_pointcloud(scene, 100, SamplerConfig(seed=-1, threads=1))
    with pytest.raises(DomainError, match="seed"):
        derive_batch_seed(-1, 0, 1)


def test_factors_from_every_epsilon_rung_survive_filtering(monkeypatch):
    # one axis near e^11 beside axes at e^-30 or e^-40 leaves rounding in the
    # thin directions that the first epsilon rung does not cover, so the rows
    # factorise on different rungs; the row at e^400 exhausts the ladder
    rng = np.random.default_rng(3)
    records = random_records(rng, 60, log_scale_range=(-3.0, 0.0))
    records.log_scale[::2, 0] = rng.uniform(10.0, 12.0, 30)
    records.log_scale[::3, 1] = -30.0
    records.log_scale[::5, 2] = -40.0
    records.log_scale[7] = 400.0
    activated = activate(records)
    assert activated.count == 59
    monkeypatch.setattr(scene_module, "CHOLESKY_ATTEMPTS", 1)
    assert activate(records).count < activated.count  # some rows needed a later rung
    scene = filter_scene(activated, FilterConfig(min_opacity=0.5))
    assert 0 < scene.count < activated.count

    factor, ok = cholesky3(scene.covariance)
    assert ok.all()
    assert factor.tolist() == [cholesky3_reference(c) for c in scene.covariance.tolist()]
    batch = SampleBatch(np.arange(scene.count), 7, derive_batch_seed(2, 0, 7))
    expected = sample_batch_reference(batch, scene, 2.0, 3)
    got = sample_batch(batch, scene, 2.0, 3)
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()
    assert got[2].tolist() == expected[2].tolist() and got[3] == expected[3]
