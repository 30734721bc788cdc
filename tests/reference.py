"""Independent reference implementations used only to check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, struct unpacking, O(n^2) scans) and kept free of the package's own
code paths, so the two sides can disagree when one of them is wrong.
"""

from __future__ import annotations

import math
import struct

import numpy as np

ALPHA_MAX = 0.99
ALPHA_MIN = 1.0 / 255.0
T_EPS = 1e-4
TILE = 64


# ---------------------------------------------------------------------------
# minimal PLY reader (second, separately written parser)

_STRUCT_CODES = {
    "char": "b", "int8": "b", "uchar": "B", "uint8": "B",
    "short": "h", "int16": "h", "ushort": "H", "uint16": "H",
    "int": "i", "int32": "i", "uint": "I", "uint32": "I",
    "float": "f", "float32": "f", "double": "d", "float64": "d",
}


def read_ply_reference(path):
    """Parse a binary little-endian PLY with struct; returns {prop: list}."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    lines = data[:header_end].decode("ascii").splitlines()
    assert lines[0] == "ply"
    assert any(l.startswith("format binary_little_endian") for l in lines)
    count = None
    names, fmt = [], "<"
    for line in lines:
        parts = line.split()
        if parts[0] == "element":
            assert parts[1] == "vertex"
            count = int(parts[2])
        elif parts[0] == "property":
            fmt += _STRUCT_CODES[parts[1]]
            names.append(parts[2])
    columns = {name: [] for name in names}
    offset = header_end
    size = struct.calcsize(fmt)
    for _ in range(count):
        values = struct.unpack_from(fmt, data, offset)
        offset += size
        for name, value in zip(names, values):
            columns[name].append(value)
    return columns


def encode_cloud_reference(points, colours):
    """Binary PLY bytes of a coloured cloud, packed one vertex at a time."""
    header = "\n".join([
        "ply", "format binary_little_endian 1.0", f"element vertex {len(points)}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header"]) + "\n"
    body = b"".join(struct.pack("<3f3B", *map(float, point), *map(int, colour))
                    for point, colour in zip(points, colours))
    return header.encode("ascii") + body


def read_cloud(path):
    """A point-cloud PLY read by :func:`read_ply_reference`, as a ``PointCloud``."""
    from splatcloud.types import PointCloud

    columns = read_ply_reference(path)
    normals = [columns[n] for n in ("nx", "ny", "nz")] if "nx" in columns else None
    return PointCloud(points=np.array([columns[n] for n in "xyz"]).T,
                      colours=np.array([columns[n] for n in ("red", "green", "blue")]).T,
                      normals=None if normals is None else np.array(normals).T)


# ---------------------------------------------------------------------------
# sequential full-image compositing (no tiling)

def composite_reference(projected, base_colours, background, width, height):
    """Per-pixel front-to-back compositing over all projected gaussians.

    Reproduces the compositing semantics one pixel at a time: a gaussian
    participates only where the pixel sits inside its integer 3-sigma box,
    alphas below 1/255 are skipped, alphas clamp at 0.99 and compositing
    stops before the gaussian that would push transmittance below 1e-4.

    Returns (image, t_final, weight_sum, terminated, best) with best mapping
    gaussian index -> (contribution, global pixel index, pixel colour).
    """
    order = sorted(
        range(len(projected.gaussian_index)),
        key=lambda r: (projected.depth[r], projected.gaussian_index[r]),
    )
    inverses = [np.linalg.inv(projected.cov2d[r]) for r in order]
    background = np.asarray(background, dtype=np.float64)

    image = np.zeros((height, width, 3))
    t_final = np.ones((height, width))
    weight_sum = np.zeros((height, width))
    terminated = np.zeros((height, width), dtype=bool)
    best: dict[int, tuple[float, int, np.ndarray]] = {}

    for y in range(height):
        for x in range(width):
            t = 1.0
            colour = np.zeros(3)
            contributions = []
            for pos, r in enumerate(order):
                bx0, by0, bx1, by1 = projected.bbox[r]
                if not (bx0 <= x < bx1 and by0 <= y < by1):
                    continue
                d = np.array([x + 0.5, y + 0.5]) - projected.mean2d[r]
                alpha = projected.opacity[r] * math.exp(-0.5 * float(d @ inverses[pos] @ d))
                alpha = min(alpha, ALPHA_MAX)
                if alpha < ALPHA_MIN:
                    continue
                if t * (1.0 - alpha) < T_EPS:
                    terminated[y, x] = True
                    break
                weight = alpha * t
                colour = colour + weight * base_colours[projected.gaussian_index[r]]
                contributions.append((int(projected.gaussian_index[r]), weight))
                t *= 1.0 - alpha
            pixel = colour + t * background
            image[y, x] = pixel
            t_final[y, x] = t
            weight_sum[y, x] = sum(w for _, w in contributions)
            pixel_index = y * width + x
            for gaussian, weight in contributions:
                if gaussian not in best or weight > best[gaussian][0]:
                    best[gaussian] = (weight, pixel_index, pixel.copy())
    return image, t_final, weight_sum, terminated, best


def merge_best(global_best, image_best):
    """Strict-improvement merge across images (earlier image wins ties)."""
    for gaussian, (weight, pixel, colour) in image_best.items():
        if gaussian not in global_best or weight > global_best[gaussian][0]:
            global_best[gaussian] = (weight, pixel, colour)
    return global_best


# ---------------------------------------------------------------------------
# tile membership

def tiles_reference(bbox, width, height, budget):
    """Tiles as ((x0, y0, x1, y1), level, members) tuples, in no set order.

    Starts from the TILE-pixel grid clipped to the image (level 0) and splits
    a tile whose members x pixels exceed ``budget`` into quadrants at the
    floor midpoint (level + 1) until it fits or is one pixel. A rect's
    members are every row whose half-open box overlaps it, tested one row
    at a time, in row order.
    """
    def members_of(x0, y0, x1, y1):
        return [r for r, (bx0, by0, bx1, by1) in enumerate(bbox)
                if bx0 < x1 and bx1 > x0 and by0 < y1 and by1 > y0]

    tiles = []

    def split(x0, y0, x1, y1, level):
        members = members_of(x0, y0, x1, y1)
        w, h = x1 - x0, y1 - y0
        if len(members) * w * h <= budget or (w == 1 and h == 1):
            tiles.append(((x0, y0, x1, y1), level, members))
            return
        xm = x0 + w // 2 if w > 1 else x1
        ym = y0 + h // 2 if h > 1 else y1
        for qy0, qy1 in ((y0, ym), (ym, y1)):
            for qx0, qx1 in ((x0, xm), (xm, x1)):
                if qx0 < qx1 and qy0 < qy1:
                    split(qx0, qy0, qx1, qy1, level + 1)

    for y0 in range(0, height, TILE):
        for x0 in range(0, width, TILE):
            split(x0, y0, min(x0 + TILE, width), min(y0 + TILE, height), 0)
    return tiles


# ---------------------------------------------------------------------------
# projection oracles

def finite_difference_screen_cov(pose, mean_world, cov_world, step=1e-5):
    """J Sigma J^T via central differences of the world->pixel map."""
    def project_point(p):
        c = pose.rotation @ p + pose.translation
        return np.array([pose.fx * c[0] / c[2] + pose.cx,
                         pose.fy * c[1] / c[2] + pose.cy])

    jac = np.zeros((2, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        jac[:, j] = (project_point(mean_world + e) - project_point(mean_world - e)) / (2 * step)
    return jac @ cov_world @ jac.T


def sampled_screen_cov(pose, mean_world, chol_world, n=200_000, seed=7):
    """Project random gaussian samples and fit their 2D covariance."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 3))
    pts = mean_world + z @ chol_world.T
    cam = pts @ pose.rotation.T + pose.translation
    px = pose.fx * cam[:, 0] / cam[:, 2] + pose.cx
    py = pose.fy * cam[:, 1] / cam[:, 2] + pose.cy
    return np.cov(np.stack([px, py]))


# ---------------------------------------------------------------------------
# apportionment and outlier-removal oracles

def largest_remainder_reference(volumes, total):
    """Floor shares, then hand out the shortfall by descending remainder."""
    vsum = float(sum(volumes))
    shares = [total * (v / vsum) for v in volumes]
    counts = [math.floor(s) for s in shares]
    shortfall = total - sum(counts)
    order = sorted(
        range(len(volumes)),
        key=lambda i: (-(shares[i] - math.floor(shares[i])), -volumes[i], i),
    )
    for i in order[:shortfall]:
        counts[i] += 1
    return counts


def sor_reference(points, k, std_ratio):
    """O(n^2) statistical outlier removal; returns the keep mask."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    mean_distance = np.empty(n)
    for i in range(n):
        d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        mean_distance[i] = np.sort(d)[:k].mean()
    threshold = mean_distance.mean() + std_ratio * mean_distance.std()
    return mean_distance <= threshold


def mahalanobis_reference(point, mean, cov):
    """Direct evaluation with an explicit matrix inverse.

    ``point`` is one point (a float comes back) or an (n, 3) array (an (n,)
    array of distances comes back).
    """
    diff = np.asarray(point, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    squared = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(cov), diff)
    return math.sqrt(squared) if diff.ndim == 1 else np.sqrt(squared)


# ---------------------------------------------------------------------------
# draw oracle

_FLOAT32_MAX = float(np.finfo(np.float32).max)


def sum3_reference(a0, a1, a2):
    """Three terms added as (a0 + a2) + a1, the sampler's fixed order."""
    return (a0 + a2) + a1


def cholesky3_reference(cov):
    """Lower Cholesky factor of one 3x3 SPD matrix, entry by entry in Python floats.

    The same sqrt, division and subtraction sequence as the closed form, read
    from the lower triangle. Returns the factor as a list of three rows.
    """
    c00, c10, c20 = cov[0][0], cov[1][0], cov[2][0]
    c11, c21, c22 = cov[1][1], cov[2][1], cov[2][2]
    l00 = math.sqrt(c00)
    l10 = c10 / l00
    l20 = c20 / l00
    l11 = math.sqrt(c11 - l10 * l10)
    l21 = (c21 - l20 * l10) / l11
    l22 = math.sqrt(c22 - l20 * l20 - l21 * l21)
    return [[l00, 0.0, 0.0], [l10, l11, 0.0], [l20, l21, l22]]


def sample_batch_reference(batch, scene, sigma_threshold, max_rounds):
    """One batch's draws, slot by slot in plain Python floats.

    Same generator key and the same first call for z, then each redraw round
    walks the batch's slots in row-major order, draws one fresh row for every
    slot still pending and writes it back by plain indexing. L is factored
    from the scene's covariance by :func:`cholesky3_reference`. Norms and the
    transform mu + L z add their three terms in the order (j0 + j2) + j1. A
    kept draw must also lie inside float32's range, checked in float64 before
    the cast. Returns (points float32, colours uint8, accepted per Gaussian,
    rejected draws) like ``sample_batch`` without ``out``.
    """
    indices = [int(g) for g in batch.gaussian_indices]
    count = batch.count_per_gaussian
    rng = np.random.Generator(np.random.Philox(key=np.uint64(batch.rng_seed)))
    threshold_sq = float(sigma_threshold) ** 2

    def outside(row):
        return sum3_reference(*(v * v for v in row)) > threshold_sq

    z = rng.standard_normal((len(indices), count, 3)).tolist()
    pending = [[outside(row) for row in rows] for rows in z]
    rejected = sum(map(sum, pending))
    for _ in range(max_rounds - 1):
        slots = [(g, c) for g in range(len(indices)) for c in range(count) if pending[g][c]]
        if not slots:
            break
        fresh = rng.standard_normal((len(slots), 3)).tolist()
        for (g, c), row in zip(slots, fresh):
            z[g][c] = row
            pending[g][c] = outside(row)
            rejected += pending[g][c]

    points, colours, accepted = [], [], []
    for g, gaussian in enumerate(indices):
        mean = scene.position[gaussian].tolist()
        chol = cholesky3_reference(scene.covariance[gaussian].tolist())
        colour = [min(255, max(0, math.floor(v * 255.0 + 0.5)))
                  for v in scene.point_colours()[gaussian].tolist()]
        kept = 0
        for c in range(count):
            if pending[g][c]:
                continue
            zc = z[g][c]
            point = [mean[i] + sum3_reference(*(chol[i][j] * zc[j] for j in range(3)))
                     for i in range(3)]
            if not all(abs(v) < _FLOAT32_MAX for v in point):  # NaN fails too
                rejected += 1
                continue
            points.append(point)
            colours.append(colour)
            kept += 1
        accepted.append(kept)
    return (np.array(points, dtype=np.float64).reshape(-1, 3).astype(np.float32),
            np.array(colours, dtype=np.uint8).reshape(-1, 3),
            np.array(accepted, dtype=np.int64), rejected)


# ---------------------------------------------------------------------------
# point-order oracle

def sample_scene_reference(scene, total, config):
    """Draw every batch with the oracle, then put the points in Gaussian order.

    Allocation and batch keys come from the package (the draws are keyed per
    batch); the draws come from :func:`sample_batch_reference`, and the
    assembly is independent too: every batch is concatenated, then a stable
    argsort by Gaussian id puts the points in Gaussian-index order.
    Returns (points, colours, gaussian_ids).
    """
    from splatcloud.sampler import allocate, build_batches, gaussian_volume

    counts = allocate(gaussian_volume(scene.log_scale), total,
                      "exact" if config.exact else "binned")
    points, colours, gaussian_ids = [], [], []
    for batch in build_batches(counts, config.seed):
        batch_points, batch_colours, accepted, _ = sample_batch_reference(
            batch, scene, config.sigma, config.max_resample_rounds)
        points.append(batch_points)
        colours.append(batch_colours)
        gaussian_ids.append(np.repeat(batch.gaussian_indices, accepted))
    gaussian_ids = np.concatenate(gaussian_ids)
    order = np.argsort(gaussian_ids, kind="stable")
    return (np.concatenate(points)[order], np.concatenate(colours)[order],
            gaussian_ids[order])
