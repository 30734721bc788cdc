"""Tiled software rasterizer with per-Gaussian contribution tracking.

Compositing follows the usual splatting conventions: front-to-back alpha
blending with a 0.99 alpha clamp, a 1/255 alpha skip, a 1e-4 transmittance
early-out and a +0.3 pixel low-pass on the projected covariance.

A Gaussian participates at a pixel only when the pixel lies inside the
Gaussian's integer-clipped 3-sigma screen bounding box. Tile membership is
derived from the same boxes, and each pixel composites its Gaussians in
depth order with the same floating-point operations in the same order
however the image is tiled or a tile is chunked. The rendered planes and
the per-Gaussian best contributions are therefore byte-identical for any
tile layout (subdivided or not), chunk size and thread count.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RenderConfig, map_threads
from .errors import DomainError
from .formats import atomic_write
from .sampler import quantize_colours
from .scene import ContributionState, GaussianScene
from .types import CameraPose

log = logging.getLogger(__name__)

NEAR_PLANE = 0.01
ALPHA_MAX = 0.99
ALPHA_MIN = 1.0 / 255.0
TRANSMITTANCE_EPS = 1e-4
COV2D_LOWPASS = 0.3

# Size, in (member, pixel) pairs, of the runs of whole members composited in
# one step. Pairs at pixels terminated by an earlier run are dropped, so
# shorter runs skip more work at a higher per-step overhead.
_CHUNK_PAIRS = 1 << 16

# Side of the base tile grid, in pixels.
TILE_SIZE = 64
# Largest members x pixels product of one tile; a tile over it is split into
# quadrants. The split changes no byte; it bounds the (depth + 1) x
# active-pixels cumprod grid that composite_tile builds per run, where one
# pixel can be up to _CHUNK_PAIRS deep. Without it one 64x64 tile can build a
# grid of about 2 GB.
TILE_BUDGET = 1 << 24


@dataclass
class ProjectedGaussians:
    """Columnar view of the Gaussians visible from one camera.

    Rows are sorted front to back by (depth, gaussian_index). ``bbox`` holds
    the integer-clipped half-open 3-sigma screen boxes (x0, y0, x1, y1).
    """

    gaussian_index: np.ndarray
    mean2d: np.ndarray
    cov2d: np.ndarray
    depth: np.ndarray
    opacity: np.ndarray
    bbox: np.ndarray

    def __len__(self) -> int:
        return len(self.gaussian_index)


@dataclass
class Tile:
    """A pixel rect plus the projected rows overlapping it, front to back."""

    x0: int
    y0: int
    x1: int
    y1: int
    members: np.ndarray
    level: int = 0  # 0 = base grid, >0 = produced by subdivision

    @property
    def pixels(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def product(self) -> int:
        return len(self.members) * self.pixels


@dataclass
class ImageBuffers:
    """Per-image output planes shared by all tiles of that image."""

    image: np.ndarray        # (H, W, 3) float64 in [0, 1]
    t_final: np.ndarray      # (H, W) transmittance after the last composited splat
    weight_sum: np.ndarray   # (H, W) sum of composited contributions
    terminated: np.ndarray   # (H, W) bool, True where the early-out fired

    @classmethod
    def allocate(cls, width: int, height: int) -> "ImageBuffers":
        return cls(
            image=np.zeros((height, width, 3)),
            t_final=np.ones((height, width)),
            weight_sum=np.zeros((height, width)),
            terminated=np.zeros((height, width), dtype=bool),
        )


@dataclass
class TileComposite:
    """Per-Gaussian best-pixel candidates produced by one tile."""

    rows: np.ndarray          # rows into the projection
    values: np.ndarray        # contribution at the best pixel
    pixel_index: np.ndarray   # global row-major pixel index
    colours: np.ndarray       # final colour of that pixel
    singular_skips: int = 0
    pairs_evaluated: int = 0  # in-box pairs at live pixels whose falloff was computed


@dataclass
class RenderStats:
    images_rendered: int = 0
    tiles: int = 0
    tiles_subdivided: int = 0
    max_tile_product: int = 0
    singular_skips: int = 0
    pairs_evaluated: int = 0
    pixels_terminated: int = 0


def project(scene: GaussianScene, pose: CameraPose) -> ProjectedGaussians:
    """Project means and covariances into screen space via the local Jacobian.

    Excludes Gaussians behind the near plane and those whose 3-sigma screen
    box misses the image entirely.
    """
    rot = pose.rotation
    cam = scene.position @ rot.T + pose.translation
    z = cam[:, 2]
    in_front = z > NEAR_PLANE

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_z = np.where(in_front, 1.0 / z, 0.0)
        mx = pose.fx * cam[:, 0] * inv_z + pose.cx
        my = pose.fy * cam[:, 1] * inv_z + pose.cy

        cov_cam = np.einsum("ij,njk,lk->nil", rot, scene.covariance, rot)
        jac = np.zeros((scene.count, 2, 3))
        jac[:, 0, 0] = pose.fx * inv_z
        jac[:, 0, 2] = -pose.fx * cam[:, 0] * inv_z * inv_z
        jac[:, 1, 1] = pose.fy * inv_z
        jac[:, 1, 2] = -pose.fy * cam[:, 1] * inv_z * inv_z
        cov2d = np.einsum("nij,njk,nlk->nil", jac, cov_cam, jac)
    cov2d[:, 0, 0] += COV2D_LOWPASS
    cov2d[:, 1, 1] += COV2D_LOWPASS

    with np.errstate(invalid="ignore"):
        rx = 3.0 * np.sqrt(cov2d[:, 0, 0])
        ry = 3.0 * np.sqrt(cov2d[:, 1, 1])
        x0 = np.clip(np.floor(mx - rx), 0, pose.width)
        x1 = np.clip(np.ceil(mx + rx), 0, pose.width)
        y0 = np.clip(np.floor(my - ry), 0, pose.height)
        y1 = np.clip(np.ceil(my + ry), 0, pose.height)

    finite = (
        np.isfinite(mx) & np.isfinite(my)
        & np.isfinite(cov2d).all(axis=(1, 2))
        & np.isfinite(rx) & np.isfinite(ry)
    )
    keep = in_front & finite & (x1 > x0) & (y1 > y0)

    indices = np.nonzero(keep)[0]
    order = np.lexsort((indices, z[indices]))
    rows = indices[order]
    bbox = np.stack([x0[rows], y0[rows], x1[rows], y1[rows]], axis=1).astype(np.int64)
    return ProjectedGaussians(
        gaussian_index=rows,
        mean2d=np.stack([mx[rows], my[rows]], axis=1),
        cov2d=cov2d[rows],
        depth=z[rows],
        opacity=scene.opacity[rows],
        bbox=bbox,
    )


def tile_scene(projected: ProjectedGaussians, width: int, height: int,
               budget: int, tile_size: int = TILE_SIZE) -> list[Tile]:
    """Partition the image into tiles whose gaussians x pixels fit the budget.

    Starts from a regular ``tile_size`` grid; any tile over budget is split
    into four quadrants recursively until the product fits or the tile is a
    single pixel. Member lists keep the projection's row order, which
    :func:`project` makes front to back.
    """
    if budget < 1:
        raise DomainError(f"tile budget must be positive, got {budget}")
    tiles_x = (width + tile_size - 1) // tile_size
    tiles_y = (height + tile_size - 1) // tile_size

    # (row, tile) incidence pairs, ordered by (tile, row)
    bbox = projected.bbox
    if len(projected):
        tx0 = bbox[:, 0] // tile_size
        ty0 = bbox[:, 1] // tile_size
        tx1 = (bbox[:, 2] - 1) // tile_size
        ty1 = (bbox[:, 3] - 1) // tile_size
        spans_x = tx1 - tx0 + 1
        spans_y = ty1 - ty0 + 1
        counts = spans_x * spans_y
        row_of_pair = np.repeat(np.arange(len(projected)), counts)
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        local_x = offset % np.repeat(spans_x, counts)
        local_y = offset // np.repeat(spans_x, counts)
        tile_key = (np.repeat(ty0, counts) + local_y) * tiles_x + np.repeat(tx0, counts) + local_x
        order = np.argsort(tile_key, kind="stable")  # row_of_pair is ascending
        tile_key = tile_key[order]
        row_of_pair = row_of_pair[order]
        boundaries = np.searchsorted(tile_key, np.arange(tiles_x * tiles_y + 1))
    else:
        row_of_pair = np.zeros(0, dtype=np.int64)
        boundaries = np.zeros(tiles_x * tiles_y + 1, dtype=np.int64)

    out: list[Tile] = []
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            key = ty * tiles_x + tx
            members = row_of_pair[boundaries[key]:boundaries[key + 1]]
            rect = (
                tx * tile_size, ty * tile_size,
                min((tx + 1) * tile_size, width), min((ty + 1) * tile_size, height),
            )
            _subdivide(rect, members, 0, projected, budget, out)
    return out


def _subdivide(rect, members, level, projected, budget, out):
    x0, y0, x1, y1 = rect
    pixels = (x1 - x0) * (y1 - y0)
    if len(members) * pixels <= budget or (x1 - x0 == 1 and y1 - y0 == 1):
        out.append(Tile(x0, y0, x1, y1, members, level))
        return
    xm = x0 + (x1 - x0) // 2 if x1 - x0 >= 2 else x1
    ym = y0 + (y1 - y0) // 2 if y1 - y0 >= 2 else y1
    bbox = projected.bbox[members]
    for qy0, qy1 in ((y0, ym), (ym, y1)):
        for qx0, qx1 in ((x0, xm), (xm, x1)):
            if qx1 <= qx0 or qy1 <= qy0:
                continue
            inside = (
                (bbox[:, 0] < qx1) & (bbox[:, 2] > qx0)
                & (bbox[:, 1] < qy1) & (bbox[:, 3] > qy0)
            )
            _subdivide((qx0, qy0, qx1, qy1), members[inside], level + 1,
                       projected, budget, out)


def composite_tile(tile: Tile, projected: ProjectedGaussians, scene: GaussianScene,
                   buffers: ImageBuffers, *, background=(0.0, 0.0, 0.0)) -> TileComposite:
    """Composite one tile front to back and report best-pixel candidates.

    Each member's box, clipped to the tile, expands into (member, pixel)
    pairs, a run of whole members at a time in depth order. Pairs at pixels
    whose transmittance fell below the early-out in an earlier run are
    dropped before their falloff is evaluated.

    Writes the tile's rect into ``buffers`` and returns the tile's
    candidates; ``render_image`` merges them into the contribution state.
    """
    background = np.asarray(background, dtype=np.float64)
    image_width = buffers.image.shape[1]
    width, height = tile.x1 - tile.x0, tile.y1 - tile.y0
    npix = width * height

    rows = tile.members
    singular = 0
    if len(rows):
        cov = projected.cov2d[rows]
        det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] * cov[:, 1, 0]
        good = np.isfinite(det) & (det > 0)
        singular = int(np.count_nonzero(~good))
        if singular:
            rows = rows[good]
            cov = cov[good]
            det = det[good]

    # per-pixel state, row-major over the tile
    transmittance = np.ones(npix)
    done = np.zeros(npix, dtype=bool)
    colour_sum = np.zeros((3, npix))
    weight_sum = np.zeros(npix)

    m = len(rows)
    best_values = np.zeros(m)
    best_local = np.full(m, npix, dtype=np.int64)
    evaluated = 0
    if m:
        inv00 = cov[:, 1, 1] / det
        inv01x2 = 2.0 * (-cov[:, 0, 1] / det)
        inv11 = cov[:, 0, 0] / det
        mean_x = projected.mean2d[rows, 0]
        mean_y = projected.mean2d[rows, 1]
        opacity = projected.opacity[rows]
        colours = scene.base_colour[projected.gaussian_index[rows]]
        # quad beyond this bound implies alpha < 1/255 with margin to spare
        with np.errstate(divide="ignore"):
            quad_cut = 2.0 * (np.log(255.0) + np.log(opacity)) + 1e-9
        box = np.clip(projected.bbox[rows] - [tile.x0, tile.y0, tile.x0, tile.y0],
                      0, [width, height, width, height])
        box_w = box[:, 2] - box[:, 0]
        area = box_w * (box[:, 3] - box[:, 1])
        # a new run starts with the member whose first pair crosses a multiple
        # of _CHUNK_PAIRS
        run = (np.cumsum(area) - area) // _CHUNK_PAIRS
        bounds = np.flatnonzero(np.diff(run, prepend=-1, append=run[-1] + 1))
        key_type = np.min_scalar_type(npix - 1)  # 16-bit keys sort by radix
        all_pixels = np.arange(npix)

        for lo, hi in zip(bounds[:-1], bounds[1:]):
            counts = area[lo:hi]
            member = np.repeat(np.arange(lo, hi), counts)
            offset = np.arange(len(member)) - np.repeat(np.cumsum(counts) - counts, counts)
            local_y, local_x = np.divmod(offset, np.repeat(box_w[lo:hi], counts))
            local_x += np.repeat(box[lo:hi, 0], counts)
            local_y += np.repeat(box[lo:hi, 1], counts)
            pixel = local_y * width + local_x
            live = np.flatnonzero(~done[pixel])
            member, pixel = member[live], pixel[live]
            evaluated += len(member)

            # Falloff per pair. Outputs are compared byte for byte across
            # tile layouts and chunk sizes, so keep this operation order.
            dx = (local_x[live] + tile.x0 + 0.5) - mean_x[member]
            dy = (local_y[live] + tile.y0 + 0.5) - mean_y[member]
            quad = inv00[member] * dx * dx + inv01x2[member] * dx * dy + inv11[member] * dy * dy
            near = np.flatnonzero(quad <= quad_cut[member])
            alpha = np.exp(-0.5 * quad[near])
            alpha *= opacity[member[near]]
            np.minimum(alpha, ALPHA_MAX, out=alpha)
            visible = alpha >= ALPHA_MIN
            if not visible.any():
                continue
            near, alpha = near[visible], alpha[visible]

            # stable sort keeps each pixel's pairs front to back
            order = np.argsort(pixel[near].astype(key_type), kind="stable")
            member, pixel, alpha = member[near[order]], pixel[near[order]], alpha[order]
            first = np.flatnonzero(np.diff(pixel, prepend=-1))
            active = pixel[first]
            depth = np.diff(first, append=len(pixel))
            slot = np.repeat(np.arange(len(active)), depth)
            before = (np.arange(len(pixel)) - np.repeat(first, depth)) * len(active) + slot
            after = before + len(active)

            # Row 0 carries each active pixel's transmittance in, row k + 1
            # holds 1 - alpha of its k-th pair; cumprod runs down each column
            # in order, which is the per-pixel recurrence bit for bit.
            grid = np.ones((depth.max() + 1, len(active)))
            grid[0] = transmittance[active]
            flat = grid.reshape(-1)
            flat[after] = 1.0 - alpha
            np.cumprod(grid, axis=0, out=grid)
            alive = flat[after] >= TRANSMITTANCE_EPS  # a prefix of each pixel's pairs
            kept = np.bincount(slot[alive], minlength=len(active))
            transmittance[active] = grid[kept, np.arange(len(active))]
            done[active[kept < depth]] = True

            weight = alpha[alive] * flat[before[alive]]
            member, pixel = member[alive], pixel[alive]
            # bincount adds in input order: the carried sum, then pairs front to back
            bins = np.concatenate([all_pixels, pixel])
            weight_sum = np.bincount(bins, np.concatenate([weight_sum, weight]), npix)
            for c in range(3):
                colour_sum[c] = np.bincount(
                    bins, np.concatenate([colour_sum[c], weight * colours[member, c]]), npix)

            # a member's pairs all fall in one run: strictly larger wins,
            # ties go to the lower pixel
            np.maximum.at(best_values, member, weight)
            tie = weight == best_values[member]
            np.minimum.at(best_local, member[tie], pixel[tie])

    pixels = colour_sum.T + transmittance[:, None] * background
    buffers.image[tile.y0:tile.y1, tile.x0:tile.x1] = pixels.reshape(height, width, 3)
    buffers.t_final[tile.y0:tile.y1, tile.x0:tile.x1] = transmittance.reshape(height, width)
    buffers.weight_sum[tile.y0:tile.y1, tile.x0:tile.x1] = weight_sum.reshape(height, width)
    buffers.terminated[tile.y0:tile.y1, tile.x0:tile.x1] = done.reshape(height, width)

    contributing = np.flatnonzero(best_values > 0.0)
    local = best_local[contributing]
    return TileComposite(
        rows=rows[contributing],
        values=best_values[contributing],
        pixel_index=(tile.y0 + local // width) * image_width + tile.x0 + local % width,
        colours=pixels[local],
        singular_skips=singular,
        pairs_evaluated=evaluated,
    )


def render_image(scene: GaussianScene, pose: CameraPose, config: RenderConfig,
                 image_rank: int = 0,
                 contributions: ContributionState | None = None,
                 ) -> tuple[ImageBuffers, RenderStats]:
    """Render one camera view, updating ``contributions`` when given."""
    stats = RenderStats(images_rendered=1)
    projected = project(scene, pose)

    tiles = tile_scene(projected, pose.width, pose.height, TILE_BUDGET, TILE_SIZE)
    stats.tiles = len(tiles)
    stats.tiles_subdivided = sum(1 for t in tiles if t.level > 0)
    stats.max_tile_product = max((t.product for t in tiles), default=0)

    buffers = ImageBuffers.allocate(pose.width, pose.height)

    def run_tile(tile: Tile) -> TileComposite:
        return composite_tile(tile, projected, scene, buffers, background=config.background)

    results = map_threads(run_tile, tiles, config.threads)

    stats.pixels_terminated = int(np.count_nonzero(buffers.terminated))
    for piece in results:
        stats.singular_skips += piece.singular_skips
        stats.pairs_evaluated += piece.pairs_evaluated
        if contributions is not None and len(piece.rows):
            contributions.offer(
                projected.gaussian_index[piece.rows], piece.values, piece.colours,
                image_rank, piece.pixel_index, pose.camera_centre,
            )
    return buffers, stats


def render_all(scene: GaussianScene, poses: list[CameraPose],
               config: RenderConfig) -> RenderStats:
    """Render every pose and leave the per-Gaussian best colours in the scene.

    Replaces ``scene.contribution`` with the state of this pass.

    Poses are processed in a deterministic order (stable sort by image_id);
    ``skip_cameras=k`` with k >= 2 drops every k-th pose from that order.
    """
    if not poses:
        raise DomainError("rendering requires at least one camera pose")

    ordered = sorted(poses, key=lambda p: p.image_id)
    if config.skip_cameras >= 2:
        ordered = [p for i, p in enumerate(ordered)
                   if (i + 1) % config.skip_cameras != 0]
        if not ordered:
            raise DomainError("--skip-cameras removed every pose")
    if config.render_scale != 1.0:
        ordered = [p.scaled(config.render_scale) for p in ordered]

    scene.contribution = ContributionState.initial(scene.count, config.background)

    if config.save_renders is not None:
        Path(config.save_renders).mkdir(parents=True, exist_ok=True)

    views = []
    started = time.perf_counter()
    for rank, pose in enumerate(ordered):
        buffers, stats = render_image(scene, pose, config, rank, scene.contribution)
        views.append(stats)
        if config.save_renders is not None:
            write_ppm(Path(config.save_renders) / f"render_{rank:04d}.ppm", buffers.image)
        elapsed = time.perf_counter() - started
        remaining = len(ordered) - rank - 1
        log.info("rendered view %d/%d (image_id=%s), %.1fs elapsed, ETA %.1fs",
                 rank + 1, len(ordered), pose.image_id, elapsed,
                 elapsed / (rank + 1) * remaining)
    total = RenderStats(**{f.name: sum(getattr(v, f.name) for v in views)
                           for f in fields(RenderStats)})
    total.max_tile_product = max(v.max_tile_product for v in views)
    return total


def write_ppm(path, image: np.ndarray) -> None:
    """Write a float image as binary 8-bit PPM (P6); bit-exact baseline dump."""
    data = quantize_colours(image)
    height, width = data.shape[:2]
    with atomic_write(path) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
