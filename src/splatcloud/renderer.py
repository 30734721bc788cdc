"""Tiled software rasterizer with per-Gaussian contribution tracking.

Compositing follows the usual splatting conventions: front-to-back alpha
blending with a 0.99 alpha clamp, a 1/255 alpha skip, a 1e-4 transmittance
early-out and a +0.3 pixel low-pass on the projected covariance.

A Gaussian participates at a pixel only when the pixel lies inside the
Gaussian's integer-clipped 3-sigma screen bounding box. Tiles come from one
overlap rule on the same boxes: the image is split down the 64-pixel grid,
then any grid tile over budget into quadrants, and a rect's members are the
rows of its parent whose box overlaps it. Each pixel composites its
Gaussians in depth order with the same floating-point operations in the
same order however the image is tiled or a tile is chunked. The rendered
planes and the per-Gaussian best contributions are therefore byte-identical
for any tile layout (subdivided or not), chunk size and worker count.

A tile composites its members in runs of about ``_CHUNK_PAIRS`` (member,
pixel) pairs. A run skips members whose clipped box holds no pixel left
live by the runs before it, and drops the pairs of the others at such
pixels, as 3DGS's tile-level early termination does. The colour sums come
after the last run, from the kept pairs in run order; the colour pass sums
them only at the pixels its candidates read. ``render_all`` renders views
in forked worker processes (or one after another in this process where it
cannot fork or has one worker), each compositing its tiles serially into
its own contribution state. The views left over once every worker has as
many whole views have their tiles dealt to every worker by estimated
cost. Tiles are independent and the contribution merge is a total order,
so each worker's state merges into this process's as it arrives and
neither the dealing nor the merge order changes a byte.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import RenderConfig
from .errors import DomainError
from .formats import atomic_write
from .sampler import quantize_colours
from .scene import ContributionState, GaussianScene
from .types import CameraPose, dot3
from .workers import fork_workers, map_forked

log = logging.getLogger(__name__)

NEAR_PLANE = 0.01
ALPHA_MAX = 0.99
ALPHA_MIN = 1.0 / 255.0
TRANSMITTANCE_EPS = 1e-4
COV2D_LOWPASS = 0.3

# Size, in (member, pixel) pairs, of the runs of whole members composited in
# one step. Members and pairs at pixels terminated by an earlier run are
# dropped, so shorter runs skip more work at a higher per-step overhead.
_CHUNK_PAIRS = 1 << 15

# Side of the base tile grid, in pixels.
TILE_SIZE = 64
# Largest members x pixels product of one tile; a tile over it is split into
# quadrants. The split changes no byte; it bounds the (depth + 1) x
# active-pixels cumprod grid that composite_tile builds per run, where one
# pixel can be up to _CHUNK_PAIRS deep. Without it one 64x64 tile can build a
# grid of about 1 GB.
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
    cam = dot3(scene.position[:, None, :], rot) + pose.translation
    z = cam[:, 2]
    in_front = z > NEAR_PLANE

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_z = np.where(in_front, 1.0 / z, 0.0)
        mx = pose.fx * cam[:, 0] * inv_z + pose.cx
        my = pose.fy * cam[:, 1] * inv_z + pose.cy

        # T = J R: row l is (f_l / z) R_l - (f_l cam_l / z^2) R_2, from J's non-zero entries
        focal = np.array([pose.fx, pose.fy])
        iz = inv_z[:, None]
        t = (focal * iz)[..., None] * rot[:2] - (focal * cam[:, :2] * iz * iz)[..., None] * rot[2]
        ct = dot3(scene.covariance[:, None, :, :], t[:, :, None, :])  # [n, l, j] = (C T^T)[j, l]
        cov2d = dot3(t[:, :, None, :], ct[:, None, :, :])  # T (C T^T)
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
               budget: int) -> list[Tile]:
    """Partition the image into tiles whose gaussians x pixels fit the budget.

    Splits the whole image down the ``TILE_SIZE`` grid, then splits any grid
    tile over budget into four quadrants recursively until the product fits
    or the tile is a single pixel. A rect's members are the rows of its
    parent whose box overlaps it, in the projection's row order, which
    :func:`project` makes front to back.
    """
    if budget < 1:
        raise DomainError(f"tile budget must be positive, got {budget}")
    members = np.flatnonzero(_overlaps(projected.bbox, 0, 0, width, height))
    out: list[Tile] = []
    _subdivide((0, 0, width, height), members, 0, projected.bbox, budget, out)
    return out


def _overlaps(bbox, x0, y0, x1, y1):
    """Rows of ``bbox`` whose half-open box meets the rect (x0, y0, x1, y1)."""
    return (bbox[:, 0] < x1) & (bbox[:, 2] > x0) & (bbox[:, 1] < y1) & (bbox[:, 3] > y0)


def _subdivide(rect, members, level, bbox, budget, out):
    x0, y0, x1, y1 = rect
    w, h = x1 - x0, y1 - y0
    if w > TILE_SIZE or h > TILE_SIZE:  # cut down the grid, half the cells each side
        xm = x0 + -(-w // TILE_SIZE) // 2 * TILE_SIZE
        ym = y0 + -(-h // TILE_SIZE) // 2 * TILE_SIZE
    elif len(members) * w * h <= budget or w * h == 1:
        out.append(Tile(x0, y0, x1, y1, members, level))
        return
    else:
        xm, ym, level = x0 + w // 2, y0 + h // 2, level + 1
    boxes = bbox[members]
    for qy0, qy1 in ((y0, ym), (ym, y1)):
        for qx0, qx1 in ((x0, xm), (xm, x1)):
            if qx1 > qx0 and qy1 > qy0:
                inside = _overlaps(boxes, qx0, qy0, qx1, qy1)
                _subdivide((qx0, qy0, qx1, qy1), members[inside], level, bbox, budget, out)


def tile_shares(tiles: list[Tile], bbox: np.ndarray, parts: int) -> list[list[Tile]]:
    """Deal ``tiles`` into ``parts`` shares of about equal estimated cost.

    A tile's estimate is the summed area of its members' boxes clipped to
    the tile, the pairs it would evaluate with no pixel terminated. Tiles go
    largest estimate first (ties to the lower tile index), each to the share
    with the lowest total so far (ties to the lower share), so the largest
    and smallest totals differ by at most one tile's estimate. Each share
    keeps the order of ``tiles``.
    """
    if parts == 1:
        return [tiles]
    estimate = []
    for tile in tiles:
        boxes = bbox[tile.members]
        width = np.minimum(boxes[:, 2], tile.x1) - np.maximum(boxes[:, 0], tile.x0)
        height = np.minimum(boxes[:, 3], tile.y1) - np.maximum(boxes[:, 1], tile.y0)
        estimate.append(int(np.dot(width, height)))
    totals = [0] * parts
    owner = [0] * len(tiles)
    for index in sorted(range(len(tiles)), key=lambda i: -estimate[i]):  # stable
        owner[index] = min(range(parts), key=totals.__getitem__)  # the first lowest
        totals[owner[index]] += estimate[index]
    return [[tile for tile, share in zip(tiles, owner) if share == part]
            for part in range(parts)]


def composite_tile(tile: Tile, projected: ProjectedGaussians, scene: GaussianScene,
                   buffers: ImageBuffers, *, background=(0.0, 0.0, 0.0),
                   planes: bool = True) -> TileComposite:
    """Composite one tile front to back and report best-pixel candidates.

    Each member's box, clipped to the tile, expands into (member, pixel)
    pairs, a run of whole members at a time in depth order. Pixels whose
    transmittance fell below the early-out in an earlier run are dead: a
    member whose box holds no live pixel (counted with a summed-area table)
    makes no pairs, and pairs at dead pixels are dropped before their
    falloff is evaluated. Each pixel sums its pairs' colours front to back,
    run after run, the additions a per-pixel loop makes.

    Writes the tile's rect of ``buffers.terminated`` and returns the tile's
    candidates; ``render_image`` merges them into the contribution state.
    With ``planes`` it also writes the rect's ``image``, ``t_final`` and
    ``weight_sum`` and sums colours at every pixel, adding each run's pairs
    in with ``np.add.at`` before the next run starts; without, each run keeps
    its surviving (member, pixel, weight) triples, and after the last run one
    ``bincount`` per channel sums them only at the members' best pixels, the
    only colours the candidates read.
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
    triples = []  # without planes, per run: its surviving (member, pixel, weight) triples

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
        box_w, box_h = box[:, 2] - box[:, 0], box[:, 3] - box[:, 1]
        area = box_w * box_h
        # a new run starts with the member whose first pair crosses a multiple
        # of _CHUNK_PAIRS
        run = (np.cumsum(area) - area) // _CHUNK_PAIRS
        bounds = np.flatnonzero(np.diff(run, prepend=-1, append=run[-1] + 1))
        key_type = np.min_scalar_type(npix - 1)  # 16-bit keys sort by radix
        # each pixel's centre in image coordinates
        centre_x = np.tile(np.arange(tile.x0, tile.x1) + 0.5, height)
        centre_y = np.repeat(np.arange(tile.y0, tile.y1) + 0.5, width)

        for lo, hi in zip(bounds[:-1], bounds[1:]):
            run_rows = np.arange(lo, hi)
            if done.any():
                # live pixels in each box: a summed-area table of ~done
                table = np.zeros((height + 1, width + 1), dtype=np.int64)
                np.cumsum(np.cumsum(~done.reshape(height, width), axis=0), axis=1,
                          out=table[1:, 1:])
                x0, y0, x1, y1 = box[lo:hi].T
                live_px = table[y1, x1] - table[y0, x1] - table[y1, x0] + table[y0, x0]
                run_rows = run_rows[live_px > 0]
            # pairs member by member, each clipped box row by row: the i-th
            # pair of a box row lies i pixels right of the row's first pixel
            heights = box_h[run_rows]
            box_y = np.arange(heights.sum()) - np.repeat(np.cumsum(heights) - heights, heights)
            box_y += np.repeat(box[run_rows, 1], heights)
            widths = np.repeat(box_w[run_rows], heights)
            starts = box_y * width + np.repeat(box[run_rows, 0], heights)
            member = np.repeat(run_rows, area[run_rows])
            pixel = np.arange(len(member)) + np.repeat(starts - (np.cumsum(widths) - widths),
                                                       widths)
            live = np.flatnonzero(~done[pixel])
            member, pixel = member[live], pixel[live]
            evaluated += len(member)

            # Falloff per pair. Outputs are compared byte for byte across
            # tile layouts and chunk sizes, so keep this operation order.
            dx = centre_x[pixel] - mean_x[member]
            dy = centre_y[pixel] - mean_y[member]
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
            key = pixel[near].astype(key_type)
            order = np.argsort(key, kind="stable")
            member, alpha = member[near[order]], alpha[order]
            depth = np.bincount(key, minlength=npix)  # pairs per pixel
            active = np.flatnonzero(depth)
            depth = depth[active]
            first = np.cumsum(depth) - depth
            pixel = np.repeat(active, depth)
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
            if planes:  # add.at adds in pair order, as the bincount below does
                for c in range(3):
                    np.add.at(colour_sum[c], pixel, weight * colours[member, c])
                np.add.at(weight_sum, pixel, weight)
            else:
                triples.append((member.astype(np.int32), pixel.astype(key_type), weight))

            # a member's pairs all fall in one run: strictly larger wins,
            # ties go to the lower pixel
            np.maximum.at(best_values, member, weight)
            tie = weight == best_values[member]
            np.minimum.at(best_local, member[tie], pixel[tie])

    contributing = np.flatnonzero(best_values > 0.0)
    local = best_local[contributing]
    if triples:  # only the best pixels' sums are read
        wanted = np.zeros(npix, dtype=bool)
        wanted[local] = True
        for i, (member, pixel, weight) in enumerate(triples):
            take = wanted[pixel]
            triples[i] = member[take], pixel[take], weight[take]
        # bincount adds in input order from 0, so each pixel adds its pairs
        # front to back, run after run: the sum a per-pixel loop carries
        member, pixel, weight = (np.concatenate(column) for column in zip(*triples))
        del triples
        for c in range(3):
            colour_sum[c] = np.bincount(pixel, weight * colours[member, c], npix)

    buffers.terminated[tile.y0:tile.y1, tile.x0:tile.x1] = done.reshape(height, width)
    if planes:
        pixels = colour_sum.T + transmittance[:, None] * background
        buffers.image[tile.y0:tile.y1, tile.x0:tile.x1] = pixels.reshape(height, width, 3)
        buffers.t_final[tile.y0:tile.y1, tile.x0:tile.x1] = transmittance.reshape(height, width)
        buffers.weight_sum[tile.y0:tile.y1, tile.x0:tile.x1] = weight_sum.reshape(height, width)

    return TileComposite(
        rows=rows[contributing],
        values=best_values[contributing],
        pixel_index=(tile.y0 + local // width) * image_width + tile.x0 + local % width,
        colours=colour_sum[:, local].T + transmittance[local, None] * background,
        singular_skips=singular,
        pairs_evaluated=evaluated,
    )


def render_image(scene: GaussianScene, pose: CameraPose, config: RenderConfig,
                 image_rank: int = 0,
                 contributions: ContributionState | None = None,
                 *, planes: bool = True, share: tuple[int, int] = (0, 1),
                 ) -> tuple[ImageBuffers, RenderStats]:
    """Render one camera view, offering each tile's candidates to ``contributions``.

    Composites the tiles one after another, in ``tile_scene``'s order.
    ``share=(part, parts)`` composites only the tiles ``tile_shares`` deals
    to ``part``: the buffers and stats then hold those tiles alone, and only
    part 0 counts the image as rendered. ``planes`` is passed on to
    ``composite_tile``; without it only ``terminated`` is written.
    """
    part, parts = share
    stats = RenderStats(images_rendered=int(part == 0))
    projected = project(scene, pose)

    tiles = tile_scene(projected, pose.width, pose.height, TILE_BUDGET)
    tiles = tile_shares(tiles, projected.bbox, parts)[part]
    stats.tiles = len(tiles)
    stats.tiles_subdivided = sum(1 for t in tiles if t.level > 0)
    stats.max_tile_product = max((t.product for t in tiles), default=0)

    buffers = ImageBuffers.allocate(pose.width, pose.height)
    for tile in tiles:
        piece = composite_tile(tile, projected, scene, buffers, background=config.background,
                               planes=planes)
        stats.singular_skips += piece.singular_skips
        stats.pairs_evaluated += piece.pairs_evaluated
        if contributions is not None and len(piece.rows):
            contributions.offer(projected.gaussian_index[piece.rows], piece.values, piece.colours,
                                (image_rank << 32) + piece.pixel_index)
    stats.pixels_terminated = int(np.count_nonzero(buffers.terminated))
    return buffers, stats


def render_all(scene: GaussianScene, poses: list[CameraPose],
               config: RenderConfig) -> RenderStats:
    """Render every pose and leave the per-Gaussian best colours in the scene.

    Replaces ``scene.contribution`` with the state of this pass, whose
    ``views`` are the poses in the order below, each rendered at its rank.

    Poses are processed in a deterministic order (stable sort by image_id);
    ``skip_cameras=k`` with k >= 2 drops every k-th pose from that order.
    With W worker processes and no ``save_renders``, the first V - V mod W
    views render whole, and each worker then takes a share of the tiles of
    one of the V mod W views left over, so no worker sits idle while
    another renders a last whole view; the full image planes are then not
    composited either. ``save_renders`` renders every view whole, with its
    planes.

    At W >= 2 the workers are forked children and this process renders no
    view: it logs each view as its last share arrives and merges each
    worker's reached rows into ``scene.contribution`` as they arrive, so it
    holds its own state and at most one worker's rows. At one worker, or
    without ``os.fork``, the views render here, one after another.
    """
    if not poses:
        raise DomainError("rendering requires at least one camera pose")

    ordered = sorted(poses, key=lambda p: p.image_id)
    if config.skip_cameras >= 2:
        ordered = [p for i, p in enumerate(ordered)
                   if (i + 1) % config.skip_cameras != 0]
    if config.render_scale != 1.0:
        ordered = [p.scaled(config.render_scale) for p in ordered]

    scene.contribution = ContributionState.initial(scene.count, config.background, ordered)

    planes = config.save_renders is not None
    if planes:
        Path(config.save_renders).mkdir(parents=True, exist_ok=True)

    # Items are (rank, (part, parts)): whole views, then, when views are left
    # over, one item per worker k, part k // left of the view whole + k % left
    # among the workers sharing it. Item i runs on worker i % workers, so
    # worker k takes tail item whole + k.
    workers = fork_workers(config.threads, len(ordered))
    left = 0 if planes else len(ordered) % workers
    whole = len(ordered) - left
    items = [(rank, (0, 1)) for rank in range(whole)]
    items += [(whole + k % left, (k // left, len(range(k % left, workers, left))))
              for k in range(workers if left else 0)]
    pending = Counter(rank for rank, _ in items)  # shares still to arrive, per view

    # Each item composites its tiles serially; map_forked spreads the items
    # over worker processes where it can fork. A forked child offers into its
    # copy of scene.contribution, still the initial state, as map_forked forks
    # every child before any worker's state is merged here.
    def render_item(item):
        rank, share = item
        buffers, stats = render_image(scene, ordered[rank], config, rank, scene.contribution,
                                      planes=planes, share=share)
        if planes:
            write_ppm(Path(config.save_renders) / f"render_{rank:04d}.ppm", buffers.image)
        return rank, stats

    rendered = []
    started = time.perf_counter()

    def log_view(result):
        rank, stats = result
        rendered.append(stats)
        pending[rank] -= 1
        if pending[rank]:
            return
        del pending[rank]
        done = len(ordered) - len(pending)
        elapsed = time.perf_counter() - started
        log.info("rendered view %d/%d (image_id=%s), %.1fs elapsed, ETA %.1fs",
                 done, len(ordered), ordered[rank].image_id, elapsed,
                 elapsed / done * (len(ordered) - done))

    # each forked child sends its state once, after its last item
    map_forked(render_item, items, config.threads, log_view, scene.contribution.reached,
               lambda reached: scene.contribution.offer(*reached))
    total = RenderStats(**{f.name: sum(getattr(s, f.name) for s in rendered)
                           for f in fields(RenderStats)})
    total.max_tile_product = max(s.max_tile_product for s in rendered)
    return total


def write_ppm(path, image: np.ndarray) -> None:
    """Write a float image as binary 8-bit PPM (P6); bit-exact baseline dump."""
    data = quantize_colours(image)
    height, width = data.shape[:2]
    with atomic_write(path) as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
