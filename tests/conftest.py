"""Shared fixtures: synthetic scenes, cameras and on-disk format fixtures."""

from __future__ import annotations

import importlib.util
import os
import struct
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import reference`

# The package sources, for tests that start a fresh interpreter.
SRC = Path(__file__).resolve().parents[1] / "src"

from splatcloud.errors import DomainError
from splatcloud.scene import SH_C0, ContributionState, activate, sigmoid
from splatcloud.types import CameraPose, RawGaussians, quantize_colours

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Derandomized and without an example database, so every run tries the
    # same bounded set of examples.
    settings.register_profile("splatcloud", derandomize=True, deadline=None, database=None,
                              max_examples=100)
    settings.load_profile("splatcloud")


def perfbench_gen():
    """The benchmark's input generator, ``perfbench/gen.py``, as a module."""
    path = SRC.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def random_records(rng, n, *, spread=1.0, log_scale_range=(-2.5, -0.5),
                   opacity_logit_range=(-1.0, 3.0)) -> RawGaussians:
    # one row at a time, in the same draw order as ever, so seeded scenes never change
    columns = {"position": np.empty((n, 3)), "log_scale": np.empty((n, 3)),
               "rotation": np.empty((n, 4)), "logit_opacity": np.empty(n),
               "sh_dc": np.empty((n, 3))}
    for i in range(n):
        quat = rng.standard_normal(4)
        columns["position"][i] = rng.uniform(-spread, spread, 3)
        columns["log_scale"][i] = rng.uniform(*log_scale_range, 3)
        columns["rotation"][i] = quat / np.linalg.norm(quat)
        columns["logit_opacity"][i] = rng.uniform(*opacity_logit_range)
        columns["sh_dc"][i] = rng.uniform(-1.5, 1.5, 3)
    return RawGaussians(**columns)


def concat(*parts: RawGaussians) -> RawGaussians:
    """Rows of every part, in order."""
    return RawGaussians(**{
        f.name: np.concatenate([getattr(part, f.name) for part in parts])
        for f in fields(RawGaussians)
    })


def random_scene(rng, n, **kwargs):
    return activate(random_records(rng, n, **kwargs))


def frontal_pose(image_id=0, width=64, height=64, focal=60.0, distance=5.0,
                 centre_offset=(0.0, 0.0)) -> CameraPose:
    """Camera on the -Z axis looking towards the origin (COLMAP convention)."""
    world_to_camera = np.eye(4)
    world_to_camera[2, 3] = distance
    return CameraPose(
        image_id=image_id,
        width=width, height=height,
        fx=focal, fy=focal,
        cx=width / 2.0 + centre_offset[0],
        cy=height / 2.0 + centre_offset[1],
        world_to_camera=world_to_camera,
    )


def orbit_pose(image_id, angle, width=64, height=64, focal=60.0, distance=5.0) -> CameraPose:
    """Camera orbiting the origin in the XZ plane, looking at the origin."""
    c, s = np.cos(angle), np.sin(angle)
    # rotate about the world Y axis, then push back so the origin sits at +distance
    rotation = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    world_to_camera = np.eye(4)
    world_to_camera[:3, :3] = rotation
    world_to_camera[2, 3] = distance
    return CameraPose(
        image_id=image_id, width=width, height=height,
        fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
        world_to_camera=world_to_camera,
    )


def state_bytes(state: ContributionState) -> list[bytes]:
    """The bytes of every per-Gaussian column of a contribution state."""
    return [getattr(state, f.name).tobytes() for f in fields(state)
            if isinstance(getattr(state, f.name), np.ndarray)]


def seen_from(count, centres) -> ContributionState:
    """A state whose row i was seen best by a camera centred at ``centres[i]``.

    One pose per distinct centre c (R = I, t = -c, so its ``camera_centre``
    is c), stored as the state's ``views``; each row's key holds the rank of
    its pose and pixel 0. Contributions stay 0 for the caller to set.
    """
    centres = np.broadcast_to(np.asarray(centres, dtype=np.float64), (count, 3))
    distinct, rank = np.unique(centres, axis=0, return_inverse=True)
    views = []
    for image_id, centre in enumerate(distinct):
        world_to_camera = np.eye(4)
        world_to_camera[:3, 3] = -centre
        views.append(CameraPose(image_id=image_id, width=2, height=2, fx=1.0, fy=1.0,
                                cx=1.0, cy=1.0, world_to_camera=world_to_camera))
    state = ContributionState.initial(count, views=views)
    state.best_key[:] = rank.reshape(-1).astype(np.int64) << 32
    return state


# ---------------------------------------------------------------------------
# Scene fixture writers: the 3DGS PLY and .splat layouts the loaders read

def write_scene_ply(raw: RawGaussians, path: Path, binary: bool = True,
                    sh_rest: np.ndarray | None = None) -> None:
    """Write raw Gaussians in the 3DGS PLY layout, non-finite rows included.

    ``sh_rest`` is an optional (N, K) array written as ``f_rest_0`` .. ``f_rest_{K-1}``
    between ``f_dc_2`` and ``opacity``, as trained scenes store their higher-order SH.
    """
    if sh_rest is None:
        sh_rest = np.zeros((len(raw), 0))
    n_rest = sh_rest.shape[1]
    names = ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2",
             *(f"f_rest_{i}" for i in range(n_rest)),
             "opacity", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"]
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {len(raw)}"]
    header += [f"property float {n}" for n in names]
    header.append("end_header")

    rows = np.concatenate([
        raw.position, raw.sh_dc, sh_rest,
        raw.logit_opacity[:, None], raw.log_scale, raw.rotation,
    ], axis=1).astype(np.float32)
    if binary:
        body = rows.tobytes()
    else:
        body = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows).encode()
    Path(path).write_bytes(("\n".join(header) + "\n").encode("ascii") + body)


def encode_splat(raw: RawGaussians) -> bytes:
    """Encode raw Gaussians as .splat bytes (inverse of the loader).

    Decode -> encode -> decode is a fixed point: the first decode already
    lands on the u8-quantised grid, so re-encoding reproduces the bytes.
    Raises :class:`DomainError` if any row fails :meth:`RawGaussians.valid_rows`.
    """
    invalid = int(np.count_nonzero(~raw.valid_rows()))
    if invalid:
        raise DomainError(f"cannot encode {invalid} invalid gaussians as .splat "
                          f"(non-finite value or zero quaternion)")
    table = np.empty(len(raw), dtype=[("position", "<f4", 3), ("scale", "<f4", 3),
                                      ("rgba", "u1", 4), ("quat", "u1", 4)])
    table["position"] = raw.position.astype(np.float32)
    table["scale"] = np.exp(raw.log_scale).astype(np.float32)
    colour = np.clip(0.5 + SH_C0 * raw.sh_dc, 0.0, 1.0)
    table["rgba"][:, :3] = quantize_colours(colour)
    table["rgba"][:, 3] = quantize_colours(sigmoid(raw.logit_opacity))
    quat = np.clip(np.floor(raw.rotation * 128.0 + 128.0 + 0.5), 0, 255)
    table["quat"] = quat.astype(np.uint8)
    return table.tobytes()


# ---------------------------------------------------------------------------
# COLMAP fixture writers (test-side only)

_MODEL_IDS = {"SIMPLE_PINHOLE": 0, "PINHOLE": 1, "SIMPLE_RADIAL": 2}


def write_colmap_bin(directory: Path, cameras: list[dict], images: list[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "cameras.bin", "wb") as fh:
        fh.write(struct.pack("<Q", len(cameras)))
        for cam in cameras:
            fh.write(struct.pack("<iiQQ", cam["id"], _MODEL_IDS[cam["model"]],
                                 cam["width"], cam["height"]))
            fh.write(struct.pack(f"<{len(cam['params'])}d", *cam["params"]))
    with open(directory / "images.bin", "wb") as fh:
        fh.write(struct.pack("<Q", len(images)))
        for image in images:
            fh.write(struct.pack("<idddddddi", image["id"], *image["qvec"],
                                 *image["tvec"], image["camera_id"]))
            fh.write(image["name"].encode("utf-8") + b"\x00")
            points = image.get("points2d", ())
            fh.write(struct.pack("<Q", len(points)))
            for x, y, point3d_id in points:
                fh.write(struct.pack("<ddq", x, y, point3d_id))


def write_colmap_txt(directory: Path, cameras: list[dict], images: list[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "cameras.txt", "w") as fh:
        fh.write("# CAMERA_ID, MODEL, WIDTH, HEIGHT, PARAMS[]\n")
        for cam in cameras:
            params = " ".join(repr(float(p)) for p in cam["params"])
            fh.write(f"{cam['id']} {cam['model']} {cam['width']} {cam['height']} {params}\n")
    with open(directory / "images.txt", "w") as fh:
        fh.write("# IMAGE_ID, QW, QX, QY, QZ, TX, TY, TZ, CAMERA_ID, NAME\n")
        for image in images:
            pose = " ".join(repr(float(v)) for v in (*image["qvec"], *image["tvec"]))
            fh.write(f"{image['id']} {pose} {image['camera_id']} {image['name']}\n")
            fh.write(" ".join(f"{x!r} {y!r} {point3d_id}"
                              for x, y, point3d_id in image.get("points2d", ())) + "\n")


def simple_colmap_model():
    cameras = [
        {"id": 1, "model": "SIMPLE_PINHOLE", "width": 800, "height": 600,
         "params": (500.0, 400.0, 300.0)},
        {"id": 2, "model": "PINHOLE", "width": 640, "height": 480,
         "params": (520.5, 510.25, 320.0, 240.0)},
    ]
    sq = np.sqrt(0.5)
    images = [
        {"id": 3, "qvec": (1.0, 0.0, 0.0, 0.0), "tvec": (0.0, 0.0, 0.0),
         "camera_id": 1, "name": "b_first.png"},
        {"id": 1, "qvec": (sq, 0.0, 0.0, sq), "tvec": (0.5, -1.25, 2.0),
         "camera_id": 2, "name": "a_second.png",
         "points2d": [(10.5, 20.25, 4), (300.0, 7.5, -1)]},
        {"id": 2, "qvec": (sq, sq, 0.0, 0.0), "tvec": (-3.0, 0.25, 1.0),
         "camera_id": 1, "name": "c_third.png"},
    ]
    return cameras, images


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children this process forks while the test runs."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def thread_starts(monkeypatch):
    """The ``threading.Thread`` objects started while the test runs."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
