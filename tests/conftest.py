"""Shared fixtures: synthetic scenes, cameras and on-disk format fixtures."""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import reference`

from splatcloud.scene import activate
from splatcloud.types import CameraPose, RawGaussians


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
        name: np.concatenate([getattr(part, name) for part in parts])
        for name in ("position", "log_scale", "rotation", "logit_opacity", "sh_dc", "sh_rest")
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
            fh.write(struct.pack("<Q", 0))


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
            fh.write("\n")


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
         "camera_id": 2, "name": "a_second.png"},
        {"id": 2, "qvec": (sq, sq, 0.0, 0.0), "tvec": (-3.0, 0.25, 1.0),
         "camera_id": 1, "name": "c_third.png"},
    ]
    return cameras, images


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
