"""Seeded synthetic inputs for the benchmark, written with its own format writers.

The scene is a sphere shell of small, flattened, mostly opaque Gaussians
tangent to the sphere, plus interior Gaussians that the shell hides from
every camera. The colour pass therefore recolours occluded Gaussians, culls
some of them and fires the transmittance early-out.

Nothing here imports ``splatcloud``: the writers follow the published file
layouts (3DGS binary PLY, 32-byte ``.splat``, COLMAP ``cameras.bin`` /
``images.bin``, NeRF ``transforms.json``), so refactors of the program's own
writers never change the benchmark's inputs.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

SHELL_RADIUS = 1.0
INTERIOR_RADIUS = 0.8
INTERIOR_SHARE = 0.3
CAMERA_DISTANCE = 3.0
SH_REST_COUNT = 45  # degree-3 spherical harmonics, 15 coefficients x 3 channels
SH_C0 = 0.28209479177387814


def _normalise(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _matrix_to_quat(rot: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotation matrices to (N, 4) unit (w, x, y, z) quaternions."""
    rot = np.asarray(rot, dtype=np.float64).reshape(-1, 3, 3)
    m00, m11, m22 = rot[:, 0, 0], rot[:, 1, 1], rot[:, 2, 2]
    quat = np.empty((len(rot), 4))
    # Shepperd's method: pick the largest diagonal term for stability
    trace = m00 + m11 + m22
    choice = np.argmax(np.stack([trace, m00, m11, m22], axis=1), axis=1)
    for i, c in enumerate(choice):
        r = rot[i]
        if c == 0:
            s = 2.0 * math.sqrt(1.0 + trace[i])
            q = (0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
                 (r[1, 0] - r[0, 1]) / s)
        elif c == 1:
            s = 2.0 * math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
            q = ((r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s,
                 (r[0, 2] + r[2, 0]) / s)
        elif c == 2:
            s = 2.0 * math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
            q = ((r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s,
                 (r[1, 2] + r[2, 1]) / s)
        else:
            s = 2.0 * math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
            q = ((r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                 (r[1, 2] + r[2, 1]) / s, 0.25 * s)
        quat[i] = q
    quat *= np.where(quat[:, :1] < 0, -1.0, 1.0)
    return _normalise(quat)


def sphere_scene(rng: np.random.Generator, count: int) -> dict[str, np.ndarray]:
    """Raw (pre-activation) Gaussian columns for the shell-plus-interior scene.

    Shell Gaussians are discs tangent to the sphere: scale axis 2 is the thin
    one and is rotated onto the outward normal.
    """
    interior = int(round(count * INTERIOR_SHARE))
    shell = count - interior

    normal = _normalise(rng.standard_normal((shell, 3)))
    shell_pos = normal * SHELL_RADIUS
    # tangent frame (t1, t2, normal) with a random spin about the normal
    helper = np.where(np.abs(normal[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    t1 = _normalise(np.cross(normal, helper))
    t2 = np.cross(normal, t1)
    spin = rng.uniform(0.0, 2.0 * math.pi, shell)[:, None]
    t1, t2 = np.cos(spin) * t1 + np.sin(spin) * t2, -np.sin(spin) * t1 + np.cos(spin) * t2
    shell_rot = np.stack([t1, t2, normal], axis=2)  # columns are the scale axes
    tangent = math.sqrt(4.0 * math.pi * SHELL_RADIUS ** 2 / max(shell, 1))
    shell_scale = np.stack([
        rng.uniform(1.0, 1.5, shell) * tangent,
        rng.uniform(1.0, 1.5, shell) * tangent,
        rng.uniform(0.04, 0.08, shell) * tangent,
    ], axis=1)
    shell_logit = rng.uniform(4.0, 7.0, shell)

    direction = _normalise(rng.standard_normal((interior, 3)))
    radius = INTERIOR_RADIUS * rng.uniform(0.0, 1.0, interior) ** (1.0 / 3.0)
    interior_pos = direction * radius[:, None]
    interior_quat = _normalise(rng.standard_normal((interior, 4)))
    interior_scale = rng.uniform(0.3, 1.0, (interior, 3)) * tangent
    interior_logit = rng.uniform(-1.0, 3.0, interior)

    position = np.concatenate([shell_pos, interior_pos])
    order = rng.permutation(count)
    quat = np.concatenate([_matrix_to_quat(shell_rot), interior_quat])
    return {
        "position": position[order],
        "log_scale": np.log(np.concatenate([shell_scale, interior_scale]))[order],
        "rotation": quat[order],
        "logit_opacity": np.concatenate([shell_logit, interior_logit])[order],
        "sh_dc": rng.uniform(-1.5, 1.5, (count, 3)),
        "sh_rest": rng.normal(0.0, 0.05, (count, SH_REST_COUNT)),
    }


def write_gaussians_ply(scene: dict[str, np.ndarray], path: Path) -> None:
    """3DGS training-output layout: 62 little-endian float32 properties per vertex.

    As in real training output, the ``nx ny nz`` properties are present and zero.
    """
    names = (["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2"]
             + [f"f_rest_{i}" for i in range(SH_REST_COUNT)]
             + ["opacity", "scale_0", "scale_1", "scale_2",
                "rot_0", "rot_1", "rot_2", "rot_3"])
    count = len(scene["position"])
    columns = np.concatenate([
        scene["position"], np.zeros((count, 3)), scene["sh_dc"], scene["sh_rest"],
        scene["logit_opacity"][:, None], scene["log_scale"], scene["rotation"],
    ], axis=1).astype("<f4")
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(columns)}"]
    header += [f"property float {n}" for n in names]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(columns).tobytes())


def write_gaussians_splat(scene: dict[str, np.ndarray], path: Path) -> None:
    """32-byte records: position f32x3, linear scale f32x3, RGBA u8x4, quat u8x4."""
    dtype = np.dtype([("position", "<f4", 3), ("scale", "<f4", 3),
                      ("rgba", "u1", 4), ("quat", "u1", 4)])
    table = np.empty(len(scene["position"]), dtype=dtype)
    table["position"] = scene["position"]
    table["scale"] = np.exp(scene["log_scale"])
    colour = np.clip(0.5 + SH_C0 * scene["sh_dc"], 0.0, 1.0)
    alpha = 1.0 / (1.0 + np.exp(-scene["logit_opacity"]))
    table["rgba"][:, :3] = np.floor(colour * 255.0 + 0.5)
    table["rgba"][:, 3] = np.floor(alpha * 255.0 + 0.5)
    table["quat"] = np.clip(np.floor(scene["rotation"] * 128.0 + 128.0 + 0.5), 0, 255)
    path.write_bytes(table.tobytes())


def orbit_views(rng: np.random.Generator, views: int) -> list[np.ndarray]:
    """World-to-camera matrices (COLMAP convention: +Z forward, y down) on an orbit.

    Cameras sit at ``CAMERA_DISTANCE`` around the origin at evenly spaced
    azimuths (with a seeded phase) and a small seeded elevation, each looking
    at the origin.
    """
    phase = rng.uniform(0.0, 2.0 * math.pi)
    poses = []
    for i in range(views):
        azimuth = phase + 2.0 * math.pi * i / views
        elevation = rng.uniform(-0.3, 0.3)
        centre = CAMERA_DISTANCE * np.array([
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
            -math.cos(elevation) * math.cos(azimuth),
        ])
        forward = _normalise(-centre)
        right = _normalise(np.cross([0.0, 1.0, 0.0], forward))
        down = np.cross(forward, right)
        rot = np.stack([right, down, forward])  # rows: camera axes in world frame
        w2c = np.eye(4)
        w2c[:3, :3] = rot
        w2c[:3, 3] = -rot @ centre
        poses.append(w2c)
    return poses


def write_colmap_bin(directory: Path, poses: list[np.ndarray], width: int,
                     height: int, focal: float) -> None:
    """One PINHOLE camera shared by every image; images carry no 2D points."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "cameras.bin", "wb") as fh:
        fh.write(struct.pack("<Q", 1))
        fh.write(struct.pack("<iiQQ", 1, 1, width, height))  # id 1, model 1 = PINHOLE
        fh.write(struct.pack("<4d", focal, focal, width / 2.0, height / 2.0))
    quats = _matrix_to_quat(np.stack([p[:3, :3] for p in poses]))
    with open(directory / "images.bin", "wb") as fh:
        fh.write(struct.pack("<Q", len(poses)))
        for i, (pose, quat) in enumerate(zip(poses, quats)):
            fh.write(struct.pack("<idddddddi", i + 1, *quat, *pose[:3, 3], 1))
            fh.write(f"view_{i:03d}.png".encode("ascii") + b"\x00")
            fh.write(struct.pack("<Q", 0))


def write_nerf_transforms(path: Path, poses: list[np.ndarray], width: int,
                          height: int, focal: float) -> None:
    """Camera-to-world matrices in the OpenGL convention (-Z forward, y up)."""
    frames = []
    for i, w2c in enumerate(poses):
        c2w = np.linalg.inv(w2c)
        c2w[:3, 1:3] *= -1.0
        frames.append({"file_path": f"./view_{i:03d}", "transform_matrix": c2w.tolist()})
    contents = {
        "camera_angle_x": 2.0 * math.atan(0.5 * width / focal),
        "w": width, "h": height,
        "frames": frames,
    }
    path.write_text(json.dumps(contents, indent=1))
