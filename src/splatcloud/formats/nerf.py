"""NeRF-style ``transforms.json`` camera loading.

Frames store camera-to-world matrices in the OpenGL convention (camera
looks down -Z, y up); they are converted to COLMAP-style world-to-camera
transforms by flipping the y and z camera axes and inverting.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path

import numpy as np

from ..errors import FileFormatError
from ..types import CameraPose, dot3

log = logging.getLogger(__name__)

DEFAULT_RESOLUTION = 800


def _frame_intrinsics(frame: dict, contents: dict, where: str):
    """Resolve fx, fy, cx, cy, width, height with per-frame values winning."""
    def pick(key, default=None):
        value = frame[key] if key in frame else contents.get(key)
        return default if value is None else value

    fl_x, fl_y, angle = pick("fl_x"), pick("fl_y"), pick("camera_angle_x")
    if fl_x is None and fl_y is None and angle is None:
        raise FileFormatError(f"{where} has neither camera_angle_x nor fl_x intrinsics")
    try:
        width = int(pick("w", DEFAULT_RESOLUTION))
        height = int(pick("h", DEFAULT_RESOLUTION))
        if fl_x is None and fl_y is None:
            fl_x = fl_y = 0.5 * width / math.tan(0.5 * float(angle))
        fl_x = fl_y if fl_x is None else fl_x
        fl_y = fl_x if fl_y is None else fl_y
        return (float(fl_x), float(fl_y), float(pick("cx", width / 2.0)),
                float(pick("cy", height / 2.0)), width, height)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as err:
        raise FileFormatError(f"{where}: intrinsics must be numbers ({err})") from err


def _invert_camera_to_world(c2w: np.ndarray, where: str) -> np.ndarray:
    """World-to-camera ``[A^-1, -A^-1 t]`` of a camera-to-world ``[A, t; 0 0 0 1]``.

    ``A^-1`` is the adjugate over the determinant; column i of the adjugate
    is the cross product of rows i + 1 and i + 2 of ``A``, one product
    difference an entry. The determinant and ``A^-1 t`` add their three
    terms with ``dot3``, so no linear-algebra kernel picks the bits.
    """
    if c2w[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
        raise FileFormatError(f"{where}: transform_matrix bottom row is not 0 0 0 1")
    a, t = c2w[:3, :3], c2w[:3, 3]
    inverse = np.eye(4)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        adjugate_columns = np.cross(a[[1, 2, 0]], a[[2, 0, 1]])
        det = dot3(a[0], adjugate_columns[0])
        inverse[:3, :3] = adjugate_columns.T / det
        inverse[:3, 3] = -dot3(inverse[:3, :3], t)
    if not (det != 0.0 and np.isfinite(inverse).all()):
        raise FileFormatError(f"{where}: transform_matrix is not invertible")
    return inverse


def load_cameras_nerf_json(path) -> list[CameraPose]:
    """Load poses from a NeRF transforms JSON file.

    An empty ``frames`` array yields an empty pose list (the pipeline warns
    and falls back to base colours); it is not an error.
    """
    path = Path(path)
    try:
        contents = json.loads(path.read_bytes())
    except ValueError as err:  # also undecodable text and over-long integers
        raise FileFormatError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(contents, dict) or not isinstance(contents.get("frames"), list):
        raise FileFormatError(f"{path}: missing 'frames' array")

    frames = contents["frames"]
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict):
            raise FileFormatError(f"{path}: frame {index} is not an object")
    order = sorted(range(len(frames)),
                   key=lambda i: str(frames[i].get("file_path", f"{i:08d}")))

    poses = []
    for rank, frame_index in enumerate(order):
        frame = frames[frame_index]
        where = f"{path}: frame {frame_index}"
        if "transform_matrix" not in frame:
            raise FileFormatError(f"{where} lacks transform_matrix")
        try:
            c2w = np.array(frame["transform_matrix"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise FileFormatError(f"{where}: transform_matrix must be numbers ({err})") from err
        if c2w.shape != (4, 4):
            raise FileFormatError(f"{where}: transform_matrix is not 4x4")
        # OpenGL -> COLMAP: flip the y and z camera axes (of this copy), then invert.
        c2w[:3, 1:3] *= -1.0
        world_to_camera = _invert_camera_to_world(c2w, where)

        fx, fy, cx, cy, width, height = _frame_intrinsics(frame, contents, where)
        poses.append(CameraPose(
            image_id=rank,
            width=width, height=height,
            fx=fx, fy=fy, cx=cx, cy=cy,
            world_to_camera=world_to_camera,
        ))
    if not poses:
        log.warning("%s: frames array is empty, no poses loaded", path)
    return poses
