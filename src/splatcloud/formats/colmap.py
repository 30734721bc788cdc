"""COLMAP sparse-model camera loading (cameras/images in .bin or .txt).

Binary layouts follow COLMAP's reconstruction serialisation. Only the two
distortion-free pinhole models are accepted; anything else is an error
rather than a silent drop of distortion parameters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FileFormatError
from ..scene import quats_to_rotmats
from ..types import CameraPose

# model_id -> (name, number of parameters)
CAMERA_MODELS = {
    0: ("SIMPLE_PINHOLE", 3),
    1: ("PINHOLE", 4),
    2: ("SIMPLE_RADIAL", 4),
    3: ("RADIAL", 5),
    4: ("OPENCV", 8),
    5: ("OPENCV_FISHEYE", 8),
    6: ("FULL_OPENCV", 12),
    7: ("FOV", 5),
    8: ("SIMPLE_RADIAL_FISHEYE", 4),
    9: ("RADIAL_FISHEYE", 5),
    10: ("THIN_PRISM_FISHEYE", 12),
}
_MODEL_IDS = {name: mid for mid, (name, _) in CAMERA_MODELS.items()}


@dataclass
class _Camera:
    camera_id: int
    model: str
    width: int
    height: int
    params: np.ndarray


@dataclass
class _Image:
    image_id: int
    qvec: np.ndarray  # (w, x, y, z)
    tvec: np.ndarray
    camera_id: int
    name: str


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FileFormatError(f"{fh.name}: unexpected end of file while reading {what}")
    return data


def _read_cameras_bin(path: Path) -> dict[int, _Camera]:
    cameras = {}
    with open(path, "rb") as fh:
        (num_cameras,) = struct.unpack("<Q", _read_exact(fh, 8, "camera count"))
        for _ in range(num_cameras):
            cam_id, model_id, width, height = struct.unpack(
                "<iiQQ", _read_exact(fh, 24, "camera header"))
            if model_id not in CAMERA_MODELS:
                raise FileFormatError(f"{path}: unknown camera model id {model_id}")
            name, num_params = CAMERA_MODELS[model_id]
            params = struct.unpack(
                f"<{num_params}d", _read_exact(fh, 8 * num_params, "camera params"))
            cameras[cam_id] = _Camera(cam_id, name, int(width), int(height),
                                      np.array(params, dtype=np.float64))
    return cameras


def _read_images_bin(path: Path) -> list[_Image]:
    images = []
    size = path.stat().st_size
    with open(path, "rb") as fh:
        (num_images,) = struct.unpack("<Q", _read_exact(fh, 8, "image count"))
        for _ in range(num_images):
            values = struct.unpack("<idddddddi", _read_exact(fh, 64, "image header"))
            image_id = values[0]
            qvec = np.array(values[1:5], dtype=np.float64)
            tvec = np.array(values[5:8], dtype=np.float64)
            camera_id = values[8]
            raw_name = b"".join(iter(lambda: _read_exact(fh, 1, "image name"), b"\x00"))
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError as err:
                raise FileFormatError(f"{path}: image {image_id} name is not UTF-8") from err
            (num_points2d,) = struct.unpack("<Q", _read_exact(fh, 8, "2D point count"))
            points_end = fh.tell() + 24 * num_points2d
            if points_end > size:
                raise FileFormatError(f"{path}: image '{name}' declares {num_points2d} "
                                      f"2D points, past the end of the file")
            fh.seek(points_end)  # x, y, point3D_id per point; unused, so skipped unread
            images.append(_Image(image_id, qvec, tvec, camera_id, name))
    return images


def _text_lines(path: Path):
    """(1-based line number, stripped line) for every line of a text file."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as err:
        raise FileFormatError(f"{path}: not a text file ({err})") from err
    return enumerate((line.strip() for line in text.splitlines()), start=1)


def _read_cameras_txt(path: Path) -> dict[int, _Camera]:
    cameras = {}
    for number, line in _text_lines(path):
        if not line or line.startswith("#"):
            continue
        elems = line.split()
        try:
            cam_id, model, width, height = int(elems[0]), elems[1], int(elems[2]), int(elems[3])
            params = np.array([float(v) for v in elems[4:]])
        except (IndexError, ValueError) as err:
            raise FileFormatError(f"{path}:{number}: bad camera line ({err})") from err
        if model not in _MODEL_IDS:
            raise FileFormatError(f"{path}: unknown camera model '{model}'")
        expected = CAMERA_MODELS[_MODEL_IDS[model]][1]
        if len(params) != expected:
            raise FileFormatError(f"{path}:{number}: a {model} camera has {expected} "
                                  f"parameters, got {len(params)}")
        cameras[cam_id] = _Camera(cam_id, model, width, height, params)
    return cameras


def _read_images_txt(path: Path) -> list[_Image]:
    images = []
    expecting_pose = True
    # two lines per image: pose line, then the (possibly empty) 2D observations
    for number, line in _text_lines(path):
        if line.startswith("#"):
            continue
        if expecting_pose:
            if not line:
                continue
            elems = line.split()
            try:
                images.append(_Image(
                    image_id=int(elems[0]),
                    qvec=np.array([float(v) for v in elems[1:5]]),
                    tvec=np.array([float(v) for v in elems[5:8]]),
                    camera_id=int(elems[8]),
                    name=elems[9],
                ))
            except (IndexError, ValueError) as err:
                raise FileFormatError(f"{path}:{number}: bad image line ({err})") from err
            expecting_pose = False
        else:
            expecting_pose = True
    return images


def _intrinsics(camera: _Camera) -> tuple[float, float, float, float]:
    if camera.model == "SIMPLE_PINHOLE":
        f, cx, cy = camera.params[:3]
        return float(f), float(f), float(cx), float(cy)
    if camera.model == "PINHOLE":
        fx, fy, cx, cy = camera.params[:4]
        return float(fx), float(fy), float(cx), float(cy)
    raise FileFormatError(f"unsupported camera model: {camera.model}")


def load_cameras_colmap(directory) -> list[CameraPose]:
    """Load one pose per registered image from a COLMAP sparse model directory.

    Prefers the binary pair when both binary and text exist. Poses are sorted
    by image name so downstream processing is deterministic.
    """
    directory = Path(directory)
    if (directory / "cameras.bin").exists() and (directory / "images.bin").exists():
        cameras = _read_cameras_bin(directory / "cameras.bin")
        images = _read_images_bin(directory / "images.bin")
    elif (directory / "cameras.txt").exists() and (directory / "images.txt").exists():
        cameras = _read_cameras_txt(directory / "cameras.txt")
        images = _read_images_txt(directory / "images.txt")
    else:
        raise FileFormatError(
            f"{directory}: expected cameras.bin+images.bin or cameras.txt+images.txt"
        )

    poses = []
    for image in sorted(images, key=lambda im: im.name):
        camera = cameras.get(image.camera_id)
        if camera is None:
            raise FileFormatError(
                f"image '{image.name}' references missing camera_id {image.camera_id}"
            )
        fx, fy, cx, cy = _intrinsics(camera)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(image.qvec)
        if not (np.isfinite(norm) and norm > 0):
            raise FileFormatError(
                f"image '{image.name}': qvec {tuple(image.qvec)} must be finite and non-zero")
        world_to_camera = np.eye(4)
        world_to_camera[:3, :3] = quats_to_rotmats(image.qvec / norm)
        world_to_camera[:3, 3] = image.tvec
        poses.append(CameraPose(
            image_id=image.image_id,
            width=camera.width,
            height=camera.height,
            fx=fx, fy=fy, cx=cx, cy=cy,
            world_to_camera=world_to_camera,
        ))
    return poses
