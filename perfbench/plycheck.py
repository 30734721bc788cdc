"""Independent reader and checks for the point-cloud PLY files a conversion writes.

Deliberately shares no code with ``splatcloud.formats``: a bug in the
program's writer must not be hidden by the same bug in the reader.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

_TYPES = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
          "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
          "short": "<i2", "ushort": "<u2", "int": "<i4", "uint": "<u4"}

NORMAL_TOLERANCE = 1e-4


class CheckError(Exception):
    """An output file failed a check; the message says which."""


def read_vertices(path: Path) -> np.ndarray:
    """Structured array of the vertex element of a binary little-endian PLY.

    The body must hold exactly ``count * stride`` bytes: a truncated file or
    trailing bytes are errors.
    """
    data = Path(path).read_bytes()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply\n") or end < 0:
        raise CheckError(f"{path.name}: not a PLY file")
    count = None
    fields = []
    lines = data[:end].decode("ascii", errors="replace").splitlines()[1:]
    for line in lines:
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["binary_little_endian", "1.0"]:
                raise CheckError(f"{path.name}: unexpected format line '{line}'")
        elif tokens[0] == "element":
            if tokens[1] != "vertex" or count is not None:
                raise CheckError(f"{path.name}: unexpected element '{line}'")
            count = int(tokens[2])
        elif tokens[0] == "property" and len(tokens) == 3 and tokens[1] in _TYPES:
            fields.append((tokens[2], _TYPES[tokens[1]]))
        else:
            raise CheckError(f"{path.name}: unexpected header line '{line}'")
    if count is None:
        raise CheckError(f"{path.name}: no vertex element")
    dtype = np.dtype(fields)
    body = len(data) - (end + len(b"end_header\n"))
    if body != count * dtype.itemsize:
        raise CheckError(
            f"{path.name}: body holds {body} bytes, {count} vertices need "
            f"{count * dtype.itemsize}")
    return np.frombuffer(data, dtype=dtype, count=count, offset=end + len(b"end_header\n"))


def check_cloud(path: Path, expected_count: int, normals: bool) -> int:
    """Raise CheckError unless the cloud has the expected count and sane values.

    Every position must be finite; with ``normals`` every normal must be unit
    length within ``NORMAL_TOLERANCE``. Returns the vertex count.
    """
    table = read_vertices(path)
    names = table.dtype.names or ()
    if len(table) != expected_count:
        raise CheckError(
            f"{path.name}: {len(table)} vertices, --stats-json reported {expected_count}")
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise CheckError(f"{path.name}: no '{axis}' property")
        if not np.all(np.isfinite(table[axis])):
            raise CheckError(f"{path.name}: non-finite '{axis}' coordinate")
    if normals:
        if not {"nx", "ny", "nz"} <= set(names):
            raise CheckError(f"{path.name}: no normals")
        vec = np.stack([table["nx"], table["ny"], table["nz"]], axis=1).astype(np.float64)
        deviation = np.abs(np.linalg.norm(vec, axis=1) - 1.0)
        if len(deviation) and not np.all(deviation <= NORMAL_TOLERANCE):
            raise CheckError(
                f"{path.name}: normal off unit length by {float(np.nanmax(deviation)):.2e}")
    return len(table)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
