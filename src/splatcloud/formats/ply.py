"""PLY reading and writing.

Two flavours are handled here: Gaussian-splat PLY files (one vertex per
Gaussian, property names following the common ``f_dc_*``/``scale_*``/``rot_*``
scheme) on the input side, and plain coloured point clouds on the output
side. Property lookup is by name, so extra properties and arbitrary
property order are tolerated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import FileFormatError, TruncatedFileError
from ..types import PointCloud, RawGaussians
from .atomic import atomic_write

# PLY scalar type -> (numpy little-endian dtype, size in bytes)
_SCALAR_TYPES = {
    "char": ("i1", 1), "int8": ("i1", 1),
    "uchar": ("u1", 1), "uint8": ("u1", 1),
    "short": ("<i2", 2), "int16": ("<i2", 2),
    "ushort": ("<u2", 2), "uint16": ("<u2", 2),
    "int": ("<i4", 4), "int32": ("<i4", 4),
    "uint": ("<u4", 4), "uint32": ("<u4", 4),
    "float": ("<f4", 4), "float32": ("<f4", 4),
    "double": ("<f8", 8), "float64": ("<f8", 8),
}

_REQUIRED_PROPERTIES = (
    "x", "y", "z",
    "f_dc_0", "f_dc_1", "f_dc_2",
    "opacity",
    "scale_0", "scale_1", "scale_2",
    "rot_0", "rot_1", "rot_2", "rot_3",
)

_F_REST = re.compile(r"^f_rest_(\d+)$")


@dataclass
class _Element:
    name: str
    count: int
    properties: list[tuple[str, str]]  # (name, ply type); empty type marks a list property

    @property
    def has_list(self) -> bool:
        return any(t == "" for _, t in self.properties)

    def itemsize(self) -> int:
        return sum(_SCALAR_TYPES[t][1] for _, t in self.properties)


def _bad_header_line(path: Path, line: str, expected: str) -> FileFormatError:
    return FileFormatError(f"{path}: bad header line '{line}' (expected '{expected}')")


def _parse_header(data: bytes, path: Path):
    """Return (format, elements, body offset). Raises on anything non-PLY."""
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise FileFormatError(f"{path}: not a PLY file (missing header)")
    body_offset = end + len(b"end_header\n")
    lines = data[:end].decode("ascii", errors="replace").splitlines()

    fmt = None
    elements: list[_Element] = []
    for line in lines[1:]:
        tokens = line.split()
        if not tokens or tokens[0] in ("comment", "obj_info"):
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise _bad_header_line(path, line, "format <type> <version>")
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary"
            else:
                raise FileFormatError(f"{path}: unsupported PLY format '{tokens[1]}'")
        elif tokens[0] == "element":
            if len(tokens) != 3 or not tokens[2].isdigit():
                raise _bad_header_line(path, line, "element <name> <count>")
            elements.append(_Element(tokens[1], int(tokens[2]), []))
        elif tokens[0] == "property":
            if not elements:
                raise FileFormatError(f"{path}: property before any element")
            if len(tokens) > 1 and tokens[1] == "list":
                if len(tokens) < 5:
                    raise _bad_header_line(
                        path, line, "property list <count type> <item type> <name>")
                elements[-1].properties.append((tokens[4], ""))
            else:
                if len(tokens) < 3:
                    raise _bad_header_line(path, line, "property <type> <name>")
                if tokens[1] not in _SCALAR_TYPES:
                    raise FileFormatError(f"{path}: unknown property type '{tokens[1]}'")
                elements[-1].properties.append((tokens[2], tokens[1]))
        else:
            raise FileFormatError(f"{path}: unexpected header line '{line}'")
    if fmt is None:
        raise FileFormatError(f"{path}: PLY header has no format line")
    return fmt, elements, body_offset


def _read_vertex_table(path: Path):
    """Parse the vertex element into a dict of property name -> 1-D column.

    Binary columns are views into the file bytes in their stored type; ascii
    columns are float64.
    """
    data = Path(path).read_bytes()
    fmt, elements, offset = _parse_header(data, Path(path))

    vertex = next((e for e in elements if e.name == "vertex"), None)
    if vertex is None:
        raise FileFormatError(f"{path}: no vertex element")
    if vertex.has_list:
        raise FileFormatError(f"{path}: list properties on the vertex element are not supported")

    if fmt == "binary":
        # Skip any elements declared before vertex; they must be fixed-size.
        for elem in elements:
            if elem.name == "vertex":
                break
            if elem.has_list:
                raise FileFormatError(
                    f"{path}: cannot skip element '{elem.name}' with list properties"
                )
            offset += elem.count * elem.itemsize()
        dtype = np.dtype([(n, _SCALAR_TYPES[t][0]) for n, t in vertex.properties])
        needed = vertex.count * dtype.itemsize
        if len(data) - offset < needed:
            raise TruncatedFileError(
                f"{path}: vertex data needs {needed} bytes from offset {offset}",
                byte_offset=len(data),
            )
        table = np.frombuffer(data, dtype=dtype, count=vertex.count, offset=offset)
        return vertex, {n: table[n] for n, _ in vertex.properties}

    # ascii: one line per row for every element, in declaration order
    body_lines = data[offset:].decode("ascii", errors="replace").splitlines()
    row = 0
    for elem in elements:
        if elem.name == "vertex":
            break
        row += elem.count
    if len(body_lines) - row < vertex.count:
        raise TruncatedFileError(
            f"{path}: expected {vertex.count} vertex lines, found {len(body_lines) - row}",
            byte_offset=len(data),
        )
    nprops = len(vertex.properties)
    columns = np.empty((vertex.count, nprops), dtype=np.float64)
    for i in range(vertex.count):
        tokens = body_lines[row + i].split()
        if len(tokens) != nprops:
            raise FileFormatError(
                f"{path}: vertex line {i} has {len(tokens)} values, expected {nprops}"
            )
        try:
            columns[i] = [float(t) for t in tokens]
        except ValueError as err:
            raise FileFormatError(f"{path}: vertex line {i}: {err}") from err
    return vertex, {n: columns[:, j] for j, (n, _) in enumerate(vertex.properties)}


def load_gaussians_ply(path) -> RawGaussians:
    """Load raw Gaussians from a 3DGS-style PLY file.

    Fields are mapped by property name, not position. Rows with a
    non-finite value in a field used downstream, or a zero-norm quaternion,
    are dropped with a warning (:meth:`RawGaussians.drop_invalid`).
    """
    path = Path(path)
    vertex, cols = _read_vertex_table(path)
    names = {n for n, _ in vertex.properties}
    for required in _REQUIRED_PROPERTIES:
        if required not in names:
            raise FileFormatError(f"{path}: missing property: {required}")

    rest_names = sorted(
        (n for n in names if _F_REST.match(n)),
        key=lambda n: int(_F_REST.match(n).group(1)),
    )

    def stack(columns):
        # (k, N) then transposed: RawGaussians makes the one float64 (N, k) copy
        return np.stack([cols[n] for n in columns]).T if columns \
            else np.zeros((vertex.count, 0))

    raw = RawGaussians(
        position=stack(["x", "y", "z"]),
        log_scale=stack(["scale_0", "scale_1", "scale_2"]),
        rotation=stack([f"rot_{i}" for i in range(4)]),
        logit_opacity=cols["opacity"],
        sh_dc=stack(["f_dc_0", "f_dc_1", "f_dc_2"]),
        sh_rest=stack(rest_names),
    )
    return raw.drop_invalid(path)


def write_pointcloud_ply(cloud: PointCloud, path) -> None:
    """Write a point cloud as binary little-endian PLY.

    Properties are x,y,z (float32), red,green,blue (uchar) and, when the
    cloud carries normals, nx,ny,nz (float32) after blue. Re-parsing the
    file reproduces positions bit-exactly and colours exactly.
    """
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
              ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
    ]
    if cloud.normals is not None:
        fields += [("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4")]
        header += ["property float nx", "property float ny", "property float nz"]
    header.append("end_header")

    table = np.empty(len(cloud), dtype=np.dtype(fields))
    for j, axis in enumerate("xyz"):
        table[axis] = cloud.points[:, j]
    for j, channel in enumerate(("red", "green", "blue")):
        table[channel] = cloud.colours[:, j]
    if cloud.normals is not None:
        for j, axis in enumerate(("nx", "ny", "nz")):
            table[axis] = cloud.normals[:, j]

    with atomic_write(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(table.tobytes())


def read_pointcloud_ply(path) -> PointCloud:
    """Read back a point cloud written by :func:`write_pointcloud_ply`."""
    _, cols = _read_vertex_table(path)
    for required in ("x", "y", "z", "red", "green", "blue"):
        if required not in cols:
            raise FileFormatError(f"{path}: missing property: {required}")

    def stack(names):
        return np.stack([cols[n] for n in names], axis=1)

    normals = stack(["nx", "ny", "nz"]) if {"nx", "ny", "nz"} <= cols.keys() else None
    return PointCloud(points=stack(["x", "y", "z"]), colours=stack(["red", "green", "blue"]),
                      normals=normals)


def write_gaussians_ply(raw: RawGaussians, path, binary: bool = True) -> None:
    """Write raw Gaussians back out in the 3DGS PLY layout (round-trip helper)."""
    n_rest = raw.sh_rest.shape[1]
    names = list(_REQUIRED_PROPERTIES[:6]) + [f"f_rest_{i}" for i in range(n_rest)] + \
        list(_REQUIRED_PROPERTIES[6:])
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {len(raw)}"]
    header += [f"property float {n}" for n in names]
    header.append("end_header")

    rows = np.concatenate([
        raw.position, raw.sh_dc, raw.sh_rest,
        raw.logit_opacity[:, None], raw.log_scale, raw.rotation,
    ], axis=1).astype(np.float32)
    with atomic_write(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(rows.tobytes())
        else:
            body = "\n".join(" ".join(repr(float(v)) for v in row) for row in rows)
            fh.write((body + "\n").encode("ascii"))
