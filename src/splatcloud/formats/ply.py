"""PLY reading and writing.

Two flavours are handled here: Gaussian-splat PLY files (one vertex per
Gaussian, property names following the common ``f_dc_*``/``scale_*``/``rot_*``
scheme) on the input side, and plain coloured point clouds on the output
side. Property lookup is by name, so property order is free and other
properties, the higher-order SH ``f_rest_*`` among them, are never read.
"""

from __future__ import annotations

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

# Vertex rows interleaved and written at once by write_pointcloud_ply.
WRITE_BLOCK_ROWS = 1 << 16


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
                prop = (tokens[4], "")
            else:
                if len(tokens) < 3:
                    raise _bad_header_line(path, line, "property <type> <name>")
                if tokens[1] not in _SCALAR_TYPES:
                    raise FileFormatError(f"{path}: unknown property type '{tokens[1]}'")
                prop = (tokens[2], tokens[1])
            if any(name == prop[0] for name, _ in elements[-1].properties):
                raise FileFormatError(f"{path}: element '{elements[-1].name}' declares "
                                      f"property '{prop[0]}' twice")
            elements[-1].properties.append(prop)
        else:
            raise FileFormatError(f"{path}: unexpected header line '{line}'")
    if fmt is None:
        raise FileFormatError(f"{path}: PLY header has no format line")
    return fmt, elements, body_offset


def _read_vertex_table(path: Path):
    """Parse the vertex element into a structured array, one field per property.

    A binary table is a view into the file bytes in the stored types; an
    ascii table holds float64 fields.
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
        return vertex, np.frombuffer(data, dtype=dtype, count=vertex.count, offset=offset)

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
    table = np.empty(vertex.count, dtype=[(n, "<f8") for n, _ in vertex.properties])
    for i in range(vertex.count):
        tokens = body_lines[row + i].split()
        if len(tokens) != nprops:
            raise FileFormatError(
                f"{path}: vertex line {i} has {len(tokens)} values, expected {nprops}"
            )
        try:
            table[i] = tuple(float(t) for t in tokens)
        except ValueError as err:
            raise FileFormatError(f"{path}: vertex line {i}: {err}") from err
    return vertex, table


def load_gaussians_ply(path) -> RawGaussians:
    """Load raw Gaussians from a 3DGS-style PLY file.

    Fields are mapped by property name, not position. Rows with a
    non-finite value in a field used downstream, or a zero-norm quaternion,
    are dropped with a warning (:meth:`RawGaussians.drop_invalid`).
    """
    path = Path(path)
    vertex, table = _read_vertex_table(path)
    names = {n for n, _ in vertex.properties}
    for required in _REQUIRED_PROPERTIES:
        if required not in names:
            raise FileFormatError(f"{path}: missing property: {required}")

    @np.errstate(invalid="ignore")  # widening a signalling NaN; drop_invalid removes its row
    def stack(columns):
        # one cast of the picked fields to packed float64 fields, read as (N, k):
        # the one float64 copy, written row by row
        packed = np.dtype([(name, np.float64) for name in columns])
        return table[columns].astype(packed).view(np.float64).reshape(-1, len(columns))

    raw = RawGaussians(
        position=stack(["x", "y", "z"]),
        log_scale=stack(["scale_0", "scale_1", "scale_2"]),
        rotation=stack([f"rot_{i}" for i in range(4)]),
        logit_opacity=table["opacity"],
        sh_dc=stack(["f_dc_0", "f_dc_1", "f_dc_2"]),
    )
    return raw.drop_invalid(path)


def write_pointcloud_ply(cloud: PointCloud, path) -> None:
    """Write a point cloud as binary little-endian PLY.

    Properties are x,y,z (float32), red,green,blue (uchar) and, when the
    cloud carries normals, nx,ny,nz (float32) after blue. Re-parsing the
    file reproduces positions bit-exactly and colours exactly. The vertex
    table is filled and written ``WRITE_BLOCK_ROWS`` rows at a time, so the
    writer holds one block beside the cloud, not a second copy of it.
    """
    groups = [(("x", "y", "z"), "float", cloud.points),
              (("red", "green", "blue"), "uchar", cloud.colours)]
    if cloud.normals is not None:
        groups.append((("nx", "ny", "nz"), "float", cloud.normals))
    properties = [(name, ply_type) for names, ply_type, _ in groups for name in names]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
    header += [f"property {ply_type} {name}" for name, ply_type in properties]
    header.append("end_header")

    dtype = np.dtype([(name, _SCALAR_TYPES[ply_type][0]) for name, ply_type in properties])
    table = np.empty(min(len(cloud), WRITE_BLOCK_ROWS), dtype=dtype)
    with atomic_write(path) as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(cloud), WRITE_BLOCK_ROWS):
            block = table[:min(WRITE_BLOCK_ROWS, len(cloud) - lo)]
            for names, _, values in groups:
                for j, name in enumerate(names):
                    block[name] = values[lo:lo + len(block), j]
            fh.write(block)  # through the buffer protocol: no bytes copy
