"""Grid and field serialization: CSV text and the HVGF binary container.

CSV layout (one file per grid/field):

    dim,n_axes,h,boundary_width
    2,33,0.0625,2
    i,j,value            (or i,j,k,value / i,j,m11,m12,m22 / ...)
    0,0,0.0
    ...

The first header row names the metadata columns, the second carries their
values, the third names the per-node columns; node rows follow in row-major
order.  Floats are written with ``repr`` (shortest round-trip), so an
f64 payload survives a write/read cycle bit-exactly.

HVGF binary layout (little endian):

    magic "HVGF" | u32 dim | u32 extent per axis | f64 h | payload row-major

The payload dtype is inferred from the remaining byte count: one f64 per node
(scalar grid), m = n(n+1)/2 f64 per node (symmetric matrix field), or one u8
per node (mask).  Origins default to the centered domain.  Boundary width is
not stored: a scalar grid read from HVGF has the :class:`ScalarGrid` default
of 2.  A symmetric matrix field has no boundary width; its CSV row says 2.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import symmat
from .grids import GridError, ScalarGrid, SymMatField, spacing_ok

MAGIC = b"HVGF"


class FormatError(ValueError):
    """Malformed grid file."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_spacing(path, h: float, dim: int) -> None:
    if not spacing_ok(h, dim):
        raise FormatError(
            f"{path}: grid spacing must be finite and positive with a finite, "
            f"nonzero cell volume h**{dim} and a finite 1/h**4, got {h!r}")


def _origin_centered(extents, h: float) -> np.ndarray:
    return np.array([-0.5 * (N - 1) * h for N in extents])


def _build(path, cls, **fields):
    """Construct a grid object; a file describing an invalid grid is malformed."""
    try:
        return cls(**fields)
    except GridError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- CSV

def write_csv(path, obj) -> None:
    """Write a ScalarGrid or SymMatField as CSV."""
    if isinstance(obj, ScalarGrid):
        data = obj.values[..., None]
        bw = obj.boundary_width
        value_cols = ["value"]
    elif isinstance(obj, SymMatField):
        data = obj.values
        bw = 2
        value_cols = [f"m{i + 1}{j + 1}" for i, j in symmat.PACKED_PAIRS[obj.dim]]
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")
    dim, ncomp = data.ndim - 1, data.shape[-1]
    extents = data.shape[:-1]
    if len(set(extents)) != 1:
        raise FormatError("CSV format requires equal extents per axis")
    index_cols = ["i", "j", "k"][:dim]
    lines = [
        "dim,n_axes,h,boundary_width",
        f"{dim},{extents[0]},{_fmt(obj.h)},{bw}",
        ",".join(index_cols + value_cols),
    ]
    flat = data.reshape(-1, ncomp)
    for node, idx in enumerate(np.ndindex(*extents)):
        row = ",".join(str(i) for i in idx)
        vals = ",".join(_fmt(v) for v in flat[node])
        lines.append(f"{row},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a CSV grid file; returns ScalarGrid or SymMatField."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    if len(lines) < 4 or lines[0] != "dim,n_axes,h,boundary_width":
        raise FormatError(f"{path}: missing grid CSV header")
    try:
        dim_s, n_s, h_s, bw_s = lines[1].split(",")
        dim, n_axes, h, bw = int(dim_s), int(n_s), float(h_s), int(bw_s)
    except ValueError as exc:
        raise FormatError(f"{path}: bad metadata row: {lines[1]!r}") from exc
    if dim not in (2, 3) or n_axes < 1:
        raise FormatError(f"{path}: unsupported dim {dim} or n_axes {n_axes}")
    _check_spacing(path, h, dim)
    ncomp = len(lines[2].split(",")) - dim
    if ncomp not in (1, symmat.packed_size(dim)):
        raise FormatError(f"{path}: {ncomp} value columns do not match dim {dim}")
    extents = (n_axes,) * dim
    expected = math.prod(extents)
    rows = lines[3:]
    if len(rows) != expected:
        raise FormatError(f"{path}: expected {expected} node rows, got {len(rows)}")
    data = np.empty((expected, ncomp))
    for node, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != dim + ncomp:
            raise FormatError(f"{path}: bad node row {node}: {row!r}")
        try:
            data[node] = [float(v) for v in parts[dim:]]
        except ValueError as exc:
            raise FormatError(f"{path}: bad value in node row {node}: {row!r}") from exc
    data = data.reshape(extents + (ncomp,))
    origin = _origin_centered(extents, h)
    if ncomp == 1:
        return _build(path, ScalarGrid, h=h, origin=origin, values=data[..., 0],
                      boundary_width=bw)
    return _build(path, SymMatField, h=h, origin=origin, values=data,
                  valid=np.isfinite(data).all(axis=-1))


# ---------------------------------------------------------------- binary

def write_binary(path, obj) -> None:
    """Write a ScalarGrid, SymMatField, or (mask, h) pair as HVGF binary."""
    if isinstance(obj, (ScalarGrid, SymMatField)):
        dim, extents, h = obj.dim, obj.extents, obj.h
        payload = np.ascontiguousarray(obj.values, dtype="<f8").tobytes()
    elif isinstance(obj, tuple) and len(obj) == 2:
        mask, h = obj
        mask = np.asarray(mask)
        dim, extents = mask.ndim, mask.shape
        payload = np.ascontiguousarray(mask, dtype=np.uint8).tobytes()
    else:
        raise FormatError(f"cannot serialize {type(obj).__name__}")
    header = MAGIC + struct.pack("<I", dim)
    header += struct.pack(f"<{dim}I", *extents)
    header += struct.pack("<d", h)
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_binary(path):
    """Read an HVGF file: ScalarGrid, SymMatField, or (mask, h) for u8 payloads."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    try:
        (dim,) = struct.unpack_from("<I", raw, 4)
        if dim not in (2, 3):
            raise FormatError(f"{path}: unsupported dim {dim}")
        extents = struct.unpack_from(f"<{dim}I", raw, 8)
        off = 8 + 4 * dim
        (h,) = struct.unpack_from("<d", raw, off)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)") from exc
    _check_spacing(path, h, dim)
    off += 8
    nodes = math.prod(extents)
    body = raw[off:]
    origin = _origin_centered(extents, h)
    if len(body) == 8 * nodes:
        values = np.frombuffer(body, dtype="<f8").reshape(extents)
        return _build(path, ScalarGrid, h=h, origin=origin, values=values.copy())
    m = symmat.packed_size(dim)
    if len(body) == 8 * nodes * m:
        values = np.frombuffer(body, dtype="<f8").reshape(extents + (m,)).copy()
        return _build(path, SymMatField, h=h, origin=origin, values=values,
                      valid=np.isfinite(values).all(axis=-1))
    if len(body) == nodes:
        mask = np.frombuffer(body, dtype=np.uint8).reshape(extents).copy()
        return mask, h
    raise FormatError(
        f"{path}: payload of {len(body)} bytes matches no known layout "
        f"for extents {extents}"
    )


def _read(path, cls, what):
    """Read a ``cls`` object from CSV or binary, sniffing the format."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    obj = read_binary(path) if head == MAGIC else read_csv(path)
    if not isinstance(obj, cls):
        raise FormatError(f"{path}: expected {what}")
    return obj


def read_field(path) -> SymMatField:
    """Read a SymMatField from CSV or binary, sniffing the format."""
    return _read(path, SymMatField, "a symmetric matrix field")


def read_grid(path) -> ScalarGrid:
    """Read a ScalarGrid from CSV or binary, sniffing the format."""
    return _read(path, ScalarGrid, "a scalar grid")
