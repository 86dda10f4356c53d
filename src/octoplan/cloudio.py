"""Point-cloud file IO.

Two formats:

* xyz text: one point per line, three space-separated floats formatted with
  repr (shortest round-trip form). 2-D clouds are written with a zero third
  column.
* binary: a little-endian uint64 point count followed by count * 3
  little-endian float64 values.

Readers reject non-finite coordinates, naming the 1-based point row.  They
return 3-D clouds unless every third coordinate is
exactly zero, in which case the cloud is treated as 2-D; pass dim to
override the inference.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import CloudParseError
from .geometry import PointCloud

_HEADER = struct.Struct("<Q")


def _as_three_columns(cloud: PointCloud) -> np.ndarray:
    pts = cloud.points
    if pts.shape[1] == 2:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    return pts


def _shape_result(rows: np.ndarray, dim, path) -> PointCloud:
    if not np.isfinite(rows).all():
        row = int(np.argmin(np.isfinite(rows).all(axis=1))) + 1
        raise CloudParseError(path, row,
                              f"point row {row} has a non-finite coordinate")
    if dim is None:
        dim = 2 if (len(rows) and not rows[:, 2].any()) else 3
    if dim not in (2, 3):
        raise CloudParseError(path, 0, f"dim must be 2 or 3, got {dim}")
    if dim == 2 and len(rows) and rows[:, 2].any():
        raise CloudParseError(path, 0, "nonzero third column in a 2-D read")
    return PointCloud(rows[:, :dim])


def write_xyz(cloud: PointCloud, path) -> None:
    pts = _as_three_columns(cloud)
    with open(path, "w") as fh:
        fh.write(("%r %r %r\n" * len(pts)) % tuple(pts.ravel().tolist()))


def read_xyz(path, dim=None) -> PointCloud:
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) != 3:
                raise CloudParseError(
                    path, line_no, f"expected 3 fields, got {len(fields)}")
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise CloudParseError(path, line_no, str(exc)) from None
    arr = np.asarray(rows, dtype=float).reshape(len(rows), 3)
    return _shape_result(arr, dim, path)


def write_binary(cloud: PointCloud, path) -> None:
    pts = _as_three_columns(cloud)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(len(pts)))
        fh.write(np.ascontiguousarray(pts, dtype="<f8").tobytes())


def read_binary(path, dim=None) -> PointCloud:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise CloudParseError(path, 0, "truncated header")
        (count,) = _HEADER.unpack(head)
        body = fh.read()
    expected = count * 3 * 8
    if len(body) != expected:
        raise CloudParseError(
            path, 0,
            f"expected {expected} payload bytes for {count} points, "
            f"got {len(body)}")
    arr = np.frombuffer(body, dtype="<f8").astype(float).reshape(count, 3)
    return _shape_result(arr, dim, path)
