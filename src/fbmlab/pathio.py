"""Binary and CSV containers for simulated paths.

Binary layout (little endian): a 32-byte header
    magic "FBMP" (4s) | version (u32) | H (f64) | N (u32) | count (u32) | seed (u64)
followed by count * (N + 1) float64 path values.  The container does not
record the time horizon; the grid is taken to span [0, 1] unless the reader
overrides it (the CLI exposes --T for that).
"""
from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from .fbm import FbmPath

__all__ = ["write_paths", "read_paths", "columns_to_csv", "paths_to_csv"]

_MAGIC = b"FBMP"
_VERSION = 1
_HEADER = struct.Struct("<4sIdIIQ")
assert _HEADER.size == 32


def write_paths(filename: str, paths: Sequence[FbmPath]) -> None:
    if not paths:
        raise ValueError("nothing to write")
    first = paths[0]
    for p in paths:
        if (p.H, p.N, p.seed, p.T) != (first.H, first.N, first.seed, first.T):
            raise ValueError("all paths in a container must share H, N, seed "
                             "and horizon")
    header = _HEADER.pack(_MAGIC, _VERSION, first.H, first.N, len(paths),
                          first.seed)
    values = np.ascontiguousarray(
        np.stack([p.values for p in paths]), dtype="<f8")
    with open(filename, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())


def read_paths(filename: str, T: float = 1.0) -> list[FbmPath]:
    with open(filename, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{filename}: truncated header")
        magic, version, H, N, count, seed = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"{filename}: not a path container (bad magic)")
        if version != _VERSION:
            raise ValueError(f"{filename}: unsupported version {version}")
        if count == 0:
            raise ValueError(f"{filename}: the container holds no path")
        body = np.frombuffer(fh.read(), dtype="<f8")
    expected = count * (N + 1)
    if body.size != expected:
        raise ValueError(f"{filename}: expected {expected} values, "
                         f"found {body.size}")
    values = body.reshape(count, N + 1)
    return [FbmPath(H=H, T=T, N=N, values=values[i].copy(), seed=seed,
                    path_index=i, method="file")
            for i in range(count)]


def columns_to_csv(t: np.ndarray, columns: Sequence[np.ndarray]) -> str:
    """Time-indexed columns as CSV: header ``t,value`` for one column,
    ``t,value_0,value_1,...`` for several; every field is a plain number."""
    if not columns:
        raise ValueError("nothing to export")
    names = (["value"] if len(columns) == 1
             else [f"value_{i}" for i in range(len(columns))])
    rows = np.column_stack([t, *columns]).tolist()
    lines = [",".join(["t"] + names)] + [",".join(map(repr, r)) for r in rows]
    return "\n".join(lines) + "\n"


def paths_to_csv(paths: Sequence[FbmPath]) -> str:
    """The paths' values on their shared grid, one column each."""
    if not paths:
        raise ValueError("nothing to export")
    return columns_to_csv(paths[0].times, [p.values for p in paths])
