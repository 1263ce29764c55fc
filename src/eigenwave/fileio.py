"""Bit-exact field persistence and simple export formats.

Field files ("EWF1") carry one ASCII header line followed by the raw
little-endian float64 payload in node-index order, so the round trip
write -> read reproduces every value bit for bit.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .grid import Grid2D, GridError, ScalarField

MAGIC = "EWF1"


class FieldFileError(ValueError):
    """Malformed field file header or payload."""


@contextmanager
def atomic_open(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Binary file handle on a temporary sibling that replaces `path` on success.

    Readers see the old file or the complete new one, never a partial
    write; if the block raises, the temporary file is removed and `path`
    is left as it was.
    """
    path = Path(path)
    # unique per writing thread, so concurrent writers never share one
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | os.PathLike, data) -> None:
    """Write a bytes-like object to `path` through atomic_open."""
    with atomic_open(path) as fh:
        fh.write(data)


def write_field(path: str | os.PathLike, field: ScalarField) -> None:
    g = field.grid
    header = f"{MAGIC} {g.nx} {g.nz} {g.hx!r} {g.hz!r} {g.x0!r} {g.z0!r}\n"
    with atomic_open(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(field.values.astype("<f8").tobytes())


def read_field(path: str | os.PathLike) -> ScalarField:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        if len(parts) != 7 or parts[0] != MAGIC:
            raise FieldFileError(f"bad header {header!r} in {path}")
        try:  # GridError, for a grid the header cannot describe, is a ValueError
            hx, hz, x0, z0 = (float(p) for p in parts[3:7])
            grid = Grid2D(nx=int(parts[1]), nz=int(parts[2]), hx=hx, hz=hz, x0=x0, z0=z0)
        except ValueError as exc:
            raise FieldFileError(f"bad header {header!r} in {path}: {exc}") from exc
        payload = fh.read()
    expected = grid.n_nodes * 8
    if len(payload) != expected:
        raise FieldFileError(
            f"payload size mismatch in {path}: header promises {expected} bytes, "
            f"found {len(payload)}"
        )
    try:
        return ScalarField(grid, np.frombuffer(payload, dtype="<f8"))
    except GridError as exc:
        raise FieldFileError(f"bad payload in {path}: {exc}") from exc


def write_pgm(path: str | os.PathLike, field: ScalarField) -> None:
    """8-bit binary PGM quick-look, linear min-max scaling."""
    img = field.as_2d()
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.grid.nx} {field.grid.nz}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def ensure_dir(path: str | os.PathLike) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
