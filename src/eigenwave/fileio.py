"""Bit-exact persistence of fields and of multi-file archives.

Field files ("EWF1") carry one ASCII header line followed by the raw
little-endian float64 payload in node-index order, so the round trip
write -> read reproduces every value bit for bit.

An archive is a directory of manifest.txt and headerless little-endian
payload files whose shapes the manifest gives; read_payload checks each
file's size.  The manifest has `key = value` lines and `name =` lists of
indented entry lines.  new_archive writes a whole archive into a fresh
sibling directory and swaps it in once every file is written, so readers
find the old archive or the complete new one, never a mix of the two.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .grid import Grid2D, GridError, ScalarField

MAGIC = "EWF1"
MANIFEST_NAME = "manifest.txt"


class FieldFileError(ValueError):
    """Malformed field file or archive, or a directory that is not an archive."""


def _sibling(path: Path, tag: str) -> Path:
    # unique per writing thread, so concurrent writers never share one
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.{tag}")


@contextmanager
def atomic_open(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Binary file handle on a temporary sibling that replaces `path` on success.

    Readers see the old file or the complete new one, never a partial
    write; if the block raises, the temporary file is removed and `path`
    is left as it was.
    """
    path = Path(path)
    tmp = _sibling(path, "tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def new_archive(directory: str | os.PathLike) -> Iterator[Path]:
    """Empty sibling directory that replaces the archive `directory` on success.

    If the block raises, the sibling is removed and `directory` is left as
    it was.  A non-empty `directory` without a manifest.txt is not an
    archive: FieldFileError, before anything is written, so that a save
    never deletes unrelated files.
    """
    target = Path(directory).resolve()
    if target.exists() and not (target / MANIFEST_NAME).is_file():
        if not target.is_dir() or any(target.iterdir()):
            raise FieldFileError(f"{target} exists and is not an archive: not replacing it")
    target.parent.mkdir(parents=True, exist_ok=True)
    new, old = _sibling(target, "new"), _sibling(target, "old")
    new.mkdir()
    try:
        yield new
        # a directory cannot be renamed over a non-empty one: move the old
        # archive aside, and back if the new one cannot take its place
        replaced = target.exists()
        if replaced:
            os.rename(target, old)
        try:
            os.rename(new, target)
        except BaseException:
            if replaced:
                os.rename(old, target)
            raise
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def write_manifest(directory: Path, values: dict, lists: dict) -> None:
    """Write directory/manifest.txt: `key = value` lines, then `name =` lists."""
    lines = [f"{key} = {value}" for key, value in values.items()]
    for name, entries in lists.items():
        lines += [f"{name} =", *(f"  {entry}" for entry in entries)]
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_manifest(directory: str | os.PathLike, keys: tuple, lists: tuple = ()) -> dict:
    """Map each of `keys` to its value and each of `lists` to its entries.

    A line that is neither `key = value` for one of `keys`, nor `name =`
    for one of `lists`, nor an indented entry after such a line, raises
    FieldFileError, as does a key or list that no line names.
    """
    path = Path(directory) / MANIFEST_NAME
    found: dict = {}
    entries = None
    for line in path.read_text(encoding="ascii", errors="replace").splitlines():
        if not line.strip():
            continue
        key, sep, value = (t.strip() for t in line.partition("="))
        if entries is not None and line[0].isspace():
            entries.append(line.strip())
        elif sep and key in lists and not value:
            entries = found[key] = []
        elif sep and key in keys:
            found[key], entries = value, None
        else:
            raise FieldFileError(f"{path}: unrecognized line {line!r}")
    for key in (*keys, *lists):
        if key not in found:
            raise FieldFileError(f"{path}: missing '{key} =' line")
    return found


def write_payload(path: Path, array: np.ndarray, dtype: str) -> None:
    """Write `array` as raw `dtype` values in C order, with no header."""
    path.write_bytes(np.ascontiguousarray(array, dtype=dtype))


def read_payload(path: str | os.PathLike, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only array of `shape` from a file written by write_payload."""
    raw = Path(path).read_bytes()
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != expected:
        raise FieldFileError(f"{path}: {len(raw)} bytes, but {shape} {dtype} values need {expected}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


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
