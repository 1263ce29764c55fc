"""Frequency-domain receiver data for a set of sources, plus archive I/O.

Trace files store complex128 samples, i.e. little-endian interleaved
real/imag float64 pairs, receivers fastest then sources.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .grid import GridError
from .helmholtz import Acquisition


@dataclass(frozen=True)
class FrequencyDataset:
    """Per (frequency, source) complex receiver traces."""

    acquisition: Acquisition
    frequencies: tuple[float, ...]
    data: np.ndarray = field(repr=False)  # (n_freq, n_src, n_rec) complex
    snr_db: float | None = None

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        arr = np.asarray(self.data, dtype=np.complex128)
        shape = (len(freqs), self.acquisition.n_sources, self.acquisition.n_receivers)
        if arr.shape != shape:
            raise GridError(f"data must have shape {shape}, got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "data", arr)

    @property
    def n_frequencies(self) -> int:
        return len(self.frequencies)

    def frequency_index(self, freq_hz: float) -> int:
        for i, f in enumerate(self.frequencies):
            if np.isclose(f, freq_hz, rtol=1e-12, atol=0.0):
                return i
        raise GridError(f"frequency {freq_hz} Hz not in dataset {self.frequencies}")


MANIFEST_NAME = "dataset_manifest.txt"
ACQ_NAME = "acquisition.txt"
COUNT_KEYS = ("n_frequencies", "n_sources", "n_receivers")
_FREQUENCY_LINE = re.compile(r"frequency\s*=\s*(\S+)\s+file\s*=\s*(\S+)")


def save_dataset(directory: str | os.PathLike, ds: FrequencyDataset) -> Path:
    """Write acquisition.txt, one traces_*.dat per frequency, then the manifest.

    Each file goes to a temporary sibling that then replaces it.
    """
    out = fileio.ensure_dir(directory)
    acq = ds.acquisition
    lines = [f"sources = {acq.n_sources}"]
    lines += [f"  {x!r} {z!r} {a.real!r} {a.imag!r}" for x, z, a in acq.sources]
    lines.append(f"receivers = {acq.n_receivers}")
    lines += [f"  {x!r} {z!r}" for x, z in acq.receivers]
    fileio.write_atomic(out / ACQ_NAME, ("\n".join(lines) + "\n").encode("ascii"))

    man = [
        f"n_frequencies = {ds.n_frequencies}",
        f"n_sources = {acq.n_sources}",
        f"n_receivers = {acq.n_receivers}",
        f"snr_db = {'none' if ds.snr_db is None else repr(ds.snr_db)}",
    ]
    for i, f in enumerate(ds.frequencies):
        name = f"traces_{i + 1:04d}.dat"
        man.append(f"frequency = {f!r} file = {name}")
        fileio.write_atomic(out / name, ds.data[i].astype("<c16").tobytes())
    fileio.write_atomic(out / MANIFEST_NAME, ("\n".join(man) + "\n").encode("ascii"))
    return out


def load_dataset(directory: str | os.PathLike) -> FrequencyDataset:
    root = Path(directory)
    acq_lines = (root / ACQ_NAME).read_text(encoding="ascii").splitlines()
    pos = 0

    def read_count(tag: str) -> int:
        nonlocal pos
        key, _, value = acq_lines[pos].partition("=")
        if key.strip() != tag:
            raise fileio.FieldFileError(f"expected '{tag} =' line, got {acq_lines[pos]!r}")
        pos += 1
        return int(value)

    try:
        n_src = read_count("sources")
        sources = []
        for _ in range(n_src):
            x, z, re_a, im_a = (float(t) for t in acq_lines[pos].split())
            sources.append((x, z, complex(re_a, im_a)))
            pos += 1
        n_rec = read_count("receivers")
        receivers = []
        for _ in range(n_rec):
            x, z = (float(t) for t in acq_lines[pos].split())
            receivers.append((x, z))
            pos += 1
    except (IndexError, ValueError) as exc:
        raise fileio.FieldFileError(f"{root / ACQ_NAME}: malformed near line {pos + 1}") from exc
    try:
        acq = Acquisition(sources=tuple(sources), receivers=tuple(receivers))
    except GridError as exc:
        raise fileio.FieldFileError(f"{root / ACQ_NAME}: {exc}") from exc

    frequencies, files, snr_db = _read_manifest(root / MANIFEST_NAME, n_src, n_rec)
    data = np.empty((len(frequencies), n_src, n_rec), dtype=np.complex128)
    for i, name in enumerate(files):
        raw = np.frombuffer((root / name).read_bytes(), dtype="<c16")
        if raw.size != n_src * n_rec:
            raise fileio.FieldFileError(
                f"trace file {name}: expected {n_src * n_rec} samples, found {raw.size}"
            )
        data[i] = raw.reshape(n_src, n_rec)
    return FrequencyDataset(
        acquisition=acq, frequencies=tuple(frequencies), data=data, snr_db=snr_db
    )


def _read_manifest(
    path: Path, n_src: int, n_rec: int
) -> tuple[list[float], list[str], float | None]:
    """Frequencies, trace file names and SNR, checked against the counts."""
    frequencies: list[float] = []
    files: list[str] = []
    snr_db: float | None = None
    counts: dict[str, int] = {}
    for line in path.read_text(encoding="ascii").splitlines():
        line = line.strip()
        if not line:
            continue
        freq_line = _FREQUENCY_LINE.fullmatch(line)
        key, sep, value = (t.strip() for t in line.partition("="))
        if not freq_line and not (sep and key in ("snr_db", *COUNT_KEYS)):
            raise fileio.FieldFileError(f"{path}: unrecognized line {line!r}")
        if freq_line and (freq_line[2] == ".." or Path(freq_line[2]).name != freq_line[2]):
            # a bare name only: the manifest must not reach outside its archive
            raise fileio.FieldFileError(f"{path}: trace file {freq_line[2]!r} is not a bare file name")
        try:
            if freq_line:
                frequencies.append(float(freq_line[1]))
                files.append(freq_line[2])
            elif key == "snr_db":
                snr_db = None if value == "none" else float(value)
            else:
                counts[key] = int(value)
        except ValueError as exc:
            raise fileio.FieldFileError(f"{path}: bad value in line {line!r}") from exc
    found = dict(zip(COUNT_KEYS, (len(frequencies), n_src, n_rec)))
    for key, n in found.items():
        if key not in counts:
            raise fileio.FieldFileError(f"{path}: missing '{key} =' line")
        if counts[key] != n:
            raise fileio.FieldFileError(f"{path}: {key} = {counts[key]}, but found {n}")
    return frequencies, files, snr_db
