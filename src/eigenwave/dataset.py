"""Frequency-domain receiver data for a set of sources, plus archive I/O.

A dataset archive (see fileio.new_archive) holds manifest.txt and
traces.c16.  The manifest has `snr_db = ` (`none` for clean data) and
three lists: frequencies in Hz, sources as `x z re im` (position and
complex amplitude) and receivers as `x z`.  traces.c16 is the
(n_freq, n_src, n_rec) complex128 block in C order, stored as
little-endian interleaved real/imag float64 pairs: receivers fastest,
then sources, then frequencies.
"""

from __future__ import annotations

import os
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


TRACES_NAME = "traces.c16"


def save_dataset(directory: str | os.PathLike, ds: FrequencyDataset) -> Path:
    """Write ds as the archive `directory`, replacing the one there."""
    acq = ds.acquisition
    with fileio.new_archive(directory) as tmp:
        fileio.write_payload(tmp / TRACES_NAME, ds.data, "<c16")
        fileio.write_manifest(
            tmp,
            {"snr_db": "none" if ds.snr_db is None else repr(ds.snr_db)},
            {
                "frequencies": [repr(f) for f in ds.frequencies],
                "sources": [f"{x!r} {z!r} {a.real!r} {a.imag!r}" for x, z, a in acq.sources],
                "receivers": [f"{x!r} {z!r}" for x, z in acq.receivers],
            },
        )
    return Path(directory)


def load_dataset(directory: str | os.PathLike) -> FrequencyDataset:
    """Read an archive written by save_dataset.

    Raises FieldFileError for a manifest line that is not `snr_db =` or
    part of the three lists, a missing `snr_db =` line or list, a value that
    is not a number, a source entry without 4 numbers or a receiver entry
    without 2, sources or receivers that Acquisition rejects, and a
    traces.c16 whose size is not 16 bytes per (frequency, source, receiver)
    that the lists give, which is how a dropped list entry shows.
    """
    root = Path(directory)
    man = fileio.read_manifest(root, ("snr_db",), ("frequencies", "sources", "receivers"))
    try:
        snr_db = None if man["snr_db"] == "none" else float(man["snr_db"])
        frequencies = tuple(float(f) for f in man["frequencies"])
        sources = [[float(t) for t in entry.split()] for entry in man["sources"]]
        receivers = [[float(t) for t in entry.split()] for entry in man["receivers"]]
        acq = Acquisition(
            sources=tuple((x, z, complex(re_a, im_a)) for x, z, re_a, im_a in sources),
            receivers=tuple((x, z) for x, z in receivers),
        )
    except ValueError as exc:  # GridError included
        raise fileio.FieldFileError(f"{root / fileio.MANIFEST_NAME}: malformed: {exc}") from exc
    shape = (len(frequencies), acq.n_sources, acq.n_receivers)
    data = fileio.read_payload(root / TRACES_NAME, "<c16", shape)
    return FrequencyDataset(acquisition=acq, frequencies=frequencies, data=data, snr_db=snr_db)
