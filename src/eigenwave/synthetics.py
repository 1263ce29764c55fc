"""Procedural test media, frequency-domain data synthesis and noise models.

Everything here is a pure function of its arguments and a seed, so
archives regenerate byte-identically on a fixed BLAS thread count.  The
count matters because a threaded BLAS may round SuperLU's supernode
updates differently: with OpenBLAS on 2 threads, a 16-column Helmholtz
solve at 161x81 differed from the same columns solved one at a time by
up to 2.9e-12, and matched bit for bit on 1 thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FrequencyDataset, check_frequencies
from .grid import Grid2D, GridError, Model, ScalarField, speed_to_slowness
from .helmholtz import Acquisition, receiver_data


@dataclass(frozen=True)
class Dome:
    """Elliptical high-speed inclusion: center and radii in meters."""

    x: float
    z: float
    rx: float
    rz: float
    speed: float


@dataclass(frozen=True)
class SaltModelSpec:
    """Linear-in-depth background with elliptical domes painted on top."""

    c_top: float
    c_bottom: float
    domes: tuple[Dome, ...] = ()
    c_min: float = 1000.0
    c_max: float = 6000.0

    def __post_init__(self):
        object.__setattr__(self, "domes", tuple(self.domes))
        for d in self.domes:
            if not (self.c_min <= d.speed <= self.c_max):
                raise GridError(
                    f"dome speed {d.speed} outside [{self.c_min}, {self.c_max}]"
                )


def make_layered_model(
    grid: Grid2D,
    c_top: float,
    c_bottom: float,
    c_min: float = 1000.0,
    c_max: float = 6000.0,
) -> Model:
    """1D profile, linear in depth; every column identical."""
    return make_salt_model(SaltModelSpec(c_top, c_bottom, c_min=c_min, c_max=c_max), grid)


def make_salt_model(spec: SaltModelSpec, grid: Grid2D) -> Model:
    """Rasterize the background profile and overwrite dome interiors."""
    zs = (grid.zs() - grid.z0) / grid.extent_z
    speeds = np.repeat(spec.c_top + (spec.c_bottom - spec.c_top) * zs, grid.nx)
    speeds = speeds.reshape(grid.nz, grid.nx)
    xg, zg = np.meshgrid(grid.xs(), grid.zs())
    for d in spec.domes:
        if not (
            grid.contains(d.x - d.rx, d.z) and grid.contains(d.x + d.rx, d.z)
            and grid.contains(d.x, d.z - d.rz) and grid.contains(d.x, d.z + d.rz)
        ):
            raise GridError(f"dome at ({d.x}, {d.z}) extends outside the domain")
        inside = ((xg - d.x) / d.rx) ** 2 + ((zg - d.z) / d.rz) ** 2 <= 1.0
        speeds[inside] = d.speed
    return speed_to_slowness(
        ScalarField(grid, speeds.reshape(-1)), c_min=spec.c_min, c_max=spec.c_max
    )


def generate_data(
    model_true: Model, acquisition: Acquisition, frequencies_hz
) -> FrequencyDataset:
    """Forward-solve and sample receivers for every (frequency, source).

    helmholtz.receiver_data does the work at omega = 2 pi f, two
    frequencies at a time; this wraps its block with the acquisition and
    the frequencies in Hz.  Frequencies that check_frequencies rejects
    raise GridError before anything is assembled.
    """
    freqs = check_frequencies(frequencies_hz)
    data = receiver_data(model_true, [2.0 * np.pi * f for f in freqs], acquisition)
    return FrequencyDataset(acquisition=acquisition, frequencies=freqs, data=data)


def add_model_noise(model: Model, percent: float, seed: int) -> Model:
    """Scale every nodal speed by an independent uniform factor in +-percent."""
    if not 0.0 <= percent < 100.0:
        raise GridError(f"noise percent must be in [0, 100), got {percent}")
    if percent == 0.0:
        return model
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1.0 - percent / 100.0, 1.0 + percent / 100.0, model.grid.n_nodes)
    speeds = model.speeds().values * factors
    return speed_to_slowness(
        ScalarField(model.grid, speeds), c_min=model.c_min, c_max=model.c_max
    )


def add_data_noise(ds: FrequencyDataset, snr_db: float, seed: int) -> FrequencyDataset:
    """Add circular complex Gaussian noise at a fixed signal-to-noise ratio.

    Each (frequency, source) trace of energy E and length n receives noise
    with per-sample variance E * 10^(-snr/10) / n, generated independently.
    """
    if not np.isfinite(snr_db):
        raise GridError(f"snr_db must be finite, got {snr_db}")
    rng = np.random.default_rng(seed)
    noisy = np.array(ds.data)
    n_rec = ds.acquisition.n_receivers
    factor = 10.0 ** (-snr_db / 10.0)
    for i in range(ds.n_frequencies):
        for s in range(ds.acquisition.n_sources):
            trace = noisy[i, s]
            energy = float(np.sum(np.abs(trace) ** 2))
            sigma2 = energy * factor / n_rec
            noise = rng.standard_normal(n_rec) + 1j * rng.standard_normal(n_rec)
            noisy[i, s] = trace + np.sqrt(sigma2 / 2.0) * noise
    return FrequencyDataset(
        acquisition=ds.acquisition,
        frequencies=ds.frequencies,
        data=noisy,
        snr_db=snr_db,
    )
