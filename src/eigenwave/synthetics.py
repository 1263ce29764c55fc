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

from .dataset import FrequencyDataset
from .grid import Grid2D, GridError, Model, ScalarField, speed_to_slowness
from .helmholtz import (
    Acquisition,
    HelmholtzOperator,
    _run_lanes,
    _solve_slab,
    assemble,
    receiver_matrix,
    source_batch,
    trim_heap,
)


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

    The frequencies run as a pipeline on helmholtz's slab lanes: while
    the worker lanes solve frequency i, the calling thread assembles and
    factors frequency i+1, then joins them on what is left.  Every LU is
    made and dropped on the calling thread (see the helmholtz module
    docstring for the leak a worker-made LU caused).  Each slab task
    densifies its SLAB_COLUMNS source columns, solves them under
    solve_array's residual contract and refinement, and writes the
    receiver samples straight into the data, so no full wavefield and no
    dense source block is ever held; the heap is trimmed as each
    frequency's LU is dropped, which makes the peak RSS the same from one
    run to the next.  A pipelined variant that kept each
    frequency's wavefields ran just as fast on the forward_survey
    benchmark (321x161, 64 sources, where one wavefield block is 53 MB),
    but its peak RSS read 415-426 MB, 13-14% above the unpipelined loop
    and past the benchmark's 10% memory bound.  The data are bit-identical
    to sampling solve_array's result: each slab is the same SuperLU call
    on the same columns.
    """
    grid = model_true.grid
    freqs = tuple(float(f) for f in frequencies_hz)
    rec_op = receiver_matrix(grid, acquisition)
    loads = source_batch(grid, acquisition)
    data = np.empty(
        (len(freqs), acquisition.n_sources, acquisition.n_receivers),
        dtype=np.complex128,
    )

    def factored(f: float) -> HelmholtzOperator:
        op = assemble(model_true, 2.0 * np.pi * f)
        op.factor()
        return op

    ahead = factored(freqs[0]) if freqs else None
    for i in range(len(freqs)):
        op, lu = ahead, ahead.factor()
        trim_heap()  # the previous frequency's LU, if any, is gone

        def sample(cols: slice) -> None:
            x = _solve_slab(lu, op.matrix, loads[:, cols].toarray(), "N")
            data[i, cols] = (rec_op @ x).T

        def factor_next() -> None:
            nonlocal ahead
            ahead = factored(freqs[i + 1])

        _run_lanes(acquisition.n_sources, sample, factor_next if i + 1 < len(freqs) else None)
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
