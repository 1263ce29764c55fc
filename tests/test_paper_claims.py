"""The paper's compression, denoising and FWI claims, on a small salt model.

These check results, not numerical contracts: an edge-aware coefficient
compresses the salt dome better than Tikhonov (eta9) at equal N,
projecting a noisy model onto the leading eigenvectors of an edge-aware
basis built from it removes noise, and FWI over eigenvector coefficients
recovers the dome better than nodal FWI from the same smooth start.
Without the 2 and 3 Hz data (the 4/5/6 Hz band) nodal FWI cycle-skips
and ends no closer than its start, while the eigenbasis still roughly
halves the start's error: the paper's claim that the eigenvector
representation compensates for missing low frequencies.  In that band
the paper's implementation guidelines show too: an N schedule that grows
with frequency beats a fixed N, and an edge-aware basis beats Tikhonov.
Each assertion is a margin, well inside what the model gives, so a
change that flips an ordering fails while rounding-level drift does not.
The FWI check also bounds the factorizations and the line-search
backtracks per accepted step, so a change that quietly doubles the
evaluator's work, or loses the warm-started first trial, fails too.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from eigenwave.diffusion import DiffusionSpec
from eigenwave.eigenbasis import build_basis, project, reconstruct
from eigenwave.grid import Grid2D, relative_error
from eigenwave.helmholtz import Acquisition
from eigenwave.inversion import InversionConfig, run_inversion
from eigenwave.synthetics import (
    Dome,
    SaltModelSpec,
    add_data_noise,
    add_model_noise,
    generate_data,
    make_layered_model,
    make_salt_model,
)

GRID = Grid2D(nx=61, nz=31, hx=33.3, hz=33.3)
SPECS = {
    "eta1": DiffusionSpec("eta1", 1e-2),
    "eta4": DiffusionSpec("eta4", 1e-2),
    "eta8": DiffusionSpec("eta8"),
    "eta9": DiffusionSpec("eta9"),
}
N_MAX = 30
NOISE_PERCENT = 5.0


@pytest.fixture(scope="module")
def salt():
    """Linear 1500 -> 3500 m/s background with one 4500 m/s dome."""
    x, z = GRID.extent_x, GRID.extent_z
    dome = Dome(x=0.5 * x, z=0.55 * z, rx=0.2 * x, rz=0.25 * z, speed=4500.0)
    return make_salt_model(SaltModelSpec(1500.0, 3500.0, (dome,)), GRID)


def projection_error(reference, field, basis, n=N_MAX):
    """Percent distance from reference to the n-term projection of field."""
    return relative_error(reference, reconstruct(project(field, basis, n)))


@pytest.fixture(scope="module")
def compression(salt):
    """Percent error of the N-term reconstruction of the salt model, per eta and N."""
    errors = {}
    for kind in ("eta1", "eta8", "eta9"):
        basis = build_basis(salt.field, SPECS[kind], N_MAX)
        errors[kind] = {n: projection_error(salt.field, salt.field, basis, n) for n in (10, 20, 30)}
    return errors


@pytest.mark.parametrize("n", [10, 20, 30])
def test_edge_aware_eta1_compresses_better_than_tikhonov(compression, n):
    # about 0.27-0.41 of the eta9 error
    assert compression["eta1"][n] < 0.5 * compression["eta9"][n]


def test_total_variation_compresses_better_than_tikhonov(compression):
    # about 0.72 of the eta9 error
    assert compression["eta8"][30] < 0.85 * compression["eta9"][30]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_projection_denoises_with_edge_aware_basis(salt, seed):
    noisy = add_model_noise(salt, NOISE_PERCENT, seed)
    noisy_err = relative_error(salt.field, noisy.field)
    err = {}
    for kind in ("eta1", "eta4", "eta9"):
        basis = build_basis(noisy.field, SPECS[kind], N_MAX)
        err[kind] = projection_error(salt.field, noisy.field, basis)
    # edge-aware: about 0.65-0.75 of the noisy input's error
    assert err["eta1"] < 0.85 * noisy_err
    assert err["eta4"] < 0.85 * noisy_err
    # Tikhonov smooths the dome away: about 1.45 times the noisy input's error
    assert err["eta9"] > 1.25 * noisy_err


FREQUENCIES = (2.0, 3.0, 4.0)
HIGH_BAND = (4.0, 5.0, 6.0)
EIGENBASIS_FWI = InversionConfig(
    frequencies=FREQUENCIES, n_schedule=(10, 20, 30), n_iter=5, spec=SPECS["eta4"]
)
NODAL_FWI = InversionConfig(frequencies=FREQUENCIES, n_iter=5, nodal=True)


@pytest.fixture(scope="module")
def survey(salt):
    """Clean 2/3/4/5/6 Hz data of the salt model: 8 sources and 40 receivers
    at depth 2h, spread evenly from 2h in from each side.  Noise is drawn
    frequency by frequency, so 2/3/4 Hz come first and draw the same noise
    as a 2/3/4 Hz survey."""
    depth, x0, x1 = 2.0 * GRID.hz, 2.0 * GRID.hx, GRID.extent_x - 2.0 * GRID.hx
    acq = Acquisition(
        sources=tuple((x, depth, 1.0) for x in np.linspace(x0, x1, 8)),
        receivers=tuple((x, depth) for x in np.linspace(x0, x1, 40)),
    )
    return generate_data(salt, acq, FREQUENCIES + HIGH_BAND[1:])


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_eigenbasis_fwi_beats_nodal_fwi(salt, survey, seed):
    data = add_data_noise(survey, 30.0, seed)
    start = make_layered_model(GRID, 1500.0, 3500.0)  # 19.37% off the salt model
    eigen, history = run_inversion(EIGENBASIS_FWI, data, start)
    nodal, _ = run_inversion(NODAL_FWI, data, start)
    err = relative_error(salt.field, eigen.field)
    # about 9.2-9.5% against 12.1-14.0%, a ratio of 0.67-0.76
    assert err < 0.85 * relative_error(salt.field, nodal.field)
    assert err < 0.6 * relative_error(salt.field, start.field)
    # 25 factorizations and 7 backtracks for 15 accepted steps on every
    # seed; with a cold first trial at every step it is 27 and 9
    accepted = sum(r.accepted for r in history.records if r.iteration > 0)
    assert sum(r.n_factor for r in history.records) <= 2.0 * accepted
    assert sum(r.n_backtracks for r in history.records) <= 0.55 * accepted


@pytest.fixture(scope="module")
def high_band_error(salt, survey):
    """Percent model error after FWI of the 4/5/6 Hz data, with noise drawn
    from `seed`, from the layered start; each (seed, config) runs once."""
    start = make_layered_model(GRID, 1500.0, 3500.0)

    @functools.cache
    def error(seed, config):
        data = add_data_noise(survey, 30.0, seed)
        final, _ = run_inversion(replace(config, frequencies=HIGH_BAND), data, start)
        return relative_error(salt.field, final.field)

    return error


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eigenbasis_compensates_for_missing_low_frequencies(salt, high_band_error, seed):
    # eta4 at beta = 1e-2 saturates everywhere on the layered start (its
    # smallest normalized gradient is about 0.086), so its basis is that of
    # total variation (eta8): this pins the eigenbasis, not eta4's beta
    err = high_band_error(seed, EIGENBASIS_FWI)
    nodal_err = high_band_error(seed, NODAL_FWI)
    start_err = relative_error(salt.field, make_layered_model(GRID, 1500.0, 3500.0).field)
    # about 9.0-9.7% against 21.3-21.4% for nodal, from a 19.37% start
    assert err < 0.6 * nodal_err
    assert err < 0.55 * start_err
    assert nodal_err >= start_err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fwi_guidelines_hold_without_low_frequencies(high_band_error, seed):
    """The paper's implementation guidelines, at 4/5/6 Hz where they show.

    N should grow with frequency: the 10/20/30 schedule beats a fixed
    N = 30.  And the basis should be edge-aware: eta4 beats Tikhonov
    (eta9).  On the layered start, eta4 at beta = 1e-2 equals 100 x eta8,
    total variation, to within 6e-8 (tanh saturates where the smallest
    normalized gradient, 0.086, is far above beta), so its basis and its
    errors are those of TV: the second check is TV against Tikhonov, not a
    claim about eta4's beta.  At 2/3/4 Hz both gaps are too small to
    assert.
    """
    err = high_band_error(seed, EIGENBASIS_FWI)
    fixed_n = high_band_error(seed, replace(EIGENBASIS_FWI, n_schedule=(30, 30, 30)))
    tikhonov = high_band_error(seed, replace(EIGENBASIS_FWI, spec=SPECS["eta9"]))
    # about 0.82-0.87 of the fixed-N error, and 0.64-0.67 of Tikhonov's
    assert err < 0.93 * fixed_n
    assert err < 0.75 * tikhonov
