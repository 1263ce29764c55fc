"""The paper's compression, denoising and FWI claims, on a small salt model.

These check results, not numerical contracts: an edge-aware coefficient
compresses the salt dome better than Tikhonov (eta9) at equal N,
projecting a noisy model onto the leading eigenvectors of an edge-aware
basis built from it removes noise, and FWI over eigenvector coefficients
recovers the dome better than nodal FWI from the same smooth start.  It
also does so from a start under a water layer, where the gradient
vanishes and the basis must not collapse into the flat rows.
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

from eigenwave.diffusion import BETA_FREE_KINDS, ETA_KINDS, DiffusionSpec
from eigenwave.eigenbasis import EigenSolveError, build_basis, project, reconstruct
from eigenwave.grid import Grid2D, ScalarField, relative_error, speed_to_slowness
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
# one beta grid for every kind's compression; no kind gets its own
COMPRESSION_BETAS = (1e-4, 1e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 10.0)
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
    """Percent error of the N-term reconstruction of the salt model, per
    spec and N: every kind at every beta of COMPRESSION_BETAS, and eta8
    and eta9 once.  A spec whose build raises EigenSolveError has no
    entry, as decompose drops it; on this model those are eta2 and eta7
    at beta = 1e-4, whose A^-2 overflows."""
    specs = [DiffusionSpec(k, b) for k in ETA_KINDS if k not in BETA_FREE_KINDS for b in COMPRESSION_BETAS]
    errors = {}
    for spec in specs + [DiffusionSpec(k) for k in BETA_FREE_KINDS]:
        try:
            basis = build_basis(salt.field, spec, N_MAX)
        except EigenSolveError:
            continue
        errors[spec] = {n: projection_error(salt.field, salt.field, basis, n) for n in (10, 20, 30)}
    return errors


@pytest.mark.parametrize("n", [10, 20, 30])
def test_edge_aware_eta1_compresses_better_than_tikhonov(compression, n):
    # about 0.27-0.41 of the eta9 error
    assert compression[SPECS["eta1"]][n] < 0.5 * compression[SPECS["eta9"]][n]


def test_total_variation_compresses_better_than_tikhonov(compression):
    # about 0.44 of the eta9 error
    assert compression[SPECS["eta8"]][30] < 0.85 * compression[SPECS["eta9"]][30]


@pytest.mark.parametrize("n", [10, 20, 30])
@pytest.mark.parametrize("kind", [k for k in ETA_KINDS if k != "eta9"])
def test_every_edge_aware_kind_compresses_better_than_tikhonov(compression, kind, n):
    # the paper's comparison of its coefficients: each at its best beta of
    # the one grid is about 0.25-0.52 of the eta9 error, the worst being
    # eta8 at N = 10 (5.15% against 9.88%)
    best = min(err[n] for spec, err in compression.items() if spec.kind == kind)
    assert best < 0.7 * compression[SPECS["eta9"]][n]


@pytest.fixture(scope="module")
def best_specs(compression):
    """Per kind, the spec of COMPRESSION_BETAS at which that kind
    compresses the true model best at N_MAX."""
    return {
        kind: min((spec for spec in compression if spec.kind == kind), key=lambda spec: compression[spec][N_MAX])
        for kind in ETA_KINDS
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_projection_denoises_with_edge_aware_basis(salt, best_specs, seed):
    # beta is chosen against the truth, so this compares each kind's best
    # case, not a beta a user could pick from the noisy model alone
    noisy = add_model_noise(salt, NOISE_PERCENT, seed)
    noisy_err = relative_error(salt.field, noisy.field)
    ratio = {
        kind: projection_error(salt.field, noisy.field, build_basis(noisy.field, spec, N_MAX)) / noisy_err
        for kind, spec in best_specs.items()
    }
    # edge-aware, eta1-eta8: about 0.64-0.77 of the noisy input's error
    # (0.64-0.80 on seeds 6-10)
    assert {kind: r for kind, r in ratio.items() if kind != "eta9" and not r < 0.85} == {}
    # Tikhonov smooths the dome away: about 1.45 times the noisy input's error
    assert ratio["eta9"] > 1.25


FREQUENCIES = (2.0, 3.0, 4.0)
HIGH_BAND = (4.0, 5.0, 6.0)
EIGENBASIS_FWI = InversionConfig(
    frequencies=FREQUENCIES, n_schedule=(10, 20, 30), n_iter=5, spec=SPECS["eta4"]
)
NODAL_FWI = InversionConfig(frequencies=FREQUENCIES, n_iter=5)


def line_acquisition():
    """8 sources and 40 receivers at depth 2h, spread evenly from 2h in from
    each side."""
    depth, x0, x1 = 2.0 * GRID.hz, 2.0 * GRID.hx, GRID.extent_x - 2.0 * GRID.hx
    return Acquisition(
        sources=tuple((x, depth, 1.0) for x in np.linspace(x0, x1, 8)),
        receivers=tuple((x, depth) for x in np.linspace(x0, x1, 40)),
    )


@pytest.fixture(scope="module")
def survey(salt):
    """Clean 2/3/4/5/6 Hz data of the salt model.  Noise is drawn frequency
    by frequency, so 2/3/4 Hz come first and draw the same noise as a
    2/3/4 Hz survey."""
    return generate_data(salt, line_acquisition(), FREQUENCIES + HIGH_BAND[1:])


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


def under_water(model, rows=4):
    """The model with its top `rows` rows of nodes at 1500 m/s, a water
    layer whose gradient vanishes exactly on all but its deepest row."""
    speeds = model.speeds().as_2d().copy()
    speeds[:rows] = 1500.0
    return speed_to_slowness(ScalarField(GRID, speeds.reshape(-1)), model.c_min, model.c_max)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eigenbasis_fwi_from_water_layer_start(salt, seed):
    # 183 nodes of the start and 404 of the truth have a zero gradient;
    # eta4 must give them its largest value, 1/beta^2.  With eta = 1
    # there, the leading eigenvectors lived in the water rows and the run
    # ended near 49.8%, far above its start; it ends at about 8.4-8.6%
    truth, start = under_water(salt), under_water(make_layered_model(GRID, 1500.0, 3500.0))
    data = add_data_noise(generate_data(truth, line_acquisition(), FREQUENCIES), 30.0, seed)
    final, _ = run_inversion(EIGENBASIS_FWI, data, start)
    start_err = relative_error(truth.field, start.field)  # 18.29%
    assert relative_error(truth.field, final.field) < 0.6 * start_err


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
