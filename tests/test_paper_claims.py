"""The paper's compression and denoising claims, on a small salt model.

These check results, not numerical contracts: an edge-aware coefficient
compresses the salt dome better than Tikhonov (eta9) at equal N, and
projecting a noisy model onto the leading eigenvectors of an edge-aware
basis built from it removes noise.  Each assertion is a margin, well
inside what the model gives, so a change that flips an ordering fails
while rounding-level drift does not.
"""

import pytest

from eigenwave.diffusion import DiffusionSpec
from eigenwave.eigenbasis import build_basis, project, reconstruct
from eigenwave.grid import Grid2D, relative_error
from eigenwave.synthetics import Dome, SaltModelSpec, add_model_noise, make_salt_model

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
