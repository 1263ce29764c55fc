"""Edge-aware diffusion coefficients and the -div(eta grad) operator.

The nine coefficient formulas come from classical image-processing
regularizers (Perona-Malik, Geman, Green, Charbonnier, Lorentzian,
Gaussian, total variation, Tikhonov).  All of them act on gradient
magnitudes normalized by their maximum over the grid, so values stay in
[0, 1] regardless of the physical units of the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid2D, GridError, ScalarField, same_grid
from .helmholtz import PERMC_SPEC

ETA_KINDS = (
    "eta1",  # Perona-Malik rational
    "eta2",  # Perona-Malik exponential
    "eta3",  # Geman
    "eta4",  # Green
    "eta5",  # Charbonnier
    "eta6",  # Lorentzian
    "eta7",  # Gaussian
    "eta8",  # total variation
    "eta9",  # Tikhonov (constant 1)
)
BETA_FREE_KINDS = ("eta8", "eta9")

# below this raw gradient magnitude the 1/|grad| style formulas switch to 1
GRAD_THRESHOLD = 1e-12

LIFT_RTOL = 1e-10


class DiffusionError(ValueError):
    """Invalid coefficient specification or nonpositive coefficient field."""


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficient choice: kind eta1..eta9 plus scaling beta (unused by eta8/eta9)."""

    kind: str
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ETA_KINDS:
            raise DiffusionError(f"unknown coefficient kind {self.kind!r}, expected one of {ETA_KINDS}")
        if self.kind not in BETA_FREE_KINDS and not self.beta > 0.0:
            raise DiffusionError(f"{self.kind} needs beta > 0, got {self.beta}")


@dataclass(frozen=True)
class GradientNorms:
    """Gradient magnitudes of a field, normalized by their grid maxima.

    ngrad1 = |grad m| / gamma1 and ngrad2 = |grad m|^2 / gamma2 with
    gamma1 = max |grad m|, gamma2 = gamma1^2.  A constant field has
    gamma = 0; both normalized fields are then identically zero and
    `is_constant` is set.
    """

    ngrad1: ScalarField
    ngrad2: ScalarField
    gamma1: float
    gamma2: float
    is_constant: bool

    def raw_magnitude(self) -> np.ndarray:
        return self.ngrad1.values * self.gamma1


def gradient_norms(m: ScalarField) -> GradientNorms:
    """Normalized |grad m| and |grad m|^2, central differences inside,
    one-sided on the boundary."""
    g = m.grid
    arr = m.as_2d()
    dz, dx = np.gradient(arr, g.hz, g.hx)
    mag = np.hypot(dx, dz).reshape(-1)
    gamma1 = float(mag.max())
    if gamma1 == 0.0:
        zero = ScalarField(g, np.zeros(g.n_nodes))
        return GradientNorms(zero, zero, 0.0, 0.0, True)
    n1 = mag / gamma1
    return GradientNorms(
        ngrad1=ScalarField(g, n1),
        ngrad2=ScalarField(g, n1 * n1),
        gamma1=gamma1,
        gamma2=gamma1 * gamma1,
        is_constant=False,
    )


def eval_eta(spec: DiffusionSpec, norms: GradientNorms) -> ScalarField:
    """Pointwise coefficient field; strictly positive for every kind."""
    grid = norms.ngrad1.grid
    v1 = norms.ngrad1.values
    v2 = norms.ngrad2.values
    b = spec.beta
    kind = spec.kind

    if kind == "eta1":
        out = b / (b + v2)
    elif kind == "eta2":
        out = np.exp(-v2 / b)
    elif kind == "eta3":
        out = 2.0 * b / (b + v2) ** 2
    elif kind == "eta4":
        small = norms.raw_magnitude() < GRAD_THRESHOLD
        v1_safe = np.where(small, 1.0, v1)
        out = np.where(small, 1.0, np.tanh(v1_safe / b) / (b * v1_safe))
    elif kind == "eta5":
        out = (1.0 / b) * np.sqrt(b / (b + v2))
    elif kind == "eta6":
        out = b / (1.0 + b * v2) ** 2
    elif kind == "eta7":
        out = np.exp(-v2 / b) / b
    elif kind == "eta8":
        small = norms.raw_magnitude() < GRAD_THRESHOLD
        v1_safe = np.where(small, 1.0, v1)
        out = np.where(small, 1.0, 1.0 / v1_safe)
    else:  # eta9
        out = np.ones(grid.n_nodes)

    # exp-style formulas underflow to 0.0 at extreme beta; the coefficient
    # is mathematically positive, so floor it at the smallest normal float
    out = np.maximum(out, np.finfo(np.float64).tiny)
    if not np.all(out > 0.0):
        raise DiffusionError(f"{kind} produced nonpositive values (beta={b})")
    return ScalarField(grid, out)


@dataclass(frozen=True)
class DiffusionOperator:
    """Flux-form -div(eta grad) with homogeneous Dirichlet on every edge.

    `matrix` is the symmetrically eliminated interior operator (SPD).
    `boundary_op` maps a full nodal vector to the interior right-hand
    side produced by its boundary values, so the discrete Dirichlet
    problem A x = boundary_op @ m recovers the lift of m's edge data.
    The LU of `matrix` is built on first use and shared by the lift and
    the eigensolver.
    """

    grid: Grid2D
    matrix: sp.csc_matrix = field(repr=False)
    boundary_op: sp.csr_matrix = field(repr=False)
    _lu: spla.SuperLU | None = field(default=None, repr=False, compare=False)

    def factor(self) -> spla.SuperLU:
        if self._lu is None:
            try:
                lu = spla.splu(self.matrix, permc_spec=PERMC_SPEC)
            except RuntimeError as exc:  # singular factorization
                raise DiffusionError(f"diffusion LU failed: {exc}") from exc
            object.__setattr__(self, "_lu", lu)
        return self._lu

    def interior_indices(self) -> np.ndarray:
        g = self.grid
        ix, iz = np.meshgrid(np.arange(1, g.nx - 1), np.arange(1, g.nz - 1))
        return (iz.ravel() * g.nx + ix.ravel()).astype(np.int64)

    def embed(self, interior: np.ndarray) -> np.ndarray:
        """Zero-pad an interior vector back onto the full node set."""
        full = np.zeros(self.grid.n_nodes)
        full[self.interior_indices()] = interior
        return full


def assemble_diffusion(eta: ScalarField) -> DiffusionOperator:
    """Five-point flux discretization with arithmetic face averages of eta."""
    if np.any(eta.values <= 0.0):
        raise DiffusionError("eta must be strictly positive")
    g = eta.grid
    nx, nz = g.nx, g.nz
    e2d = eta.as_2d()
    inv_hx2 = 1.0 / (g.hx * g.hx)
    inv_hz2 = 1.0 / (g.hz * g.hz)

    # face coefficients at interior nodes, shaped (nz-2, nx-2)
    c = e2d[1:-1, 1:-1]
    coef_e = 0.5 * (c + e2d[1:-1, 2:]) * inv_hx2
    coef_w = 0.5 * (c + e2d[1:-1, :-2]) * inv_hx2
    coef_s = 0.5 * (c + e2d[2:, 1:-1]) * inv_hz2
    coef_n = 0.5 * (c + e2d[:-2, 1:-1]) * inv_hz2

    mx, mz = nx - 2, nz - 2
    n_int = mx * mz
    ii = np.arange(n_int).reshape(mz, mx)

    rows = [ii.ravel()]
    cols = [ii.ravel()]
    vals = [(coef_e + coef_w + coef_n + coef_s).ravel()]

    brows: list[np.ndarray] = []
    bcols: list[np.ndarray] = []
    bvals: list[np.ndarray] = []

    def couple(coef, int_slice, nb_interior):
        rows.append(ii[int_slice].ravel())
        cols.append(nb_interior.ravel())
        vals.append(-coef[int_slice].ravel())

    # east: interior neighbors for ix < mx-1, boundary column nx-1 otherwise
    couple(coef_e, (slice(None), slice(0, mx - 1)), ii[:, 1:])
    couple(coef_w, (slice(None), slice(1, mx)), ii[:, :-1])
    couple(coef_s, (slice(0, mz - 1), slice(None)), ii[1:, :])
    couple(coef_n, (slice(1, mz), slice(None)), ii[:-1, :])

    # boundary couplings feed the Dirichlet right-hand side
    full_idx = np.arange(nx * nz).reshape(nz, nx)
    for coef, int_slice, full_cols in (
        (coef_e, (slice(None), mx - 1), full_idx[1:-1, nx - 1]),
        (coef_w, (slice(None), 0), full_idx[1:-1, 0]),
        (coef_s, (mz - 1, slice(None)), full_idx[nz - 1, 1:-1]),
        (coef_n, (0, slice(None)), full_idx[0, 1:-1]),
    ):
        brows.append(np.atleast_1d(ii[int_slice]).ravel())
        bcols.append(np.atleast_1d(full_cols).ravel())
        bvals.append(np.atleast_1d(coef[int_slice]).ravel())

    matrix = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_int, n_int),
    )
    boundary_op = sp.csr_matrix(
        (np.concatenate(bvals), (np.concatenate(brows), np.concatenate(bcols))),
        shape=(n_int, nx * nz),
    )
    return DiffusionOperator(grid=g, matrix=matrix, boundary_op=boundary_op)


def lift_from_operator(op: DiffusionOperator, m: ScalarField) -> ScalarField:
    """Boundary lift m0: interior solve of the diffusion equation with m's
    boundary values, which m0 keeps on the boundary nodes."""
    same_grid(op.grid, m.grid)
    rhs = op.boundary_op @ m.values
    interior = op.factor().solve(rhs)
    rnorm = np.linalg.norm(op.matrix @ interior - rhs)
    bound = LIFT_RTOL * max(1.0, np.linalg.norm(rhs))
    if rnorm > bound:
        raise DiffusionError(f"lift residual {rnorm:.3e} exceeds {bound:.3e}")
    full = op.embed(interior)
    boundary = np.ones(m.grid.n_nodes, dtype=bool)
    boundary[op.interior_indices()] = False
    full[boundary] = m.values[boundary]
    return ScalarField(m.grid, full)
