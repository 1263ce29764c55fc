"""Edge-aware diffusion coefficients and the -div(eta grad) operator.

The nine coefficient formulas come from classical image-processing
regularizers (Perona-Malik, Geman, Green, Charbonnier, Lorentzian,
Gaussian, total variation, Tikhonov).  All of them act on gradient
magnitudes normalized by their maximum over the grid, so values stay in
[0, 1] regardless of the physical units of the field.

The operator -div(eta grad) with homogeneous Dirichlet edges is the
interior block of the flux stencil Kx + Kz of grid.flux_stencil; the
block's coupling to the edge nodes becomes `boundary_op`, which feeds the
edge values of a model into the interior solve of its lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PERMC_SPEC, Grid2D, ScalarField, flux_stencil, same_grid

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
    """Gradient magnitude of a field, normalized by its grid maximum.

    ngrad1 = |grad m| / gamma1 with gamma1 = max |grad m|.  A constant
    field has gamma1 = 0, and ngrad1 is then identically zero.
    """

    ngrad1: ScalarField
    gamma1: float

    def raw_magnitude(self) -> np.ndarray:
        return self.ngrad1.values * self.gamma1


def gradient_norms(m: ScalarField) -> GradientNorms:
    """Normalized |grad m|, central differences inside, one-sided on the
    boundary."""
    g = m.grid
    arr = m.as_2d()
    dz, dx = np.gradient(arr, g.hz, g.hx)
    mag = np.hypot(dx, dz).reshape(-1)
    gamma1 = float(mag.max())
    if gamma1 == 0.0:
        return GradientNorms(ScalarField(g, np.zeros(g.n_nodes)), 0.0)
    return GradientNorms(ngrad1=ScalarField(g, mag / gamma1), gamma1=gamma1)


def eval_eta(spec: DiffusionSpec, norms: GradientNorms) -> ScalarField:
    """Pointwise coefficient field; strictly positive for every kind."""
    grid = norms.ngrad1.grid
    v1 = norms.ngrad1.values
    v2 = v1 * v1  # the normalized |grad m|^2
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
        return np.flatnonzero(self.grid.interior_mask())


def assemble_diffusion(eta: ScalarField) -> DiffusionOperator:
    """The interior rows of the flux stencil of eta, split by column.

    `matrix` is (Kx + Kz)[interior, interior] and `boundary_op` is
    -(Kx + Kz)[interior, edge], kept n_nodes wide with the interior
    columns empty (see grid.flux_stencil).
    """
    if np.any(eta.values <= 0.0):
        raise DiffusionError("eta must be strictly positive")
    kx, kz = flux_stencil(eta)
    flux = kx + kz
    nnz, block, edge = _blocks(eta.grid)
    if flux.nnz != nnz:  # a face weight eta / h^2 underflowed to zero
        raise DiffusionError("eta is too small for the grid spacing")
    return DiffusionOperator(
        grid=eta.grid,
        matrix=sp.csc_matrix((flux.data[block.data], block.indices, block.indptr), shape=block.shape),
        boundary_op=sp.csr_matrix((-flux.data[edge.data], edge.indices, edge.indptr), shape=edge.shape),
    )


@functools.lru_cache(maxsize=4)
def _blocks(grid: Grid2D) -> tuple[int, sp.csc_matrix, sp.csr_matrix]:
    """The entry count of Kx + Kz and the patterns of assemble_diffusion's
    two blocks, each entry holding its position in (Kx + Kz).data.
    Selecting the blocks took 3.4 ms at 161x81; a gather takes 0.3 ms."""
    kx, kz = flux_stencil(ScalarField(grid, np.ones(grid.n_nodes)))
    interior = grid.interior_mask()
    k = kx + kz
    # positions + 1: a sparse operation drops the zero of the first entry
    rows = sp.csr_matrix((np.arange(1.0, k.nnz + 1), k.indices, k.indptr), shape=k.shape)[interior]
    block = rows[:, interior].tocsc()
    edge = rows @ sp.diags((~interior).astype(np.float64))  # a sparse product stores no zeros
    for pattern in (block, edge):
        pattern.data = pattern.data.astype(np.intp) - 1
        for arr in (pattern.data, pattern.indices, pattern.indptr):
            arr.setflags(write=False)
    return k.nnz, block, edge


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
    full = np.array(m.values)
    full[m.grid.interior_mask()] = interior
    return ScalarField(m.grid, full)
