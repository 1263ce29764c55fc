"""Edge-aware diffusion coefficients and the -div(eta grad) operator.

The nine coefficient formulas come from classical image-processing
regularizers (Perona-Malik, Geman, Green, Charbonnier, Lorentzian,
Gaussian, total variation, Tikhonov).  All of them act on gradient
magnitudes v normalized by their maximum over the grid, so v stays in
[0, 1] regardless of the physical units of the field.  Each is an
edge-stopping function: it does not increase with v, so it is largest
where the gradient vanishes, and one formula holds there too.  At v = 0
eta1, eta2 and eta9 give 1, eta3 gives 2/beta, eta4 1/beta^2, eta5 and
eta7 1/beta, eta6 beta, and eta8 1/ETA8_FLOOR.

The operator -div(eta grad) with homogeneous Dirichlet edges is the
interior rows of the five-point stencil of grid.neighbour_table, taken
at the interior columns; their coupling to the edge nodes becomes
`boundary_op`, which feeds the edge values of a model into the interior
solve of its lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PERMC_SPEC, Grid2D, ScalarField, checked_solve, face_weights, neighbour_table, same_grid

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

# the smallest normalized gradient eta8 = 1/v sees; eval_eta says why 1e-3
ETA8_FLOOR = 1e-3


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


def gradient_norms(m: ScalarField) -> ScalarField:
    """|grad m| normalized by its grid maximum, central differences inside,
    one-sided on the boundary.  A constant field gives zero everywhere."""
    g = m.grid
    arr = m.as_2d()
    dz, dx = np.gradient(arr, g.hz, g.hx)
    mag = np.hypot(dx, dz).reshape(-1)
    top = mag.max()
    return ScalarField(g, np.zeros(g.n_nodes) if top == 0.0 else mag / top)


def eval_eta(spec: DiffusionSpec, v: ScalarField) -> ScalarField:
    """Pointwise coefficient field, positive and finite for every kind; a
    beta at which a formula overflows raises DiffusionError.

    With v the normalized |grad m| of gradient_norms and b = beta, each
    kind is one formula that holds at v = 0 too (value there in brackets):

        eta1  b / (b + v^2)               [1]
        eta2  exp(-v^2 / b)               [1]
        eta3  2b / (b + v^2)^2            [2/b]
        eta4  tanh(v/b) / (b v)           [1/b^2, its limit]
        eta5  sqrt(b / (b + v^2)) / b     [1/b]
        eta6  b / (1 + b v^2)^2           [b]
        eta7  exp(-v^2 / b) / b           [1/b]
        eta8  1 / max(v, ETA8_FLOOR)      [1/ETA8_FLOOR]
        eta9  1                           [1]

    Total variation, 1/v, has no finite value at v = 0, so eta8 floors v
    at ETA8_FLOOR.  On a 161x81 salt model whose dome interior is flat,
    an N = 100 basis compresses the model to 1.68/1.16/1.17/1.17% with
    the floor at 1e-2/1e-3/1e-4/1e-6.  1e-2 also caps 805 nodes that are
    not flat, and below 1e-3 the worst eigenpair residual/lambda grows
    (7.8e-12 at 1e-3, 5.9e-9 at 1e-6) with no gain in compression.
    """
    grid = v.grid
    v1 = v.values
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
        out = np.divide(np.tanh(v1 / b), b * v1, out=np.full_like(v1, 1.0 / b / b), where=v1 > 0.0)
    elif kind == "eta5":
        out = (1.0 / b) * np.sqrt(b / (b + v2))
    elif kind == "eta6":
        out = b / (1.0 + b * v2) ** 2
    elif kind == "eta7":
        out = np.exp(-v2 / b) / b
    elif kind == "eta8":
        out = 1.0 / np.maximum(v1, ETA8_FLOOR)
    else:  # eta9
        out = np.ones(grid.n_nodes)

    # exp-style formulas underflow to 0.0 at extreme beta; the coefficient
    # is mathematically positive, so floor it at the smallest normal float
    out = np.maximum(out, np.finfo(np.float64).tiny)
    if not np.all((out > 0.0) & (out < np.inf)):  # 1/b^2 overflows for b below 1e-154
        raise DiffusionError(f"{kind} is not positive and finite at beta={b}")
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
    """The interior rows of -div(eta grad), split by column.

    `matrix` holds their couplings to interior nodes and `boundary_op`
    minus their couplings to edge nodes, kept n_nodes wide with the
    interior columns empty.  Both are one gather of eta's face weights
    (grid.face_weights) into patterns cached per grid.
    """
    if np.any(eta.values <= 0.0):
        raise DiffusionError("eta must be strictly positive")
    w = face_weights(eta)
    if not np.all(w > 0.0):  # a face weight eta / h^2 underflowed to zero
        raise DiffusionError("eta is too small for the grid spacing")
    rows = neighbour_table(eta.grid).rows(w, True).reshape(-1)
    block, edge = _patterns(eta.grid)
    return DiffusionOperator(
        grid=eta.grid,
        matrix=sp.csc_matrix((rows[block.data], block.indices, block.indptr), shape=block.shape),
        boundary_op=sp.csr_matrix((-rows[edge.data], edge.indices, edge.indptr), shape=edge.shape),
    )


@functools.lru_cache(maxsize=4)
def _patterns(grid: Grid2D) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The patterns of assemble_diffusion's two blocks, each entry holding
    its position in the flattened (n_nodes, 5) array of NeighbourTable.rows;
    the interior block is symmetric, so its CSR rows are its CSC columns.
    Built once per grid: 1.5-1.9 ms at 161x81 and 4.9-8.7 ms at 321x161."""
    interior = grid.interior_mask()
    n = np.count_nonzero(interior)
    # an interior node has all four neighbours, so each row has five entries
    couplings = (np.flatnonzero(np.repeat(interior, 5)), neighbour_table(grid).node[interior].reshape(-1))
    rows = sp.csr_matrix((*couplings, np.arange(0, 5 * n + 1, 5)), shape=(n, grid.n_nodes))
    block, edge = rows[:, interior], rows[:, ~interior]
    # boundary_op stays n_nodes wide: the edge columns get their node numbers back
    edge = sp.csr_matrix((edge.data, np.flatnonzero(~interior)[edge.indices], edge.indptr), shape=rows.shape)
    for pattern in (block, edge):
        for arr in (pattern.data, pattern.indices, pattern.indptr):
            arr.setflags(write=False)
    return block, edge


def lift_from_operator(op: DiffusionOperator, m: ScalarField) -> ScalarField:
    """Boundary lift m0: interior solve of the diffusion equation with m's
    boundary values, which m0 keeps on the boundary nodes.  The solve is
    one grid.checked_solve, which raises SolveError on a residual miss."""
    same_grid(op.grid, m.grid)
    rhs = op.boundary_op @ m.values
    full = np.array(m.values)
    full[m.grid.interior_mask()] = checked_solve(op.factor(), op.matrix, rhs[:, None])[:, 0]
    return ScalarField(m.grid, full)
