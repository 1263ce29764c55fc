"""Structured 2D grids, nodal scalar fields and squared-slowness models.

Every other module shares the conventions fixed here: node (ix, iz) has
linear index ``iz * nx + ix`` (x fastest), z increases downward, and the
free surface is the row ``z = z0``.

Both PDE operators come from one five-point stencil, neighbour_table:
for every node, its north, west, east and south neighbour and the face
each coupling crosses.  Row i of -div(eta grad) is then one gather of
face_weights(eta): -w on each coupling and (w_west + w_east) +
(w_north + w_south) on the diagonal, and no sparse product runs per
operator.  The diffusion operator takes the interior rows (see
diffusion), and the Helmholtz operator the eta = 1 rows (see helmholtz).
The table is built once per grid, in 0.8-1.2 ms at 161x81 and 3.7-3.9 ms
at 321x161.  An assemble_diffusion call from it took 0.37-0.65 ms
(1.7-2.5 ms at 321x161), against 1.4-1.5 ms (4.7-7.5 ms) when each call
multiplied difference matrices, D^T W D per direction, and added them.

Both operators are factored by sparse_lu, the package's one sparse LU,
and solved through checked_solve, the one place that holds the residual
contract.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# column ordering of sparse_lu: minimum degree on the pattern of A^T + A.
# Both five-point operators are structurally symmetric, so this ordering
# sees the true graph, where SuperLU's default COLAMD orders for A^T A and
# fills more.  On a 161x81 Helmholtz operator L+U holds 506,087 nonzeros
# against 870,181 with COLAMD, and a factorization runs about 1.3x faster
# on one core.  At 321x161 the fill drops from 4.81M to 2.71M; there the
# cheaper factorization is partly offset by slower 64-RHS triangular solves.
PERMC_SPEC = "MMD_AT_PLUS_A"
# the backward-error bound of checked_solve
RESIDUAL_RTOL = 1e-10


class GridError(ValueError):
    """Invalid grid geometry or mismatched grids."""


class SolveError(RuntimeError):
    """Factorization or solve failed, or the residual contract was missed."""


def sparse_lu(matrix: sp.csc_matrix, what: str) -> spla.SuperLU:
    """The sparse LU of a square CSC matrix, ordered by PERMC_SPEC: the one
    factorization of the package, for both PDE operators.  A singular
    matrix raises SolveError naming `what`, the operator."""
    try:  # the matrix goes first and positional: the benchmark's tracing reads it there
        return spla.splu(matrix, permc_spec=PERMC_SPEC)
    except RuntimeError as exc:  # singular factorization
        raise SolveError(f"sparse LU failed ({what}): {exc}") from exc


def checked_solve(lu: spla.SuperLU, op: sp.spmatrix, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve op x = b for every column of b with op's LU, under the contract
    ||op x_j - b_j|| <= RESIDUAL_RTOL * (||op||_1 ||x_j|| + ||b_j||) for
    each column j.

    The vector norms are 2-norms and ||op||_1 is op's largest absolute
    column sum, taken once per call.  The bound is a normwise backward
    error (Rigal & Gaches, J. ACM 1967), which a backward-stable LU meets
    however small b is and in whatever units op and b come: scaling both
    by c scales both sides by c.
    op is the matrix that lu.solve(., trans) inverts (op^H for trans "H").
    A column that misses gets one round of iterative refinement of the
    whole block (Skeel, Math. Comp. 1980); a miss after that, a NaN
    residual included, raises SolveError.  Each residual is taken one
    column at a time: SuperLU returns x in Fortran order, so each x_j is
    contiguous, the product copies nothing, and no temporary is larger
    than one column.
    """
    op_norm = spla.norm(op, 1)
    b_norm = np.array([np.linalg.norm(c) for c in b.T])
    x = lu.solve(b, trans=trans)
    for refined in (False, True):
        rnorm, bound = np.empty(x.shape[1]), np.empty(x.shape[1])
        for j in range(x.shape[1]):
            r = op @ x[:, j]
            r -= b[:, j]
            rnorm[j] = np.linalg.norm(r)
            bound[j] = RESIDUAL_RTOL * (op_norm * np.linalg.norm(x[:, j]) + b_norm[j])
        if np.all(rnorm <= bound):  # False for a NaN
            return x
        if not refined:
            r = op @ x
            r -= b
            x -= lu.solve(r, trans=trans)
    miss = int(np.argmax(~(rnorm <= bound)))  # the first column that missed
    raise SolveError(
        f"residual contract missed: ||Au-f||={rnorm[miss]:.3e} exceeds "
        f"{bound[miss]:.3e} (likely near-resonant or ill-conditioned operator)"
    )


@dataclass(frozen=True)
class Grid2D:
    """Cartesian node grid: nx by nz nodes with spacings hx, hz (meters)."""

    nx: int
    nz: int
    hx: float
    hz: float
    x0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "nz", int(self.nz))
        for name in ("hx", "hz", "x0", "z0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.nx < 3 or self.nz < 3:
            raise GridError(f"grid must be at least 3x3, got {self.nx}x{self.nz}")
        spacings = np.array([self.hx, self.hz])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            weights = 1.0 / (spacings * spacings)  # face_weights at eta = 1
        if not np.all((spacings > 0.0) & (weights > 0.0) & np.isfinite(weights)):
            raise GridError(
                f"spacings must be positive with a finite positive 1/h^2, got hx={self.hx} hz={self.hz}"
            )
        far = (self.x0 + self.extent_x, self.z0 + self.extent_z)
        if not np.all(np.isfinite((self.x0, self.z0, *far))):
            raise GridError(f"origin ({self.x0}, {self.z0}) and far edge {far} must be finite")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.nz

    @property
    def extent_x(self) -> float:
        return (self.nx - 1) * self.hx

    @property
    def extent_z(self) -> float:
        return (self.nz - 1) * self.hz

    def flatten(self, ix, iz):
        return iz * self.nx + ix

    def contains(self, x: float, z: float) -> bool:
        return (
            self.x0 <= x <= self.x0 + self.extent_x
            and self.z0 <= z <= self.z0 + self.extent_z
        )

    def xs(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    def zs(self) -> np.ndarray:
        return self.z0 + self.hz * np.arange(self.nz)

    def interior_mask(self) -> np.ndarray:
        """Flat boolean mask of the nodes on no edge of the grid."""
        mask = np.zeros((self.nz, self.nx), dtype=bool)
        mask[1:-1, 1:-1] = True
        return mask.reshape(-1)


@dataclass(frozen=True)
class ScalarField:
    """Real nodal field on a Grid2D, stored flat in index order."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 2:
            # accept (nz, nx) arrays, flatten with the shared convention
            if vals.shape != (self.grid.nz, self.grid.nx):
                raise GridError(
                    f"2D values must be (nz, nx)={self.grid.nz, self.grid.nx}, got {vals.shape}"
                )
            vals = vals.reshape(-1)
        if vals.shape != (self.grid.n_nodes,):
            raise GridError(
                f"expected {self.grid.n_nodes} values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise GridError("field values must be finite")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def as_2d(self) -> np.ndarray:
        """View of the values shaped (nz, nx)."""
        return self.values.reshape(self.grid.nz, self.grid.nx)

    def digest(self) -> str:
        """SHA-256 over grid geometry and raw little-endian payload."""
        g = self.grid
        h = hashlib.sha256()
        h.update(f"{g.nx} {g.nz} {g.hx!r} {g.hz!r} {g.x0!r} {g.z0!r}".encode())
        h.update(self.values.astype("<f8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class Model:
    """Squared slowness m = c^-2 (s^2/m^2) with admissible speed bounds (m/s).

    Construction validates positivity only; the bounds are enforced by
    :func:`clamp_model` at the points where optimizer updates may leave
    the admissible box.
    """

    field: ScalarField
    c_min: float = 0.0
    c_max: float = np.inf

    def __post_init__(self):
        if np.any(self.field.values <= 0.0):
            raise GridError("squared slowness must be strictly positive")
        if not (0.0 <= self.c_min < self.c_max):
            raise GridError(f"need 0 <= c_min < c_max, got [{self.c_min}, {self.c_max}]")

    @property
    def grid(self) -> Grid2D:
        return self.field.grid

    @property
    def m(self) -> np.ndarray:
        return self.field.values

    def speeds(self) -> ScalarField:
        return slowness_to_speed(self.field)


# the columns of NeighbourTable, in increasing neighbour index
NORTH, WEST, SELF, EAST, SOUTH = range(5)


@dataclass(frozen=True)
class NeighbourTable:
    """The five-point couplings of every node of a grid, from neighbour_table.

    Row i lists node i's couplings in the columns NORTH (iz - 1), WEST
    (ix - 1), SELF, EAST (ix + 1) and SOUTH (iz + 1), the order of
    increasing node index.  node[i, k] is the node coupled to, -1 beyond
    the grid's edge, and face[i, k] the face the coupling crosses, as an
    index into face_weights's output, -1 at SELF and beyond the edge,
    where rows reads a weight of 0.
    """

    node: np.ndarray
    face: np.ndarray

    def rows(self, w: np.ndarray, keep: np.ndarray | bool) -> np.ndarray:
        """The (n_nodes, 5) rows of -div(eta grad), with eta's face weights
        w (face_weights) on the couplings keep selects and none on the
        rest: -w on each kept coupling and, on SELF, (w_west + w_east) +
        (w_north + w_south) over the kept ones.  Row i is then the net
        flux out of node i, with no face, and so no flux, beyond the grid."""
        wf = np.where(keep, np.append(w, 0.0)[self.face], 0.0)
        rows = -wf
        rows[:, SELF] = (wf[:, WEST] + wf[:, EAST]) + (wf[:, NORTH] + wf[:, SOUTH])
        return rows


def face_weights(eta: ScalarField) -> np.ndarray:
    """The weight eta_face / h^2 of every face, x-faces then z-faces, each
    in node order; eta_face is the mean of eta at the face's two nodes, so
    an edge node's face takes the same mean as an interior one."""
    g = eta.grid
    e = eta.as_2d()
    wx = 0.5 * (e[:, :-1] + e[:, 1:]) * (1.0 / (g.hx * g.hx))
    wz = 0.5 * (e[:-1, :] + e[1:, :]) * (1.0 / (g.hz * g.hz))
    return np.concatenate([wx.reshape(-1), wz.reshape(-1)])


@functools.lru_cache(maxsize=8)
def neighbour_table(grid: Grid2D) -> NeighbourTable:
    """The grid's NeighbourTable, built once per grid and read-only."""
    nx = grid.nx
    i = np.arange(grid.n_nodes)
    ix, iz = i % nx, i // nx
    # x-face (ix, iz) joins nodes (ix, iz) and (ix + 1, iz); the z-faces follow
    x_faces = (nx - 1) * grid.nz
    node = np.stack([i - nx, i - 1, i, i + 1, i + nx], axis=1)
    face = np.stack([x_faces + i - nx, i - iz - 1, np.full_like(i, -1), i - iz, x_faces + i], axis=1)
    beyond = np.stack([iz == 0, ix == 0, np.zeros_like(ix, dtype=bool), ix == nx - 1, iz == grid.nz - 1], axis=1)
    node[beyond], face[beyond] = -1, -1
    for arr in (node, face):
        arr.setflags(write=False)
    return NeighbourTable(node, face)


def same_grid(a: Grid2D, b: Grid2D) -> None:
    if a != b:
        raise GridError(f"grid mismatch: {a} vs {b}")


def relative_error(m_ref: ScalarField, m_hat: ScalarField) -> float:
    """Percent error 100 * ||m_ref - m_hat||_2 / ||m_ref||_2 (plain vectors)."""
    same_grid(m_ref.grid, m_hat.grid)
    denom = np.linalg.norm(m_ref.values)
    if denom == 0.0:
        raise GridError("relative_error undefined for a zero reference field")
    return 100.0 * np.linalg.norm(m_ref.values - m_hat.values) / denom


def speed_to_slowness(c: ScalarField, c_min: float = 0.0, c_max: float = np.inf) -> Model:
    """Convert a wave-speed field (m/s) to a squared-slowness model."""
    if np.any(c.values <= 0.0):
        raise GridError("speeds must be strictly positive")
    return Model(ScalarField(c.grid, c.values ** -2.0), c_min=c_min, c_max=c_max)


def slowness_to_speed(m: ScalarField) -> ScalarField:
    if np.any(m.values <= 0.0):
        raise GridError("squared slowness must be strictly positive")
    return ScalarField(m.grid, m.values ** -0.5)


def clamp_model(field: ScalarField, c_min: float, c_max: float) -> tuple[Model, int]:
    """Clamp a squared-slowness field into the admissible speed box.

    Returns the clamped model and the number of nodes that were moved.
    Nonpositive m values are treated as exceeding c_max (infinite slowness
    cannot be represented by a speed) and clamped there as well.
    """
    m = np.array(field.values, dtype=np.float64)
    m_hi = c_min ** -2.0 if c_min > 0.0 else np.inf  # slow speeds = large m
    m_lo = c_max ** -2.0 if np.isfinite(c_max) else np.finfo(np.float64).tiny
    bad = (m < m_lo) | (m > m_hi)
    n_clamped = int(np.count_nonzero(bad))
    if n_clamped:
        m = np.clip(m, m_lo, m_hi)
    return Model(ScalarField(field.grid, m), c_min=c_min, c_max=c_max), n_clamped
