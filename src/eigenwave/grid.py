"""Structured 2D grids, nodal scalar fields and squared-slowness models.

Every other module shares the conventions fixed here: node (ix, iz) has
linear index ``iz * nx + ix`` (x fastest), z increases downward, and the
free surface is the row ``z = z0``.

Both PDE operators come from one five-point flux stencil, flux_stencil:
the diffusion operator -div(eta grad) is the interior block of Kx + Kz,
and the Helmholtz operator takes its eta = 1 rows (see helmholtz).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# column ordering for every sparse LU (Helmholtz and diffusion): minimum
# degree on A^T + A; see the helmholtz module docstring for the measurements
PERMC_SPEC = "MMD_AT_PLUS_A"


class GridError(ValueError):
    """Invalid grid geometry or mismatched grids."""


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
        if not (self.hx > 0.0 and self.hz > 0.0):
            raise GridError(f"spacings must be positive, got hx={self.hx} hz={self.hz}")

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


def flux_stencil(eta: ScalarField) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Five-point flux stencil of -div(eta grad), split by direction.

    Returns (Kx, Kz), each (n_nodes, n_nodes): Kx = Dx^T W Dx, where Dx
    takes the difference across each x-face and W = diag(eta_face / hx^2)
    with eta_face the mean of eta at the face's two nodes; Kz likewise
    in z.  Row i of Kx + Kz is the net flux out of node i; an edge node
    has no face, and so no flux, beyond the grid.  Dx and Dz are cached
    per grid and W Dx is Dx with its rows scaled: at 161x81 a call took
    2.1-2.8 ms, against 8.5-10 ms when each call built Dx with kron and
    multiplied by diag(W).
    """
    g = eta.grid
    e = eta.as_2d()
    wx = 0.5 * (e[:, :-1] + e[:, 1:]) * (1.0 / (g.hx * g.hx))
    wz = 0.5 * (e[:-1, :] + e[1:, :]) * (1.0 / (g.hz * g.hz))
    out = []
    for (d, dt), w in zip(_face_differences(g), (wx, wz)):
        # W D: each face's row of D scaled by its weight
        wd = sp.csr_matrix((d.data * np.repeat(w.reshape(-1), np.diff(d.indptr)), d.indices, d.indptr), shape=d.shape)
        out.append(dt @ wd)
    return tuple(out)


@functools.lru_cache(maxsize=8)
def _face_differences(grid: Grid2D):
    """((Dx, Dx^T), (Dz, Dz^T)) in CSR: Dx takes the difference across each x-face."""

    def difference(n):  # (n-1, n): row j is u[j+1] - u[j]
        return sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))

    dx = sp.kron(sp.identity(grid.nz), difference(grid.nx), format="csr")
    dz = sp.kron(difference(grid.nz), sp.identity(grid.nx), format="csr")
    return (dx, dx.T.tocsr()), (dz, dz.T.tocsr())


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
