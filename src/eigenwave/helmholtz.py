"""Discrete 2D Helmholtz problem (-lap - omega^2 m) p = f on a node grid.

Boundary treatment: the top row carries a homogeneous Dirichlet (free
surface) condition, the other three edges carry a first-order outgoing
condition (p_b - p_in)/h - i*omega*sqrt(m)*p_b = 0 discretized one-sided
and scaled by 1/h so boundary rows have the same magnitude as interior
rows.  Bottom corners take the condition of the vertical edge they touch,
top corners are Dirichlet.

One sparse LU factorization serves every right-hand side at a frequency,
including the adjoint (conjugate-transposed) systems.

Every sparse LU in the package orders its columns by minimum degree on
the pattern of A^T + A (PERMC_SPEC).  The 5-point operators here are
structurally symmetric, so that ordering sees the true graph, where
SuperLU's default COLAMD orders for A^T A and fills more.  On a 161x81
Helmholtz operator L+U holds 506,087 nonzeros against 870,181 with COLAMD,
and a factorization runs about 1.3x faster on one core.  At 321x161 the
fill drops from 4.81M to 2.71M; there the cheaper factorization is partly
offset by slower 64-RHS triangular solves.

solve_array cuts its right-hand sides into slabs of SLAB_COLUMNS columns
and runs them in lanes: the calling thread is lane 0, and a module-level
thread pool, created on first use with one worker per CPU in the
process's affinity mask beyond the first, runs the others.  SuperLU's
solve releases the GIL, so the lanes run in parallel, and narrow slabs
cost no more per column than one wide solve: at 321x161 on one core,
eight 8-column slabs took 0.50-0.90 s against 0.83-0.99 s for one
64-column call, and they hold less scratch memory.  Each slab gets the
full residual check and refinement, and the solutions land in one
Fortran-order array, the layout SuperLU returns.  The slabs depend on
the column count alone and each is one SuperLU call, so the lane count,
and with it the core count, does not change a single bit of the result.
With one BLAS thread a column even comes out with the same bits alone,
in a slab or in one wide call; a threaded BLAS may round the wide
supernode updates differently.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid2D, GridError, Model

RESIDUAL_RTOL = 1e-10
# column ordering for every sparse LU: minimum degree on A^T + A
PERMC_SPEC = "MMD_AT_PLUS_A"
# right-hand-side columns per SuperLU solve call; see solve_array
SLAB_COLUMNS = 8


class SolveError(RuntimeError):
    """Factorization or solve failed, or the residual contract was missed."""


@dataclass(frozen=True)
class Acquisition:
    """Line acquisition: point sources and fixed receivers, meters.

    sources: (x, z, complex amplitude) triples; receivers: (x, z) pairs.
    All source depths must agree, likewise all receiver depths.
    """

    sources: tuple[tuple[float, float, complex], ...]
    receivers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple((float(x), float(z), complex(a)) for x, z, a in self.sources))
        object.__setattr__(self, "receivers", tuple((float(x), float(z)) for x, z in self.receivers))
        if not self.sources or not self.receivers:
            raise GridError("acquisition needs at least one source and one receiver")
        src_depths = {z for _, z, _ in self.sources}
        rec_depths = {z for _, z in self.receivers}
        if len(src_depths) != 1 or len(rec_depths) != 1:
            raise GridError("sources and receivers must each sit at a single depth")

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_receivers(self) -> int:
        return len(self.receivers)

    def validate_in(self, grid: Grid2D) -> None:
        for x, z, _ in self.sources:
            if not grid.contains(x, z):
                raise GridError(f"source ({x}, {z}) outside grid")
        for x, z in self.receivers:
            if not grid.contains(x, z):
                raise GridError(f"receiver ({x}, {z}) outside grid")


@dataclass
class HelmholtzOperator:
    """Assembled sparse operator plus the data needed for its exact m-derivative."""

    grid: Grid2D
    omega: float
    matrix: sp.csc_matrix = field(repr=False)
    ddiag_dm: np.ndarray = field(repr=False)  # d(diagonal)/dm, zero on Dirichlet rows
    dirichlet_mask: np.ndarray = field(repr=False)
    _lu: spla.SuperLU | None = field(default=None, repr=False)

    def factor(self) -> spla.SuperLU:
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix, permc_spec=PERMC_SPEC)
            except RuntimeError as exc:  # singular factorization
                raise SolveError(f"sparse LU failed (omega={self.omega}): {exc}") from exc
        return self._lu

    def solve_array(self, rhs_cols: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve A u = f, or A^H q = f when adjoint, for every rhs column.

        rhs_cols is one (n_nodes,) vector or an (n_nodes, k) column stack;
        the solution has the same shape, and a stack comes back in Fortran
        order.  All calls share one factorization.  The columns are solved
        in slabs of SLAB_COLUMNS on up to one lane per CPU (see the module
        docstring); slab i runs on lane i mod n_lanes.  Each column must
        meet ||A u - f|| <= RESIDUAL_RTOL * max(1, ||f||), after one round
        of iterative refinement of its slab if needed, or SolveError is
        raised, also when the slab ran on a worker lane.
        """
        rhs = np.asarray(rhs_cols, dtype=np.complex128)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.grid.n_nodes:
            raise GridError(f"rhs shape {rhs.shape} does not match {self.grid.n_nodes} grid nodes")
        block = rhs[:, None] if rhs.ndim == 1 else rhs
        lu = self.factor()
        trans = "H" if adjoint else "N"
        op = self.matrix.getH() if adjoint else self.matrix
        sols = np.empty(block.shape, dtype=np.complex128, order="F")
        starts = range(0, block.shape[1], SLAB_COLUMNS)
        n_lanes = max(1, min(_lane_count(), len(starts)))

        def run_lane(lane: int) -> None:
            for s in starts[lane::n_lanes]:
                cols = slice(s, s + SLAB_COLUMNS)
                sols[:, cols] = _solve_slab(lu, op, block[:, cols], trans)

        workers = [_worker_pool().submit(run_lane, lane) for lane in range(1, n_lanes)]
        try:
            run_lane(0)
        finally:
            futures.wait(workers)
        for w in workers:
            w.result()  # re-raises a worker lane's SolveError here
        return sols[:, 0] if rhs.ndim == 1 else sols


def _solve_slab(lu: spla.SuperLU, op: sp.spmatrix, slab: np.ndarray, trans: str) -> np.ndarray:
    """Solve one slab of columns under the residual contract of solve_array."""
    x = lu.solve(slab, trans=trans)
    r = op @ x
    r -= slab
    bound = RESIDUAL_RTOL * np.maximum(1.0, np.linalg.norm(slab, axis=0))
    rnorm = np.linalg.norm(r, axis=0)
    if np.any(rnorm > bound):
        # one round of iterative refinement before giving up
        x -= lu.solve(r, trans=trans)
        r = op @ x
        r -= slab
        rnorm = np.linalg.norm(r, axis=0)
        if np.any(rnorm > bound):
            worst = int(np.argmax(rnorm / bound))
            raise SolveError(
                f"residual contract missed: ||Au-f||={rnorm[worst]:.3e} exceeds "
                f"{bound[worst]:.3e} (likely near-resonant or ill-conditioned operator)"
            )
    return x


def _lane_count() -> int:
    """CPUs this process may run on: the calling thread plus one per pool worker."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: futures.ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_pool() -> futures.ThreadPoolExecutor:
    """The module's slab workers, created on first use and reused after.

    Reusing the threads keeps glibc from growing a fresh per-thread heap
    on every solve.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(
                max_workers=max(1, _lane_count() - 1), thread_name_prefix="helmholtz-slab"
            )
    return _pool


def _forget_pool() -> None:
    """A forked child inherits the pool object but not its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def assemble(model: Model, omega: float, all_dirichlet: bool = False) -> HelmholtzOperator:
    """Build the sparse Helmholtz matrix for a model at angular frequency omega.

    With all_dirichlet=True every boundary row becomes an identity row
    (used for manufactured-solution verification); the default is the
    free-surface/absorbing layout described in the module docstring.
    """
    if omega <= 0.0:
        raise GridError(f"omega must be positive, got {omega}")
    g = model.grid
    nx, nz, hx, hz = g.nx, g.nz, g.hx, g.hz
    n = g.n_nodes
    m = model.m
    sqrt_m = np.sqrt(m)

    inv_hx2 = 1.0 / (hx * hx)
    inv_hz2 = 1.0 / (hz * hz)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    ddiag = np.zeros(n, dtype=np.complex128)
    dirichlet = np.zeros(n, dtype=bool)

    ix_all, iz_all = np.meshgrid(np.arange(nx), np.arange(nz))
    ix_all = ix_all.ravel()
    iz_all = iz_all.ravel()
    idx_all = iz_all * nx + ix_all

    interior = (ix_all > 0) & (ix_all < nx - 1) & (iz_all > 0) & (iz_all < nz - 1)
    if all_dirichlet:
        boundary_dir = ~interior
        left = right = bottom = np.zeros(n, dtype=bool)
    else:
        boundary_dir = iz_all == 0
        left = (ix_all == 0) & ~boundary_dir
        right = (ix_all == nx - 1) & ~boundary_dir
        bottom = (iz_all == nz - 1) & ~boundary_dir & ~left & ~right

    # interior 5-point rows
    idx = idx_all[interior]
    diag = 2.0 * inv_hx2 + 2.0 * inv_hz2 - omega ** 2 * m[idx]
    rows += [idx, idx, idx, idx, idx]
    cols += [idx, idx - 1, idx + 1, idx - nx, idx + nx]
    vals += [
        diag.astype(np.complex128),
        np.full(idx.size, -inv_hx2, dtype=np.complex128),
        np.full(idx.size, -inv_hx2, dtype=np.complex128),
        np.full(idx.size, -inv_hz2, dtype=np.complex128),
        np.full(idx.size, -inv_hz2, dtype=np.complex128),
    ]
    ddiag[idx] = -(omega ** 2)

    # Dirichlet rows (free surface, or all edges in the manufactured variant)
    idx = idx_all[boundary_dir]
    rows.append(idx)
    cols.append(idx)
    vals.append(np.ones(idx.size, dtype=np.complex128))
    dirichlet[idx] = True

    # outgoing rows: (p_b - p_in)/h^2 - i*omega*sqrt(m)/h * p_b = 0
    for mask, step, h in ((left, 1, hx), (right, -1, hx), (bottom, -nx, hz)):
        idx = idx_all[mask]
        if idx.size == 0:
            continue
        inv_h2 = 1.0 / (h * h)
        diag = inv_h2 - 1j * omega * sqrt_m[idx] / h
        rows += [idx, idx]
        cols += [idx, idx + step]
        vals += [diag, np.full(idx.size, -inv_h2, dtype=np.complex128)]
        ddiag[idx] = -1j * omega / (2.0 * sqrt_m[idx] * h)

    matrix = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return HelmholtzOperator(
        grid=g, omega=omega, matrix=matrix, ddiag_dm=ddiag, dirichlet_mask=dirichlet
    )


def nearest_node(grid: Grid2D, x: float, z: float) -> tuple[int, int]:
    if not grid.contains(x, z):
        raise GridError(f"position ({x}, {z}) outside grid")
    # floor(u + 0.5) ties break toward +, independent of banker's rounding
    ix = int(np.floor((x - grid.x0) / grid.hx + 0.5))
    iz = int(np.floor((z - grid.z0) / grid.hz + 0.5))
    return min(ix, grid.nx - 1), min(iz, grid.nz - 1)


def point_source_rhs(grid: Grid2D, x: float, z: float, amplitude: complex = 1.0) -> np.ndarray:
    """Delta load at the nearest node, scaled by the cell area."""
    ix, iz = nearest_node(grid, x, z)
    rhs = np.zeros(grid.n_nodes, dtype=np.complex128)
    rhs[grid.flatten(ix, iz)] = complex(amplitude) / (grid.hx * grid.hz)
    return rhs


def source_batch(grid: Grid2D, acq: Acquisition) -> np.ndarray:
    """Column-stacked point-source loads, one column per source."""
    acq.validate_in(grid)
    rhs = np.zeros((grid.n_nodes, acq.n_sources), dtype=np.complex128)
    for j, (x, z, amp) in enumerate(acq.sources):
        rhs[:, j] = point_source_rhs(grid, x, z, amp)
    return rhs


def receiver_matrix(grid: Grid2D, acq: Acquisition) -> sp.csr_matrix:
    """Sparse bilinear sampling operator, shape (n_receivers, n_nodes)."""
    acq.validate_in(grid)
    rows, cols, vals = [], [], []
    for r, (x, z) in enumerate(acq.receivers):
        u = (x - grid.x0) / grid.hx
        v = (z - grid.z0) / grid.hz
        ix = min(int(np.floor(u)), grid.nx - 2)
        iz = min(int(np.floor(v)), grid.nz - 2)
        tx = u - ix
        tz = v - iz
        base = grid.flatten(ix, iz)
        for col, w in (
            (base, (1.0 - tx) * (1.0 - tz)),
            (base + 1, tx * (1.0 - tz)),
            (base + grid.nx, (1.0 - tx) * tz),
            (base + grid.nx + 1, tx * tz),
        ):
            if w != 0.0:
                rows.append(r)
                cols.append(col)
                vals.append(w)
    return sp.csr_matrix((vals, (rows, cols)), shape=(acq.n_receivers, grid.n_nodes))
