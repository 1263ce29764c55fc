"""Discrete 2D Helmholtz problem (-lap - omega^2 m) p = f on a node grid.

Boundary treatment: the top row carries a homogeneous Dirichlet (free
surface) condition, the other three edges carry a first-order outgoing
condition (p_b - p_in)/h - i*omega*sqrt(m)*p_b = 0 discretized one-sided
and scaled by 1/h so boundary rows have the same magnitude as interior
rows.  Bottom corners take the condition of the vertical edge they touch,
top corners are Dirichlet.

So the rows come from the flux stencil (Kx, Kz) of grid.flux_stencil at
eta = 1: interior rows are Kx + Kz, side-edge rows Kx, bottom rows Kz,
Dirichlet rows identity rows, and the model adds a diagonal.  These rows
and the row masks are cached per grid, and every operator shares their
read-only index arrays.  In one measurement the cache took
9 ms to build at 161x81 (25 ms at 321x161), about one whole assembly
without it (7 ms, 31 ms); an assembly from it takes 0.4 ms (1.6 ms).

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
process's affinity mask beyond the first, runs the others.  The lanes
pull slabs from one shared queue, so a lane that starts late, or
never starts because every pool worker is busy with another caller,
leaves its slabs to the lanes that run.  SuperLU's solve releases the
GIL, so the lanes run in parallel, and narrow slabs cost no more per
column than one wide solve: at 321x161 on one core, eight 8-column slabs
took 0.50-0.90 s against 0.83-0.99 s for one 64-column call, and they
hold less scratch memory.  Each slab gets the full residual check and
refinement, and the solutions land in one Fortran-order array, the
layout SuperLU returns.  Which lane solves a slab does not change its
bits: a slab is one SuperLU call on the same columns whatever the lane
and core count.  With one BLAS thread a column even comes out with the
same bits alone, in a slab or in one wide call; a threaded BLAS may
round the wide supernode updates differently.

The lane runner lets the calling thread run one task of its own before
it joins the lanes; synthetics.generate_data uses that to assemble and
factor the next frequency while the worker lanes solve this one.  Every
SuperLU factorization is made and dropped on the thread that asked for
it, never on a pool worker, and the runner drops its reference to the
slab task on the calling thread before it returns, so a worker never
holds the last reference to an LU.  With scipy 1.17.1 an LU made on a
worker thread and dropped on the main thread leaked about 48 MB per
factorization at 321x161 (RSS 141 -> 414 MB over 6 cycles, none of it
returned by malloc_trim); made and dropped on one thread, RSS stayed
flat at 81 MB.

A dropped LU's pages stay resident in glibc's heap, and where the next
factorization and the slab buffers land among them is left to thread
timing: on the same code and inputs, one process's generate_data peaked
at 260 MB and the next at 307 MB (321x161, 64 sources, 6 frequencies).
trim_heap hands those pages back; called once per dropped LU, ten
processes in a row peaked at 240.2-240.6 MB.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import threading
from collections.abc import Callable
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import PERMC_SPEC, Grid2D, GridError, Model, ScalarField, flux_stencil

RESIDUAL_RTOL = 1e-10
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
    """Assembled sparse operator plus the data needed for its exact m-derivative.

    The Dirichlet rows, those of the top row, are identity rows.
    """

    grid: Grid2D
    omega: float
    matrix: sp.csc_matrix = field(repr=False)
    ddiag_dm: np.ndarray = field(repr=False)  # d(diagonal)/dm, zero on Dirichlet rows
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

        rhs_cols is a dense (n_nodes, k) column stack, any other shape
        raises GridError; the (n_nodes, k) solution comes back in Fortran
        order.  All calls share one factorization, made on the calling
        thread; no lane keeps a reference to it once the call returns, so
        it is dropped where it was made.  The columns are solved in slabs of SLAB_COLUMNS
        on up to one lane per CPU, each lane taking the next unsolved
        slab from a queue the lanes share (see the module docstring), so
        the lane count changes no bit of the result.  Each column must
        meet ||A u - f|| <= RESIDUAL_RTOL * max(1, ||f||), after one round
        of iterative refinement of its slab if needed, or SolveError is
        raised, also when the slab ran on a worker lane.
        """
        block = np.asarray(rhs_cols, dtype=np.complex128)
        if block.ndim != 2 or block.shape[0] != self.grid.n_nodes:
            raise GridError(f"rhs shape {block.shape} is not ({self.grid.n_nodes} grid nodes, k)")
        lu = self.factor()
        trans = "H" if adjoint else "N"
        op = self.matrix.getH() if adjoint else self.matrix
        sols = np.empty(block.shape, dtype=np.complex128, order="F")

        def solve(cols: slice) -> None:
            sols[:, cols] = _solve_slab(lu, op, block[:, cols], trans)

        _run_lanes(block.shape[1], solve)
        return sols


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


# glibc's malloc_trim; None where the C library has none
_malloc_trim = (
    getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform == "linux" else None
)


def trim_heap() -> None:
    """Return the free pages of the malloc heap to the OS, where glibc allows.

    Call it once the last reference to an LU is gone (see the module
    docstring); it costs one walk over the heap's free blocks.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _lane_count() -> int:
    """CPUs this process may run on: the calling thread plus one per pool worker."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _SlabQueue:
    """The slabs of one lane-runner call, shared by its lanes."""

    def __init__(self, n_columns: int, solve: Callable[[slice], None]):
        self._lock = threading.Lock()
        self.slabs = [slice(s, s + SLAB_COLUMNS) for s in range(0, n_columns, SLAB_COLUMNS)]
        self._left = iter(self.slabs)
        self._solve: Callable[[slice], None] | None = solve

    def drain(self) -> None:
        """Solve slabs until none is left; a failure stops every lane."""
        while True:
            with self._lock:
                slab, solve = next(self._left, None), self._solve
            if slab is None:
                return
            try:
                solve(slab)
            except BaseException:
                self.close()
                raise

    def close(self) -> None:
        """Hand out no more slabs and drop the task with what it holds."""
        with self._lock:
            self._left, self._solve = iter(()), None


def _run_lanes(
    n_columns: int, solve: Callable[[slice], None], own_task: Callable[[], None] | None = None
) -> None:
    """Call solve(cols) for each slab of n_columns columns, on the lanes.

    cols is the slice of one slab, SLAB_COLUMNS wide (the last may be
    narrower).  Worker lanes start at once and pull slabs from one shared
    queue.  The calling thread first runs own_task, when given, and then
    pulls slabs as well, so with one CPU, or with every worker busy,
    it solves them all itself.  The call returns, or raises the first
    error of the calling thread or else of a worker lane, only after
    every lane has stopped; a failing lane stops the others from taking
    more slabs.  Before it returns it drops its reference to solve on
    the calling thread, so whatever solve holds (an LU) is freed there.
    """
    work = _SlabQueue(n_columns, solve)
    n_slabs = len(work.slabs)
    n_workers = min(_lane_count() - 1, n_slabs if own_task is not None else n_slabs - 1)
    workers = [_worker_pool().submit(work.drain) for _ in range(max(0, n_workers))]
    try:
        if own_task is not None:
            own_task()
        work.drain()
    finally:
        work.close()
        # a lane still queued behind other work has nothing left to take
        started = [w for w in workers if not w.cancel()]
        futures.wait(started)
    for w in started:
        w.result()  # re-raises a worker lane's error here


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


@functools.lru_cache(maxsize=4)
def _fixed_rows(grid: Grid2D):
    """The model-independent part of assemble for one grid: the real
    stencil matrix, the position of each row's diagonal in its data,
    the interior row mask and (rows, h) per outgoing edge, all read-only,
    since every operator on the grid shares them."""
    n = grid.n_nodes
    interior = grid.interior_mask()
    ix, iz = np.tile(np.arange(grid.nx), grid.nz), np.repeat(np.arange(grid.nz), grid.nx)
    dirichlet = iz == 0
    side = ((ix == 0) | (ix == grid.nx - 1)) & ~dirichlet  # with the bottom corners
    bottom = (iz == grid.nz - 1) & ~side
    kx, kz = flux_stencil(ScalarField(grid, np.ones(n)))

    def rows(mask):  # a sparse product stores no zeros, so the other rows drop out
        return sp.diags(mask.astype(np.float64))

    stencil = (rows(interior) @ (kx + kz) + rows(side) @ kx + rows(bottom) @ kz + rows(dirichlet)).tocsc()
    diagonal = np.flatnonzero(stencil.indices == np.repeat(np.arange(n), np.diff(stencil.indptr)))
    for arr in (stencil.data, stencil.indices, stencil.indptr, diagonal, interior, side, bottom):
        arr.setflags(write=False)
    return stencil, diagonal, interior, ((side, grid.hx), (bottom, grid.hz))


def assemble(model: Model, omega: float) -> HelmholtzOperator:
    """Build the sparse Helmholtz matrix for a model at angular frequency
    omega, in the free-surface/absorbing layout of the module docstring."""
    if omega <= 0.0:
        raise GridError(f"omega must be positive, got {omega}")
    g, m = model.grid, model.m
    stencil, diagonal, interior, outgoing = _fixed_rows(g)
    diag = np.zeros(g.n_nodes, dtype=np.complex128)
    ddiag = np.zeros(g.n_nodes, dtype=np.complex128)
    diag[interior] = -(omega ** 2) * m[interior]
    ddiag[interior] = -(omega ** 2)
    # outgoing rows: (p_b - p_in)/h^2 - i*omega*sqrt(m)/h * p_b = 0
    for mask, h in outgoing:
        sqrt_m = np.sqrt(m[mask])
        diag[mask] = -1j * omega * sqrt_m / h
        ddiag[mask] = -1j * omega / (2.0 * sqrt_m * h)
    data = stencil.data.astype(np.complex128)
    data[diagonal] += diag
    matrix = sp.csc_matrix((data, stencil.indices, stencil.indptr), shape=stencil.shape)
    return HelmholtzOperator(grid=g, omega=omega, matrix=matrix, ddiag_dm=ddiag)


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


def source_batch(grid: Grid2D, acq: Acquisition) -> sp.csc_matrix:
    """Point-source loads as a sparse (n_nodes, n_sources) block, one column
    per source, each the point_source_rhs of that source."""
    acq.validate_in(grid)
    nodes = [grid.flatten(*nearest_node(grid, x, z)) for x, z, _ in acq.sources]
    loads = [complex(amp) / (grid.hx * grid.hz) for _, _, amp in acq.sources]
    cols = np.arange(acq.n_sources)
    return sp.csc_matrix(
        (np.array(loads, dtype=np.complex128), (nodes, cols)),
        shape=(grid.n_nodes, acq.n_sources),
    )


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
