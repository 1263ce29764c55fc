"""Discrete 2D Helmholtz problem (-lap - omega^2 m) p = f on a node grid.

Boundary treatment: the top row carries a homogeneous Dirichlet (free
surface) condition, the other three edges carry a first-order outgoing
condition (p_b - p_in)/h - i*omega*sqrt(m)*p_b = 0 discretized one-sided
and scaled by 1/h so boundary rows have the same magnitude as interior
rows.  Bottom corners take the condition of the vertical edge they touch,
top corners are Dirichlet.

So the rows come from the five-point stencil of grid.neighbour_table at
eta = 1: interior rows take the x and z faces, side-edge rows (with both
bottom corners) the x faces, bottom rows the z faces, Dirichlet rows are
identity rows, and the model adds a diagonal.  These rows and the row
masks are cached per grid, and every operator shares their read-only
index arrays.  The cache took 2.5-4.2 ms to build at 161x81 (11-17 ms
at 321x161) once the grid's table existed, against 7-11 ms (22-27 ms)
from sparse products; an assembly from it takes 0.3-0.5 ms (1.3-1.8 ms).

One sparse LU factorization, grid.sparse_lu, serves every right-hand side
at a frequency, including the adjoint (conjugate-transposed) systems.

Every Helmholtz solve goes through solve_array: one grid.checked_solve
call over all of its columns, which holds the residual contract and its
one refinement round for the Helmholtz solves and the diffusion lift
alike, and returns the solutions in Fortran order, the layout SuperLU
returns.  Slabs are a synthesis-only memory bound: receiver_data hands
solve_array the point loads of a frequency SLAB_COLUMNS at a time, and
samples each slab's wavefields at the receivers and drops them before
it densifies the next, so no full wavefield block is ever held.  With
one BLAS thread a column comes out with the same bits alone, in a slab
or in one wide call; a threaded BLAS may round the wide supernode
updates differently.

Every SuperLU factorization is made and dropped on one thread.  With
scipy 1.17.1 an LU made on a worker thread and dropped on the main
thread leaked about 48 MB per factorization at 321x161 (RSS 141 ->
414 MB over 6 cycles, none of it returned by malloc_trim); made and
dropped on one thread, RSS stayed flat at 81 MB.  solve_array factors
and solves on its calling thread; receiver_data factors each frequency
on the thread that solves it and drops the LU there.  A frequency that
fails clears the frames of the error's traceback before the error
leaves its thread, so the LU held in a frame's locals is dropped on
that thread, not wherever the error ends up.

A dropped LU's pages stay resident in glibc's heap, and where the next
factorization and the slab buffers land among them is left to thread
timing: on the same code and inputs, one process's synthesis peaked at
260 MB and the next at 307 MB (321x161, 64 sources, 6 frequencies).
_trim_heap hands those pages back; called once per dropped LU, ten
processes in a row peaked at 240.2-240.6 MB.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import threading
import traceback
from collections.abc import Sequence
from concurrent import futures
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import grid as _grid
from .grid import SELF, Grid2D, GridError, Model, ScalarField, checked_solve, face_weights, neighbour_table, sparse_lu

# grid owns SolveError; factor and solve_array raise it, and callers catch it from here
SolveError = _grid.SolveError
# point loads that receiver_data densifies and solves at once; see the module docstring
SLAB_COLUMNS = 8
# Frequencies that receiver_data synthesizes at once, whatever the CPU
# count.  Each holds its LU until its last slab is solved, so this caps
# the live Helmholtz LUs at two; each further lane would raise the peak
# memory by one LU.
FREQUENCIES_IN_FLIGHT = 2


@dataclass(frozen=True)
class Acquisition:
    """Line acquisition: point sources and fixed receivers, meters.

    sources: (x, z, complex amplitude) triples; receivers: (x, z) pairs.
    Every position and amplitude must be finite, all source depths must
    agree, and likewise all receiver depths.
    """

    sources: tuple[tuple[float, float, complex], ...]
    receivers: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple((float(x), float(z), complex(a)) for x, z, a in self.sources))
        object.__setattr__(self, "receivers", tuple((float(x), float(z)) for x, z in self.receivers))
        if not self.sources or not self.receivers:
            raise GridError("acquisition needs at least one source and one receiver")
        if not np.all(np.isfinite([v for point in (*self.sources, *self.receivers) for v in point])):
            raise GridError("source and receiver positions and amplitudes must be finite")
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
            self._lu = sparse_lu(self.matrix, f"omega={self.omega}")
        return self._lu

    def solve_array(self, rhs_cols: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve A u = f, or A^H q = f when adjoint, for every rhs column.

        rhs_cols is a dense (n_nodes, k) column stack, any other shape
        raises GridError; the (n_nodes, k) solution comes back in Fortran
        order.  One factorization, made on the calling thread, serves
        every column, and all columns are one grid.checked_solve call on
        that thread, which raises SolveError when a column misses its
        residual contract.  The inversion solves one column per source, 16
        on the benchmark's salt model, and there one call is no slower than
        slabs: at 161x81 on one BLAS thread it took 39.1-39.9 ms forward
        and 47.3-47.4 ms adjoint, against 40.2-41.1 and 48.0-49.0 ms for
        two 8-column slabs (per-process medians, alternating processes on
        a shared 2-CPU host).  A wide call costs more: 64 columns at
        321x161 took 0.86-0.95 s in one call against 0.69-0.81 s in eight
        slabs, with the same bits.
        """
        block = np.asarray(rhs_cols, dtype=np.complex128)
        if block.ndim != 2 or block.shape[0] != self.grid.n_nodes:
            raise GridError(f"rhs shape {block.shape} is not ({self.grid.n_nodes} grid nodes, k)")
        trans = "H" if adjoint else "N"
        op = self.matrix.getH() if adjoint else self.matrix
        return checked_solve(self.factor(), op, block, trans)


# glibc's malloc_trim; None where the C library has none
_malloc_trim = (
    getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform == "linux" else None
)


def _trim_heap() -> None:
    """Return the free pages of the malloc heap to the OS, where glibc allows.

    Call it once the last reference to an LU is gone (see the module
    docstring); it costs one walk over the heap's free blocks.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


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
    table = neighbour_table(grid)
    # interior rows keep every coupling, side rows the x ones and bottom rows the z ones
    x_rows, z_rows = interior | side, interior | bottom
    keep = np.stack([z_rows, x_rows, np.ones(n, bool), x_rows, z_rows], axis=1) & (table.node >= 0)
    rows = table.rows(face_weights(ScalarField(grid, np.ones(n))), keep)
    rows[dirichlet, SELF] = 1.0  # an identity row
    stencil = sp.csc_matrix((rows[keep], (np.nonzero(keep)[0], table.node[keep])), shape=(n, n))
    diagonal = np.flatnonzero(stencil.indices == np.repeat(np.arange(n), np.diff(stencil.indptr)))
    for arr in (stencil.data, stencil.indices, stencil.indptr, diagonal, interior, side, bottom):
        arr.setflags(write=False)
    return stencil, diagonal, interior, ((side, grid.hx), (bottom, grid.hz))


def assemble(model: Model, omega: float) -> HelmholtzOperator:
    """Build the sparse Helmholtz matrix for a model at angular frequency
    omega, in the free-surface/absorbing layout of the module docstring.

    A diagonal entry, or its m-derivative, that is not a finite float
    (omega^2 m overflows, or omega is NaN) raises GridError.
    """
    if omega <= 0.0:
        raise GridError(f"omega must be positive, got {omega}")
    g, m = model.grid, model.m
    stencil, diagonal, interior, outgoing = _fixed_rows(g)
    diag = np.zeros(g.n_nodes, dtype=np.complex128)
    ddiag = np.zeros(g.n_nodes, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            omega2 = omega ** 2
        except OverflowError:  # a Python float raises where a numpy float gives inf
            omega2 = np.inf
        diag[interior] = -omega2 * m[interior]
        ddiag[interior] = -omega2
        # outgoing rows: (p_b - p_in)/h^2 - i*omega*sqrt(m)/h * p_b = 0
        for mask, h in outgoing:
            sqrt_m = np.sqrt(m[mask])
            diag[mask] = -1j * omega * sqrt_m / h
            ddiag[mask] = -1j * omega / (2.0 * sqrt_m * h)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(ddiag))):
        raise GridError(f"the operator at omega={omega} has a diagonal entry that is not a finite float")
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


def receiver_data(model: Model, omegas: Sequence[float], acquisition: Acquisition) -> np.ndarray:
    """Forward-solve every source at every angular frequency in omegas and
    sample the receivers: the (n_omega, n_sources, n_receivers) block.

    FREQUENCIES_IN_FLIGHT (two) frequencies run at once: the calling
    thread and the one worker of an executor made for this call each take
    the next frequency left, until none is.  Each assembles and factors
    its frequency, solves its source slabs in a loop, writes the receiver
    samples into the block, and then drops its operator and LU and trims
    the heap, all on its own thread (see the module docstring for the
    leak an LU made on one thread and dropped on another caused).
    SuperLU's factorization releases the GIL, so on an idle host two
    frequencies factor in parallel: two 321x161 factorizations on two
    threads took 0.36-0.44 s against 0.66-0.81 s in sequence.  With
    another process holding a CPU that gain is gone.  Two, not one per
    CPU, because each holds an LU, and the benchmark's peak-memory bound
    was set on two.  The caller is one of the two because two fresh
    workers raised forward_survey's peak RSS from 235 to 242-243 MB.  A
    failed frequency stops both threads from taking another; the call
    returns, or raises the caller's error or else the worker's, only
    after the worker has stopped.

    Each slab densifies its SLAB_COLUMNS point loads, solves them with
    solve_array and writes the receiver samples straight into the block,
    so no full wavefield and no dense source block is ever held;
    trimming the heap as each LU is dropped makes the peak RSS the same
    from one run to the next.  A variant that kept each frequency's
    wavefields ran just as fast on the forward_survey benchmark (321x161,
    64 sources, where one wavefield block is 53 MB), but its peak RSS read
    415-426 MB, 13-14% above a loop that kept none and past the
    benchmark's 10% memory bound.  On one BLAS thread the samples are
    bit-identical to sampling one solve_array call over every source.
    """
    rec_op = receiver_matrix(model.grid, acquisition)
    loads = source_batch(model.grid, acquisition)
    data = np.empty((len(omegas), acquisition.n_sources, acquisition.n_receivers), dtype=np.complex128)
    left = list(range(len(omegas)))
    lock = threading.Lock()

    def take_frequencies() -> None:
        try:
            while True:
                with lock:
                    if not left:
                        return
                    i = left.pop(0)
                _synthesize(model, omegas[i], loads, rec_op, data[i].T)
        except BaseException as exc:
            with lock:
                left.clear()
            # drop the failed frequency's LU, held in its frames, on this thread
            traceback.clear_frames(exc.__traceback__)
            raise

    with futures.ThreadPoolExecutor(FREQUENCIES_IN_FLIGHT - 1) as pool:
        workers = [pool.submit(take_frequencies) for _ in range(min(FREQUENCIES_IN_FLIGHT, len(omegas)) - 1)]
        take_frequencies()
    for w in workers:
        w.result()  # re-raises the worker's error here
    return data


def _synthesize(model: Model, omega: float, loads: sp.csc_matrix, rec_op: sp.csr_matrix, out: np.ndarray) -> None:
    """One frequency of receiver_data: out[:, cols] = rec_op @ (the solution
    of the loads' columns cols), slab by slab through solve_array."""
    op = assemble(model, omega)
    # factor before the first slab is densified: factored after it, the LU
    # lands elsewhere in the heap, and forward_survey's peak RSS read
    # 247.5-248.1 MB against 234.9-235.5 MB (3 runs each), although the LU
    # is freed before _trim_heap either way
    op.factor()
    for s in range(0, loads.shape[1], SLAB_COLUMNS):
        cols = slice(s, s + SLAB_COLUMNS)
        out[:, cols] = rec_op @ op.solve_array(loads[:, cols].toarray())
    del op
    _trim_heap()
