"""Misfit, adjoint-state gradients and the frequency/N-schedule optimizer.

The gradient of the least-squares misfit is assembled from one forward
and one adjoint solve per (frequency, source); the adjoint system is the
conjugate transpose of the forward operator so its factorization is
reused.  The derivative of the operator with respect to squared slowness
is diagonal: -omega^2 on interior rows plus the absorbing-row term
-i*omega/(2 sqrt(m) h), both carried by HelmholtzOperator.ddiag_dm, so
finite-difference checks pass with no boundary carve-outs.

Minimization is Polak-Ribiere+ nonlinear conjugate gradient with an
Armijo line search, restarted at every (frequency, N) block boundary.
Each trial point of a search costs one Helmholtz factorization, so the
search is built to need few: its first trial is warm-started from the
previous accepted step (Nocedal & Wright, Numerical Optimization, eq.
3.60), and a rejected trial is followed by the minimizer of the quadratic
through phi(0), phi'(0) and phi(mu) instead of a fixed halving.  The
warm start is not carried into a new block: a step length from the old
frequency or basis size passes the Armijo test at once while far too
short, and the inversion stalls at a higher misfit.

All simulation goes through MisfitEvaluator, which keeps the last
(model, frequency) it simulated: the Helmholtz operator with its LU, the
forward wavefields and the receiver residual.  The key is the exact bytes
of the clamped squared slowness that was simulated, so a hit returns
bit-for-bit what a fresh evaluation would.  A line search ends on the
point it accepts, so the gradient there costs one adjoint solve and no
factorization.  The entry is dropped as soon as a gradient is taken (the
next search never revisits that point) and before a new LU is built, so
no more than one LU is alive at a time; keeping it past the gradient
would only raise peak memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import ClassVar

import numpy as np

from .dataset import FrequencyDataset, check_frequencies
from .diffusion import DiffusionSpec
from .eigenbasis import EigenBasis, build_basis, project
from .grid import Grid2D, GridError, Model, ScalarField, clamp_model, same_grid
from .helmholtz import HelmholtzOperator, assemble, receiver_matrix, source_batch


@dataclass(frozen=True)
class InversionConfig:
    """Schedules for the block-structured inversion.

    frequencies and n_schedule pair up into optimization blocks: equal
    lengths pair elementwise, a single frequency spreads over an
    N-progression, a single N spreads over the frequency sweep.

    The line search is fixed, not configured: a trial step mu is accepted
    when it passes the Armijo test with constant armijo_c1 = 1e-4.  The
    first search of a block, and the steepest-descent retry after a failed
    CG search, start at ls_init_scale * ||x|| / ||s|| with ls_init_scale =
    0.05 (||x|| floored, see nlcg_step); later searches start from the
    previous accepted step.  A rejected trial moves to the quadratic
    model's minimizer, kept within [0.1 mu, ls_shrink * mu] with ls_shrink
    = 0.5, and a search gives up after ls_max_backtracks = 20 backtracks.
    The paper's inversion is one fixed PR+ run over the schedule, and no
    run of the package or its benchmark used other values, so the four are
    class constants: a run chooses only its schedule and its eta spec, and
    with no spec it is nodal, takes no N schedule and optimizes every node
    value.  nlcg_step reads the four from its config.
    """

    armijo_c1: ClassVar[float] = 1e-4
    ls_shrink: ClassVar[float] = 0.5
    ls_max_backtracks: ClassVar[int] = 20
    ls_init_scale: ClassVar[float] = 0.05

    frequencies: tuple[float, ...]
    n_schedule: tuple[int, ...] = ()
    n_iter: int = 30
    spec: DiffusionSpec | None = None

    def __post_init__(self):
        freqs = check_frequencies(self.frequencies)
        sched = tuple(int(n) for n in self.n_schedule)
        if not freqs:
            raise GridError("need at least one frequency")
        if any(n2 < n1 for n1, n2 in zip(sched, sched[1:])):
            raise GridError(f"N schedule must be nondecreasing, got {sched}")
        if self.n_iter < 0:
            raise GridError("n_iter must be nonnegative")
        if self.spec is None and sched:
            raise GridError("an N schedule needs a DiffusionSpec (eigenbasis mode)")
        if self.spec is not None and (not sched or any(n < 1 for n in sched)):
            raise GridError("eigenbasis mode needs a positive N schedule")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "n_schedule", sched)
        self.blocks()  # raises when the schedules cannot pair

    def blocks(self) -> list[tuple[float, int]]:
        """(frequency, N) per optimization block; N is 0 in nodal mode."""
        if self.spec is None:
            return [(f, 0) for f in self.frequencies]
        if len(self.frequencies) == len(self.n_schedule):
            return list(zip(self.frequencies, self.n_schedule))
        if len(self.frequencies) == 1:
            return [(self.frequencies[0], n) for n in self.n_schedule]
        if len(self.n_schedule) == 1:
            return [(f, self.n_schedule[0]) for f in self.frequencies]
        raise GridError(
            f"cannot pair {len(self.frequencies)} frequencies with "
            f"{len(self.n_schedule)} schedule entries"
        )


@dataclass(frozen=True)
class IterationRecord:
    block: int
    iteration: int
    misfit: float
    step: float
    dir_deriv: float
    n_active: int  # unknowns: N, or every node in nodal mode
    n_clamped: int
    accepted: bool
    n_backtracks: int = 0
    was_reset: bool = False
    n_factor: int = 0  # Helmholtz factorizations since the previous record
    wall_s: float = 0.0  # seconds since the previous record (since the call, for the first)
    grad_norm: float = 0.0  # ||g|| of the optimized parameters at the recorded point


@dataclass
class InversionHistory:
    """Per-iteration log plus model snapshots at block boundaries."""

    records: list[IterationRecord] = field(default_factory=list)
    snapshots: list[tuple[int, ScalarField]] = field(default_factory=list)

    CSV_HEADER = (
        "block,iter,misfit,step,n_active,dir_deriv,n_clamped,accepted,"
        "n_backtracks,was_reset,n_factor,wall_s,grad_norm"
    )

    def to_csv(self, path: str | os.PathLike) -> None:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.block},{r.iteration},{r.misfit:.17g},{r.step:.17g},"
                f"{r.n_active},{r.dir_deriv:.17g},{r.n_clamped},{int(r.accepted)},"
                f"{r.n_backtracks},{int(r.was_reset)},{r.n_factor},"
                f"{r.wall_s:.17g},{r.grad_norm:.17g}"
            )
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# misfit and gradient


@dataclass(frozen=True)
class _Forward:
    """One simulated (model, frequency): operator with its LU, wavefields, residual."""

    key: bytes
    index: int
    op: HelmholtzOperator
    u: np.ndarray  # (n_nodes, n_src)
    residual: np.ndarray  # (n_rec, n_src)
    value: float


class MisfitEvaluator:
    """Misfit and nodal gradient of one dataset on one grid.

    The receiver operator and the source loads are built once.  The last
    simulation is kept, keyed by the exact bytes of the model and the
    frequency index, so a gradient at the point a line search accepted
    costs one adjoint solve and no factorization.  A gradient ends the
    entry, and a new entry is built only after the old one is dropped, so
    at most one LU is alive.  `n_factor` counts the factorizations made.
    """

    def __init__(self, dataset: FrequencyDataset, grid: Grid2D):
        self.dataset = dataset
        self.rec_op = receiver_matrix(grid, dataset.acquisition)
        self.rhs = source_batch(grid, dataset.acquisition).toarray()
        self.n_factor = 0
        self._entry: _Forward | None = None

    def _forward(self, model: Model, index: int) -> _Forward:
        key = model.m.tobytes()
        if self._entry is not None and (self._entry.index, self._entry.key) == (index, key):
            return self._entry
        self._entry = None  # release the old LU before factoring a new one
        op = assemble(model, 2.0 * np.pi * self.dataset.frequencies[index])
        u = op.solve_array(self.rhs)
        self.n_factor += 1
        residual = self.rec_op @ u - self.dataset.data[index].T
        value = 0.5 * float(np.sum(np.abs(residual) ** 2))
        self._entry = _Forward(key, index, op, u, residual, value)
        return self._entry

    def value(self, model: Model, index: int) -> float:
        """J_f = 1/2 sum over sources of ||F(m) - d||^2 at one frequency."""
        return self._forward(model, index).value

    def gradient(self, model: Model, index: int) -> np.ndarray:
        """dJ_f/dm at the nodes, from one forward and one adjoint solve."""
        entry = self._forward(model, index)
        self._entry = None  # never reused after a gradient
        q = entry.op.solve_array(self.rec_op.T @ entry.residual, adjoint=True)
        # dJ/dm_j = -Re( ddiag_j * sum_s conj(q_js) u_js )
        return -np.real(entry.op.ddiag_dm * np.sum(np.conj(q) * entry.u, axis=1))


def misfit(model: Model, dataset: FrequencyDataset) -> float:
    """J = 1/2 sum over all the dataset's frequencies and sources of
    ||F(m) - d||^2.  MisfitEvaluator gives J and dJ/dm per frequency."""
    ev = MisfitEvaluator(dataset, model.grid)
    return sum((ev.value(model, i) for i in range(dataset.n_frequencies)), 0.0)


def gradient_alpha(g_nodal: ScalarField, basis: EigenBasis, n_active: int) -> np.ndarray:
    """Chain rule to basis coefficients: one inner product per eigenvector."""
    same_grid(g_nodal.grid, basis.grid)
    if not 0 <= n_active <= basis.n_vectors:
        raise GridError(f"n_active {n_active} out of range")
    return basis.eigenvectors[:, :n_active].T @ g_nodal.values


# ---------------------------------------------------------------------------
# nonlinear conjugate gradient with a warm-started, interpolating line search


@dataclass
class NLCGState:
    """Optimizer state over a flat parameter vector (alpha or nodal m)."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    dir_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None
    failed: bool = False
    last_step: tuple[float, float] | None = None  # (mu, phi'(0)) of the last accepted step


@dataclass(frozen=True)
class StepInfo:
    step: float
    dir_deriv: float
    accepted: bool
    n_backtracks: int
    was_reset: bool


def nlcg_step(
    state: NLCGState,
    eval_value,
    eval_grad,
    config: InversionConfig,
    step_norm_floor: float = 0.0,
) -> StepInfo:
    """One PR+ step: direction, Armijo line search, state update in place.

    Warm start: once the state holds an accepted step (mu_prev, d_prev),
    the first trial is mu0 = mu_prev * d_prev / d, with d = g.s the
    directional derivative along the new direction s, so the predicted
    first-order decrease matches the last one.  Cold start: a state
    without one, which run_inversion builds fresh at every block entry,
    and the steepest-descent retry after a failed CG search use
    mu0 = init_scale * max(||x||, floor) / ||s||; the floor keeps the
    very first updates finite when the start model is exactly represented
    by the lift (alpha = 0).  A trial that fails the Armijo test is
    followed by the minimizer of the quadratic through phi(0) = value,
    phi'(0) = d and phi(mu), clamped to [0.1 mu, shrink * mu]; without
    positive curvature the next trial is shrink * mu.  A failed search
    retries once along steepest descent; a second failure marks the
    state failed so the caller can end the block.
    """
    g = state.grad
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return StepInfo(step=0.0, dir_deriv=0.0, accepted=False, n_backtracks=0, was_reset=False)

    s = -g
    used_cg = False
    if state.dir_prev is not None and state.grad_prev is not None:
        denom = float(state.grad_prev @ state.grad_prev)
        if denom > 0.0:
            beta = max(0.0, float(g @ (g - state.grad_prev)) / denom)
            cand = -g + beta * state.dir_prev
            if float(g @ cand) < 0.0:
                s = cand
                used_cg = True

    def search(direction, mu):
        d = float(g @ direction)
        for bt in range(config.ls_max_backtracks + 1):
            x_new = state.x + mu * direction
            value_new = eval_value(x_new)
            if value_new <= state.value + config.armijo_c1 * mu * d:
                return x_new, value_new, mu, d, bt
            # minimizer of the quadratic through phi(0), phi'(0) and phi(mu)
            curv = value_new - state.value - d * mu
            shrunk = config.ls_shrink * mu
            mu = min(max(-0.5 * d * mu * mu / curv, 0.1 * mu), shrunk) if curv > 0.0 else shrunk
        return None

    def cold_trial(direction):
        return config.ls_init_scale * max(
            float(np.linalg.norm(state.x)), step_norm_floor
        ) / float(np.linalg.norm(direction))

    if state.last_step is None:
        mu0 = cold_trial(s)
    else:
        mu_prev, d_prev = state.last_step
        mu0 = mu_prev * d_prev / float(g @ s)

    was_reset = False
    hit = search(s, mu0)
    if hit is None and used_cg:
        was_reset = True
        s = -g
        hit = search(s, cold_trial(s))
    if hit is None:
        state.failed = True
        return StepInfo(
            step=0.0, dir_deriv=float(g @ s), accepted=False,
            n_backtracks=config.ls_max_backtracks + 1, was_reset=was_reset,
        )

    x_new, value_new, mu, d, bt = hit
    state.grad_prev = g
    state.dir_prev = s
    state.x = x_new
    state.value = value_new
    state.last_step = (mu, d)
    state.grad = eval_grad(x_new)
    return StepInfo(step=mu, dir_deriv=d, accepted=True, n_backtracks=bt, was_reset=was_reset)


# ---------------------------------------------------------------------------
# the block driver


def run_inversion(
    config: InversionConfig, dataset: FrequencyDataset, m_start: Model
) -> tuple[Model, InversionHistory]:
    """Optimize the model over the configured (frequency, N) blocks.

    In eigenbasis mode the basis is built once, from the start model, and
    the unknowns are the coefficients of its leading N eigenvectors; a
    block that raises N enters with the new coefficients at zero, so the
    model is unchanged at block entry.  Nodal mode has no basis and
    optimizes every node value directly.  Every candidate model is
    clamped to the admissible speed box before simulation and clamp
    counts are logged.
    """
    last_time = perf_counter()
    grid = m_start.grid
    history = InversionHistory()
    # (dataset index, N) per block, looked up first: a frequency missing
    # from the dataset fails before the basis is built
    blocks = [(dataset.frequency_index(freq), n) for freq, n in config.blocks()]
    if config.spec is None:
        basis = None
        x = np.array(m_start.m)
    else:
        basis = build_basis(m_start.field, config.spec, max(config.n_schedule))
        x = np.array(project(m_start.field, basis, blocks[0][1]).alpha[: blocks[0][1]])

    def values_of(xvec: np.ndarray) -> np.ndarray:
        """The nodal squared slowness that the unknowns stand for."""
        if basis is None:
            return xvec
        return basis.m0.values + basis.eigenvectors[:, : xvec.size] @ xvec

    def clamped(xvec: np.ndarray) -> tuple[Model, int]:
        return clamp_model(ScalarField(grid, values_of(xvec)), m_start.c_min, m_start.c_max)

    if config.n_iter == 0:
        return clamped(x)[0], history

    # eval_value, eval_grad and log read the block loop's b and index
    evaluator = MisfitEvaluator(dataset, grid)
    last_factor = 0

    def eval_value(xvec: np.ndarray) -> float:
        return evaluator.value(clamped(xvec)[0], index)

    def eval_grad(xvec: np.ndarray) -> np.ndarray:
        g_nodal = evaluator.gradient(clamped(xvec)[0], index)
        if basis is None:
            return g_nodal
        return gradient_alpha(ScalarField(grid, g_nodal), basis, xvec.size)

    def log(iteration: int, state: NLCGState, **step) -> None:
        """Record the state after a step, with the work done since the last record."""
        nonlocal last_factor, last_time
        now = perf_counter()
        history.records.append(
            IterationRecord(
                block=b, iteration=iteration, misfit=state.value, n_active=state.x.size,
                n_clamped=clamped(state.x)[1],
                n_factor=evaluator.n_factor - last_factor,
                wall_s=now - last_time,
                grad_norm=float(np.linalg.norm(state.grad)),
                **step,
            )
        )
        last_factor, last_time = evaluator.n_factor, now

    for b, (index, n_active) in enumerate(blocks):
        x = np.concatenate([x, np.zeros(max(n_active - x.size, 0))])
        # a fresh state per block: no CG direction and no warm start carry over
        state = NLCGState(x=x, value=eval_value(x), grad=eval_grad(x))
        log(0, state, step=0.0, dir_deriv=0.0, accepted=True)
        floor = float(np.linalg.norm(values_of(x)))
        for it in range(1, config.n_iter + 1):
            info = nlcg_step(state, eval_value, eval_grad, config, step_norm_floor=floor)
            log(
                it, state, step=info.step, dir_deriv=info.dir_deriv,
                accepted=info.accepted, n_backtracks=info.n_backtracks,
                was_reset=info.was_reset,
            )
            if state.failed:
                break
        x = state.x
        history.snapshots.append((b, clamped(x)[0].field))

    return clamped(x)[0], history
