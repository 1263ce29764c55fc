"""Misfit, adjoint-state gradients and the frequency/N-schedule optimizer.

The gradient of the least-squares misfit is assembled from one forward
and one adjoint solve per (frequency, source); the adjoint system is the
conjugate transpose of the forward operator so its factorization is
reused.  The derivative of the operator with respect to squared slowness
is diagonal: -omega^2 on interior rows plus the absorbing-row term
-i*omega/(2 sqrt(m) h), both carried by HelmholtzOperator.ddiag_dm, so
finite-difference checks pass with no boundary carve-outs.

Minimization is Polak-Ribiere+ nonlinear conjugate gradient with Armijo
backtracking, restarted at every (frequency, N) block boundary.

All simulation goes through MisfitEvaluator, which keeps the last
(model, frequency) it simulated: the Helmholtz operator with its LU, the
forward wavefields and the receiver residual.  The key is the exact bytes
of the clamped squared slowness that was simulated, so a hit returns
bit-for-bit what a fresh evaluation would.  A line search ends on the
point it accepts, so the gradient there costs one adjoint solve and no
factorization; per accepted step that saves one of the roughly four
factorizations the search makes.  The entry is dropped as soon as a
gradient is taken (the next search never revisits that point) and
before a new LU is built, so no more than one LU is alive at a time;
keeping it past the gradient would only raise peak memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .dataset import FrequencyDataset
from .diffusion import DiffusionSpec
from .eigenbasis import EigenBasis, build_basis, project, reconstruct
from .grid import Grid2D, GridError, Model, ScalarField, clamp_model, same_grid
from .helmholtz import HelmholtzOperator, assemble, receiver_matrix, source_batch


@dataclass(frozen=True)
class InversionConfig:
    """Schedules and optimizer knobs for the block-structured inversion.

    frequencies and n_schedule pair up into optimization blocks: equal
    lengths pair elementwise, a single frequency spreads over an
    N-progression, a single N spreads over the frequency sweep.
    """

    frequencies: tuple[float, ...]
    n_schedule: tuple[int, ...] = ()
    n_iter: int = 30
    spec: DiffusionSpec | None = None
    refresh_basis: bool = False
    nodal: bool = False
    armijo_c1: float = 1e-4
    ls_shrink: float = 0.5
    ls_max_backtracks: int = 20
    ls_init_scale: float = 0.05

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        sched = tuple(int(n) for n in self.n_schedule)
        if not freqs:
            raise GridError("need at least one frequency")
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise GridError(f"frequencies must be strictly increasing, got {freqs}")
        if any(n2 < n1 for n1, n2 in zip(sched, sched[1:])):
            raise GridError(f"N schedule must be nondecreasing, got {sched}")
        if self.n_iter < 0:
            raise GridError("n_iter must be nonnegative")
        if not self.nodal:
            if self.spec is None:
                raise GridError("eigenbasis mode needs a DiffusionSpec")
            if not sched or any(n < 1 for n in sched):
                raise GridError("eigenbasis mode needs a positive N schedule")
        if not (0.0 < self.armijo_c1 < 1.0 and 0.0 < self.ls_shrink < 1.0):
            raise GridError("need 0 < armijo_c1 < 1 and 0 < shrink < 1")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "n_schedule", sched)

    def blocks(self) -> list[tuple[float, int]]:
        """(frequency, N) per optimization block."""
        if self.nodal:
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

    @property
    def n_max(self) -> int:
        return max(self.n_schedule) if self.n_schedule else 0


@dataclass(frozen=True)
class IterationRecord:
    block: int
    iteration: int
    misfit: float
    step: float
    dir_deriv: float
    n_active: int
    n_clamped: int
    accepted: bool
    n_backtracks: int = 0
    was_reset: bool = False
    n_factor: int = 0  # Helmholtz factorizations since the previous record


@dataclass
class InversionHistory:
    """Per-iteration log plus model snapshots at block boundaries."""

    records: list[IterationRecord] = field(default_factory=list)
    snapshots: list[tuple[int, ScalarField]] = field(default_factory=list)
    n_basis_builds: int = 0

    CSV_HEADER = (
        "block,iter,misfit,step,n_active,dir_deriv,n_clamped,accepted,"
        "n_backtracks,was_reset,n_factor"
    )

    def to_csv(self, path: str | os.PathLike) -> None:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.block},{r.iteration},{r.misfit:.17g},{r.step:.17g},"
                f"{r.n_active},{r.dir_deriv:.17g},{r.n_clamped},{int(r.accepted)},"
                f"{r.n_backtracks},{int(r.was_reset)},{r.n_factor}"
            )
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# misfit and gradient


def _frequency_indices(dataset: FrequencyDataset, frequencies) -> list[int]:
    if frequencies is None:
        return list(range(dataset.n_frequencies))
    return [dataset.frequency_index(f) for f in np.atleast_1d(frequencies)]


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
        acq = dataset.acquisition
        acq.validate_in(grid)
        self.dataset = dataset
        self.rec_op = receiver_matrix(grid, acq)
        self.rhs = source_batch(grid, acq)
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


def misfit(model: Model, dataset: FrequencyDataset, frequencies=None) -> float:
    """J = 1/2 sum over frequencies and sources of ||F(m) - d||^2."""
    ev = MisfitEvaluator(dataset, model.grid)
    value = 0.0
    for i in _frequency_indices(dataset, frequencies):
        value += ev.value(model, i)
    return value


def gradient_nodal(model: Model, dataset: FrequencyDataset, frequencies=None) -> ScalarField:
    """Derivative of the misfit with respect to nodal squared slowness."""
    return misfit_and_gradient(model, dataset, frequencies)[1]


def misfit_and_gradient(
    model: Model, dataset: FrequencyDataset, frequencies=None
) -> tuple[float, ScalarField]:
    ev = MisfitEvaluator(dataset, model.grid)
    value = 0.0
    grad = np.zeros(model.grid.n_nodes)
    for i in _frequency_indices(dataset, frequencies):
        value += ev.value(model, i)
        grad += ev.gradient(model, i)
    return value, ScalarField(model.grid, grad)


def gradient_alpha(g_nodal: ScalarField, basis: EigenBasis, n_active: int) -> np.ndarray:
    """Chain rule to basis coefficients: one inner product per eigenvector."""
    same_grid(g_nodal.grid, basis.grid)
    if not 0 <= n_active <= basis.n_vectors:
        raise GridError(f"n_active {n_active} out of range")
    return basis.eigenvectors[:, :n_active].T @ g_nodal.values


# ---------------------------------------------------------------------------
# nonlinear conjugate gradient with Armijo backtracking


@dataclass
class NLCGState:
    """Optimizer state over a flat parameter vector (alpha or nodal m)."""

    x: np.ndarray
    value: float
    grad: np.ndarray
    dir_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None
    failed: bool = False


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
    """One PR+ step: direction, backtracking search, state update in place.

    The trial step is mu0 = init_scale * max(||x||, floor) / ||s||; the
    floor keeps the very first updates finite when the start model is
    exactly represented by the lift (alpha = 0).  A failed search
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

    def search(direction):
        d = float(g @ direction)
        mu = config.ls_init_scale * max(
            float(np.linalg.norm(state.x)), step_norm_floor
        ) / float(np.linalg.norm(direction))
        for bt in range(config.ls_max_backtracks + 1):
            x_new = state.x + mu * direction
            value_new = eval_value(x_new)
            if value_new <= state.value + config.armijo_c1 * mu * d:
                return x_new, value_new, mu, d, bt
            mu *= config.ls_shrink
        return None

    was_reset = False
    hit = search(s)
    if hit is None and used_cg:
        was_reset = True
        s = -g
        hit = search(s)
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
    state.grad = eval_grad(x_new)
    return StepInfo(step=mu, dir_deriv=d, accepted=True, n_backtracks=bt, was_reset=was_reset)


# ---------------------------------------------------------------------------
# the block driver


def run_inversion(
    config: InversionConfig, dataset: FrequencyDataset, m_start: Model
) -> tuple[Model, InversionHistory]:
    """Optimize the model over the configured (frequency, N) blocks.

    In eigenbasis mode the basis is built once from the start model (or
    rebuilt from the current reconstruction at every block boundary when
    refresh_basis is set) and the coefficients of the leading N
    eigenvectors are the unknowns; nodal mode optimizes every node value
    directly.  Every candidate model is clamped to the admissible speed
    box before simulation and clamp counts are logged.
    """
    grid = m_start.grid
    c_min, c_max = m_start.c_min, m_start.c_max
    history = InversionHistory()
    blocks = config.blocks()

    def clamped(field: ScalarField) -> tuple[Model, int]:
        return clamp_model(field, c_min, c_max)

    if config.nodal:
        basis = None
        x = np.array(m_start.m)
        if config.n_iter == 0:
            model, _ = clamped(ScalarField(grid, x))
            return model, history
    else:
        basis = build_basis(m_start.field, config.spec, config.n_max)
        history.n_basis_builds = 1
        dec = project(m_start.field, basis, blocks[0][1])
        x = np.array(dec.alpha[: dec.n_active])
        if config.n_iter == 0:
            model, _ = clamped(reconstruct(dec))
            return model, history

    clamp_count = {"last": 0}

    def field_of(xvec: np.ndarray) -> ScalarField:
        if config.nodal:
            return ScalarField(grid, xvec)
        return ScalarField(
            grid, basis.m0.values + basis.eigenvectors[:, : xvec.size] @ xvec
        )

    def model_of(xvec: np.ndarray) -> Model:
        model, n_clamped = clamped(field_of(xvec))
        clamp_count["last"] = n_clamped
        return model

    evaluator = MisfitEvaluator(dataset, grid)
    cursor = {"index": 0, "n_factor": 0}

    def eval_value(xvec: np.ndarray) -> float:
        return evaluator.value(model_of(xvec), cursor["index"])

    def eval_grad(xvec: np.ndarray) -> np.ndarray:
        g_nodal = evaluator.gradient(model_of(xvec), cursor["index"])
        if config.nodal:
            return g_nodal
        return gradient_alpha(ScalarField(grid, g_nodal), basis, xvec.size)

    def new_factors() -> int:
        n = evaluator.n_factor - cursor["n_factor"]
        cursor["n_factor"] = evaluator.n_factor
        return n

    state: NLCGState | None = None
    for b, (freq, n_active) in enumerate(blocks):
        cursor["index"] = dataset.frequency_index(freq)
        if not config.nodal:
            if config.refresh_basis and b > 0:
                current = clamped(field_of(x))[0].field
                basis = build_basis(current, config.spec, config.n_max)
                history.n_basis_builds += 1
                dec = project(current, basis, n_active)
                x = np.array(dec.alpha[:n_active])
            elif x.size < n_active:
                x = np.concatenate([x, np.zeros(n_active - x.size)])

        value = eval_value(x)
        entry_clamped = clamp_count["last"]
        grad = eval_grad(x)
        state = NLCGState(x=x, value=value, grad=grad)
        history.records.append(
            IterationRecord(
                block=b, iteration=0, misfit=value, step=0.0, dir_deriv=0.0,
                n_active=x.size if not config.nodal else 0,
                n_clamped=entry_clamped, accepted=True, n_factor=new_factors(),
            )
        )
        floor = float(np.linalg.norm(field_of(x).values))
        for it in range(1, config.n_iter + 1):
            info = nlcg_step(state, eval_value, eval_grad, config, step_norm_floor=floor)
            model_of(state.x)  # refresh clamp count for the accepted point
            history.records.append(
                IterationRecord(
                    block=b, iteration=it, misfit=state.value, step=info.step,
                    dir_deriv=info.dir_deriv,
                    n_active=state.x.size if not config.nodal else 0,
                    n_clamped=clamp_count["last"], accepted=info.accepted,
                    n_backtracks=info.n_backtracks, was_reset=info.was_reset,
                    n_factor=new_factors(),
                )
            )
            if state.failed:
                break
        x = state.x
        history.snapshots.append((b, clamped(field_of(x))[0].field))

    final, _ = clamped(field_of(x))
    return final, history
