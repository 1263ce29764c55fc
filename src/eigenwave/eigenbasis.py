"""Model compression in the eigenvector basis of a diffusion operator.

A field m is represented as a boundary lift m0 plus a combination of the
eigenvectors belonging to the N smallest eigenvalues of -div(eta grad)
with homogeneous Dirichlet conditions.  build_basis factorizes the SPD
matrix once; that LU gives the boundary lift, and the eigensolver runs
Lanczos on its inverse (the smallest eigenvalues of A are the largest of
A^-1), with full reorthogonalization and locked restarts so that multiple
eigenvalues are resolved reliably.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fileio
from .diffusion import (
    DiffusionSpec,
    assemble_diffusion,
    eval_eta,
    gradient_norms,
    lift_from_operator,
)
from .grid import Grid2D, GridError, ScalarField, same_grid
from .helmholtz import PERMC_SPEC

EIG_RTOL = 1e-8
ORTHO_TOL = 1e-8
# fixed internal seed: eigenvector bases must be reproducible run to run
LANCZOS_SEED = 20260810


class EigenSolveError(RuntimeError):
    """Lanczos failed to converge the requested eigenpairs."""


def smallest_eigenpairs(
    matrix: sp.spmatrix,
    n: int,
    rtol: float = EIG_RTOL,
    seed: int = LANCZOS_SEED,
    max_sweeps: int = 30,
    lu: spla.SuperLU | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """N smallest eigenpairs of a sparse SPD matrix by shift-invert Lanczos.

    Returns eigenvalues ascending and an orthonormal (dim, n) eigenvector
    block, each pair satisfying ||A v - lam v|| <= rtol * lam.  Restart
    sweeps draw a fresh start vector orthogonal to everything already
    locked, which is what resolves degenerate eigenvalue clusters: one
    Krylov sequence can only ever see one copy of a multiple eigenvalue.
    `lu` is an existing factorization of `matrix` to reuse; without it the
    matrix is factored here.
    """
    A = sp.csc_matrix(matrix)
    dim = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise GridError(f"matrix must be square, got {A.shape}")
    if not 1 <= n <= dim:
        raise GridError(f"need 1 <= n <= {dim}, got n={n}")
    if lu is None:
        try:
            lu = spla.splu(A, permc_spec=PERMC_SPEC)
        except RuntimeError as exc:
            raise EigenSolveError(f"factorization failed: {exc}") from exc

    rng = np.random.default_rng(seed)
    locked_v = np.empty((dim, 0))
    locked_w: list[float] = []
    best_open_residual = np.inf
    prev_nth = np.inf
    k_boost = 0  # doubles the Krylov size after a sweep that locked nothing
    k_cap = min(dim, max(4 * n + 40, 160))
    stagnant_at_cap = 0

    for _ in range(max_sweeps):
        n_locked = locked_v.shape[1]
        if n_locked >= dim:
            break
        k = max(2 * max(n - n_locked, 0) + 20, 40) * (1 << k_boost)
        k = min(dim - n_locked, k, k_cap)
        q_block = np.zeros((dim, k))
        alphas = np.zeros(k)
        betas = np.zeros(max(k - 1, 0))

        q = rng.standard_normal(dim)
        q -= locked_v @ (locked_v.T @ q)
        q /= np.linalg.norm(q)
        q_block[:, 0] = q
        steps = k
        for j in range(k):
            w = lu.solve(q_block[:, j])
            alphas[j] = q_block[:, j] @ w
            if j + 1 == k:
                break
            # full reorthogonalization, twice, against Lanczos and locked vectors
            for _pass in range(2):
                w -= q_block[:, : j + 1] @ (q_block[:, : j + 1].T @ w)
                if n_locked:
                    w -= locked_v @ (locked_v.T @ w)
            beta = np.linalg.norm(w)
            if beta < 1e-300:
                steps = j + 1
                break
            betas[j] = beta
            q_block[:, j + 1] = w / beta

        try:
            theta, s = sla.eigh_tridiagonal(
                alphas[:steps], betas[: steps - 1], lapack_driver="stev"
            )
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(
                f"tridiagonal eigensolve failed (operator scaling {alphas[:steps].max():.2e}"
                f"/{alphas[:steps].min():.2e}): {exc}"
            ) from exc
        # largest theta of A^-1 are the smallest eigenvalues of A
        order = np.argsort(theta)[::-1]
        n_check = min(steps, max(n - n_locked, 0) + 10)
        new_v, new_w = [], []
        for i in order[:n_check]:
            if theta[i] <= 0.0:
                continue
            vec = q_block[:, :steps] @ s[:, i]
            vec /= np.linalg.norm(vec)
            lam = 1.0 / theta[i]
            resid = np.linalg.norm(A @ vec - lam * vec) / lam
            if resid <= rtol:
                new_v.append(vec)
                new_w.append(lam)
            else:
                best_open_residual = min(best_open_residual, resid)
        if new_v:
            locked_v = np.hstack([locked_v, np.column_stack(new_v)])
            locked_w.extend(new_w)
            stagnant_at_cap = 0
        elif len(locked_w) < n:
            k_boost += 1  # closely spaced remainder: give the restart more room
            if k >= min(dim - n_locked, k_cap):
                stagnant_at_cap += 1
                if stagnant_at_cap >= 2:
                    raise EigenSolveError(
                        f"stagnated at Krylov cap {k_cap} with {len(locked_w)}/{n} pairs "
                        f"locked, best open relative residual {best_open_residual:.3e} "
                        "(operator likely too ill-conditioned for the residual contract)"
                    )
        if len(locked_w) >= n:
            nth = np.sort(locked_w)[n - 1]
            if nth >= prev_nth * (1.0 - 1e-12):
                break  # an extra restart found nothing smaller: set is stable
            prev_nth = nth
    else:
        raise EigenSolveError(
            f"no convergence after {max_sweeps} restarts: locked {len(locked_w)}/{n} "
            f"pairs, best open relative residual {best_open_residual:.3e}"
        )
    if len(locked_w) < n:
        raise EigenSolveError(
            f"locked only {len(locked_w)}/{n} pairs, best open residual {best_open_residual:.3e}"
        )

    vals = np.asarray(locked_w)
    take = np.argsort(vals)[:n]
    vals = vals[take]
    vecs = locked_v[:, take]
    for j in range(n):
        col = vecs[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            vecs[:, j] = -col
    gram = vecs.T @ vecs - np.eye(n)
    if np.max(np.abs(gram)) > ORTHO_TOL:
        raise EigenSolveError(f"orthonormality lost: max Gram defect {np.max(np.abs(gram)):.3e}")
    return vals, vecs


@dataclass(frozen=True)
class EigenBasis:
    """Lift m0 plus eigenvectors of the diffusion operator built from one model.

    Eigenvectors are stored as full nodal columns (zero on every boundary
    node), unit Euclidean norm, sign fixed so the largest-magnitude entry
    is positive.
    """

    spec: DiffusionSpec
    source_model_hash: str
    m0: ScalarField
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)  # (n_nodes, N)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        vecs = np.asarray(self.eigenvectors, dtype=np.float64)
        if vals.ndim != 1 or vecs.shape != (self.m0.grid.n_nodes, vals.size):
            raise GridError("inconsistent eigenpair shapes")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def grid(self) -> Grid2D:
        return self.m0.grid

    @property
    def n_vectors(self) -> int:
        return int(self.eigenvalues.size)

    def vector_field(self, k: int) -> ScalarField:
        return ScalarField(self.grid, self.eigenvectors[:, k])


@dataclass(frozen=True)
class DecomposedModel:
    """Coefficients of a field in an EigenBasis; only the first n_active count."""

    basis: EigenBasis
    alpha: np.ndarray
    n_active: int

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (self.basis.n_vectors,):
            raise GridError(
                f"alpha must have length {self.basis.n_vectors}, got {a.shape}"
            )
        if not 0 <= self.n_active <= self.basis.n_vectors:
            raise GridError(f"n_active {self.n_active} out of range")
        a = a.copy()
        a[self.n_active:] = 0.0
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)


def build_basis(m: ScalarField, spec: DiffusionSpec, n: int) -> EigenBasis:
    """Full pipeline: coefficient field, operator, boundary lift, eigenpairs."""
    norms = gradient_norms(m)
    eta = eval_eta(spec, norms)
    op = assemble_diffusion(eta)
    # allocated before the LU that the lift and the eigensolve share, so the
    # heap space the LU frees on return is not pinned under a live array
    vecs = np.zeros((m.grid.n_nodes, n))
    m0 = lift_from_operator(op, m)
    vals, vecs[op.interior_indices(), :] = smallest_eigenpairs(op.matrix, n, lu=op.factor())
    return EigenBasis(
        spec=spec,
        source_model_hash=m.digest(),
        m0=m0,
        eigenvalues=vals,
        eigenvectors=vecs,
    )


def project(m: ScalarField, basis: EigenBasis, n_active: int | None = None) -> DecomposedModel:
    """Least-squares fit of m - m0 in the leading n_active eigenvectors."""
    same_grid(m.grid, basis.grid)
    if n_active is None:
        n_active = basis.n_vectors
    if not 0 <= n_active <= basis.n_vectors:
        raise GridError(f"n_active {n_active} exceeds basis size {basis.n_vectors}")
    alpha = np.zeros(basis.n_vectors)
    if n_active:
        psi = basis.eigenvectors[:, :n_active]
        coef, _, rank, _ = np.linalg.lstsq(psi, m.values - basis.m0.values, rcond=None)
        if rank < n_active:
            raise GridError(f"rank-deficient eigenvector block: rank {rank} < {n_active}")
        alpha[:n_active] = coef
    return DecomposedModel(basis=basis, alpha=alpha, n_active=n_active)


def reconstruct(d: DecomposedModel) -> ScalarField:
    vals = d.basis.m0.values + d.basis.eigenvectors[:, : d.n_active] @ d.alpha[: d.n_active]
    return ScalarField(d.basis.grid, vals)


# ---------------------------------------------------------------------------
# basis archive

MANIFEST_NAME = "manifest.txt"


def save_basis(directory: str | os.PathLike, basis: EigenBasis) -> Path:
    """Write manifest, m0 and one field file per eigenvector."""
    out = fileio.ensure_dir(directory)
    g = basis.grid
    lines = [
        f"kind = {basis.spec.kind}",
        f"beta = {basis.spec.beta!r}",
        f"n = {basis.n_vectors}",
        f"grid = {g.nx} {g.nz} {g.hx!r} {g.hz!r} {g.x0!r} {g.z0!r}",
        f"source_model_hash = {basis.source_model_hash}",
        "eigenvalues =",
    ]
    lines += [f"  {float(v)!r}" for v in basis.eigenvalues]
    (out / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="ascii")
    fileio.write_field(out / "m0.ewf", basis.m0)
    for k in range(basis.n_vectors):
        fileio.write_field(out / f"psi_{k + 1:04d}.ewf", basis.vector_field(k))
    return out


def load_basis(directory: str | os.PathLike) -> EigenBasis:
    root = Path(directory)
    text = (root / MANIFEST_NAME).read_text(encoding="ascii")
    fields: dict[str, str] = {}
    eigenvalues: list[float] = []
    in_vals = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_vals:
            eigenvalues.append(float(line))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key == "eigenvalues":
            in_vals = True
            continue
        fields[key] = value.strip()
    spec = DiffusionSpec(kind=fields["kind"], beta=float(fields["beta"]))
    n = int(fields["n"])
    if len(eigenvalues) != n:
        raise fileio.FieldFileError(
            f"manifest promises {n} eigenvalues, found {len(eigenvalues)}"
        )
    m0 = fileio.read_field(root / "m0.ewf")
    vecs = np.empty((m0.grid.n_nodes, n))
    for k in range(n):
        psi = fileio.read_field(root / f"psi_{k + 1:04d}.ewf")
        same_grid(psi.grid, m0.grid)
        vecs[:, k] = psi.values
    return EigenBasis(
        spec=spec,
        source_model_hash=fields["source_model_hash"],
        m0=m0,
        eigenvalues=np.asarray(eigenvalues),
        eigenvectors=vecs,
    )
