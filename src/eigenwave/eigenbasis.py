"""Model compression in the eigenvector basis of a diffusion operator.

A field m is represented as a boundary lift m0 plus a combination of the
orthonormal eigenvectors Psi belonging to the N smallest eigenvalues of
-div(eta grad) with homogeneous Dirichlet conditions; the coefficients are
Psi^T (m - m0).  build_basis factorizes the SPD matrix A once; that LU gives
the boundary lift, and ARPACK's implicitly restarted Lanczos applies it
twice at every step.  The smallest eigenvalues of A are the largest of
A^-2, whose squared spectrum widens the relative gaps of the wanted
eigenvalues, so ARPACK takes fewer steps than it would on A^-1.  Every
returned pair is checked against the positivity, residual and
orthonormality contracts after ARPACK returns.
Reference: Lehoucq, Sorensen & Yang, ARPACK Users' Guide (SIAM 1998), ch. 4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import fileio
from .diffusion import (
    DiffusionOperator,
    DiffusionSpec,
    assemble_diffusion,
    eval_eta,
    gradient_norms,
    lift_from_operator,
)
from .grid import Grid2D, GridError, ScalarField, same_grid

EIG_RTOL = 1e-8
ORTHO_TOL = 1e-8
# magnitudes within this relative distance of a vector's largest count as
# tied for the sign rule
SIGN_TIE_RTOL = 1e-8
# fixed internal seed: eigenvector bases must be reproducible run to run
LANCZOS_SEED = 20260810


class EigenSolveError(RuntimeError):
    """The eigensolve failed: ARPACK did not converge or its operator
    overflowed, or a returned pair broke the positivity, residual or
    orthonormality contract."""


def smallest_eigenpairs(op: DiffusionOperator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """N smallest eigenpairs of op.matrix A (SPD) by ARPACK on A^-2.

    Returns eigenvalues finite, positive and ascending, as load_basis
    requires, and an orthonormal (dim, n) eigenvector block, each pair
    satisfying ||A v - lam v|| <= EIG_RTOL * ||A||_1.  That is a backward
    error, attainable however ill-conditioned A is; a bound relative to lam
    sits at the rounding floor once cond(A) nears 1/EIG_RTOL.
    Each vector's sign makes positive the first entry whose magnitude is
    within SIGN_TIE_RTOL of its largest: on a mirror-symmetric model the two
    largest entries of an antisymmetric vector tie, and picking the single
    largest would leave the sign to rounding.  The start vector is drawn
    from LANCZOS_SEED, so the result is reproducible.  ARPACK runs in
    regular mode on A^-2, two solves with op's LU (which the lift shares)
    per Lanczos step, and lam is the Rayleigh quotient v^T A v.
    ARPACK needs n < dim - 1, so larger n take a dense eigensolve.
    """
    A = op.matrix
    dim = A.shape[0]
    if not 1 <= n <= dim:
        raise GridError(f"need 1 <= n <= {dim}, got n={n}")

    if n >= dim - 1:
        vals, vecs = sla.eigh(A.toarray(), subset_by_index=[0, n - 1])
    else:
        lu = op.factor()

        def apply_inv2(x):
            y = lu.solve(lu.solve(x))
            # left to ARPACK, an overflow makes LAPACK print to stdout and
            # ARPACK stop with error -9999
            if not np.all(np.isfinite(y)):
                raise EigenSolveError(f"A^-2 overflowed for {n} pairs: the smallest eigenvalue is near 0")
            return y

        v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        # tol=0 is machine precision, relative to each Ritz value of A^-2.
        # For N = 12 on the 25x13 Laplacian, tol=1e-10 took 33 instead of
        # 63 steps but dropped one copy of a double eigenvalue (one of the
        # 12 smallest came out 4.2% wrong), and the residual check below
        # still passed: a loose tolerance loses pairs silently.
        try:
            vecs = spla.eigsh(spla.LinearOperator(A.shape, matvec=apply_inv2, dtype=A.dtype),
                              k=n, which="LA", v0=v0, tol=0)[1]
        except spla.ArpackError as exc:
            raise EigenSolveError(f"ARPACK failed for {n} pairs: {exc}") from exc
        vals = np.einsum("ij,ij->j", vecs, A @ vecs)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    bad = np.flatnonzero(~((vals > 0.0) & (vals < np.inf)))  # a NaN fails both
    if bad.size:  # load_basis would reject the archive
        raise EigenSolveError(f"eigenvalue {bad[0]} of {n} is {vals[bad[0]]:.6e}, not finite and positive")
    for j in range(n):
        mag = np.abs(vecs[:, j])
        if vecs[np.argmax(mag >= (1.0 - SIGN_TIE_RTOL) * mag.max()), j] < 0.0:
            vecs[:, j] *= -1.0
    a_norm = spla.norm(A, 1)
    resid = np.array([np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]) for j in range(n)])
    bad = np.flatnonzero(~(resid <= EIG_RTOL * a_norm))
    if bad.size:
        j = bad[0]
        raise EigenSolveError(
            f"{bad.size}/{n} pairs break the residual contract: pair {j} "
            f"(lambda {vals[j]:.6e}) has residual {resid[j] / a_norm:.3e} * ||A||_1 > {EIG_RTOL:.1e}"
        )
    gram = _gram_defect(vecs)
    if gram > ORTHO_TOL:
        raise EigenSolveError(f"orthonormality lost: max Gram defect {gram:.3e}")
    return vals, vecs


def _gram_defect(vecs: np.ndarray) -> float:
    """max |V^T V - I|: how far the columns of V are from orthonormal."""
    return float(np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1])), initial=0.0))


@dataclass(frozen=True)
class EigenBasis:
    """Lift m0 plus eigenvectors of the diffusion operator built from one model.

    Eigenvectors are stored as full nodal columns (zero on every boundary
    node), sign fixed so the first entry within SIGN_TIE_RTOL of the largest
    magnitude is positive.  The columns are orthonormal to ORTHO_TOL in Gram
    defect, which project relies on: smallest_eigenpairs enforces it for
    built bases and load_basis for archives.
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


@dataclass(frozen=True)
class DecomposedModel:
    """Coefficients alpha of a field on the leading alpha.size = n_active
    eigenvectors of an EigenBasis."""

    basis: EigenBasis
    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=np.float64)
        if a.ndim != 1 or a.size > self.basis.n_vectors:
            raise GridError(f"alpha must have at most {self.basis.n_vectors} entries, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def n_active(self) -> int:
        return self.alpha.size


def build_basis(m: ScalarField, spec: DiffusionSpec, n: int) -> EigenBasis:
    """Full pipeline: coefficient field, operator, boundary lift, eigenpairs."""
    eta = eval_eta(spec, gradient_norms(m))
    op = assemble_diffusion(eta)
    if not 1 <= n <= op.matrix.shape[0]:  # before np.zeros: a huge n raises MemoryError there
        raise GridError(f"need 1 <= n <= {op.matrix.shape[0]}, got n={n}")
    # allocated before the LU that the lift and the eigensolve share, so the
    # heap space the LU frees on return is not pinned under a live array
    vecs = np.zeros((m.grid.n_nodes, n))
    m0 = lift_from_operator(op, m)
    vals, vecs[op.interior_indices(), :] = smallest_eigenpairs(op, n)
    return EigenBasis(
        spec=spec,
        source_model_hash=m.digest(),
        m0=m0,
        eigenvalues=vals,
        eigenvectors=vecs,
    )


def project(m: ScalarField, basis: EigenBasis, n_active: int | None = None) -> DecomposedModel:
    """Orthogonal projection of m - m0 onto the leading n_active eigenvectors.

    The eigenvectors are orthonormal, so alpha = Psi^T (m - m0) is also the
    least-squares fit.
    """
    same_grid(m.grid, basis.grid)
    if n_active is None:
        n_active = basis.n_vectors
    if not 0 <= n_active <= basis.n_vectors:
        raise GridError(f"n_active {n_active} exceeds basis size {basis.n_vectors}")
    alpha = basis.eigenvectors[:, :n_active].T @ (m.values - basis.m0.values)
    return DecomposedModel(basis=basis, alpha=alpha)


def reconstruct(d: DecomposedModel) -> ScalarField:
    vals = d.basis.m0.values + d.basis.eigenvectors[:, : d.n_active] @ d.alpha
    return ScalarField(d.basis.grid, vals)


# ---------------------------------------------------------------------------
# basis archive

PAYLOAD_NAME = "eigenvectors.f64"
M0_NAME = "m0.ewf"
MANIFEST_KEYS = ("kind", "beta", "n", "grid", "source_model_hash")


def save_basis(directory: str | os.PathLike, basis: EigenBasis) -> Path:
    """Write basis as the archive `directory`, replacing the one there.

    The archive holds manifest.txt (spec, n, grid, source model hash and
    the eigenvalues), the lift m0.ewf and the eigenvectors.f64 payload: the
    raw little-endian float64 (n_nodes, n) eigenvector block in C order.
    """
    g = basis.grid
    with fileio.new_archive(directory) as tmp:
        fileio.write_payload(tmp / PAYLOAD_NAME, basis.eigenvectors, "<f8")
        fileio.write_field(tmp / M0_NAME, basis.m0)
        fileio.write_manifest(
            tmp,
            {
                "kind": basis.spec.kind,
                "beta": repr(basis.spec.beta),
                "n": basis.n_vectors,
                "grid": f"{g.nx} {g.nz} {g.hx!r} {g.hz!r} {g.x0!r} {g.z0!r}",
                "source_model_hash": basis.source_model_hash,
            },
            {"eigenvalues": [repr(float(v)) for v in basis.eigenvalues]},
        )
    return Path(directory)


def load_basis(directory: str | os.PathLike) -> EigenBasis:
    """Read an archive written by save_basis.

    A missing or malformed manifest line, a manifest grid that disagrees
    with m0.ewf, an eigenvectors.f64 payload whose size is not
    n_nodes * n * 8 bytes for the manifest's grid and n, eigenvalues that
    are not finite, positive and ascending, as those of an SPD operator
    are, or a payload whose columns are not orthonormal to ORTHO_TOL or not
    zero on every boundary node raises FieldFileError.
    """
    root = Path(directory)
    manifest = fileio.read_manifest(root, MANIFEST_KEYS, ("eigenvalues",))
    where = root / fileio.MANIFEST_NAME
    try:
        spec = DiffusionSpec(kind=manifest["kind"], beta=float(manifest["beta"]))
        n = int(manifest["n"])
        nx, nz, hx, hz, x0, z0 = manifest["grid"].split()
        grid = Grid2D(int(nx), int(nz), float(hx), float(hz), float(x0), float(z0))
        eigenvalues = np.array([float(v) for v in manifest["eigenvalues"]])
    except ValueError as exc:  # DiffusionError and GridError included
        raise fileio.FieldFileError(f"{where}: malformed value: {exc}") from exc
    if eigenvalues.size != n:
        raise fileio.FieldFileError(f"{where}: n = {n}, but {eigenvalues.size} eigenvalues")
    m0 = fileio.read_field(root / M0_NAME)
    if m0.grid != grid:
        raise fileio.FieldFileError(f"{where}: grid {grid} disagrees with m0.ewf {m0.grid}")
    vecs = fileio.read_payload(root / PAYLOAD_NAME, "<f8", (grid.n_nodes, n))
    if not (np.all(np.isfinite(eigenvalues) & (eigenvalues > 0.0)) and np.all(np.diff(eigenvalues) >= 0.0)):
        raise fileio.FieldFileError(f"{where}: malformed value: eigenvalues not finite, positive and ascending")
    gram = _gram_defect(vecs)
    if not gram <= ORTHO_TOL:
        raise fileio.FieldFileError(
            f"{root / PAYLOAD_NAME}: eigenvectors are not orthonormal: "
            f"max Gram defect {gram:.3e} > {ORTHO_TOL:.1e}"
        )
    edge = np.flatnonzero(~grid.interior_mask())
    nonzero = edge[np.any(vecs[edge] != 0.0, axis=1)]
    if nonzero.size:  # reconstruct keeps m0's edge values only if these rows are zero
        raise fileio.FieldFileError(
            f"{root / PAYLOAD_NAME}: eigenvectors are nonzero on boundary node {nonzero[0]}"
        )
    return EigenBasis(
        spec=spec,
        source_model_hash=manifest["source_model_hash"],
        m0=m0,
        eigenvalues=eigenvalues,
        eigenvectors=vecs,
    )
