import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigenwave.diffusion import DiffusionSpec, assemble_diffusion, eval_eta, gradient_norms
from eigenwave.eigenbasis import (
    MANIFEST_KEYS,
    PAYLOAD_NAME,
    EigenBasis,
    EigenSolveError,
    build_basis,
    load_basis,
    project,
    reconstruct,
    save_basis,
    smallest_eigenpairs,
)
from eigenwave import eigenbasis, fileio
from eigenwave.fileio import MANIFEST_NAME, FieldFileError
from eigenwave.grid import Grid2D, GridError, ScalarField, relative_error
from eigenwave.synthetics import Dome, SaltModelSpec, make_salt_model


def field(grid, values):
    return ScalarField(grid, np.asarray(values, dtype=float))


def laplacian_spectrum(grid):
    """Closed-form Dirichlet 5-point spectrum for unit eta, hx == hz."""
    h = grid.hx
    k = np.arange(1, grid.nx - 1)
    l = np.arange(1, grid.nz - 1)
    lam = (4.0 / h**2) * (
        np.sin(k * np.pi / (2 * (grid.nx - 1)))[:, None] ** 2
        + np.sin(l * np.pi / (2 * (grid.nz - 1)))[None, :] ** 2
    )
    return np.sort(lam.ravel())


def centred_salt(g):
    """Linear 1500 -> 3500 m/s background and one 4500 m/s dome, placed as
    in the benchmark's 161x81 salt model."""
    x, z = g.extent_x, g.extent_z
    dome = Dome(0.5 * x, 0.55 * z, 0.2 * x, 0.25 * z, 4500.0)
    return make_salt_model(SaltModelSpec(1500.0, 3500.0, (dome,)), g).field


class TestSmallestEigenpairs:
    def test_closed_form_laplacian_spectrum(self):
        g = Grid2D(nx=25, nz=13, hx=5.0, hz=5.0)
        op = assemble_diffusion(field(g, np.ones(g.n_nodes)))
        vals, vecs = smallest_eigenpairs(op, 12)
        exact = laplacian_spectrum(g)[:12]
        np.testing.assert_allclose(vals, exact, rtol=1e-10)

    def test_rayleigh_quotient(self):
        rng = np.random.default_rng(4)
        g = Grid2D(nx=10, nz=9, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, rng.random(90) + 0.1))
        vals, vecs = smallest_eigenpairs(op, 3)
        v1 = vecs[:, 0]
        assert v1 @ (op.matrix @ v1) == pytest.approx(vals[0], rel=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        g = Grid2D(nx=9, nz=9, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, rng.random(81) + 0.1))
        vals, vecs = smallest_eigenpairs(op, 5)
        dense_vals, dense_vecs = np.linalg.eigh(op.matrix.toarray())
        np.testing.assert_allclose(vals, dense_vals[:5], rtol=1e-10)
        # eigenvectors agree up to sign
        for j in range(5):
            dot = abs(vecs[:, j] @ dense_vecs[:, j])
            assert dot == pytest.approx(1.0, abs=1e-8)

    def test_orthonormal_and_ascending(self):
        rng = np.random.default_rng(6)
        g = Grid2D(nx=12, nz=10, hx=1.0, hz=2.0)
        op = assemble_diffusion(field(g, rng.random(120) + 0.05))
        vals, vecs = smallest_eigenpairs(op, 8)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals > 0)
        gram = vecs.T @ vecs
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-8

    def test_full_dimension_allowed(self):
        g = Grid2D(nx=5, nz=5, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.ones(25)))
        vals, vecs = smallest_eigenpairs(op, 9)  # interior dim is 9
        exact = laplacian_spectrum(g)
        np.testing.assert_allclose(vals, exact, rtol=1e-10)

    def test_degenerate_pairs_resolved(self):
        # square grid with hx=hz has exact two-fold degeneracies; a lost
        # copy of a double eigenvalue would show as a wrong lambda
        g = Grid2D(nx=17, nz=17, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.ones(g.n_nodes)))
        for n in (10, 100):
            vals, vecs = smallest_eigenpairs(op, n)
            exact = laplacian_spectrum(g)[:n]
            assert np.any(np.isclose(np.diff(exact), 0.0, atol=1e-14))  # has multiplicity
            np.testing.assert_allclose(vals, exact, rtol=1e-10)

    @pytest.mark.parametrize(
        "nx, nz, below_dim",
        [pytest.param(7, 6, b, id=str(b)) for b in (2, 1, 0)]
        # interior dim 80 and n = 78: eigsh clips its default ncv, 2n + 1, to dim
        + [pytest.param(12, 10, 2, id="A^-2")],
    )
    def test_sizes_around_dense_switch(self, nx, nz, below_dim):
        # ARPACK takes n < dim - 1; n = dim - 1 and n = dim go dense
        rng = np.random.default_rng(12)
        g = Grid2D(nx=nx, nz=nz, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, rng.random(g.n_nodes) + 0.1))
        dim = op.matrix.shape[0]
        n = dim - below_dim
        vals, vecs = smallest_eigenpairs(op, n)
        assert vecs.shape == (dim, n)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(op.matrix.toarray())[:n], rtol=1e-10)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-8
        for j in range(n):
            col = vecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0

    @pytest.mark.parametrize("n", [4, 20])  # ARPACK and dense paths of a dim-20 operator
    def test_residual_contract_checked(self, n, monkeypatch):
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.linspace(1.0, 2.0, g.n_nodes)))
        monkeypatch.setattr(eigenbasis, "EIG_RTOL", 1e-30)
        with pytest.raises(EigenSolveError, match="residual"):
            smallest_eigenpairs(op, n)

    def test_orthonormality_checked(self, monkeypatch):
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.linspace(1.0, 2.0, g.n_nodes)))
        eigsh = spla.eigsh

        def repeated_pair(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
            return vals, vecs

        monkeypatch.setattr(spla, "eigsh", repeated_pair)
        with pytest.raises(EigenSolveError, match="orthonormality"):
            smallest_eigenpairs(op, 4)

    @pytest.mark.parametrize("n", [4, 20])  # ARPACK and dense paths of a dim-20 operator
    def test_nonpositive_eigenvalue_rejected(self, n, monkeypatch):
        # load_basis rejects an eigenvalue that is not finite and positive,
        # so a build must not return one; a zero first pair gives lambda 0
        # on either path, as v^T A v on ARPACK's and as eigh's value
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.linspace(1.0, 2.0, g.n_nodes)))

        def zero_first_pair(solver):
            def solve(*args, **kwargs):
                vals, vecs = solver(*args, **kwargs)
                vals[0], vecs[:, 0] = 0.0, 0.0
                return vals, vecs
            return solve

        monkeypatch.setattr(spla, "eigsh", zero_first_pair(spla.eigsh))
        monkeypatch.setattr(sla, "eigh", zero_first_pair(sla.eigh))
        with pytest.raises(EigenSolveError, match=f"eigenvalue 0 of {n} is 0.000000e\\+00, not finite and positive"):
            smallest_eigenpairs(op, n)

    @pytest.mark.parametrize("n", [30, 100])
    @pytest.mark.parametrize("kind", ["eta2", "eta7"])
    def test_squared_operator_overflow_is_a_clean_error(self, kind, n, capfd):
        # on the 61x31 salt model at beta = 1e-4, lambda_1 is about 4.5e-243,
        # so A^-2 overflows.  Left to ARPACK, LAPACK printed "On entry to
        # DLASCL parameter number 4 had an illegal value" to fd 1, where
        # decompose prints its report, and ARPACK failed with error -9999
        m = centred_salt(Grid2D(nx=61, nz=31, hx=33.3, hz=33.3))
        with pytest.raises(EigenSolveError, match=f"A\\^-2 overflowed for {n} pairs"):
            build_basis(m, DiffusionSpec(kind, 1e-4), n)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize(
        "error",
        [spla.ArpackError(-9999), spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))],
        ids=["ArpackError", "ArpackNoConvergence"],
    )
    def test_arpack_failure_is_eigen_solve_error(self, monkeypatch, error):
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.linspace(1.0, 2.0, g.n_nodes)))

        def failing_eigsh(*args, **kwargs):
            raise error

        monkeypatch.setattr(spla, "eigsh", failing_eigsh)
        with pytest.raises(EigenSolveError, match="ARPACK failed for 4 pairs") as info:
            smallest_eigenpairs(op, 4)
        assert info.value.__cause__ is error

    @pytest.mark.parametrize("spec", [DiffusionSpec("eta3", 1e-5), DiffusionSpec("eta4", 1e-9)])
    def test_ill_conditioned_gives_smallest_pairs_or_raises(self, spec):
        # condition numbers 2.2e10 and 1.6e10 (eta4 spans about 1/beta, from
        # 1/beta^2 in the flat dome down to 1/beta at the steepest edge): a
        # solver may give up, but it must not return pairs that pass the
        # residual check yet skip smaller ones
        g = Grid2D(nx=40, nz=20, hx=50.0, hz=50.0)
        salt = SaltModelSpec(1500.0, 2000.0, (Dome(1000.0, 500.0, 300.0, 200.0, 4000.0),), 800.0, 5000.0)
        m = make_salt_model(salt, g).field
        op = assemble_diffusion(eval_eta(spec, gradient_norms(m)))
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        assert dense[-1] / dense[0] > 1e10
        for n in (30, 100):  # A^-2 squares the condition number
            try:
                vals, _ = smallest_eigenpairs(op, n)
            except EigenSolveError:
                continue
            np.testing.assert_allclose(vals, dense[:n], rtol=1e-5)

    @pytest.mark.parametrize(
        "spec",
        [DiffusionSpec("eta4", 1e-2), DiffusionSpec("eta4", 1e-1),
         DiffusionSpec("eta1", 1e-2), DiffusionSpec("eta8")],
        ids=["eta4/0.01", "eta4/0.1", "eta1/0.01", "eta8"],
    )
    def test_squared_operator_meets_lambda_relative_residual(self, spec):
        # the basis_sweep benchmark builds these four bases at N = 100 and
        # checks ||A v - lam v|| <= 1e-8 lam, which is stricter than
        # EIG_RTOL * ||A||_1; A^-2 must meet it and agree with dense eigh
        g = Grid2D(nx=41, nz=21, hx=50.0, hz=50.0)
        op = assemble_diffusion(eval_eta(spec, gradient_norms(centred_salt(g))))
        n = 100
        vals, vecs = smallest_eigenpairs(op, n)
        resid = np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)
        assert np.all(resid <= 1e-8 * vals)
        ref_vals, ref_vecs = sla.eigh(op.matrix.toarray(), subset_by_index=[0, n - 1])
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-10)
        assert np.linalg.norm(ref_vecs - vecs @ (vecs.T @ ref_vecs), 2) <= 1e-8  # same span

    def test_backward_error_accepts_cond_2e8(self):
        # eta3 beta=1e-4 (cond 2.2e8): ||Av - lam v|| reaches ~1.4e-8 lam at
        # rounding level, so a lam-relative bound of 1e-8 failed this basis
        g = Grid2D(nx=40, nz=20, hx=50.0, hz=50.0)
        salt = SaltModelSpec(1500.0, 2000.0, (Dome(1000.0, 500.0, 300.0, 200.0, 4000.0),), 800.0, 5000.0)
        m = make_salt_model(salt, g).field
        spec = DiffusionSpec("eta3", 1e-4)
        basis = build_basis(m, spec, 30)
        op = assemble_diffusion(eval_eta(spec, gradient_norms(m)))
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        assert dense[-1] / dense[0] > 1e8
        np.testing.assert_allclose(basis.eigenvalues, dense[:30], rtol=1e-7)

    def test_n_out_of_range(self):
        g = Grid2D(nx=5, nz=5, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, np.ones(25)))
        with pytest.raises(GridError):
            smallest_eigenpairs(op, 0)
        with pytest.raises(GridError):
            smallest_eigenpairs(op, 10)
        for n in (-5, 0, 10, 10**9):  # build_basis checks before it allocates
            with pytest.raises(GridError, match="need 1 <= n <= 9"):
                build_basis(field(g, np.linspace(1.0, 2.0, 25)), DiffusionSpec("eta9"), n)


@pytest.fixture(scope="module")
def salt_basis():
    rng = np.random.default_rng(7)
    g = Grid2D(nx=16, nz=12, hx=10.0, hz=10.0)
    m = field(g, 1.0 + 0.3 * rng.standard_normal(g.n_nodes).cumsum() / 10.0)
    basis = build_basis(m, DiffusionSpec("eta3", 0.05), 8)
    return m, basis


class TestBasis:

    def test_vectors_vanish_on_boundary(self, salt_basis):
        m, basis = salt_basis
        g = basis.grid
        xg, zg = np.meshgrid(np.arange(g.nx), np.arange(g.nz))
        boundary = (
            (xg.ravel() == 0) | (xg.ravel() == g.nx - 1)
            | (zg.ravel() == 0) | (zg.ravel() == g.nz - 1)
        )
        assert np.all(basis.eigenvectors[boundary, :] == 0.0)

    def test_unit_norm_and_sign_convention(self, salt_basis):
        _, basis = salt_basis
        for k in range(basis.n_vectors):
            col = basis.eigenvectors[:, k]
            assert np.linalg.norm(col) == pytest.approx(1.0, rel=1e-12)
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_source_hash_tracks_model(self, salt_basis):
        m, basis = salt_basis
        assert basis.source_model_hash == m.digest()

    def test_project_of_m0_is_zero(self, salt_basis):
        _, basis = salt_basis
        dec = project(basis.m0, basis, 5)
        np.testing.assert_allclose(dec.alpha, 0.0, atol=1e-9)
        assert relative_error(basis.m0, reconstruct(dec)) < 1e-9

    def test_project_recovers_span_member(self, salt_basis):
        _, basis = salt_basis
        target = field(
            basis.grid, basis.m0.values + 3.0 * basis.eigenvectors[:, 1]
        )
        dec = project(target, basis, 5)
        expected = np.zeros(5)
        expected[1] = 3.0
        np.testing.assert_allclose(dec.alpha, expected, atol=1e-9)

    def test_reconstruct_alpha_zero_gives_m0(self, salt_basis):
        _, basis = salt_basis
        dec = project(basis.m0, basis, 0)
        np.testing.assert_array_equal(reconstruct(dec).values, basis.m0.values)

    def test_reconstruct_linearity(self, salt_basis):
        _, basis = salt_basis
        rng = np.random.default_rng(8)
        from eigenwave.eigenbasis import DecomposedModel

        a = rng.standard_normal(basis.n_vectors)
        b = rng.standard_normal(basis.n_vectors)
        ra = reconstruct(DecomposedModel(basis, a)).values
        rb = reconstruct(DecomposedModel(basis, b)).values
        rab = reconstruct(DecomposedModel(basis, a + b)).values
        np.testing.assert_allclose(rab, ra + rb - basis.m0.values, rtol=1e-10, atol=1e-12)

    def test_complete_basis_reproduces_field(self):
        rng = np.random.default_rng(9)
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        m = field(g, rng.standard_normal(42))
        n_full = (g.nx - 2) * (g.nz - 2)
        basis = build_basis(m, DiffusionSpec("eta1", 0.5), n_full)
        dec = project(m, basis, n_full)
        # interior is fully spanned; boundary is matched by m0 itself
        recon = reconstruct(dec)
        inner = recon.as_2d()[1:-1, 1:-1]
        np.testing.assert_allclose(inner, m.as_2d()[1:-1, 1:-1], atol=1e-8)

    def test_nested_projection_monotonicity(self, salt_basis):
        m, basis = salt_basis
        rng = np.random.default_rng(10)
        target = field(m.grid, m.values + 0.1 * rng.standard_normal(m.grid.n_nodes))
        errs = [
            relative_error(target, reconstruct(project(target, basis, n)))
            for n in range(0, basis.n_vectors + 1)
        ]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_n_active_over_basis_size(self, salt_basis):
        m, basis = salt_basis
        with pytest.raises(GridError):
            project(m, basis, basis.n_vectors + 1)

    @pytest.mark.parametrize("n_active", [0, 1, 5, None])
    def test_project_matches_least_squares(self, salt_basis, n_active):
        m, basis = salt_basis
        alpha = project(m, basis, n_active).alpha
        n_active = basis.n_vectors if n_active is None else n_active
        psi = basis.eigenvectors[:, :n_active]
        expected = np.linalg.lstsq(psi, m.values - basis.m0.values, rcond=None)[0]
        assert np.linalg.norm(alpha[:n_active] - expected) <= 1e-12 * np.linalg.norm(expected)
        assert alpha.shape == (n_active,)

    def test_project_solves_no_least_squares_problem(self, salt_basis, monkeypatch):
        m, basis = salt_basis
        solved = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            solved.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        project(m, basis)
        assert solved == []

    def test_one_factorization_per_build(self, salt_basis, monkeypatch):
        m, basis = salt_basis
        factored = []
        splu = spla.splu

        def counting_splu(*args, **kwargs):
            factored.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        again = build_basis(m, basis.spec, basis.n_vectors)
        assert len(factored) == 1
        np.testing.assert_array_equal(again.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(again.m0.values, basis.m0.values)


    def test_rebuild_is_bit_identical(self, salt_basis):
        m, basis = salt_basis
        again = build_basis(m, basis.spec, basis.n_vectors)
        np.testing.assert_array_equal(again.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(again.eigenvectors, basis.eigenvectors)

    def test_sign_rule_is_not_decided_by_rounding(self):
        # a salt dome centred in x is mirror-symmetric; one ulp added on the
        # left half makes the model and its mirror image differ in rounding
        # only, and the antisymmetric eigenvectors have two largest entries
        # that tie to rounding at mirrored nodes
        g = Grid2D(nx=21, nz=11, hx=12.5, hz=12.5)
        dome = Dome(0.5 * g.extent_x, 0.55 * g.extent_z, 0.2 * g.extent_x, 0.25 * g.extent_z, 4500.0)
        m = make_salt_model(SaltModelSpec(1500.0, 3500.0, (dome,)), g).field.as_2d().copy()
        m[:, : g.nx // 2] = np.nextafter(m[:, : g.nx // 2], np.inf)
        spec = DiffusionSpec("eta4", 1e-2)
        basis = build_basis(field(g, m.reshape(-1)), spec, 30)
        rebuilt = build_basis(field(g, m.reshape(-1)), spec, 30)
        mirrored = build_basis(field(g, m[:, ::-1].reshape(-1)), spec, 30)
        top2 = -np.sort(-np.abs(basis.eigenvectors), axis=0)[:2]
        assert np.sum(top2[0] - top2[1] <= 1e-12 * top2[0]) >= 5  # near-ties present
        for other in (rebuilt, mirrored):
            dots = np.sum(basis.eigenvectors * other.eigenvectors, axis=0)
            np.testing.assert_allclose(dots, 1.0, atol=1e-6)


@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("beta", [0.1, 10.0])
@pytest.mark.parametrize(
    "kind, same_as, same_beta, scale",
    [("eta7", "eta2", lambda b: b, lambda b: 1.0 / b), ("eta6", "eta3", lambda b: 1.0 / b, lambda b: 0.5)],
    ids=["eta7=eta2/beta", "eta6=eta3(1/beta)/2"],
)
def test_kinds_equal_up_to_a_constant_give_one_basis(kind, same_as, same_beta, scale, beta, n):
    # eta7(b) = eta2(b)/b and eta6(b) = eta3(1/b)/2: a constant factor in
    # eta scales the eigenvalues and leaves the lift and eigenvectors
    m = centred_salt(Grid2D(nx=41, nz=21, hx=50.0, hz=50.0))
    basis = build_basis(m, DiffusionSpec(kind, beta), n)
    other = build_basis(m, DiffusionSpec(same_as, same_beta(beta)), n)
    np.testing.assert_allclose(basis.eigenvalues, scale(beta) * other.eigenvalues, rtol=1e-10)
    np.testing.assert_allclose(basis.eigenvectors, other.eigenvectors, rtol=0, atol=1e-10)
    np.testing.assert_allclose(basis.m0.values, other.m0.values, rtol=1e-12)


@pytest.mark.parametrize("kind", ["eta2", "eta7"])
def test_built_basis_of_a_near_singular_operator_loads(kind, tmp_path):
    # on the benchmark's 161x81 salt model at beta = 1e-3, lambda_1 of the
    # 50-vector basis sits at the rounding floor of ||A|| (about 1e-19 and
    # 1e-16), where a solver's error can make it negative; load_basis
    # rejects such an archive, so the build must not return it
    m = centred_salt(Grid2D(nx=161, nz=81, hx=12.5, hz=12.5))
    try:
        basis = build_basis(m, DiffusionSpec(kind, 1e-3), 50)
    except EigenSolveError:
        return
    back = load_basis(save_basis(tmp_path / "basis", basis))
    assert back.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
    assert back.eigenvectors.tobytes() == basis.eigenvectors.tobytes()
    assert back.m0.values.tobytes() == basis.m0.values.tobytes()


class TestArchive:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        g = Grid2D(nx=9, nz=8, hx=12.5, hz=7.5, x0=100.0, z0=-4.0)
        m = field(g, 2.0 + rng.random(72))
        basis = build_basis(m, DiffusionSpec("eta6", 3.5), 6)
        save_basis(tmp_path / "basis", basis)
        names = {p.name for p in (tmp_path / "basis").iterdir()}
        assert names == {"manifest.txt", "m0.ewf", "eigenvectors.f64"}
        back = load_basis(tmp_path / "basis")
        assert back.spec == basis.spec
        assert back.source_model_hash == basis.source_model_hash
        assert back.grid == basis.grid
        np.testing.assert_array_equal(back.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(back.eigenvectors, basis.eigenvectors)
        np.testing.assert_array_equal(back.m0.values, basis.m0.values)

    @staticmethod
    def failed_save_keeps_old_archive(tmp_path, monkeypatch, writer, fail):
        """Save a basis over an older one with fileio.`writer` replaced by
        `fail`; the save must raise and leave the old archive as it was."""
        rng = np.random.default_rng(13)
        g = Grid2D(nx=9, nz=8, hx=12.5, hz=7.5)
        old = build_basis(field(g, 2.0 + rng.random(72)), DiffusionSpec("eta6", 3.5), 5)
        new = build_basis(field(g, 2.0 + rng.random(72)), DiffusionSpec("eta6", 3.5), 6)
        root = tmp_path / "basis"
        save_basis(root, old)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        monkeypatch.setattr(fileio, writer, fail)
        with pytest.raises(OSError, match="disk full"):
            save_basis(root, new)
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["basis"]
        back = load_basis(root)
        np.testing.assert_array_equal(back.eigenvalues, old.eigenvalues)
        assert back.eigenvectors.tobytes() == old.eigenvectors.tobytes()
        assert back.m0.values.tobytes() == old.m0.values.tobytes()
        assert back.source_model_hash == old.source_model_hash

    def test_failed_payload_write_keeps_old_archive(self, tmp_path, monkeypatch):
        def write_half(path, array, dtype):
            raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
            path.write_bytes(raw[: len(raw) // 2])
            raise OSError("disk full")

        self.failed_save_keeps_old_archive(tmp_path, monkeypatch, "write_payload", write_half)

    @pytest.mark.parametrize("writer", ["write_field", "write_manifest"])
    def test_failed_later_write_keeps_old_archive(self, tmp_path, monkeypatch, writer):
        # the m0.ewf and manifest.txt writes that follow the payload
        def disk_full(*args):
            raise OSError("disk full")

        self.failed_save_keeps_old_archive(tmp_path, monkeypatch, writer, disk_full)

    def test_archive_layout_is_unchanged(self, tmp_path):
        # the byte layout of a basis archive is fixed: archives already on
        # disk must keep loading
        g = Grid2D(nx=4, nz=3, hx=12.5, hz=7.5, x0=100.0, z0=-4.0)
        vecs = np.zeros((12, 2))
        vecs[5, 0] = vecs[6, 1] = 1.0
        basis = EigenBasis(
            spec=DiffusionSpec("eta6", 3.5),
            source_model_hash="0123abcd",
            m0=field(g, np.arange(12.0) / 3.0),
            eigenvalues=np.array([0.1, 2.5e-7]),
            eigenvectors=vecs,
        )
        root = save_basis(tmp_path / "basis", basis)
        assert (root / MANIFEST_NAME).read_text() == (
            "kind = eta6\nbeta = 3.5\nn = 2\ngrid = 4 3 12.5 7.5 100.0 -4.0\n"
            "source_model_hash = 0123abcd\neigenvalues =\n  0.1\n  2.5e-07\n"
        )
        assert (root / PAYLOAD_NAME).read_bytes() == vecs.astype("<f8").tobytes()
        m0 = (np.arange(12.0) / 3.0).astype("<f8").tobytes()
        assert (root / "m0.ewf").read_bytes() == b"EWF1 4 3 12.5 7.5 100.0 -4.0\n" + m0

    def test_repeated_manifest_key_rejected(self, tmp_path):
        # a second `beta =` line must not silently override the first
        g = Grid2D(nx=6, nz=6, hx=1.0, hz=1.0)
        basis = build_basis(field(g, np.linspace(1, 2, 36)), DiffusionSpec("eta4", 0.05), 3)
        root = save_basis(tmp_path / "b", basis)
        path = root / MANIFEST_NAME
        path.write_text(path.read_text().replace("beta = 0.05\n", "beta = 0.05\nbeta = 0.5\n"))
        with pytest.raises(FieldFileError, match="repeated 'beta =' line"):
            load_basis(root)

    def test_manifest_lists_eigenvalues(self, tmp_path):
        g = Grid2D(nx=6, nz=6, hx=1.0, hz=1.0)
        basis = build_basis(field(g, np.linspace(1, 2, 36)), DiffusionSpec("eta9"), 4)
        save_basis(tmp_path / "b", basis)
        text = (tmp_path / "b" / "manifest.txt").read_text()
        assert "kind = eta9" in text
        assert "eigenvalues =" in text
        assert len([l for l in text.splitlines() if l.startswith("  ")]) == 4


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    g = Grid2D(nx=21, nz=11, hx=10.0, hz=10.0)
    m = field(g, np.linspace(1.5, 3.0, g.n_nodes) ** 2)
    root = tmp_path_factory.mktemp("archive") / "basis"
    save_basis(root, build_basis(m, DiffusionSpec("eta4", 0.1), 4))
    return root


def edited_copy(archive, dest, edit):
    """Copy the archive to `dest` with `edit` applied to its manifest lines."""
    shutil.copytree(archive, dest)
    lines = (archive / MANIFEST_NAME).read_text().splitlines()
    (dest / MANIFEST_NAME).write_text("\n".join(edit(lines)) + "\n")
    return dest


class TestLoadBasisChecks:
    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(3, 40),
        nz=st.integers(3, 40),
        hx=st.sampled_from([10.0, 12.5]),
    )
    def test_grid_line_must_match_files(self, archive, nx, nz, hx):
        assume((nx, nz, hx) != (21, 11, 10.0))

        def edit(lines):
            return [f"grid = {nx} {nz} {hx!r} 10.0 0.0 0.0" if l.startswith("grid") else l
                    for l in lines]

        with tempfile.TemporaryDirectory() as tmp:
            bad = edited_copy(archive, Path(tmp) / "b", edit)
            with pytest.raises(FieldFileError, match="grid"):
                load_basis(bad)

    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_missing_key(self, archive, tmp_path, key):
        bad = edited_copy(
            archive, tmp_path / "b", lambda lines: [l for l in lines if not l.startswith(key + " ")]
        )
        with pytest.raises(FieldFileError, match=f"missing '{key} ='"):
            load_basis(bad)

    @pytest.mark.parametrize(
        "line, replacement",
        [("  ", "  not-a-number"), ("beta", "beta = fast"), ("n =", "n = four"),
         ("grid", "grid = 21 11 10.0 10.0 0.0"), ("kind", "kind = eta99"),
         # eigenvalues of an SPD operator: finite, positive, ascending
         ("  ", "  nan"), ("  ", "  -inf"), ("  ", "  -3.0"), ("  ", None)],
    )
    def test_malformed_value(self, archive, tmp_path, line, replacement):
        def edit(lines):  # replacement None swaps the line with the next
            first = next(i for i, l in enumerate(lines) if l.startswith(line))
            new = [replacement] if replacement is not None else [lines[first + 1], lines[first]]
            return lines[:first] + new + lines[first + len(new):]

        with pytest.raises(FieldFileError, match="malformed"):
            load_basis(edited_copy(archive, tmp_path / "b", edit))

    @pytest.mark.parametrize("n", [3, 5])
    def test_n_must_match_payload(self, archive, tmp_path, n):
        def edit(lines):
            head = ["n = %d" % n if l.startswith("n =") else l for l in lines]
            vals = [l for l in head if l.startswith("  ")]
            rest = [l for l in head if not l.startswith("  ")]
            return rest + (vals + vals)[:n]

        with pytest.raises(FieldFileError, match="eigenvectors"):
            load_basis(edited_copy(archive, tmp_path / "b", edit))

    def test_n_must_match_eigenvalue_count(self, archive, tmp_path):
        bad = edited_copy(
            archive, tmp_path / "b", lambda lines: ["n = 3" if l.startswith("n =") else l for l in lines]
        )
        with pytest.raises(FieldFileError, match="n = 3, but 4 eigenvalues"):
            load_basis(bad)

    def test_blank_lines_load(self, archive, tmp_path):
        # a blank line after every line, the eigenvalue list included
        spaced = edited_copy(archive, tmp_path / "b", lambda lines: [x for l in lines for x in (l, "")])
        back, ref = load_basis(spaced), load_basis(archive)
        np.testing.assert_array_equal(back.eigenvalues, ref.eigenvalues)
        np.testing.assert_array_equal(back.eigenvectors, ref.eigenvectors)

    def test_truncated_payload(self, archive, tmp_path):
        bad = edited_copy(archive, tmp_path / "b", lambda lines: lines)
        payload = (bad / PAYLOAD_NAME).read_bytes()
        (bad / PAYLOAD_NAME).write_bytes(payload[:-8])
        with pytest.raises(FieldFileError, match="eigenvectors"):
            load_basis(bad)

    def test_payload_must_be_orthonormal(self, archive, tmp_path):
        bad = edited_copy(archive, tmp_path / "b", lambda lines: lines)
        vecs = np.fromfile(bad / PAYLOAD_NAME, dtype="<f8").reshape(-1, 4)
        vecs[:, 2] *= 1.5
        (bad / PAYLOAD_NAME).write_bytes(vecs.astype("<f8").tobytes())
        # column 2 now has squared norm 2.25: a Gram defect of 1.25
        with pytest.raises(FieldFileError, match="not orthonormal: max Gram defect 1.250e"):
            load_basis(bad)

    def test_payload_must_be_zero_on_the_boundary(self, archive, tmp_path):
        bad = edited_copy(archive, tmp_path / "b", lambda lines: lines)
        vecs = np.fromfile(bad / PAYLOAD_NAME, dtype="<f8").reshape(-1, 4)
        vecs[[0, 30]] = vecs[[30, 0]]  # a corner and an interior node: still orthonormal
        (bad / PAYLOAD_NAME).write_bytes(vecs.astype("<f8").tobytes())
        with pytest.raises(FieldFileError, match="nonzero on boundary node 0"):
            load_basis(bad)

    def test_unedited_copy_loads(self, archive, tmp_path):
        back = load_basis(edited_copy(archive, tmp_path / "b", lambda lines: lines))
        np.testing.assert_array_equal(back.eigenvectors, load_basis(archive).eigenvectors)
