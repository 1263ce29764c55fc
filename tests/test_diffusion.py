import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave.diffusion import (
    DiffusionError,
    DiffusionSpec,
    ETA_KINDS,
    assemble_diffusion,
    eval_eta,
    gradient_norms,
    lift_from_operator,
)
from eigenwave.grid import Grid2D, ScalarField, SolveError


def field(grid, values):
    return ScalarField(grid, np.asarray(values, dtype=float))


def brute_force_gradient(f):
    """Two-loop central/one-sided gradient magnitude, independent of numpy.gradient."""
    g = f.grid
    arr = f.as_2d()
    mag = np.zeros_like(arr)
    for iz in range(g.nz):
        for ix in range(g.nx):
            if ix == 0:
                dx = (arr[iz, 1] - arr[iz, 0]) / g.hx
            elif ix == g.nx - 1:
                dx = (arr[iz, -1] - arr[iz, -2]) / g.hx
            else:
                dx = (arr[iz, ix + 1] - arr[iz, ix - 1]) / (2 * g.hx)
            if iz == 0:
                dz = (arr[1, ix] - arr[0, ix]) / g.hz
            elif iz == g.nz - 1:
                dz = (arr[-1, ix] - arr[-2, ix]) / g.hz
            else:
                dz = (arr[iz + 1, ix] - arr[iz - 1, ix]) / (2 * g.hz)
            mag[iz, ix] = np.hypot(dx, dz)
    return mag.reshape(-1)


class TestGradientNorms:
    def test_constant_field_flag(self):
        g = Grid2D(nx=5, nz=4, hx=1.0, hz=1.0)
        v = gradient_norms(field(g, np.full(20, 3.0)))
        assert v.grid == g
        assert np.all(v.values == 0.0)

    def test_linear_in_x_normalizes_to_one(self):
        g = Grid2D(nx=6, nz=5, hx=2.0, hz=3.0)
        xg, _ = np.meshgrid(g.xs(), g.zs())
        v = gradient_norms(field(g, 0.7 * xg))
        np.testing.assert_allclose(v.values, 1.0, rtol=1e-13)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        g = Grid2D(nx=8, nz=8, hx=1.5, hz=0.5)
        f = field(g, rng.standard_normal(64))
        v = gradient_norms(f)
        mag = brute_force_gradient(f)
        np.testing.assert_allclose(v.values, mag / mag.max(), rtol=1e-12)
        # the normalized magnitude peaks at exactly 1 at the argmax
        i = int(np.argmax(mag))
        assert v.values[i] == pytest.approx(1.0)
        assert v.values.max() == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(18)
        g = Grid2D(nx=7, nz=7, hx=1.0, hz=1.0)
        arr = gradient_norms(field(g, rng.standard_normal(49))).values
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


class TestEvalEta:
    def test_eta9_is_one(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        rng = np.random.default_rng(0)
        norms = field(g, rng.random(12))
        out = eval_eta(DiffusionSpec("eta9"), norms)
        assert np.all(out.values == 1.0)

    def test_eta1_limits(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        norms = field(g, np.full(12, 0.5))  # nonzero gradient everywhere
        hi = eval_eta(DiffusionSpec("eta1", 1e12), norms).values
        lo = eval_eta(DiffusionSpec("eta1", 1e-12), norms).values
        np.testing.assert_allclose(hi, 1.0, rtol=1e-10)
        assert np.all(lo < 1e-10)

    def test_eta3_at_matching_beta(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        beta = 0.37
        v1 = np.full(12, np.sqrt(beta))  # ngrad1 squared == beta
        out = eval_eta(DiffusionSpec("eta3", beta), field(g, v1))
        np.testing.assert_allclose(out.values, 1.0 / (2.0 * beta), rtol=1e-13)

    @given(
        kind=st.sampled_from(ETA_KINDS),
        beta=st.floats(1e-7, 1e6),
        v=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=15, max_size=15),
    )
    @settings(max_examples=200, deadline=None)
    def test_edge_stopping_contract(self, kind, beta, v):
        """Every kind is an edge-stopping function of the normalized gradient:
        positive and finite, not increasing, and at v = 0 equal to its limit
        as v -> 0+, so a flat node is not singled out."""
        g = Grid2D(nx=4, nz=4, hx=1.0, hz=1.0)
        spec = DiffusionSpec(kind, beta)
        v1 = np.sort([0.0, *v])  # the smallest value is exactly zero
        out = eval_eta(spec, field(g, v1)).values
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)
        # rounding may leave a value a few ulps above that of a smaller v
        assert np.all(out[1:] <= out[:-1] * (1.0 + 1e-14))
        near_zero = eval_eta(spec, field(g, np.full(16, 1e-12))).values
        assert out[0] == pytest.approx(near_zero[0], rel=1e-9)

    @pytest.mark.parametrize("kind, beta", [("eta4", 1e-160), ("eta5", 1e-320)])
    def test_overflow_is_diffusion_error(self, kind, beta):
        # eta4's 1/beta^2 at v = 0 and eta5's 1/beta overflow; a decompose
        # sweep drops a beta on DiffusionError instead of failing the run
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        v1 = np.full(12, 0.5)
        v1[3] = 0.0
        with pytest.raises(DiffusionError, match=f"{kind} is not positive and finite"):
            eval_eta(DiffusionSpec(kind, beta), field(g, v1))

    def test_eta8_is_inverse_gradient(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        out = eval_eta(DiffusionSpec("eta8"), field(g, np.full(12, 0.25)))
        np.testing.assert_allclose(out.values, 4.0)

    def test_constant_model_gives_positive_eta_for_all_kinds(self):
        g = Grid2D(nx=5, nz=4, hx=1.0, hz=1.0)
        norms = gradient_norms(field(g, np.full(20, 2.0)))
        for kind in ETA_KINDS:
            out = eval_eta(DiffusionSpec(kind, 0.7), norms)
            assert np.all(out.values > 0.0), kind

    @given(
        kind=st.sampled_from(ETA_KINDS),
        beta=st.floats(1e-7, 1e6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_positivity_property(self, kind, beta, seed):
        rng = np.random.default_rng(seed)
        g = Grid2D(nx=5, nz=4, hx=1.0, hz=1.0)
        norms = gradient_norms(field(g, rng.standard_normal(20)))
        out = eval_eta(DiffusionSpec(kind, beta), norms)
        assert np.all(out.values > 0.0)

    def test_two_sided_decay_kinds(self):
        # eta3, eta6, eta7 vanish in both scaling limits
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        norms = field(g, np.full(12, 0.5))
        for kind in ("eta3", "eta6", "eta7"):
            lo = eval_eta(DiffusionSpec(kind, 1e-10), norms).values
            hi = eval_eta(DiffusionSpec(kind, 1e10), norms).values
            assert np.all(lo < 1e-8), kind
            assert np.all(hi < 1e-8), kind

    def test_invalid_spec(self):
        with pytest.raises(DiffusionError):
            DiffusionSpec("eta1", 0.0)
        with pytest.raises(DiffusionError):
            DiffusionSpec("eta42", 1.0)
        DiffusionSpec("eta9", -1.0)  # beta ignored for eta9


def dense_diffusion_reference(eta):
    """Loop-based -div(eta grad) with face averages: its interior rows,
    n_nodes wide (the matrix is their interior columns, boundary_op minus
    their edge columns)."""
    g = eta.grid
    e = eta.as_2d()
    rows = []
    ihx2, ihz2 = 1.0 / g.hx**2, 1.0 / g.hz**2
    for iz in range(1, g.nz - 1):
        for ix in range(1, g.nx - 1):
            row = np.zeros(g.n_nodes)
            i = g.flatten(ix, iz)
            for j, c in (
                (g.flatten(ix + 1, iz), 0.5 * (e[iz, ix] + e[iz, ix + 1]) * ihx2),
                (g.flatten(ix - 1, iz), 0.5 * (e[iz, ix] + e[iz, ix - 1]) * ihx2),
                (g.flatten(ix, iz + 1), 0.5 * (e[iz, ix] + e[iz + 1, ix]) * ihz2),
                (g.flatten(ix, iz - 1), 0.5 * (e[iz, ix] + e[iz - 1, ix]) * ihz2),
            ):
                row[i] += c
                row[j] = -c
            rows.append(row)
    return np.array(rows)


class TestAssembleDiffusion:
    def test_constant_eta_is_laplacian(self):
        g = Grid2D(nx=6, nz=5, hx=2.0, hz=4.0)
        op = assemble_diffusion(field(g, np.ones(30)))
        A = op.matrix.toarray()
        mx = g.nx - 2
        row = 1 * mx + 2  # interior of the interior
        assert A[row, row] == pytest.approx(2.0 / 4.0 + 2.0 / 16.0)
        assert A[row, row + 1] == pytest.approx(-1.0 / 4.0)
        assert A[row, row + mx] == pytest.approx(-1.0 / 16.0)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(23)
        g = Grid2D(nx=9, nz=9, hx=1.0, hz=1.5)
        op = assemble_diffusion(field(g, rng.random(81) + 0.1))
        A = op.matrix.toarray()
        assert np.max(np.abs(A - A.T)) == 0.0

    def test_matches_dense_reference_7x7(self):
        rng = np.random.default_rng(24)
        g = Grid2D(nx=7, nz=7, hx=1.25, hz=0.75)
        eta = field(g, rng.random(49) + 0.2)
        A = assemble_diffusion(eta).matrix.toarray()
        R = dense_diffusion_reference(eta)[:, g.interior_mask()]
        # identical formulas, summation order may differ by one rounding
        np.testing.assert_allclose(A, R, rtol=1e-14, atol=1e-15)

    def test_canonical_and_matches_dense_reference_non_square(self):
        rng = np.random.default_rng(26)
        g = Grid2D(nx=8, nz=6, hx=0.75, hz=1.25)
        eta = field(g, rng.random(g.n_nodes) + 0.2)
        op = assemble_diffusion(eta)
        R = dense_diffusion_reference(eta)
        interior = g.interior_mask()
        for A in (op.matrix, op.boundary_op):
            assert A.has_canonical_format  # sorted indices, no duplicates
        np.testing.assert_allclose(op.matrix.toarray(), R[:, interior], rtol=1e-14, atol=0.0)
        edge = np.where(interior, 0.0, -R)
        np.testing.assert_array_equal(op.boundary_op.toarray(), edge)

    def test_positive_definite(self):
        rng = np.random.default_rng(25)
        g = Grid2D(nx=8, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, rng.random(48) + 0.05))
        w = np.linalg.eigvalsh(op.matrix.toarray())
        assert w.min() > 0.0

    def test_face_weight_underflow_rejected(self):
        # eta / h^2 = 1e-324 rounds to zero, so the stencil would lose entries
        g = Grid2D(nx=5, nz=4, hx=100.0, hz=100.0)
        with pytest.raises(DiffusionError, match="too small"):
            assemble_diffusion(field(g, np.full(20, 1e-320)))

    def test_nonpositive_eta_rejected(self):
        g = Grid2D(nx=4, nz=4, hx=1.0, hz=1.0)
        vals = np.ones(16)
        vals[5] = 0.0
        with pytest.raises(DiffusionError):
            assemble_diffusion(field(g, vals))


class TestLift:
    def test_constant_boundary_gives_constant(self):
        rng = np.random.default_rng(31)
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        eta = field(g, rng.random(42) + 0.1)
        m = field(g, np.full(42, 4.2))
        m0 = lift_from_operator(assemble_diffusion(eta), m)
        np.testing.assert_allclose(m0.values, 4.2, rtol=1e-12)

    def test_discrete_harmonic_polynomial(self):
        # x^2 - z^2 has exactly zero 5-point Laplacian on a square-spacing grid
        g = Grid2D(nx=9, nz=9, hx=2.0, hz=2.0)
        xg, zg = np.meshgrid(g.xs(), g.zs())
        poly = (xg**2 - zg**2).reshape(-1)
        m0 = lift_from_operator(assemble_diffusion(field(g, np.ones(81))), field(g, poly))
        np.testing.assert_allclose(m0.values, poly, rtol=1e-10, atol=1e-8)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(32)
        g = Grid2D(nx=15, nz=15, hx=1.0, hz=1.0)
        eta = field(g, rng.random(225) + 0.1)
        m = field(g, rng.standard_normal(225))
        m0 = lift_from_operator(assemble_diffusion(eta), m)
        # fully independent dense path: loop-built matrix and boundary rhs
        A = dense_diffusion_reference(eta)[:, g.interior_mask()]
        e = eta.as_2d()
        m2 = m.as_2d()
        mx, mz = g.nx - 2, g.nz - 2
        rhs = np.zeros(mx * mz)
        ihx2, ihz2 = 1.0 / g.hx**2, 1.0 / g.hz**2
        for jz in range(mz):
            for jx in range(mx):
                iz, ix = jz + 1, jx + 1
                row = jz * mx + jx
                if ix == 1:
                    rhs[row] += 0.5 * (e[iz, ix] + e[iz, 0]) * ihx2 * m2[iz, 0]
                if ix == g.nx - 2:
                    rhs[row] += 0.5 * (e[iz, ix] + e[iz, -1]) * ihx2 * m2[iz, -1]
                if iz == 1:
                    rhs[row] += 0.5 * (e[iz, ix] + e[0, ix]) * ihz2 * m2[0, ix]
                if iz == g.nz - 2:
                    rhs[row] += 0.5 * (e[iz, ix] + e[-1, ix]) * ihz2 * m2[-1, ix]
        interior = np.linalg.solve(A, rhs)
        inner2d = m0.as_2d()[1:-1, 1:-1].reshape(-1)
        np.testing.assert_allclose(inner2d, interior, atol=1e-8)

    def test_lu_that_misses_raises_solve_error(self):
        rng = np.random.default_rng(34)
        g = Grid2D(nx=7, nz=6, hx=1.0, hz=1.0)
        op = assemble_diffusion(field(g, rng.random(42) + 0.1))
        lu = op.factor()

        class OffLU:  # every solve 1e-3 off, so refinement cannot rescue it
            def solve(self, b, trans="N"):
                return lu.solve(b, trans=trans) * (1.0 + 1e-3)

        object.__setattr__(op, "_lu", OffLU())
        with pytest.raises(SolveError, match="residual contract missed"):
            lift_from_operator(op, field(g, rng.standard_normal(42)))

    def test_boundary_values_preserved(self):
        rng = np.random.default_rng(33)
        g = Grid2D(nx=6, nz=5, hx=1.0, hz=1.0)
        m = field(g, rng.standard_normal(30))
        m0 = lift_from_operator(assemble_diffusion(field(g, np.ones(30))), m)
        xg, zg = np.meshgrid(np.arange(6), np.arange(5))
        inner = (xg.ravel() > 0) & (xg.ravel() < 5) & (zg.ravel() > 0) & (zg.ravel() < 4)
        np.testing.assert_array_equal(m0.values[~inner], m.values[~inner])
