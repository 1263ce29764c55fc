import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave.grid import (
    RESIDUAL_RTOL,
    Grid2D,
    GridError,
    Model,
    ScalarField,
    SolveError,
    checked_solve,
    EAST,
    NORTH,
    SELF,
    SOUTH,
    WEST,
    clamp_model,
    face_weights,
    neighbour_table,
    relative_error,
    slowness_to_speed,
    speed_to_slowness,
)


def field(grid, values):
    return ScalarField(grid, np.asarray(values, dtype=float))


class TestGrid2D:
    def test_validation(self):
        with pytest.raises(GridError):
            Grid2D(nx=2, nz=5, hx=1.0, hz=1.0)
        with pytest.raises(GridError):
            Grid2D(nx=5, nz=5, hx=0.0, hz=1.0)
        with pytest.raises(GridError):
            Grid2D(nx=5, nz=5, hx=1.0, hz=-2.0)
        # spacings whose stencil weight 1/h^2 is 0, inf or nan
        for h in (float("inf"), 1e200, 1e-200, float("nan")):
            with pytest.raises(GridError, match="spacings"):
                Grid2D(nx=5, nz=5, hx=h, hz=1.0)
            with pytest.raises(GridError, match="spacings"):
                Grid2D(nx=5, nz=5, hx=1.0, hz=h)
        for x0, z0 in ((float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 0.0)):
            with pytest.raises(GridError, match="finite"):
                Grid2D(nx=5, nz=5, hx=1.0, hz=1.0, x0=x0, z0=z0)

    @given(
        nx=st.integers(3, 40),
        nz=st.integers(3, 40),
        ix=st.integers(0, 39),
        iz=st.integers(0, 39),
    )
    def test_index_bijection(self, nx, nz, ix, iz):
        ix, iz = ix % nx, iz % nz
        g = Grid2D(nx=nx, nz=nz, hx=1.0, hz=2.0)
        index = ScalarField(g, np.arange(g.n_nodes, dtype=float)).as_2d()
        assert index[iz, ix] == g.flatten(ix, iz)

    def test_x_fastest_ordering(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        assert g.flatten(1, 0) == 1
        assert g.flatten(0, 1) == 4
        assert g.flatten(3, 2) == 11

    def test_contains(self):
        g = Grid2D(nx=5, nz=4, hx=10.0, hz=10.0, x0=100.0, z0=0.0)
        assert g.contains(100.0, 0.0)
        assert g.contains(140.0, 30.0)
        assert not g.contains(99.0, 0.0)
        assert not g.contains(100.0, 31.0)


def test_interior_mask_excludes_every_edge():
    mask = Grid2D(nx=5, nz=4, hx=1.0, hz=1.0).interior_mask().reshape(4, 5)
    assert mask[1:-1, 1:-1].all() and mask.sum() == 3 * 2


def test_neighbour_table_is_conservative_and_symmetric():
    rng = np.random.default_rng(5)
    g = Grid2D(nx=6, nz=5, hx=2.0, hz=3.0)
    eta = field(g, rng.random(g.n_nodes) + 0.1)
    e = eta.as_2d()
    table = neighbour_table(g)
    i = np.arange(g.n_nodes)
    for k, step in ((NORTH, -g.nx), (WEST, -1), (SELF, 0), (EAST, 1), (SOUTH, g.nx)):
        there = table.node[:, k] >= 0
        np.testing.assert_array_equal(table.node[there, k], i[there] + step)
    for slots in ((WEST, EAST), (NORTH, SOUTH)):  # the x part, then the z part
        keep = np.isin(np.arange(5), slots) & (table.node >= 0)
        rows = table.rows(face_weights(eta), keep)
        A = np.zeros((g.n_nodes, g.n_nodes))
        A[i, i] = rows[:, SELF]
        for k in slots:
            A[i[keep[:, k]], table.node[keep[:, k], k]] = rows[keep[:, k], k]
        assert np.max(np.abs(A - A.T)) == 0.0
        np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-15)  # no flux leaves the grid
    rows = table.rows(face_weights(eta), True)
    # an edge node's face takes the face mean of eta, as inside; beyond the edge there is none
    assert -rows[g.flatten(0, 2), EAST] == pytest.approx(0.5 * (e[2, 0] + e[2, 1]) / 4.0, rel=1e-15)
    assert -rows[g.flatten(3, 0), SOUTH] == pytest.approx(0.5 * (e[0, 3] + e[1, 3]) / 9.0, rel=1e-15)
    assert rows[g.flatten(0, 2), WEST] == 0.0 and rows[g.flatten(3, 0), NORTH] == 0.0
    assert table.node[g.flatten(0, 2), WEST] == -1 and table.node[g.flatten(3, 0), NORTH] == -1


class TestScalarField:
    def test_length_check(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros(8))

    def test_rejects_nonfinite(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        vals = np.zeros(9)
        vals[4] = np.nan
        with pytest.raises(GridError):
            ScalarField(g, vals)

    def test_accepts_2d_nz_nx(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        arr = np.arange(12.0).reshape(3, 4)
        f = ScalarField(g, arr)
        assert f.values[5] == arr[1, 1]
        assert np.array_equal(f.as_2d(), arr)

    def test_immutable(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        f = ScalarField(g, np.zeros(9))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_digest_changes_with_values_and_grid(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        a = ScalarField(g, np.zeros(9))
        b = ScalarField(g, np.ones(9))
        c = ScalarField(Grid2D(nx=3, nz=3, hx=2.0, hz=1.0), np.zeros(9))
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()
        assert a.digest() == ScalarField(g, np.zeros(9)).digest()


class TestRelativeError:
    def test_identity_is_zero(self):
        g = Grid2D(nx=4, nz=4, hx=1.0, hz=1.0)
        f = field(g, np.linspace(1, 2, 16))
        assert relative_error(f, f) == 0.0

    def test_constant_fields(self):
        g = Grid2D(nx=5, nz=3, hx=2.0, hz=1.0)
        assert relative_error(field(g, np.full(15, 2.0)), field(g, np.full(15, 1.0))) == pytest.approx(50.0)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(42)
        g = Grid2D(nx=8, nz=8, hx=1.0, hz=1.0)
        a = rng.random(64) + 0.5
        b = rng.random(64)
        # independent brute-force norm computation
        num = 0.0
        den = 0.0
        for iz in range(8):
            for ix in range(8):
                i = iz * 8 + ix
                num += (a[i] - b[i]) ** 2
                den += a[i] ** 2
        expected = 100.0 * np.sqrt(num) / np.sqrt(den)
        assert relative_error(field(g, a), field(g, b)) == pytest.approx(expected, rel=1e-13)

    @given(scale=st.floats(-1e6, 1e6).filter(lambda a: abs(a) > 1e-6), seed=st.integers(0, 100))
    @settings(max_examples=25)
    def test_scale_covariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        a = rng.random(12) + 0.5
        b = rng.random(12)
        e1 = relative_error(field(g, a), field(g, b))
        e2 = relative_error(field(g, scale * a), field(g, scale * b))
        assert e2 == pytest.approx(e1, rel=1e-9)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        a = rng.random(12) + 0.5
        b = a.copy()
        b[5] += 1e-9
        assert relative_error(field(g, a), field(g, b)) > 0.0

    def test_errors(self):
        g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
        g2 = Grid2D(nx=3, nz=4, hx=1.0, hz=1.0)
        with pytest.raises(GridError):
            relative_error(field(g, np.ones(12)), field(g2, np.ones(12)))
        with pytest.raises(GridError):
            relative_error(field(g, np.zeros(12)), field(g, np.ones(12)))


class TestSpeedSlowness:
    def test_1500(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        m = speed_to_slowness(field(g, np.full(9, 1500.0)))
        assert m.m[0] == pytest.approx(1.0 / 1500.0 ** 2, rel=1e-15)

    def test_4500(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        m = speed_to_slowness(field(g, np.full(9, 4500.0)))
        assert m.m[0] == pytest.approx(1.0 / 4500.0 ** 2, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        g = Grid2D(nx=5, nz=4, hx=1.0, hz=1.0)
        c = field(g, 1500.0 + 3000.0 * rng.random(20))
        back = slowness_to_speed(speed_to_slowness(c).field)
        np.testing.assert_allclose(back.values, c.values, rtol=4e-16)

    def test_nonpositive_rejected(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        vals = np.full(9, 100.0)
        vals[2] = 0.0
        with pytest.raises(GridError):
            speed_to_slowness(field(g, vals))
        with pytest.raises(GridError):
            Model(field(g, np.full(9, -1.0)), 10, 100)


    @pytest.mark.parametrize("c_min, c_max", [(100.0, 100.0), (200.0, 100.0), (-1.0, 100.0)])
    def test_model_bounds_must_be_ordered(self, c_min, c_max):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        with pytest.raises(GridError, match="need 0 <= c_min < c_max"):
            Model(field(g, np.full(9, 1e-6)), c_min, c_max)


class TestClampModel:
    def test_no_clamp_inside_bounds(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        m = speed_to_slowness(field(g, np.full(9, 2000.0)))
        clamped, n = clamp_model(m.field, 1000.0, 4000.0)
        assert n == 0
        np.testing.assert_array_equal(clamped.m, m.m)

    def test_clamps_and_counts(self):
        g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
        speeds = np.full(9, 2000.0)
        speeds[0] = 500.0   # too slow -> m too large
        speeds[1] = 9000.0  # too fast -> m too small
        m = speed_to_slowness(field(g, speeds))
        clamped, n = clamp_model(m.field, 1000.0, 4000.0)
        assert n == 2
        c = slowness_to_speed(clamped.field).values
        assert c[0] == pytest.approx(1000.0)
        assert c[1] == pytest.approx(4000.0)
        assert np.all(c >= 1000.0 - 1e-9) and np.all(c <= 4000.0 + 1e-9)


class TestCheckedSolve:
    """The one residual contract, with stub LUs standing in for SuperLU."""

    @staticmethod
    def system():
        n = 20
        op = sp.csc_matrix(np.diag(np.full(n, 4.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
        return op, spla.splu(op), np.random.default_rng(41).standard_normal((n, 3))

    class ScriptedLU:
        """Returns the exact solve plus solve_errors[k] * x on the k-th call."""

        def __init__(self, lu, solve_errors):
            self.lu, self.solve_errors, self.calls = lu, list(solve_errors), 0

        def solve(self, b, trans="N"):
            x = self.lu.solve(b, trans=trans)
            err = self.solve_errors[min(self.calls, len(self.solve_errors) - 1)]
            self.calls += 1
            return x + err * x

    def test_nan_solution_raises(self):
        op, lu, b = self.system()
        stub = self.ScriptedLU(lu, [np.nan])
        with pytest.raises(SolveError, match=r"\|\|Au-f\|\|=nan"):
            checked_solve(stub, op, b)
        assert stub.calls == 2  # the refinement round ran and could not help

    def test_nan_right_hand_side_raises(self):
        op, lu, b = self.system()
        b[3, 1] = np.nan
        with pytest.raises(SolveError, match="residual contract missed"):
            checked_solve(lu, op, b)

    def test_one_refinement_round_rescues_a_near_miss(self):
        op, lu, b = self.system()
        stub = self.ScriptedLU(lu, [1e-6, 0.0])  # off by 1e-6 relative, then exact
        x = checked_solve(stub, op, b)
        assert stub.calls == 2
        op_norm = spla.norm(op, 1)
        for j in range(b.shape[1]):
            bound = RESIDUAL_RTOL * (op_norm * np.linalg.norm(x[:, j]) + np.linalg.norm(b[:, j]))
            assert np.linalg.norm(op @ x[:, j] - b[:, j]) <= bound

    @given(exponent=st.floats(-12.0, 12.0))
    @settings(max_examples=50, deadline=None)
    def test_bound_does_not_depend_on_scale(self, exponent):
        # op and b scaled by c: the true LU passes at every c, and an LU that
        # returns (1 + delta) x fails at every c.  Refinement leaves a residual
        # of delta^2 ||b||, so delta = 1e-3; an absolute bound of 1e-10 would
        # let this fault through wherever ||b|| <= 1e-4.
        c = 10.0 ** exponent
        op, _, b = self.system()
        op, b = c * op, c * b
        lu = spla.splu(op)
        np.testing.assert_allclose(checked_solve(lu, op, b), lu.solve(b), rtol=1e-14)
        with pytest.raises(SolveError, match="residual contract missed"):
            checked_solve(self.ScriptedLU(lu, [1e-3]), op, b)
