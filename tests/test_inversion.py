from time import perf_counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eigenwave import inversion
from eigenwave.diffusion import DiffusionSpec
from eigenwave.eigenbasis import build_basis, project, reconstruct
from eigenwave.grid import Grid2D, GridError, Model, ScalarField, clamp_model, speed_to_slowness
from eigenwave.helmholtz import Acquisition
from eigenwave.inversion import (
    InversionConfig,
    MisfitEvaluator,
    NLCGState,
    gradient_alpha,
    misfit,
    nlcg_step,
    run_inversion,
)
from eigenwave.synthetics import generate_data


def small_setup(seed=7, nx=21, nz=11, n_src=1, n_rec=5, freq=20.0):
    rng = np.random.default_rng(seed)
    g = Grid2D(nx=nx, nz=nz, hx=10.0, hz=10.0)
    speeds = 1500.0 + 300.0 * rng.random(g.n_nodes)
    m_true = speed_to_slowness(ScalarField(g, speeds), 500.0, 9000.0)
    x_src = np.linspace(0.3, 0.7, n_src) * g.extent_x
    x_rec = np.linspace(0.1, 0.9, n_rec) * g.extent_x
    acq = Acquisition(
        sources=tuple((x, 2 * g.hz, 1.0) for x in x_src),
        receivers=tuple((x, g.hz) for x in x_rec),
    )
    ds = generate_data(m_true, acq, [freq])
    return g, m_true, acq, ds


def nodal_gradient(model, ds):
    """dJ/dm summed over the dataset's frequencies, one MisfitEvaluator call each."""
    ev = MisfitEvaluator(ds, model.grid)
    return sum(ev.gradient(model, ds.frequency_index(f)) for f in ds.frequencies)


class TestMisfit:
    def test_self_data_is_zero(self):
        g, m_true, acq, ds = small_setup()
        energy = float(np.sum(np.abs(ds.data) ** 2))
        assert misfit(m_true, ds) <= 1e-16 * energy

    def test_zero_data_gives_field_energy(self):
        g, m_true, acq, ds = small_setup()
        from eigenwave.dataset import FrequencyDataset

        zero = FrequencyDataset(
            acquisition=ds.acquisition,
            frequencies=ds.frequencies,
            data=np.zeros_like(ds.data),
        )
        assert misfit(m_true, zero) == pytest.approx(
            0.5 * float(np.sum(np.abs(ds.data) ** 2)), rel=1e-12
        )

    def test_two_frequency_additivity(self):
        rng = np.random.default_rng(3)
        g = Grid2D(nx=15, nz=9, hx=10.0, hz=10.0)
        m_true = speed_to_slowness(
            ScalarField(g, 1500.0 + 300.0 * rng.random(g.n_nodes)), 500.0, 9000.0
        )
        m_probe = speed_to_slowness(
            ScalarField(g, 1500.0 + 300.0 * rng.random(g.n_nodes)), 500.0, 9000.0
        )
        acq = Acquisition(sources=((70.0, 20.0, 1.0),), receivers=((30.0, 10.0), (100.0, 10.0)))
        ds = generate_data(m_true, acq, [15.0, 22.0])
        total = misfit(m_probe, ds)
        ev = MisfitEvaluator(ds, g)
        parts = ev.value(m_probe, ds.frequency_index(15.0)) + ev.value(m_probe, ds.frequency_index(22.0))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_unknown_frequency_rejected(self):
        g, m_true, acq, ds = small_setup()
        with pytest.raises(GridError):
            ds.frequency_index(999.0)


class TestGradient:
    def test_self_data_gradient_vanishes(self):
        g, m_true, acq, ds = small_setup()
        grad = nodal_gradient(m_true, ds)
        scale = float(np.sum(np.abs(ds.data) ** 2))
        assert np.linalg.norm(grad) <= 1e-6 * scale

    def test_matches_central_differences(self):
        g, m_true, acq, ds = small_setup(seed=7)
        rng = np.random.default_rng(99)
        speeds = 1500.0 + 300.0 * rng.random(g.n_nodes)
        model = speed_to_slowness(ScalarField(g, speeds), 500.0, 9000.0)
        grad = nodal_gradient(model, ds)
        m0 = model.m.copy()
        eps = 1e-6 * np.linalg.norm(m0)
        for _ in range(10):
            v = rng.standard_normal(g.n_nodes)
            v /= np.linalg.norm(v)
            j_plus = misfit(Model(ScalarField(g, m0 + eps * v), 500.0, 9000.0), ds)
            j_minus = misfit(Model(ScalarField(g, m0 - eps * v), 500.0, 9000.0), ds)
            fd = (j_plus - j_minus) / (2.0 * eps)
            an = float(grad @ v)
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an))

    def test_two_sources_additive(self):
        g, m_true, acq, ds = small_setup(seed=11, n_src=2)
        rng = np.random.default_rng(1)
        model = speed_to_slowness(
            ScalarField(g, 1500.0 + 300.0 * rng.random(g.n_nodes)), 500.0, 9000.0
        )
        grad_both = nodal_gradient(model, ds)
        from eigenwave.dataset import FrequencyDataset

        parts = np.zeros(g.n_nodes)
        for s in range(2):
            acq_s = Acquisition(sources=(ds.acquisition.sources[s],), receivers=ds.acquisition.receivers)
            ds_s = FrequencyDataset(
                acquisition=acq_s, frequencies=ds.frequencies, data=ds.data[:, s : s + 1, :]
            )
            parts += nodal_gradient(model, ds_s)
        np.testing.assert_allclose(grad_both, parts, rtol=1e-10, atol=1e-18)


class TestMisfitEvaluator:
    def test_entry_reused_until_gradient(self):
        g, m_true, acq, ds = small_setup(seed=8)
        rng = np.random.default_rng(8)
        speeds = 1500.0 + 300.0 * rng.random(g.n_nodes)
        model = speed_to_slowness(ScalarField(g, speeds), 500.0, 9000.0)
        ev = MisfitEvaluator(ds, g)
        value = ev.value(model, 0)
        same = Model(ScalarField(g, model.m.copy()), 500.0, 9000.0)  # equal bytes
        assert ev.value(same, 0) == value and ev.n_factor == 1
        grad = ev.gradient(same, 0)
        assert ev.n_factor == 1
        # a gradient releases the entry: the next evaluation factors again
        assert ev.value(model, 0) == value and ev.n_factor == 2
        np.testing.assert_array_equal(grad, MisfitEvaluator(ds, g).gradient(model, 0))
        nudged = Model(ScalarField(g, model.m * (1.0 + 1e-15)), 500.0, 9000.0)
        ev.value(nudged, 0)
        assert ev.n_factor == 3


class TestGradientAlpha:
    @pytest.fixture(scope="class")
    def basis9(self):
        rng = np.random.default_rng(21)
        g = Grid2D(nx=9, nz=9, hx=1.0, hz=1.0)
        m = ScalarField(g, 2.0 + 0.2 * rng.random(81))
        return build_basis(m, DiffusionSpec("eta1", 1.0), 4)

    def test_eigenvector_maps_to_unit_coordinate(self, basis9):
        g = basis9.grid
        g_nodal = ScalarField(g, basis9.eigenvectors[:, 2])
        out = gradient_alpha(g_nodal, basis9, 4)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-9)

    def test_orthogonal_complement_maps_to_zero(self, basis9):
        rng = np.random.default_rng(22)
        g = basis9.grid
        v = rng.standard_normal(g.n_nodes)
        v -= basis9.eigenvectors @ (basis9.eigenvectors.T @ v)
        out = gradient_alpha(ScalarField(g, v), basis9, 4)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    @pytest.mark.parametrize("n_active", [-1, 5])
    def test_n_active_out_of_range(self, basis9, n_active):
        g_nodal = ScalarField(basis9.grid, np.ones(basis9.grid.n_nodes))
        with pytest.raises(GridError, match=f"n_active {n_active} out of range"):
            gradient_alpha(g_nodal, basis9, n_active)
        assert gradient_alpha(g_nodal, basis9, 0).shape == (0,)

    def test_matches_inner_product_loop(self, basis9):
        rng = np.random.default_rng(23)
        g = basis9.grid
        v = rng.standard_normal(g.n_nodes)
        out = gradient_alpha(ScalarField(g, v), basis9, 4)
        for k in range(4):
            acc = 0.0
            for i in range(g.n_nodes):
                acc += basis9.eigenvectors[i, k] * v[i]
            assert out[k] == pytest.approx(acc, rel=1e-12)


def quadratic_config(**kw):
    defaults = dict(frequencies=(1.0,), n_schedule=(1,), spec=DiffusionSpec("eta9"), n_iter=1)
    defaults.update(kw)
    return InversionConfig(**defaults)


class TestNLCG:
    def test_first_step_is_steepest_descent(self):
        target = np.array([1.0, -2.0, 3.0])
        x0 = np.zeros(3)
        state = NLCGState(x=x0, value=0.5 * np.sum(target**2), grad=x0 - target)
        cfg = quadratic_config()
        info = nlcg_step(
            state,
            lambda x: 0.5 * float(np.sum((x - target) ** 2)),
            lambda x: x - target,
            cfg,
            step_norm_floor=1.0,
        )
        assert info.accepted
        np.testing.assert_allclose(state.dir_prev, target, rtol=1e-13)  # -g at x0

    def test_quadratic_toy_converges(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(12)
        x = np.zeros(12)
        state = NLCGState(x=x, value=0.5 * float(np.sum(target**2)), grad=x - target)
        cfg = quadratic_config()
        for _ in range(30):
            info = nlcg_step(
                state,
                lambda x: 0.5 * float(np.sum((x - target) ** 2)),
                lambda x: x - target,
                cfg,
                step_norm_floor=float(np.linalg.norm(target)),
            )
            if state.failed or np.linalg.norm(state.x - target) < 1e-8:
                break
        assert np.linalg.norm(state.x - target) < 1e-8

    def test_armijo_inequality_on_accepted_steps(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal(6)
        x = np.zeros(6)
        cfg = quadratic_config()
        state = NLCGState(x=x, value=0.5 * float(np.sum(target**2)), grad=x - target)
        for _ in range(10):
            value_before = state.value
            info = nlcg_step(
                state,
                lambda x: 0.5 * float(np.sum((x - target) ** 2)),
                lambda x: x - target,
                cfg,
                step_norm_floor=1.0,
            )
            if not info.accepted:
                break
            assert state.value <= value_before + cfg.armijo_c1 * info.step * info.dir_deriv + 1e-15

    def test_overshooting_trial_backtracks_onto_minimizer(self):
        # 1-D quadratic: the cold trial lands at 4, past the minimizer at 1,
        # and the quadratic through phi(0), phi'(0), phi(mu) is exact
        a = 3.0
        state = NLCGState(x=np.zeros(1), value=0.5 * a, grad=np.array([-a]))
        info = nlcg_step(
            state,
            lambda x: 0.5 * a * float((x[0] - 1.0) ** 2),
            lambda x: a * (x - 1.0),
            quadratic_config(),
            step_norm_floor=80.0,  # cold trial 0.05 * 80 / a along s = a
        )
        assert info.accepted and info.n_backtracks == 1
        assert abs(state.x[0] - 1.0) <= 1e-12
        assert state.last_step == (info.step, info.dir_deriv)

    def test_warm_start_accepts_first_trial(self):
        rng = np.random.default_rng(5)
        target = rng.standard_normal(12)
        x = np.zeros(12)
        state = NLCGState(x=x, value=0.5 * float(np.sum(target**2)), grad=x - target)
        infos = []
        while np.linalg.norm(state.x - target) > 1e-12 and len(infos) < 30:
            infos.append(nlcg_step(
                state,
                lambda x: 0.5 * float(np.sum((x - target) ** 2)),
                lambda x: x - target,
                quadratic_config(),
                step_norm_floor=float(np.linalg.norm(target)),
            ))
        assert np.linalg.norm(state.x - target) <= 1e-12
        assert infos[0].step == pytest.approx(0.05, rel=1e-15)  # cold: init_scale * floor / ||g||
        # on this isotropic quadratic the warm trial grows by 1/(1 - mu)^2 per
        # step; every step is taken at it until the one that passes the
        # Armijo limit, whose quadratic backtrack lands on the minimizer
        for prev, info in zip(infos[:-2], infos[1:-1]):
            assert info.accepted and info.n_backtracks == 0
            assert info.step == pytest.approx(prev.step * prev.dir_deriv / info.dir_deriv, rel=1e-12)
        assert len(infos) >= 8

    def test_steepest_descent_retry_starts_cold(self, monkeypatch):
        # PR+ gives beta = 2 and s = (1, 2); the warm trial mu = 100 fails and,
        # with no backtracks allowed, the retry along -g takes the cold trial
        monkeypatch.setattr(InversionConfig, "ls_max_backtracks", 0)
        target = np.array([1.0, 0.0])
        state = NLCGState(
            x=np.zeros(2), value=0.5, grad=-target, dir_prev=np.array([0.0, 1.0]),
            grad_prev=np.array([-0.5, 0.0]), last_step=(100.0, -1.0),
        )
        trials = []

        def value(x):
            trials.append(x.copy())
            return 0.5 * float(np.sum((x - target) ** 2))

        info = nlcg_step(
            state, value, lambda x: x - target, quadratic_config(),
            step_norm_floor=1.0,
        )
        assert info.accepted and info.was_reset and info.n_backtracks == 0
        np.testing.assert_allclose(trials, [[100.0, 200.0], [0.05, 0.0]], rtol=1e-15)
        assert info.step == pytest.approx(0.05, rel=1e-15)

    def test_failed_search_without_cg_direction_fails_the_state(self):
        # a fresh state has no CG direction, so a search that fails is not
        # retried along steepest descent
        target = np.array([1.0, -2.0])
        x0 = np.zeros(2)
        state = NLCGState(x=x0.copy(), value=0.5, grad=x0 - target)
        cfg = quadratic_config()
        trials = []

        def rising(x):
            trials.append(x.copy())
            return state.value + 1.0

        info = nlcg_step(state, rising, lambda x: x - target, cfg, step_norm_floor=1.0)
        assert state.failed and not info.accepted and not info.was_reset
        assert info.step == 0.0 and info.n_backtracks == cfg.ls_max_backtracks + 1
        assert len(trials) == cfg.ls_max_backtracks + 1
        assert info.dir_deriv == -float(target @ target)
        np.testing.assert_array_equal(state.x, x0)
        assert state.dir_prev is None and state.last_step is None

    def test_zero_gradient_is_noop(self):
        x = np.ones(3)
        state = NLCGState(x=x.copy(), value=0.0, grad=np.zeros(3))
        info = nlcg_step(state, lambda x: 0.0, lambda x: np.zeros(3), quadratic_config(), 1.0)
        assert not info.accepted and info.step == 0.0
        np.testing.assert_array_equal(state.x, x)


def count_basis_builds(monkeypatch) -> list[int]:
    """Make run_inversion log the size of every basis it builds."""
    sizes = []
    real = inversion.build_basis

    def counting(m, spec, n):
        sizes.append(n)
        return real(m, spec, n)

    monkeypatch.setattr(inversion, "build_basis", counting)
    return sizes


def trial_evaluations(record, config) -> int:
    """Misfit evaluations one NLCG step made, from its StepInfo fields."""
    if not record.accepted:  # failed searches, or a zero gradient (0 backtracks)
        return record.n_backtracks * (2 if record.was_reset else 1)
    restart = config.ls_max_backtracks + 1 if record.was_reset else 0
    return record.n_backtracks + 1 + restart


class TestRunInversion:
    @pytest.fixture(scope="class")
    def fwi_setup(self):
        g = Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)
        rng = np.random.default_rng(13)
        zs = (g.zs() - g.z0) / g.extent_z
        bg = 1500.0 + 500.0 * zs
        speeds = np.repeat(bg, g.nx).reshape(g.nz, g.nx)
        speeds[4:8, 8:15] += 400.0
        m_true = speed_to_slowness(ScalarField(g, speeds.reshape(-1)), 800.0, 5000.0)
        acq = Acquisition(
            sources=tuple((x, 100.0, 1.0) for x in np.linspace(100.0, 1000.0, 4)),
            receivers=tuple((x, 50.0) for x in np.linspace(50.0, 1100.0, 12)),
        )
        ds = generate_data(m_true, acq, [6.0])
        from eigenwave.synthetics import make_layered_model

        m_start = make_layered_model(g, 1500.0, 2000.0, c_min=800.0, c_max=5000.0)
        return g, m_true, m_start, ds

    def test_n_iter_zero_returns_projection(self, fwi_setup):
        g, m_true, m_start, ds = fwi_setup
        spec = DiffusionSpec("eta3", 0.05)
        cfg = InversionConfig(frequencies=(6.0,), n_schedule=(5,), n_iter=0, spec=spec)
        final, hist = run_inversion(cfg, ds, m_start)
        basis = build_basis(m_start.field, spec, 5)
        expected = reconstruct(project(m_start.field, basis, 5))
        np.testing.assert_allclose(final.m, expected.values, rtol=1e-12)
        assert hist.records == []

    def test_self_data_is_stationary(self, fwi_setup):
        # data generated from the start model as the optimizer sees it
        # (projected onto the basis): the very first iterate is a global
        # minimum, so misfits stay at solver-noise level and the model
        # does not move
        g, m_true, m_start, ds = fwi_setup
        spec = DiffusionSpec("eta9")
        basis = build_basis(m_start.field, spec, 4)
        m_proj = reconstruct(project(m_start.field, basis, 4))
        model_proj = Model(m_proj, m_start.c_min, m_start.c_max)
        ds_self = generate_data(model_proj, ds.acquisition, [6.0])
        cfg = InversionConfig(frequencies=(6.0,), n_schedule=(4,), n_iter=3, spec=spec)
        final, hist = run_inversion(cfg, ds_self, m_start)
        energy = float(np.sum(np.abs(ds_self.data) ** 2))
        assert all(r.misfit <= 1e-12 * energy for r in hist.records)
        np.testing.assert_allclose(final.m, m_proj.values, rtol=1e-7)

    def test_misfit_nonincreasing_within_blocks(self, fwi_setup):
        g, m_true, m_start, ds = fwi_setup
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(4, 8), n_iter=5, spec=DiffusionSpec("eta3", 0.05)
        )
        final, hist = run_inversion(cfg, ds, m_start)
        by_block = {}
        for r in hist.records:
            by_block.setdefault(r.block, []).append(r)
        for block, records in by_block.items():
            misfits = [r.misfit for r in records]
            assert all(b <= a + 1e-15 for a, b in zip(misfits, misfits[1:])), misfits

    def test_basis_built_once_without_refresh(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds = fwi_setup
        builds = count_basis_builds(monkeypatch)
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(3, 6), n_iter=2, spec=DiffusionSpec("eta3", 0.05)
        )
        run_inversion(cfg, ds, m_start)
        assert builds == [6]  # once, at the largest N of the schedule

    def test_missing_frequency_fails_before_the_basis(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds = fwi_setup
        builds = count_basis_builds(monkeypatch)
        cfg = InversionConfig(
            frequencies=(6.0, 7.0), n_schedule=(4,), n_iter=2, spec=DiffusionSpec("eta3", 0.05)
        )
        with pytest.raises(GridError, match="frequency 7.0 Hz not in dataset"):
            run_inversion(cfg, ds, m_start)
        assert builds == []

    def test_acquisition_outside_the_grid_fails_before_the_basis(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds = fwi_setup
        builds = count_basis_builds(monkeypatch)
        small = Grid2D(nx=12, nz=6, hx=50.0, hz=50.0)  # the sources reach x = 1000
        start = Model(ScalarField(small, m_start.m[: small.n_nodes]), m_start.c_min, m_start.c_max)
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(4,), n_iter=2, spec=DiffusionSpec("eta3", 0.05)
        )
        with pytest.raises(GridError, match="outside grid"):
            run_inversion(cfg, ds, start)
        assert builds == []

    def test_failed_search_ends_its_block(self, fwi_setup, monkeypatch):
        # every trial of block 0 rises; block 1 still runs all its iterations
        g, m_true, m_start, ds = fwi_setup
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(3, 5), n_iter=3, spec=DiffusionSpec("eta3", 0.05)
        )
        step = inversion.nlcg_step

        def failing_in_block_0(state, eval_value, *args, **kwargs):
            if state.x.size == 3:
                return step(state, lambda x: state.value + 1.0, *args, **kwargs)
            return step(state, eval_value, *args, **kwargs)

        monkeypatch.setattr(inversion, "nlcg_step", failing_in_block_0)
        _, hist = run_inversion(cfg, ds, m_start)
        block0 = [r for r in hist.records if r.block == 0]
        block1 = [r for r in hist.records if r.block == 1]
        assert [r.iteration for r in block0] == [0, 1]
        assert not block0[1].accepted and block0[1].n_backtracks == cfg.ls_max_backtracks + 1
        assert block0[1].misfit == block0[0].misfit
        assert [r.iteration for r in block1] == [0, 1, 2, 3]
        assert [b for b, _ in hist.snapshots] == [0, 1]

    def test_nodal_mode_runs(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds = fwi_setup
        builds = count_basis_builds(monkeypatch)
        cfg = InversionConfig(frequencies=(6.0,), n_iter=4)
        assert cfg.blocks() == [(6.0, 0)]
        final, hist = run_inversion(cfg, ds, m_start)
        assert hist.records[-1].misfit <= hist.records[0].misfit
        assert builds == []
        # every node is an unknown, and the history says so
        assert [r.n_active for r in hist.records] == [g.n_nodes] * len(hist.records)

    def test_history_csv_round_trip(self, fwi_setup, tmp_path):
        g, m_true, m_start, ds = fwi_setup
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(4,), n_iter=3, spec=DiffusionSpec("eta3", 0.05)
        )
        _, hist = run_inversion(cfg, ds, m_start)
        hist.to_csv(tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "block,iter,misfit,step,n_active,dir_deriv,n_clamped,accepted,"
            "n_backtracks,was_reset,n_factor,wall_s,grad_norm"
        )
        assert len(lines) == 1 + len(hist.records)
        row = lines[1].split(",")
        assert float(row[2]) == hist.records[0].misfit

    def test_snapshots_per_block(self, fwi_setup):
        g, m_true, m_start, ds = fwi_setup
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(3, 5), n_iter=2, spec=DiffusionSpec("eta3", 0.05)
        )
        _, hist = run_inversion(cfg, ds, m_start)
        assert [b for b, _ in hist.snapshots] == [0, 1]

    def test_gradient_at_accepted_point_does_not_factor(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds2 = fwi_setup
        ds = generate_data(m_true, ds2.acquisition, [4.0, 6.0])
        factored = []
        splu = spla.splu

        def counting_splu(matrix, *args, **kwargs):
            if np.iscomplexobj(matrix.data):
                factored.append(matrix.shape)
            return splu(matrix, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        cfg = InversionConfig(
            frequencies=(4.0, 6.0), n_schedule=(4, 8), n_iter=4, spec=DiffusionSpec("eta3", 0.05)
        )
        _, hist = run_inversion(cfg, ds, m_start)
        entries = [r for r in hist.records if r.iteration == 0]
        steps = [r for r in hist.records if r.iteration > 0]
        assert len(entries) == 2 and sum(r.accepted for r in steps) >= 4
        trials = [trial_evaluations(r, cfg) for r in steps]
        assert len(factored) == len(entries) + sum(trials)
        assert [r.n_factor for r in entries] == [1, 1]
        assert [r.n_factor for r in steps] == trials

    def test_each_block_starts_cold(self, fwi_setup, monkeypatch):
        g, m_true, m_start, ds = fwi_setup
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=(4, 8), n_iter=3, spec=DiffusionSpec("eta3", 0.05)
        )
        calls = []
        step = inversion.nlcg_step

        def recording_step(state, eval_value, *args, **kwargs):
            trials = []

            def value(x):
                trials.append(x.copy())
                return eval_value(x)

            call = dict(
                state=state, x=state.x.copy(), grad=state.grad.copy(),
                last_step=state.last_step, floor=kwargs["step_norm_floor"],
            )
            call["info"] = step(state, value, *args, **kwargs)
            call.update(
                first_trial=trials[0], grad_after=state.grad.copy(),
                dir_after=state.dir_prev.copy(), last_after=state.last_step,
            )
            calls.append(call)
            return call["info"]

        monkeypatch.setattr(inversion, "nlcg_step", recording_step)
        t0 = perf_counter()
        _, hist = run_inversion(cfg, ds, m_start)
        elapsed = perf_counter() - t0

        entries = [i for i, c in enumerate(calls) if i == 0 or c["state"] is not calls[i - 1]["state"]]
        assert entries == [0, 3] and all(c["info"].accepted for c in calls)
        for i, c in enumerate(calls):
            if i in entries:  # fresh state, steepest descent, cold trial
                assert c["last_step"] is None
                s = -c["grad"]
                mu = cfg.ls_init_scale * max(np.linalg.norm(c["x"]), c["floor"]) / np.linalg.norm(s)
            else:  # warm trial from the previous accepted step
                mu_prev, d_prev = c["last_step"]
                s = c["dir_after"]  # the direction this step searched along
                mu = mu_prev * d_prev / float(c["grad"] @ s)
            np.testing.assert_allclose(c["first_trial"], c["x"] + mu * s, rtol=1e-12)
        # block 1's cold trial is not the one block 0's last step would carry
        mu_prev, d_prev = calls[2]["last_after"]
        carried = mu_prev * d_prev / -float(np.sum(calls[3]["grad"] ** 2))
        cold = np.linalg.norm(calls[3]["first_trial"] - calls[3]["x"]) / np.linalg.norm(calls[3]["grad"])
        assert abs(cold - carried) > 0.1 * cold

        steps = [r for r in hist.records if r.iteration > 0]
        assert [r.n_factor for r in steps] == [trial_evaluations(r, cfg) for r in steps]
        assert [r.grad_norm for r in steps] == [float(np.linalg.norm(c["grad_after"])) for c in calls]
        assert all(r.wall_s > 0.0 for r in hist.records)
        assert sum(r.wall_s for r in hist.records) <= elapsed

    @pytest.mark.parametrize("nodal", [False, True])
    def test_cached_gradient_matches_fresh(self, fwi_setup, monkeypatch, nodal):
        g, m_true, m_start, ds = fwi_setup
        spec = DiffusionSpec("eta3", 0.05)
        cfg = InversionConfig(
            frequencies=(6.0,), n_schedule=() if nodal else (6,), n_iter=3,
            spec=None if nodal else spec,
        )
        seen = []
        step = inversion.nlcg_step

        def recording_step(state, *args, **kwargs):
            seen.append((state.x.copy(), state.grad.copy()))
            info = step(state, *args, **kwargs)
            seen.append((state.x.copy(), state.grad.copy()))
            return info

        monkeypatch.setattr(inversion, "nlcg_step", recording_step)
        run_inversion(cfg, ds, m_start)
        assert len(seen) == 6
        basis = None if nodal else build_basis(m_start.field, spec, 6)
        for x, grad in seen:
            m = x if nodal else basis.m0.values + basis.eigenvectors @ x
            model, _ = clamp_model(ScalarField(g, m), m_start.c_min, m_start.c_max)
            fresh = MisfitEvaluator(ds, g).gradient(model, ds.frequency_index(6.0))
            fresh = fresh if nodal else gradient_alpha(ScalarField(g, fresh), basis, 6)
            assert np.linalg.norm(grad - fresh) <= 1e-12 * np.linalg.norm(fresh)


class TestChainRuleConsistency:
    def test_alpha_gradient_matches_fd(self):
        g, m_true, acq, ds = small_setup(seed=29, nx=17, nz=9)
        from eigenwave.synthetics import make_layered_model

        m_start = make_layered_model(g, 1500.0, 1700.0, c_min=500.0, c_max=9000.0)
        basis = build_basis(m_start.field, DiffusionSpec("eta3", 0.05), 6)
        dec = project(m_start.field, basis, 6)
        alpha0 = dec.alpha.copy()

        def j_of_alpha(alpha):
            m = basis.m0.values + basis.eigenvectors @ alpha
            return misfit(Model(ScalarField(g, m), 500.0, 9000.0), ds)

        model0 = Model(ScalarField(g, basis.m0.values + basis.eigenvectors @ alpha0), 500.0, 9000.0)
        g_alpha = gradient_alpha(ScalarField(g, nodal_gradient(model0, ds)), basis, 6)
        rng = np.random.default_rng(30)
        eps = 1e-6 * max(np.linalg.norm(alpha0), np.linalg.norm(model0.m))
        for _ in range(5):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            fd = (j_of_alpha(alpha0 + eps * v) - j_of_alpha(alpha0 - eps * v)) / (2 * eps)
            an = float(g_alpha @ v)
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an))

    def test_nodal_step_equals_alpha_step_through_full_basis(self):
        g, m_true, acq, ds = small_setup(seed=31, nx=11, nz=7)
        rng = np.random.default_rng(32)
        m_field = ScalarField(g, (1.0 + 0.1 * rng.random(g.n_nodes)) * 4e-7)
        n_full = (g.nx - 2) * (g.nz - 2)
        basis = build_basis(m_field, DiffusionSpec("eta9"), n_full)
        dec = project(m_field, basis, n_full)
        model = Model(reconstruct(dec), 100.0, 99000.0)

        g_nodal = nodal_gradient(model, ds)
        g_a = gradient_alpha(ScalarField(g, g_nodal), basis, n_full)
        mu = 1e-3 / max(np.linalg.norm(g_nodal), 1.0)

        # nodal steepest-descent step, then mapped into coefficients
        m_new_nodal = model.m - mu * g_nodal
        alpha_from_nodal = basis.eigenvectors.T @ (m_new_nodal - basis.m0.values)
        # alpha-space steepest-descent step with the same step length
        alpha_new = dec.alpha - mu * g_a
        np.testing.assert_allclose(alpha_new, alpha_from_nodal, rtol=1e-8, atol=1e-15)


class TestClampedGradient:
    @pytest.mark.parametrize("nodal", [True, False])
    def test_matches_central_differences_with_nodes_outside_the_box(self, monkeypatch, nodal):
        """run_inversion's gradient is that of the misfit it minimizes,
        J(clamp(x)), which does not change along the nodes the clamp moves."""
        from eigenwave.synthetics import make_layered_model

        g, m_true, acq, ds = small_setup(seed=41, nx=17, nz=9)
        c_min, c_max = 500.0, 1650.0  # the start's fastest nodes lie strictly outside
        if nodal:
            rng = np.random.default_rng(42)
            speeds = np.where(rng.random(g.n_nodes) < 0.3, 1700.0, 1500.0) + 100.0 * rng.random(g.n_nodes)
            m_start = speed_to_slowness(ScalarField(g, speeds), c_min, c_max)
            cfg = InversionConfig(frequencies=(20.0,), n_iter=1)
            values_of = np.asarray
        else:
            m_start = make_layered_model(g, 1500.0, 1800.0, c_min=c_min, c_max=c_max)
            cfg = InversionConfig(frequencies=(20.0,), n_schedule=(6,), n_iter=1, spec=DiffusionSpec("eta3", 0.05))
            basis = build_basis(m_start.field, cfg.spec, 6)

            def values_of(alpha):
                return basis.m0.values + basis.eigenvectors @ alpha

        def moved(xvec):
            values = values_of(xvec)
            return clamp_model(ScalarField(g, values), c_min, c_max)[0].m != values

        seen = {}

        def capturing_step(state, eval_value, eval_grad, *args, **kwargs):
            seen.update(x=state.x.copy(), value=eval_value, grad=eval_grad)
            state.failed = True
            return inversion.StepInfo(step=0.0, dir_deriv=0.0, accepted=False, n_backtracks=0, was_reset=False)

        monkeypatch.setattr(inversion, "nlcg_step", capturing_step)
        run_inversion(cfg, ds, m_start)
        x, grad = seen["x"], seen["grad"](seen["x"])
        assert moved(x).sum() >= 10
        rng = np.random.default_rng(43)
        eps = 1e-6 * np.linalg.norm(x)
        for _ in range(5):
            v = rng.standard_normal(x.size)
            v /= np.linalg.norm(v)
            plus, minus = x + eps * v, x - eps * v
            # the same nodes stay outside the box at both points
            assert np.array_equal(moved(plus), moved(x)) and np.array_equal(moved(minus), moved(x))
            fd = (seen["value"](plus) - seen["value"](minus)) / (2.0 * eps)
            an = float(grad @ v)
            assert abs(fd - an) <= 1e-5 * max(abs(fd), abs(an))


class TestConfigValidation:
    def test_frequencies_must_increase(self):
        with pytest.raises(GridError):
            InversionConfig(frequencies=(3.0, 2.0), n_schedule=(5,), spec=DiffusionSpec("eta9"))

    def test_schedule_must_be_nondecreasing(self):
        with pytest.raises(GridError):
            InversionConfig(frequencies=(2.0,), n_schedule=(5, 3), spec=DiffusionSpec("eta9"))

    def test_needs_a_frequency(self):
        with pytest.raises(GridError, match="at least one frequency"):
            InversionConfig(frequencies=())

    def test_n_iter_must_be_nonnegative(self):
        with pytest.raises(GridError, match="n_iter must be nonnegative"):
            InversionConfig(frequencies=(2.0,), n_iter=-1)
        assert InversionConfig(frequencies=(2.0,), n_iter=0).n_iter == 0

    def test_eigen_mode_needs_spec_and_schedule(self):
        with pytest.raises(GridError, match="needs a DiffusionSpec"):
            InversionConfig(frequencies=(2.0,), n_schedule=(5,))
        with pytest.raises(GridError):
            InversionConfig(frequencies=(2.0,), spec=DiffusionSpec("eta9"))

    def test_block_pairing(self):
        spec = DiffusionSpec("eta9")
        c1 = InversionConfig(frequencies=(2.0, 3.0), n_schedule=(5, 8), spec=spec)
        assert c1.blocks() == [(2.0, 5), (3.0, 8)]
        c2 = InversionConfig(frequencies=(2.0,), n_schedule=(5, 8, 9), spec=spec)
        assert c2.blocks() == [(2.0, 5), (2.0, 8), (2.0, 9)]
        c3 = InversionConfig(frequencies=(2.0, 3.0, 4.0), n_schedule=(5,), spec=spec)
        assert c3.blocks() == [(2.0, 5), (3.0, 5), (4.0, 5)]
        with pytest.raises(GridError):
            InversionConfig(frequencies=(2.0, 3.0), n_schedule=(5, 8, 9), spec=spec).blocks()
