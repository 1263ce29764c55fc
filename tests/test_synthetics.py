import gc
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eigenwave import helmholtz
from eigenwave.dataset import FrequencyDataset
from eigenwave.diffusion import DiffusionSpec
from eigenwave.eigenbasis import build_basis
from eigenwave.grid import Grid2D, GridError, SolveError
from eigenwave.helmholtz import (
    Acquisition,
    assemble,
    point_source_rhs,
    receiver_matrix,
    source_batch,
)
from eigenwave.inversion import InversionConfig, run_inversion
from eigenwave.synthetics import (
    Dome,
    SaltModelSpec,
    add_data_noise,
    add_model_noise,
    generate_data,
    make_layered_model,
    make_salt_model,
)


def layered_model():
    g = Grid2D(nx=30, nz=20, hx=10.0, hz=10.0)
    return make_layered_model(g, 1500.0, 3000.0, c_min=1000.0, c_max=4000.0)


class TestAddModelNoise:
    def test_seeded(self):
        m = layered_model()
        a = add_model_noise(m, 5.0, seed=3)
        assert a.m.tobytes() == add_model_noise(m, 5.0, seed=3).m.tobytes()
        assert a.m.tobytes() != add_model_noise(m, 5.0, seed=4).m.tobytes()

    @pytest.mark.parametrize("percent", [0.5, 5.0, 40.0])
    def test_speeds_stay_within_percent(self, percent):
        # 40 % pushes speeds past c_min and c_max: the noise leaves the
        # clamp to the caller and keeps the box
        m = layered_model()
        noisy = add_model_noise(m, percent, seed=1)
        assert (noisy.c_min, noisy.c_max) == (m.c_min, m.c_max)
        ratio = noisy.speeds().values / m.speeds().values
        p = percent / 100.0
        assert ratio.min() >= 1.0 - p - 1e-12
        assert ratio.max() <= 1.0 + p + 1e-12
        # the draws fill the band, not a narrower one
        assert ratio.min() < 1.0 - 0.9 * p
        assert ratio.max() > 1.0 + 0.9 * p

    def test_zero_percent_returns_input(self):
        m = layered_model()
        assert add_model_noise(m, 0.0, seed=1) is m

    @pytest.mark.parametrize("percent", [100.0, 250.0, -0.1])
    def test_percent_out_of_range(self, percent):
        with pytest.raises(GridError):
            add_model_noise(layered_model(), percent, seed=1)


def survey(n_sources):
    g = Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)
    dome = Dome(x=600.0, z=300.0, rx=200.0, rz=100.0, speed=2400.0)
    model = make_salt_model(SaltModelSpec(1500.0, 2000.0, (dome,), c_min=800.0, c_max=5000.0), g)
    acq = Acquisition(
        sources=tuple((x, 100.0, 1.0 - 0.5j) for x in np.linspace(100.0, 1000.0, n_sources)),
        receivers=tuple((x, 50.0) for x in np.linspace(50.0, 1100.0, 10)),
    )
    return model, acq


@pytest.mark.parametrize(
    "dome",
    [Dome(x=1100.0, z=300.0, rx=100.0, rz=100.0, speed=2400.0),  # past the right edge
     Dome(x=600.0, z=50.0, rx=200.0, rz=100.0, speed=2400.0)],  # above the top
    ids=["right", "top"],
)
def test_dome_outside_the_domain_rejected(dome):
    g = Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)
    with pytest.raises(GridError, match="extends outside the domain"):
        make_salt_model(SaltModelSpec(1500.0, 2000.0, (dome,), c_min=800.0, c_max=5000.0), g)


@pytest.mark.parametrize("snr_db", [np.nan, np.inf, -np.inf])
def test_data_noise_needs_a_finite_snr(snr_db):
    _, acq = survey(2)
    ds = FrequencyDataset(acquisition=acq, frequencies=(4.0,), data=np.ones((1, 2, 10)))
    with pytest.raises(GridError, match="snr_db must be finite"):
        add_data_noise(ds, snr_db, seed=1)


def reference_data(model, acq, freqs):
    """Each frequency factored on its own, each source solved and sampled alone."""
    rec = receiver_matrix(model.grid, acq)
    out = np.empty((len(freqs), acq.n_sources, acq.n_receivers), dtype=np.complex128)
    for i, f in enumerate(freqs):
        lu = assemble(model, 2.0 * np.pi * f).factor()
        for j, (x, z, amp) in enumerate(acq.sources):
            u = lu.solve(point_source_rhs(model.grid, x, z, amp)[:, None])
            out[i, j] = (rec @ u)[:, 0]
    return out


class TestGenerateData:
    @pytest.mark.parametrize("width", [None, 1, 2, 3])  # slab width; None: SLAB_COLUMNS
    @pytest.mark.parametrize("freqs", [(4.0,), (4.0, 5.0, 6.0)])
    @pytest.mark.parametrize("n_sources", [1, 8, 9, 17])
    def test_matches_column_by_column_reference(self, monkeypatch, n_sources, freqs, width):
        if width is not None:
            monkeypatch.setattr(helmholtz, "SLAB_COLUMNS", width)
        model, acq = survey(n_sources)
        threads = threading.enumerate()
        ds = generate_data(model, acq, freqs)
        assert threading.enumerate() == threads  # no thread outlives the call
        assert ds.frequencies == freqs
        assert ds.data.tobytes() == reference_data(model, acq, freqs).tobytes()

    def test_bad_frequencies_raise_before_any_factorization(self, monkeypatch):
        model, acq = survey(3)
        factored = []
        real_splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda A, **kw: factored.append(A) or real_splu(A, **kw))
        with pytest.raises(GridError, match="increasing"):
            generate_data(model, acq, (5.0, 4.0, 4.0))
        assert factored == []

    def test_source_batch_is_sparse_point_loads(self):
        model, acq = survey(9)
        loads = source_batch(model.grid, acq)
        assert sp.issparse(loads) and loads.format == "csc" and loads.nnz == 9
        dense = np.stack([point_source_rhs(model.grid, x, z, a) for x, z, a in acq.sources], axis=1)
        assert loads.toarray().tobytes() == dense.tobytes()

    def test_factor_failure_waits_for_every_lane(self, monkeypatch):
        model, acq = survey(17)
        freqs = (4.0, 5.0, 6.0)
        expected = generate_data(model, acq, freqs).data.tobytes()
        real_splu, real_solve = spla.splu, helmholtz.checked_solve
        n_splu, running, slab_started = [0], [0], threading.Event()
        lock = threading.Lock()

        def splu_failing_second(A, **kwargs):
            n_splu[0] += 1
            if n_splu[0] == 2:  # the second frequency, factored while the other lane solves
                slab_started.wait(timeout=10)
                raise RuntimeError("Factor is exactly singular")
            return real_splu(A, **kwargs)

        def slow_slab(*args):
            with lock:
                running[0] += 1
            slab_started.set()
            try:
                time.sleep(0.05)
                return real_solve(*args)
            finally:
                with lock:
                    running[0] -= 1

        with monkeypatch.context() as patch:
            patch.setattr(spla, "splu", splu_failing_second)
            patch.setattr(helmholtz, "checked_solve", slow_slab)
            with pytest.raises(SolveError, match="sparse LU failed"):
                generate_data(model, acq, freqs)
            assert slab_started.is_set()
            assert running[0] == 0  # no lane was still solving when the error arrived
            assert n_splu[0] == 2  # and neither took the third frequency
        assert generate_data(model, acq, freqs).data.tobytes() == expected

    def test_worker_residual_miss_reaches_caller(self, monkeypatch):
        model, acq = survey(9)  # two frequencies: the caller takes one, the worker the other
        caller = threading.get_ident()
        worker_started = threading.Event()
        real_splu = spla.splu

        class WorkerCorruptsSolve:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b, trans="N"):
                if threading.get_ident() == caller:
                    worker_started.wait(timeout=10)
                    return self.lu.solve(b, trans=trans)
                worker_started.set()
                return self.lu.solve(b, trans=trans) + 1.0

        monkeypatch.setattr(spla, "splu", lambda A, **kw: WorkerCorruptsSolve(real_splu(A, **kw)))
        with pytest.raises(SolveError, match="residual contract"):
            generate_data(model, acq, (4.0, 5.0))
        assert worker_started.is_set()

    def test_concurrent_callers_get_the_same_data(self):
        # several callers, each with its two lanes, on more threads than
        # cores, switching threads every microsecond
        model, acq = survey(17)
        freqs = (4.0, 5.0, 6.0)
        expected = reference_data(model, acq, freqs).tobytes()
        results = []

        def caller():
            for _ in range(3):
                results.append(generate_data(model, acq, freqs).data.tobytes() == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [True] * 9

    def test_failure_in_a_worker_frequency_drops_its_lu_there(self, monkeypatch):
        model, acq = survey(17)
        caller = threading.get_ident()
        worker_factored = threading.Event()
        made_on, dropped_on, running = [], [], [0]
        lock = threading.Lock()
        real_splu = spla.splu

        class WorkerLUFails:
            """An LU whose solve misses the residual contract if a worker made it."""

            def __init__(self, A, **kwargs):
                self.lu = real_splu(A, **kwargs)
                self.made_on = threading.get_ident()
                with lock:
                    self.n = len(made_on)
                    made_on.append(self.made_on)
                    dropped_on.append(None)
                if self.made_on != caller:
                    worker_factored.set()

            def solve(self, b, trans="N"):
                with lock:
                    running[0] += 1
                try:
                    if self.made_on == caller:
                        # hold the caller's frequency until a worker factored one
                        worker_factored.wait(timeout=10)
                        return self.lu.solve(b, trans=trans)
                    return self.lu.solve(b, trans=trans) + 1.0
                finally:
                    with lock:
                        running[0] -= 1

            def __del__(self):
                dropped_on[self.n] = threading.get_ident()

        monkeypatch.setattr(spla, "splu", WorkerLUFails)
        with pytest.raises(SolveError, match="residual contract") as failure:
            generate_data(model, acq, (4.0, 5.0, 6.0))
        assert running[0] == 0  # no lane was still solving when the error arrived
        assert any(t != caller for t in made_on)
        # the error and its traceback are still alive, its frequency's LU is not
        assert failure.value.__traceback__ is not None
        assert dropped_on == made_on


@pytest.mark.parametrize("job", ["generate_data", "run_inversion"])
def test_every_lu_is_made_and_dropped_on_the_calling_thread(monkeypatch, job):
    # generate_data factors on its two frequency lanes instead: there each
    # LU must be dropped on the thread that made it, and no more than two
    # Helmholtz LUs may be alive at once
    model, acq = survey(17)
    if job == "run_inversion":
        ds = generate_data(model, acq, (4.0,))
    made_on, dropped_on = [], []
    alive, most_alive = [0], [0]  # Helmholtz LUs
    lock = threading.Lock()
    real_splu = spla.splu

    class RecordedLU:
        def __init__(self, A, **kwargs):
            self.lu = real_splu(A, **kwargs)
            self.made_on = threading.get_ident()
            self.helmholtz = np.iscomplexobj(A.data)
            with lock:
                made_on.append(self.made_on)
                alive[0] += self.helmholtz
                most_alive[0] = max(most_alive[0], alive[0])

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, b, trans="N"):
            if job == "generate_data":
                time.sleep(0.01)  # long enough for every lane to hold an LU
            return self.lu.solve(b, trans=trans)

        def __del__(self):
            with lock:
                dropped_on.append((self.made_on, threading.get_ident()))
                alive[0] -= self.helmholtz

    monkeypatch.setattr(spla, "splu", RecordedLU)
    if job == "generate_data":
        generate_data(model, acq, (4.0, 5.0, 6.0, 7.0))
        n_lu = 4
    else:
        start = make_layered_model(model.grid, 1500.0, 2000.0, c_min=800.0, c_max=5000.0)
        config = InversionConfig(
            frequencies=(4.0,), n_schedule=(3, 5), n_iter=2, spec=DiffusionSpec("eta3", 0.05)
        )
        assert len(config.blocks()) == 2
        run_inversion(config, ds, start)
        n_lu = len(made_on)
        assert n_lu >= 4  # the diffusion LU and at least one Helmholtz LU per block
    gc.collect()
    assert len(made_on) == len(dropped_on) == n_lu
    if job == "generate_data":
        assert all(made == dropped for made, dropped in dropped_on)
        assert len(set(made_on)) == 2  # the caller and its one worker
        assert helmholtz.FREQUENCIES_IN_FLIGHT == 2
        assert most_alive[0] <= 2
    else:
        me = threading.get_ident()
        assert made_on == [me] * n_lu
        assert dropped_on == [(me, me)] * n_lu


def test_every_sparse_lu_is_made_in_grid(monkeypatch):
    # a (model, frequency) pair, and a diffusion operator, is factored in
    # one place: grid.sparse_lu
    model, acq = survey(3)
    callers = []
    real_splu = spla.splu

    def recording_splu(A, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real_splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    ds = generate_data(model, acq, (4.0, 5.0))
    spec = DiffusionSpec("eta3", 0.05)
    build_basis(model.field, spec, 5)
    start = make_layered_model(model.grid, 1500.0, 2000.0, c_min=800.0, c_max=5000.0)
    run_inversion(InversionConfig(frequencies=(4.0, 5.0), n_schedule=(3, 5), n_iter=1, spec=spec), ds, start)
    assert len(callers) >= 5  # two frequencies, a basis, and the inversion's diffusion and Helmholtz LUs
    assert set(callers) == {"eigenwave.grid"}
