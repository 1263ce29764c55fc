"""The benchmark's traced boundaries must all exist in the package.

bench/tracing.py wraps each boundary by module and attribute name, and
reports the per-layer metrics of a boundary it cannot find as absent
instead of failing.  It also reads attributes off the wrapped calls (the
config of nlcg_step, the rhs_cols of a solve, the records of a history),
and an attribute the program no longer has only marks the span as
changed.  These tests turn a renamed or deleted boundary, and an
attribute the tracer can no longer read, into a test failure.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import eigenwave as ew

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def import_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    return tracing


def test_every_traced_boundary_resolves(monkeypatch):
    tracing = import_tracing(monkeypatch)
    assert tracing.BOUNDARIES
    missing = [b.qualname for b in tracing.BOUNDARIES if tracing._resolve(b) is None]
    assert missing == []


def test_tiny_traced_run_feeds_every_layer_metric(monkeypatch, tmp_path):
    # every call goes through the package namespace, where the tracer
    # replaces the boundaries
    tracing = import_tracing(monkeypatch)
    grid = ew.Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)
    dome = ew.Dome(x=600.0, z=300.0, rx=200.0, rz=100.0, speed=2400.0)
    true = ew.make_salt_model(ew.SaltModelSpec(1500.0, 2000.0, (dome,), 800.0, 5000.0), grid)
    start = ew.make_layered_model(grid, 1500.0, 2000.0, c_min=800.0, c_max=5000.0)
    acq = ew.Acquisition(
        sources=tuple((x, 100.0, 1.0) for x in np.linspace(100.0, 1000.0, 3)),
        receivers=tuple((x, 50.0) for x in np.linspace(50.0, 1100.0, 10)),
    )
    spec = ew.DiffusionSpec("eta4", 1e-2)
    config = ew.InversionConfig(frequencies=(4.0, 6.0), n_schedule=(4, 8), n_iter=2, spec=spec)

    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        data = ew.generate_data(true, acq, config.frequencies)
        ew.save_dataset(tmp_path / "dataset", data)
        data = ew.load_dataset(tmp_path / "dataset")
        final, _ = ew.run_inversion(config, data, start)
        ew.misfit(final, data)
        ew.save_basis(tmp_path / "basis", ew.build_basis(start.field, spec, 8))
        ew.load_basis(tmp_path / "basis")

    assert missing == []
    assert tracer.changed == set()  # every attribute extractor read what it needs
    emitted = {s.name for s in tracer.spans}
    needed = {name for metric in tracing.LAYER_METRICS for name in metric.needs}
    assert needed - emitted == set()
    steps = [s.attrs for s in tracer.spans if s.name == tracing.STEP]
    assert len(steps) == 4
    assert all(a["max_backtracks"] == ew.InversionConfig.ls_max_backtracks for a in steps)
    summary = tracing.Summary(tracer, reps=1, wall_s=1.0, untraced_wall_s=1.0)
    metrics = tracing.layer_metrics(summary, missing, tracer.changed)
    assert [name for name, m in metrics.items() if m["value"] is None] == []
    assert metrics["inversion.accepted_steps"]["value"] >= 1
