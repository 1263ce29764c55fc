"""The benchmark's traced boundaries must all exist in the package.

bench/tracing.py wraps each boundary by module and attribute name, and
reports the per-layer metrics of a boundary it cannot find as absent
instead of failing.  This test turns a renamed or deleted boundary into a
test failure.
"""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    monkeypatch.delitem(sys.modules, "tracing")
    assert tracing.BOUNDARIES
    missing = [b.qualname for b in tracing.BOUNDARIES if tracing._resolve(b) is None]
    assert missing == []
