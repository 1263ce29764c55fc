"""Spans around the public boundaries of each eigenwave layer.

A traced run replaces each boundary function below with a wrapper that
records a span (name, start, end, parent, attributes) and then restores
the original.  Module-level functions are replaced in their own module
and wherever an ``eigenwave`` module (or, for ``splu``, a
``scipy.sparse.linalg`` module) holds a reference to them, so calls made
inside the program are seen as well.  Spans stay in memory until the run
writes them out.  The time the wrappers themselves take is kept apart from
every span's self time and reported as ``trace.bookkeeping_s``.

A boundary that no longer exists is reported as missing; every per-layer
metric that needs it is then reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: int
    rep: int
    end: float = 0.0
    overhead: float = 0.0  # wrapper time around the call, outside [start, end]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``rep`` tags spans with the timed repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep = 0
        self.fill_read: set = set()
        self.changed: set[str] = set()
        self.bookkeeping_s = 0.0  # time spent in the wrappers themselves
        self._open: list[int] = []

    def wrap(self, name, fn: Callable, attrs: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            label = name(args, kwargs) if callable(name) else name
            parent = self._open[-1] if self._open else -1
            span = Span(label, 0.0, parent, self.rep)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._open.pop()
            if attrs is not None:
                try:
                    span.attrs.update(attrs(self, span, args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the boundary changed shape: its metrics become absent
                    self.changed.add(span.name)
            span.overhead = (span.start - entered) + (perf_counter() - span.end)
            self.bookkeeping_s += span.overhead
            return result

        return traced


# -- attributes recorded at the boundaries ----------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _factor_name(args, kwargs) -> str:
    # complex matrices are Helmholtz operators, real ones diffusion operators
    matrix = _arg(args, kwargs, 0, "A")
    return "helmholtz.factor" if np.iscomplexobj(matrix.data) else "diffusion.factor"


def _factor_attrs(tracer, span, args, kwargs, lu) -> dict:
    # building L and U costs about a quarter of a factorization, so the fill
    # is read once per (operator kind, size) and repetition, after the span
    key = (span.name, lu.shape, span.rep)
    if key in tracer.fill_read:
        return {}
    tracer.fill_read.add(key)
    return {"fill": int(lu.L.nnz + lu.U.nnz)}


def _solve_attrs(tracer, span, args, kwargs, result) -> dict:
    rhs = np.asarray(_arg(args, kwargs, 1, "rhs_cols"))
    return {"rhs": 1 if rhs.ndim == 1 else int(rhs.shape[1])}


def _step_attrs(tracer, span, args, kwargs, info) -> dict:
    config = _arg(args, kwargs, 3, "config")
    return {
        "accepted": bool(info.accepted),
        "backtracks": int(info.n_backtracks),
        "reset": bool(info.was_reset),
        "max_backtracks": int(config.ls_max_backtracks),
    }


def _inversion_attrs(tracer, span, args, kwargs, result) -> dict:
    _, history = result
    steps = [r for r in history.records if r.iteration > 0]
    return {
        "accepted": sum(r.accepted for r in steps),
        "max_clamped": max((r.n_clamped for r in history.records), default=0),
    }


def _archive_attrs(tracer, span, args, kwargs, directory) -> dict:
    files = [p for p in Path(directory).iterdir() if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


@dataclass(frozen=True)
class Boundary:
    span: str | Callable
    module: str
    path: str  # attribute, or Class.method
    attrs: Callable | None = None
    scan: tuple[str, ...] = ("eigenwave",)  # modules whose references are replaced

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.path}"


BOUNDARIES = (
    Boundary(_factor_name, "scipy.sparse.linalg", "splu", _factor_attrs,
             scan=("eigenwave", "scipy.sparse.linalg")),
    Boundary("helmholtz.assemble", "eigenwave.helmholtz", "assemble"),
    Boundary("helmholtz.solve", "eigenwave.helmholtz", "HelmholtzOperator.solve_array", _solve_attrs),
    Boundary("diffusion.assemble", "eigenwave.diffusion", "assemble_diffusion"),
    Boundary("diffusion.lift", "eigenwave.diffusion", "lift_from_operator"),
    Boundary("eigenbasis.build", "eigenwave.eigenbasis", "build_basis"),
    Boundary("eigenbasis.eigensolve", "eigenwave.eigenbasis", "smallest_eigenpairs"),
    Boundary("eigenbasis.project", "eigenwave.eigenbasis", "project"),
    Boundary("eigenbasis.save", "eigenwave.eigenbasis", "save_basis", _archive_attrs),
    Boundary("eigenbasis.load", "eigenwave.eigenbasis", "load_basis"),
    Boundary("inversion.run", "eigenwave.inversion", "run_inversion", _inversion_attrs),
    Boundary("inversion.step", "eigenwave.inversion", "nlcg_step", _step_attrs),
    Boundary("inversion.misfit", "eigenwave.inversion", "misfit"),
    Boundary("synthetics.generate_data", "eigenwave.synthetics", "generate_data"),
    Boundary("dataset.save", "eigenwave.dataset", "save_dataset", _archive_attrs),
    Boundary("dataset.load", "eigenwave.dataset", "load_dataset"),
)


def _resolve(b: Boundary):
    """(owner, attribute, original) for a boundary, or None if it is gone."""
    try:
        owner = importlib.import_module(b.module)
    except ImportError:
        return None
    *outer, attr = b.path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _references(fn, prefixes: tuple[str, ...]):
    """Every (module, name) among the given packages bound to fn."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith(prefixes):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                yield mod, key


@contextmanager
def installed(tracer: Tracer, boundaries=BOUNDARIES):
    """Wrap every boundary for the duration; yields the missing boundaries."""
    undo, missing = [], []
    started = perf_counter()
    try:
        for b in boundaries:
            found = _resolve(b)
            if found is None:
                missing.append(b.qualname)
                continue
            owner, attr, fn = found
            wrapped = tracer.wrap(b.span, fn, b.attrs)
            for obj, key in [(owner, attr), *_references(fn, b.scan)]:
                undo.append((obj, key, fn))
                setattr(obj, key, wrapped)
        tracer.bookkeeping_s += perf_counter() - started
        yield missing
    finally:
        started = perf_counter()
        for obj, key, fn in reversed(undo):
            setattr(obj, key, fn)
        tracer.bookkeeping_s += perf_counter() - started


# -- per-layer metrics -------------------------------------------------------

HF, DF = "helmholtz.factor", "diffusion.factor"
STEP, RUN = "inversion.step", "inversion.run"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # boundary span names the value is computed from
    value: Callable  # (Summary) -> float


class Summary:
    """Span totals per name, divided by the number of traced repetitions."""

    def __init__(self, tracer: Tracer, reps: int, wall_s: float, untraced_wall_s: float):
        self.spans = spans = tracer.spans
        self.bookkeeping_s = tracer.bookkeeping_s
        self.reps = reps
        self.wall_s = wall_s
        self.untraced_wall_s = untraced_wall_s
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.duration + s.overhead
        self.self_time = [s.duration - c for s, c in zip(spans, child)]

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def calls(self, name: str) -> float:
        return len(self.of(name)) / self.reps

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.of(name)) / self.reps

    def self_seconds(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s.name == name) / self.reps

    def p50(self, name: str) -> float:
        durations = [s.duration for s in self.of(name)]
        return statistics.median(durations) if durations else 0.0

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.of(name)) / self.reps

    def attr_mean(self, name: str, key: str) -> float:
        values = [s.attrs[key] for s in self.of(name) if key in s.attrs]
        return float(np.mean(values)) if values else 0.0

    def inside(self, name: str, ancestor: str) -> float:
        """Calls of `name` made (at any depth) inside an `ancestor` span."""
        def under(s: Span) -> bool:
            while s.parent >= 0:
                s = self.spans[s.parent]
                if s.name == ancestor:
                    return True
            return False
        return sum(under(s) for s in self.of(name)) / self.reps

    def steps(self) -> list[dict]:
        return [s.attrs for s in self.of(STEP) if "accepted" in s.attrs]

    def accepted(self) -> float:
        return self.attr_sum(RUN, "accepted")

    def step_evals(self) -> float:
        """Misfit evaluations the line searches made, from each StepInfo."""
        total = 0
        for a in self.steps():
            per_search = a["max_backtracks"] + 1
            if a["accepted"]:
                total += a["backtracks"] + 1 + (per_search if a["reset"] else 0)
            else:
                total += per_search * (2 if a["reset"] else 1)
        return total / self.reps


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0

LAYER_METRICS = (
    LayerMetric("helmholtz.factor.calls", "count", "lower", (HF,), lambda s: s.calls(HF)),
    LayerMetric("helmholtz.factor.s", "s", "lower", (HF,), lambda s: s.seconds(HF)),
    LayerMetric("helmholtz.factor.p50_s", "s", "lower", (HF,), lambda s: s.p50(HF)),
    LayerMetric("helmholtz.factor.share_pct", "%", "lower", (HF,),
                lambda s: 100.0 * _per(s.seconds(HF), s.wall_s)),
    LayerMetric("helmholtz.lu_fill_nnz", "count", "lower", (HF,), lambda s: s.attr_mean(HF, "fill")),
    LayerMetric("helmholtz.solve.calls", "count", "lower", ("helmholtz.solve",),
                lambda s: s.calls("helmholtz.solve")),
    LayerMetric("helmholtz.solve.rhs", "count", "lower", ("helmholtz.solve",),
                lambda s: s.attr_sum("helmholtz.solve", "rhs")),
    LayerMetric("helmholtz.solve.self_s", "s", "lower", ("helmholtz.solve",),
                lambda s: s.self_seconds("helmholtz.solve")),
    LayerMetric("helmholtz.assemble.calls", "count", "lower", ("helmholtz.assemble",),
                lambda s: s.calls("helmholtz.assemble")),
    LayerMetric("helmholtz.assemble.s", "s", "lower", ("helmholtz.assemble",),
                lambda s: s.seconds("helmholtz.assemble")),
    LayerMetric("inversion.accepted_steps", "count", "higher", (RUN,), lambda s: s.accepted()),
    LayerMetric("inversion.factor_calls", "count", "lower", (HF, RUN), lambda s: s.inside(HF, RUN)),
    LayerMetric("inversion.factor_per_step", "ratio", "lower", (HF, RUN),
                lambda s: _per(s.inside(HF, RUN), s.accepted())),
    LayerMetric("inversion.evals_per_step", "ratio", "lower", (STEP, RUN),
                lambda s: _per(s.step_evals(), s.accepted())),
    LayerMetric("inversion.backtracks_per_step", "ratio", "lower", (STEP, RUN),
                lambda s: _per(sum(a["backtracks"] for a in s.steps()) / s.reps, s.accepted())),
    LayerMetric("inversion.cg_resets", "count", "lower", (STEP,),
                lambda s: sum(a["reset"] for a in s.steps()) / s.reps),
    LayerMetric("inversion.misfit_evals", "count", "lower", ("inversion.misfit",),
                lambda s: s.calls("inversion.misfit")),
    LayerMetric("inversion.useful_eval_ratio", "ratio", "higher", (RUN, "inversion.misfit"),
                lambda s: _per(s.accepted(), s.calls("inversion.misfit"))),
    LayerMetric("inversion.max_clamped_nodes", "count", "lower", (RUN,),
                lambda s: max((x.attrs.get("max_clamped", 0) for x in s.of(RUN)), default=0)),
    LayerMetric("eigenbasis.build.calls", "count", "lower", ("eigenbasis.build",),
                lambda s: s.calls("eigenbasis.build")),
    LayerMetric("eigenbasis.build.s", "s", "lower", ("eigenbasis.build",),
                lambda s: s.seconds("eigenbasis.build")),
    LayerMetric("eigenbasis.eigensolve.s", "s", "lower", ("eigenbasis.eigensolve",),
                lambda s: s.seconds("eigenbasis.eigensolve")),
    LayerMetric("eigenbasis.project.s", "s", "lower", ("eigenbasis.project",),
                lambda s: s.seconds("eigenbasis.project")),
    LayerMetric("diffusion.factor.calls", "count", "lower", (DF,), lambda s: s.calls(DF)),
    LayerMetric("diffusion.factor.per_build", "ratio", "lower", (DF, "eigenbasis.build"),
                lambda s: _per(s.inside(DF, "eigenbasis.build"), s.calls("eigenbasis.build"))),
    LayerMetric("diffusion.factor.s", "s", "lower", (DF,), lambda s: s.seconds(DF)),
    LayerMetric("diffusion.assemble.s", "s", "lower", ("diffusion.assemble",),
                lambda s: s.seconds("diffusion.assemble")),
    LayerMetric("diffusion.lift.s", "s", "lower", ("diffusion.lift",),
                lambda s: s.seconds("diffusion.lift")),
    LayerMetric("synthetics.generate_data.s", "s", "lower", ("synthetics.generate_data",),
                lambda s: s.seconds("synthetics.generate_data")),
    LayerMetric("dataset.save.s", "s", "lower", ("dataset.save",), lambda s: s.seconds("dataset.save")),
    LayerMetric("dataset.load.s", "s", "lower", ("dataset.load",), lambda s: s.seconds("dataset.load")),
    LayerMetric("dataset.bytes", "B", "lower", ("dataset.save",),
                lambda s: s.attr_sum("dataset.save", "bytes")),
    LayerMetric("eigenbasis.archive.s", "s", "lower", ("eigenbasis.save", "eigenbasis.load"),
                lambda s: s.seconds("eigenbasis.save") + s.seconds("eigenbasis.load")),
    LayerMetric("eigenbasis.archive_files", "count", "lower", ("eigenbasis.save",),
                lambda s: s.attr_sum("eigenbasis.save", "files")),
    LayerMetric("trace.spans", "count", "lower", (), lambda s: len(s.spans) / s.reps),
    LayerMetric("trace.wall_s", "s", "lower", (), lambda s: s.wall_s),
    LayerMetric("trace.untraced_wall_s", "s", "lower", (), lambda s: s.untraced_wall_s),
    LayerMetric("trace.overhead_pct", "%", "lower", (),
                lambda s: 100.0 * _per(s.wall_s - s.untraced_wall_s, s.untraced_wall_s)),
    LayerMetric("trace.bookkeeping_s", "s", "lower", (), lambda s: s.bookkeeping_s / s.reps),
)


def absent_spans(missing: list[str], changed: set[str]) -> dict[str, str]:
    """Span name -> why its numbers cannot be trusted in this run."""
    gone = {}
    for b in BOUNDARIES:
        if b.qualname in missing:
            for name in (HF, DF) if callable(b.span) else (b.span,):
                gone[name] = f"{b.qualname} not found"
    for name in changed:
        gone[name] = f"{name}: unexpected arguments or result"
    return gone


def layer_metrics(summary: Summary, missing: list[str], changed: set[str]) -> dict:
    """Every per-layer metric; one whose boundary is gone is marked absent."""
    gone = absent_spans(missing, changed)
    out = {}
    for m in LAYER_METRICS:
        lost = sorted({gone[n] for n in m.needs if n in gone})
        if lost:
            out[m.name] = {"value": None, "unit": m.unit, "absent": "; ".join(lost)}
        else:
            out[m.name] = {"value": float(m.value(summary)), "unit": m.unit}
    return out
