"""The three benchmark workloads, their inputs and their output checks.

Every workload goes through the public ``eigenwave`` API and looks each
function up on its module at call time (``ew.generate_data``), so a traced
run sees the calls through the wrappers that ``tracing`` installs.

A workload has four steps:

* ``setup(seed)`` builds the inputs (models, acquisition, synthetic data)
  and the references the checks compare against.
  The seed reaches the program only through these inputs.  It draws the
  data noise of ``invert_salt`` (two realizations) and the data column
  ``forward_survey`` checks; ``basis_sweep`` compresses the fixed salt model and has no
  random input.
* ``run(inputs)`` is the timed section; it returns the outputs and the
  number of operations attempted and failed.
* ``quality(inputs, outputs)`` gives whichever of ``model_err_pct`` and
  ``misfit_ratio`` the workload has.  It runs after the timed section.
* ``check(inputs, outputs, quality)`` compares the outputs with references
  made by code the later optimisations do not touch (scipy's ``spsolve``,
  the benchmark's own receiver sampling and residuals) and returns
  ``(name, ok, detail)`` rows.  The references are built in ``setup``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

import eigenwave as ew
from eigenwave.eigenbasis import EigenSolveError
from eigenwave.helmholtz import SolveError

C_TOP, C_BOTTOM, DOME_SPEED = 1500.0, 3500.0, 4500.0
SNR_DB = 30.0
SOLVE_RTOL = 1e-8  # reference column against spsolve
EIG_RTOL = 1e-8  # ||A v - lam v|| <= EIG_RTOL * lam
GRAM_TOL = 1e-8


@dataclass(frozen=True)
class Ops:
    attempted: int = 0
    failed: int = 0

    def __add__(self, other: "Ops") -> "Ops":
        return Ops(self.attempted + other.attempted, self.failed + other.failed)


def salt_model(grid: ew.Grid2D) -> ew.Model:
    """Linear 1500 -> 3500 m/s background and one 4500 m/s elliptical dome."""
    x, z = grid.extent_x, grid.extent_z
    dome = ew.Dome(x=0.5 * x, z=0.55 * z, rx=0.2 * x, rz=0.25 * z, speed=DOME_SPEED)
    return ew.make_salt_model(ew.SaltModelSpec(C_TOP, C_BOTTOM, (dome,)), grid)


def line_acquisition(grid: ew.Grid2D, n_sources: int, n_receivers: int) -> ew.Acquisition:
    """Sources and receivers spread evenly at depth 2h, 2h in from each side."""
    depth = 2.0 * grid.hz
    x0, x1 = grid.x0 + 2.0 * grid.hx, grid.x0 + grid.extent_x - 2.0 * grid.hx
    return ew.Acquisition(
        sources=tuple((x, depth, 1.0) for x in np.linspace(x0, x1, n_sources)),
        receivers=tuple((x, depth) for x in np.linspace(x0, x1, n_receivers)),
    )


def sample_bilinear(grid: ew.Grid2D, values: np.ndarray, points) -> np.ndarray:
    """The benchmark's own bilinear interpolation of a nodal field."""
    pts = np.asarray(points, dtype=np.float64)
    u = (pts[:, 0] - grid.x0) / grid.hx
    v = (pts[:, 1] - grid.z0) / grid.hz
    ix = np.minimum(np.floor(u).astype(int), grid.nx - 2)
    iz = np.minimum(np.floor(v).astype(int), grid.nz - 2)
    tx, tz = u - ix, v - iz
    f = values.reshape(grid.nz, grid.nx)
    return (
        (1 - tx) * (1 - tz) * f[iz, ix] + tx * (1 - tz) * f[iz, ix + 1]
        + (1 - tx) * tz * f[iz + 1, ix] + tx * tz * f[iz + 1, ix + 1]
    )


def misfit(model: ew.Model, ds: ew.FrequencyDataset) -> float:
    """All-frequency least-squares misfit 1/2 sum ||d_pred - d_obs||^2."""
    pred = ew.generate_data(model, ds.acquisition, ds.frequencies)
    return 0.5 * float(np.sum(np.abs(pred.data - ds.data) ** 2))


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Workload:
    """Common constructor: ``scratch`` is where archive round trips write."""

    def __init__(self, scratch: Path):
        self.scratch = scratch


class InvertSalt(Workload):
    """The paper's main experiment: eigenbasis FWI of a salt dome.

    A repetition inverts ``REALIZATIONS`` noise realizations of the same
    survey.  Whether an NLCG search fails and restarts along steepest
    descent, at the cost of about 20 extra factorizations, depends on the
    noise, so a single realization makes the work of a run jump with the
    seed; the sum over several is steadier.
    """

    REALIZATIONS = 2

    name = "invert_salt"
    grid = ew.Grid2D(nx=161, nz=81, hx=12.5, hz=12.5)
    frequencies = (2.0, 3.0, 4.0, 5.0)
    config = ew.InversionConfig(
        frequencies=frequencies, n_schedule=(20, 30, 40, 50), n_iter=5,
        spec=ew.DiffusionSpec("eta4", 1e-2),
    )

    def setup(self, seed: int) -> dict:
        true = salt_model(self.grid)
        start = ew.make_layered_model(self.grid, C_TOP, C_BOTTOM)
        acq = line_acquisition(self.grid, 16, 80)
        clean = ew.generate_data(true, acq, self.frequencies)
        noise_seeds = np.random.SeedSequence(seed).generate_state(self.REALIZATIONS)
        data = [ew.add_data_noise(clean, SNR_DB, int(s)) for s in noise_seeds]
        return {"true": true, "start": start, "data": data}

    def run(self, inputs: dict) -> tuple[dict | None, Ops]:
        finals, ops = [], Ops()
        for data in inputs["data"]:
            try:
                final, history = ew.run_inversion(self.config, data, inputs["start"])
            except (SolveError, EigenSolveError):
                return None, ops + Ops(1, 1)
            steps = [r for r in history.records if r.iteration > 0]
            finals.append(final)
            ops += Ops(len(steps), sum(not r.accepted for r in steps))
        return {"finals": finals}, ops

    def quality(self, inputs: dict, outputs: dict) -> dict:
        """Means over the realizations; the per-realization values go to the record."""
        true, start = inputs["true"], inputs["start"]
        errors = [ew.relative_error(true.field, f.field) for f in outputs["finals"]]
        ratios = [
            misfit(f, data) / misfit(start, data)
            for f, data in zip(outputs["finals"], inputs["data"])
        ]
        return {
            "model_err_pct": float(np.mean(errors)),
            "misfit_ratio": float(np.mean(ratios)),
            "start_err_pct": ew.relative_error(true.field, start.field),
            "model_err_pct_each": errors,
            "misfit_ratio_each": ratios,
        }

    def check(self, inputs: dict, outputs: dict, quality: dict) -> list:
        start_err, rows = quality["start_err_pct"], []
        for k, final in enumerate(outputs["finals"]):
            ratio, err = quality["misfit_ratio_each"][k], quality["model_err_pct_each"][k]
            rows += [
                (f"final_model_finite[{k}]", bool(np.all(np.isfinite(final.m))), ""),
                (f"misfit_ratio_below_1[{k}]", ratio < 1.0, f"{ratio:.4g}"),
                (f"model_error_reduced[{k}]", err < start_err,
                 f"{start_err:.4g}% -> {err:.4g}%"),
            ]
        return rows


class ForwardSurvey(Workload):
    """Data synthesis on the larger grid, then a dataset archive round trip."""

    name = "forward_survey"
    grid = ew.Grid2D(nx=321, nz=161, hx=6.25, hz=6.25)
    frequencies = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)

    def setup(self, seed: int) -> dict:
        model, acq = salt_model(self.grid), line_acquisition(self.grid, 64, 160)
        # the reference for one seeded (frequency, source) column of the data
        rng = np.random.default_rng(seed)
        fi, si = int(rng.integers(len(self.frequencies))), int(rng.integers(acq.n_sources))
        x, z, amp = acq.sources[si]
        matrix = ew.assemble(model, 2.0 * np.pi * self.frequencies[fi]).matrix
        u = spla.spsolve(matrix, ew.point_source_rhs(self.grid, x, z, amp))
        return {
            "model": model, "acq": acq, "probe": (fi, si),
            "reference": sample_bilinear(self.grid, u, acq.receivers),
        }

    def run(self, inputs: dict) -> tuple[dict | None, Ops]:
        try:
            data = ew.generate_data(inputs["model"], inputs["acq"], self.frequencies)
        except SolveError:
            return None, Ops(2, 2)
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            ew.save_dataset(Path(tmp) / "dataset", data)
            loaded = ew.load_dataset(Path(tmp) / "dataset")
        return {"data": data, "loaded": loaded}, Ops(2, 0)

    def quality(self, inputs: dict, outputs: dict) -> dict:
        return {}

    def check(self, inputs: dict, outputs: dict, quality: dict) -> list:
        fi, si = inputs["probe"]
        data, ref = outputs["data"], inputs["reference"]
        err = np.linalg.norm(data.data[fi, si] - ref) / np.linalg.norm(ref)
        loaded = outputs["loaded"]
        round_trip = (
            same_bytes(data.data, loaded.data)
            and data.frequencies == loaded.frequencies
            and data.acquisition == loaded.acquisition
            and data.snr_db == loaded.snr_db
        )
        return [
            ("column_matches_spsolve", bool(err <= SOLVE_RTOL),
             f"f={self.frequencies[fi]} Hz source {si}: rel err {err:.2e}"),
            ("dataset_round_trip_bit_exact", round_trip, ""),
        ]


class BasisSweep(Workload):
    """The paper's compression experiment: N=100 bases over an eta sweep."""

    name = "basis_sweep"
    grid = InvertSalt.grid
    n = 100
    specs = (
        ew.DiffusionSpec("eta4", 1e-2),
        ew.DiffusionSpec("eta4", 1e-1),
        ew.DiffusionSpec("eta1", 1e-2),
        ew.DiffusionSpec("eta8"),
    )

    def setup(self, seed: int) -> dict:
        m = salt_model(self.grid).field
        # the benchmark's own operators, which the eigenpair check uses
        operators = {
            spec: ew.assemble_diffusion(ew.eval_eta(spec, ew.gradient_norms(m)))
            for spec in self.specs
        }
        return {"model": m, "operators": operators}

    def run(self, inputs: dict) -> tuple[dict | None, Ops]:
        m = inputs["model"]
        bases, errors, failed = [], [], 0
        for spec in self.specs:
            try:
                basis = ew.build_basis(m, spec, self.n)
            except EigenSolveError:
                failed += 1
                continue
            bases.append(basis)
            errors.append(ew.relative_error(m, ew.reconstruct(ew.project(m, basis))))
        loaded = None
        if bases:
            with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
                ew.save_basis(Path(tmp) / "basis", bases[0])
                loaded = ew.load_basis(Path(tmp) / "basis")
        outputs = {"bases": bases, "errors": errors, "loaded": loaded}
        return outputs, Ops(len(self.specs) + 1, failed + (loaded is None))

    def quality(self, inputs: dict, outputs: dict) -> dict:
        errors = outputs["errors"]
        return {"model_err_pct": float(np.mean(errors))} if errors else {}

    def check(self, inputs: dict, outputs: dict, quality: dict) -> list:
        rows = [("every_basis_built", len(outputs["bases"]) == len(self.specs), "")]
        for basis in outputs["bases"]:
            op = inputs["operators"][basis.spec]
            interior = op.interior_indices()
            vecs = basis.eigenvectors[interior]
            lam = basis.eigenvalues
            resid = np.linalg.norm(op.matrix @ vecs - vecs * lam, axis=0) / lam
            gram = np.max(np.abs(vecs.T @ vecs - np.eye(lam.size)))
            on_edge = np.max(np.abs(np.delete(basis.eigenvectors, interior, axis=0)))
            tag = f"{basis.spec.kind}/{basis.spec.beta:g}"
            rows += [
                (f"eigen_residual[{tag}]", bool(np.all(resid <= EIG_RTOL)), f"max {resid.max():.2e}"),
                (f"gram_defect[{tag}]", bool(gram <= GRAM_TOL), f"{gram:.2e}"),
                (f"zero_on_boundary[{tag}]", bool(on_edge == 0.0), ""),
            ]
        b = outputs["loaded"]
        a = outputs["bases"][0] if b is not None else None
        round_trip = b is not None and (
            same_bytes(a.eigenvalues, b.eigenvalues)
            and same_bytes(a.eigenvectors, b.eigenvectors)
            and same_bytes(a.m0.values, b.m0.values)
            and a.spec == b.spec and a.source_model_hash == b.source_model_hash
        )
        rows.append(("basis_round_trip_bit_exact", round_trip, ""))
        return rows


WORKLOADS = {w.name: w for w in (InvertSalt, ForwardSurvey, BasisSweep)}
