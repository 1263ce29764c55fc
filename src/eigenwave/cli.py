"""Command-line front end: synth | decompose | forward | invert | dump-basis.

Run configuration is an INI-style text file with `key = value` lines,
`#` comments and a fixed section/key schema; unknown sections or keys
are rejected with the offending line number.  All paths are resolved
relative to the config file.  Exit codes: 0 success, 2 configuration
error, 3 file/I-O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .dataset import FrequencyDataset, load_dataset, save_dataset
from .diffusion import BETA_FREE_KINDS, DiffusionError, DiffusionSpec, ETA_KINDS
from .eigenbasis import EigenSolveError, build_basis, project, reconstruct, save_basis
from .fileio import FieldFileError
from .grid import Grid2D, GridError, Model, relative_error
from .helmholtz import Acquisition, SolveError
from .inversion import InversionConfig, run_inversion
from .synthetics import (
    Dome,
    SaltModelSpec,
    add_data_noise,
    add_model_noise,
    generate_data,
    make_layered_model,
    make_salt_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# the default scaling sweep covers seven orders below 1 and six above
DEFAULT_BETA_GRID = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1, 5e-1,
    1.0, 5.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6,
)


class ConfigError(ValueError):
    """Bad run configuration (schema violation, missing key, bad value)."""


def _config_values(reader):
    """Report a value from the config that the package rejects (GridError,
    DiffusionError and a failed number parse are all ValueErrors) as a
    ConfigError; a FieldFileError stays a fault of the file it names."""

    @functools.wraps(reader)
    def read(self, *args):
        try:
            return reader(self, *args)
        except (ConfigError, FieldFileError):
            raise
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    return read


SCHEMA: dict[str, set[str]] = {
    "grid": {"nx", "nz", "hx", "hz", "x0", "z0"},
    "model": {
        "kind", "c_top", "c_bottom", "c_min", "c_max", "domes",
        "noise_percent", "path", "start_path",
    },
    "spec": {"eta", "beta", "beta_list", "n_list"},
    "acquisition": {
        "n_sources", "source_depth", "source_x0", "source_x1", "source_amplitude",
        "n_receivers", "receiver_depth", "receiver_x0", "receiver_x1",
    },
    "data": {"frequencies", "snr_db", "path"},
    "inversion": {"n_schedule", "n_iter", "nodal"},
    "output": {"dir"},
}


class RunConfig:
    """Validated view of a config file, with typed accessors."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"config file not found: {self.path}")
        parser = configparser.ConfigParser(
            comment_prefixes=("#",), inline_comment_prefixes=("#",), delimiters=("=",)
        )
        try:
            text = self.path.read_text(encoding="utf-8")
            parser.read_string(text, source=str(self.path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {self.path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(
                    f"{self.path}:{self._line_of(text, section)}: "
                    f"unknown section [{section}]"
                )
            for key in parser[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(
                        f"{self.path}:{self._line_of(text, section, key)}: "
                        f"unknown key {key!r} in [{section}]"
                    )
        self._parser = parser

    @staticmethod
    def _line_of(text: str, section: str, key: str | None = None) -> int:
        """Line number of [section], or of `key =` inside it; 0 if not found."""
        current = None
        for i, line in enumerate(text.splitlines(), start=1):
            header = re.match(r"\s*\[(.+)\]", line)
            if header:
                current = header[1]
                if key is None and current == section:
                    return i
            elif key and current == section and re.match(rf"\s*{re.escape(key)}\s*=", line, re.I):
                return i
        return 0

    def has(self, section: str, key: str) -> bool:
        return self._parser.has_option(section, key)

    def _raw(self, section: str, key: str, default=None):
        if not self._parser.has_option(section, key):
            if default is not None:
                return default
            raise ConfigError(f"{self.path}: missing [{section}] {key}")
        return self._parser.get(section, key)

    def get_str(self, section, key, default=None) -> str:
        return str(self._raw(section, key, default)).strip()

    def get_int(self, section, key, default=None) -> int:
        raw = self._raw(section, key, default)
        try:
            return int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.path}: [{section}] {key} = {raw!r} is not an integer") from exc

    def get_float(self, section, key, default=None) -> float:
        raw = self._raw(section, key, default)
        try:
            return float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.path}: [{section}] {key} = {raw!r} is not a number") from exc

    def get_bool(self, section, key, default=None) -> bool:
        raw = str(self._raw(section, key, default)).strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{self.path}: [{section}] {key} = {raw!r} is not a boolean")

    def get_floats(self, section, key, default=None) -> tuple[float, ...]:
        raw = self._raw(section, key, default)
        if isinstance(raw, tuple):
            return raw
        try:
            values = tuple(float(t) for t in str(raw).replace(",", " ").split())
        except ValueError:
            values = ()
        if not values:
            raise ConfigError(f"{self.path}: [{section}] {key} = {raw!r} is not a number list")
        return values

    def get_ints(self, section, key, default=None) -> tuple[int, ...]:
        values = self.get_floats(section, key, default)
        if not all(float(v).is_integer() for v in values):
            raise ConfigError(f"{self.path}: [{section}] {key} = {values} holds a non-integer")
        return tuple(int(v) for v in values)

    def resolve(self, relpath: str) -> Path:
        return (self.path.parent / relpath).resolve()

    # -- composite readers ---------------------------------------------------

    @_config_values
    def grid(self) -> Grid2D:
        return Grid2D(
            nx=self.get_int("grid", "nx"),
            nz=self.get_int("grid", "nz"),
            hx=self.get_float("grid", "hx"),
            hz=self.get_float("grid", "hz"),
            x0=self.get_float("grid", "x0", 0.0),
            z0=self.get_float("grid", "z0", 0.0),
        )

    def eta_kind(self) -> str:
        kind = self.get_str("spec", "eta")
        if kind not in ETA_KINDS:
            raise ConfigError(f"{self.path}: [spec] eta = {kind!r}, expected one of {ETA_KINDS}")
        return kind

    @_config_values
    def diffusion_spec(self) -> DiffusionSpec:
        return DiffusionSpec(kind=self.eta_kind(), beta=self.get_float("spec", "beta", 1.0))

    @_config_values
    def beta_list(self, kind: str) -> tuple[float, ...]:
        if kind in BETA_FREE_KINDS:
            return (1.0,)
        betas = self.get_floats("spec", "beta_list", DEFAULT_BETA_GRID)
        for beta in betas:
            DiffusionSpec(kind=kind, beta=beta)  # raises on a beta the kind rejects
        return betas

    @_config_values
    def n_list(self, default: tuple[int, ...]) -> tuple[int, ...]:
        """[spec] n_list: the basis sizes, each at least 1."""
        n_list = self.get_ints("spec", "n_list", default)
        if min(n_list) < 1:
            raise ValueError(f"[spec] n_list = {n_list}: each N must be at least 1")
        return n_list

    @_config_values
    def frequencies(self) -> tuple[float, ...]:
        freqs = self.get_floats("data", "frequencies")
        if not all(0.0 < f < np.inf for f in freqs):
            raise ValueError(f"[data] frequencies = {freqs}: each must be finite and positive")
        return freqs

    @_config_values
    def snr_db(self) -> float | None:
        """[data] snr_db, or None when the data stay clean."""
        if not self.has("data", "snr_db"):
            return None
        snr = self.get_float("data", "snr_db")
        if not np.isfinite(snr):
            raise ValueError(f"[data] snr_db = {snr} must be finite")
        return snr

    @_config_values
    def acquisition(self) -> Acquisition:
        amp = complex(self.get_str("acquisition", "source_amplitude", "1"))
        n_src = self.get_int("acquisition", "n_sources")
        n_rec = self.get_int("acquisition", "n_receivers")
        src_x = np.linspace(
            self.get_float("acquisition", "source_x0"),
            self.get_float("acquisition", "source_x1"),
            n_src,
        )
        rec_x = np.linspace(
            self.get_float("acquisition", "receiver_x0"),
            self.get_float("acquisition", "receiver_x1"),
            n_rec,
        )
        src_z = self.get_float("acquisition", "source_depth")
        rec_z = self.get_float("acquisition", "receiver_depth")
        return Acquisition(
            sources=tuple((x, src_z, amp) for x in src_x),
            receivers=tuple((x, rec_z) for x in rec_x),
        )

    @_config_values
    def domes(self) -> tuple[Dome, ...]:
        raw = self.get_str("model", "domes", "")
        out = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [float(t) for t in chunk.replace(",", " ").split()]
            if len(parts) != 5:
                raise ConfigError(
                    f"{self.path}: dome needs 'x,z,rx,rz,speed', got {chunk!r}"
                )
            out.append(Dome(*parts))
        return tuple(out)

    @_config_values
    def build_model(self, seed: int) -> Model:
        kind = self.get_str("model", "kind", "salt")
        grid = self.grid()
        c_min = self.get_float("model", "c_min", 1000.0)
        c_max = self.get_float("model", "c_max", 6000.0)
        c_top = self.get_float("model", "c_top")
        c_bottom = self.get_float("model", "c_bottom")
        if kind == "layered":
            model = make_layered_model(grid, c_top, c_bottom, c_min=c_min, c_max=c_max)
        elif kind == "salt":
            spec = SaltModelSpec(
                c_top=c_top, c_bottom=c_bottom, domes=self.domes(),
                c_min=c_min, c_max=c_max,
            )
            model = make_salt_model(spec, grid)
        else:
            raise ConfigError(f"{self.path}: [model] kind = {kind!r}, expected salt|layered")
        noise = self.get_float("model", "noise_percent", 0.0)
        if noise > 0.0:
            model = add_model_noise(model, noise, seed)
        return model

    @_config_values
    def load_model(self, key: str = "path") -> Model:
        path = self.resolve(self.get_str("model", key))
        if not path.is_file():
            raise FileNotFoundError(f"model file not found: {path}")
        field = fileio.read_field(path)
        if np.any(field.values <= 0.0):
            raise FieldFileError(f"{path}: squared slowness must be strictly positive")
        c_min = self.get_float("model", "c_min", 1000.0)
        c_max = self.get_float("model", "c_max", 6000.0)
        return Model(field=field, c_min=c_min, c_max=c_max)

    def output_dir(self) -> Path:
        return self.resolve(self.get_str("output", "dir", "out"))


# ---------------------------------------------------------------------------
# commands


def _synthesize(cfg: RunConfig, model: Model, seed: int) -> tuple[FrequencyDataset, Path]:
    """Data for `model` over the configured acquisition and frequencies, with
    noise seeded by seed + 1 when [data] snr_db is set, saved to
    <output dir>/dataset.  Returns the dataset and the output directory."""
    snr_db = cfg.snr_db()
    ds = generate_data(model, cfg.acquisition(), cfg.frequencies())
    if snr_db is not None:
        ds = add_data_noise(ds, snr_db, seed + 1)
    out = fileio.ensure_dir(cfg.output_dir())
    save_dataset(out / "dataset", ds)
    return ds, out


def cmd_synth(cfg: RunConfig, seed: int) -> int:
    model = cfg.build_model(seed)
    ds, out = _synthesize(cfg, model, seed)
    fileio.write_field(out / "model_true.ewf", model.field)
    fileio.write_pgm(out / "model_true.pgm", model.speeds())
    print(f"synth: wrote model and {ds.n_frequencies}-frequency dataset to {out}")
    return EXIT_OK


def cmd_forward(cfg: RunConfig, seed: int) -> int:
    ds, out = _synthesize(cfg, cfg.load_model("path"), seed)
    print(f"forward: wrote {ds.n_frequencies}-frequency dataset to {out}")
    return EXIT_OK


def cmd_decompose(cfg: RunConfig, seed: int) -> int:
    model = cfg.load_model("path")
    kind = cfg.eta_kind()
    n_list = cfg.n_list((10, 20, 50))
    betas = cfg.beta_list(kind)
    n_max = max(n_list)

    def sweep(beta: float):
        # an extreme scaling can make the diffusion LU singular or defeat the
        # eigensolver's residual contract; such a beta drops out of the sweep
        # instead of killing it
        try:
            basis = build_basis(model.field, DiffusionSpec(kind=kind, beta=beta), n_max)
        except (DiffusionError, EigenSolveError):
            return None, None
        return [
            relative_error(model.field, reconstruct(project(model.field, basis, n)))
            for n in n_list
        ], basis

    results = [sweep(b) for b in betas]

    if all(r[0] is None for r in results):
        raise EigenSolveError(f"every beta in the sweep failed for {kind}")
    errors = np.array(
        [r[0] if r[0] is not None else [np.inf] * len(n_list) for r in results]
    )  # (n_beta, n_N)
    lines = ["beta" + "".join(f",err_N{n}" for n in n_list)]
    for b, row in zip(betas, errors):
        cells = "".join("," + ("failed" if not np.isfinite(e) else f"{e:.17g}") for e in row)
        lines.append(f"{b:.17g}" + cells)
    best_rows = errors.argmin(axis=0)
    for j, n in enumerate(n_list):
        i = int(best_rows[j])
        lines.append(f"best_N{n} = {errors[i, j]:.17g} at beta = {betas[i]:.17g}")

    out = fileio.ensure_dir(cfg.output_dir())
    report = "\n".join(lines) + "\n"
    (out / "decomposition_report.csv").write_text(report, encoding="ascii")
    print(report, end="")
    for j, n in enumerate(n_list):
        basis = results[int(best_rows[j])][1]
        recon = reconstruct(project(model.field, basis, n))
        fileio.write_field(out / f"recon_N{n:04d}.ewf", recon)
        fileio.write_pgm(out / f"recon_N{n:04d}.pgm", recon)
    return EXIT_OK


def cmd_invert(cfg: RunConfig, seed: int) -> int:
    nodal = cfg.get_bool("inversion", "nodal", False)
    try:
        config = InversionConfig(
            frequencies=cfg.frequencies(),
            n_schedule=() if nodal else cfg.get_ints("inversion", "n_schedule"),
            n_iter=cfg.get_int("inversion", "n_iter", 30),
            spec=None if nodal else cfg.diffusion_spec(),
            nodal=nodal,
        )
    except GridError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from exc
    ds_path = cfg.resolve(cfg.get_str("data", "path"))
    if not ds_path.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {ds_path}")
    dataset = load_dataset(ds_path)
    m_start = cfg.load_model("start_path")
    final, history = run_inversion(config, dataset, m_start)
    out = fileio.ensure_dir(cfg.output_dir())
    history.to_csv(out / "history.csv")
    for b, snap in history.snapshots:
        fileio.write_field(out / f"snapshot_{b + 1:04d}.ewf", snap)
    fileio.write_field(out / "final_model.ewf", final.field)
    fileio.write_pgm(out / "final_model.pgm", final.speeds())
    n_rec = len(history.records)
    last = history.records[-1].misfit if history.records else float("nan")
    print(f"invert: {n_rec} records, final misfit {last:.6e}, wrote {out}")
    return EXIT_OK


def cmd_dump_basis(cfg: RunConfig, seed: int) -> int:
    model = cfg.load_model("path")
    spec = cfg.diffusion_spec()
    n = max(cfg.n_list((50,)))
    basis = build_basis(model.field, spec, n)
    out = fileio.ensure_dir(cfg.output_dir())
    save_basis(out / "basis", basis)
    (out / "eigenvalues.txt").write_text(
        "".join(f"{float(v)!r}\n" for v in basis.eigenvalues), encoding="ascii"
    )
    print(f"dump-basis: wrote {n}-vector basis archive to {out}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "forward": cmd_forward,
    "decompose": cmd_decompose,
    "invert": cmd_invert,
    "dump-basis": cmd_dump_basis,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigenwave",
        description="Frequency-domain FWI with diffusion-eigenvector model compression.",
        epilog=(
            "Helmholtz solves use one lane per CPU in the affinity mask, and a "
            "threaded BLAS competes with them: set OPENBLAS_NUM_THREADS=1 before "
            "running.  At 321x161 a 64-column solve took 0.81 s with OpenBLAS on "
            "2 threads against 0.56 s on 1."
        ),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--seed", type=int, default=0, help="seed for noise generation")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig(args.config)
        return COMMANDS[args.command](cfg, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, FieldFileError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolveError, EigenSolveError, DiffusionError, GridError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
