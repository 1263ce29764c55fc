"""Command-line front end: synth | decompose | forward | invert | dump-basis.

Run configuration is an INI-style text file with `key = value` lines and
`#` comments.  SCHEMA is the one list of its sections and keys, with each
key's parser and default; an unknown section or key, or a value its
parser rejects, is reported with the offending line number.  All paths
are resolved relative to the config file.  Exit codes: 0 success, 2
configuration error, 3 file/I-O error, 4 numerical failure.
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
from .dataset import FrequencyDataset, check_frequencies, load_dataset, save_dataset
from .diffusion import BETA_FREE_KINDS, DiffusionError, DiffusionSpec, ETA_KINDS
from .eigenbasis import EigenSolveError, build_basis, project, reconstruct, save_basis
from .fileio import FieldFileError
from .grid import Grid2D, GridError, Model, relative_error
from .helmholtz import Acquisition, SolveError
from .inversion import InversionConfig, run_inversion
from .synthetics import (
    Dome, SaltModelSpec, add_data_noise, add_model_noise, generate_data, make_salt_model,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Bad run configuration (schema violation, missing key, bad value)."""


def _config_values(reader):
    """Report config values that the package or numpy rejects together
    (GridError and DiffusionError are ValueErrors) as a ConfigError; a
    FieldFileError stays a fault of the file it names."""

    @functools.wraps(reader)
    def read(self, *args):
        try:
            return reader(self, *args)
        except (ConfigError, FieldFileError):
            raise
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    return read


# -- value parsers: each takes the stripped text and raises ValueError -------


def _floats(raw: str) -> tuple[float, ...]:
    """Numbers separated by spaces or commas, at least one."""
    values = tuple(float(t) for t in raw.replace(",", " ").split())
    if not values:
        raise ValueError("not a number list")
    return values


def _counts(raw: str) -> tuple[int, ...]:
    """A number list of integers, each at least 1."""
    values = _floats(raw)
    if not all(v.is_integer() for v in values):
        raise ValueError("holds a non-integer")
    if min(values) < 1:
        raise ValueError("each N must be at least 1")
    return tuple(int(v) for v in values)


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _one_of(*choices: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw

    return parse


def _domes(raw: str) -> tuple[Dome, ...]:
    """`x,z,rx,rz,speed` per dome, domes separated by `;`."""
    domes = []
    for chunk in filter(None, (c.strip() for c in raw.split(";"))):
        parts = [float(t) for t in chunk.replace(",", " ").split()]
        if len(parts) != 5:
            raise ValueError(f"dome needs 'x,z,rx,rz,speed', got {chunk!r}")
        domes.append(Dome(*parts))
    return tuple(domes)


REQUIRED = object()  # the default of a key that has none: reading it unset is an error

# section -> key -> (parser, default): the one list of keys, their types
# and their defaults.  A default of None means "not set": [data] snr_db
# then leaves the data clean.
SCHEMA: dict[str, dict[str, tuple]] = {
    "grid": {
        "nx": (int, REQUIRED), "nz": (int, REQUIRED),
        "hx": (float, REQUIRED), "hz": (float, REQUIRED),
        "x0": (float, 0.0), "z0": (float, 0.0),
    },
    "model": {
        "kind": (_one_of("salt", "layered"), "salt"),
        "c_top": (float, REQUIRED), "c_bottom": (float, REQUIRED),
        "c_min": (float, 1000.0), "c_max": (float, 6000.0),
        "domes": (_domes, ()), "noise_percent": (float, 0.0),
        "path": (str, REQUIRED), "start_path": (str, REQUIRED),
    },
    "spec": {
        "eta": (_one_of(*ETA_KINDS), REQUIRED), "beta": (float, 1.0),
        # the default scaling sweep covers seven orders below 1 and six above
        "beta_list": (_floats, (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1, 5e-1,
                                1.0, 5.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)),
        "n_list": (_counts, (10, 20, 50)),
    },
    "acquisition": {
        "n_sources": (int, REQUIRED), "source_depth": (float, REQUIRED),
        "source_x0": (float, REQUIRED), "source_x1": (float, REQUIRED),
        "source_amplitude": (complex, 1 + 0j),
        "n_receivers": (int, REQUIRED), "receiver_depth": (float, REQUIRED),
        "receiver_x0": (float, REQUIRED), "receiver_x1": (float, REQUIRED),
    },
    "data": {
        "frequencies": (lambda raw: check_frequencies(_floats(raw)), REQUIRED),
        "snr_db": (_finite, None), "path": (str, REQUIRED),
    },
    "inversion": {
        "n_schedule": (_counts, REQUIRED), "n_iter": (int, 30), "nodal": (_bool, False),
    },
    "output": {"dir": (str, "out")},
}


class RunConfig:
    """Validated view of a config file; cfg[section, key] is the parsed value."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"config file not found: {self.path}")
        parser = configparser.ConfigParser(
            comment_prefixes=("#",), inline_comment_prefixes=("#",), delimiters=("=",),
            interpolation=None,  # a `%` in a value is taken literally
        )
        try:
            self._text = self.path.read_text(encoding="utf-8")
            parser.read_string(self._text, source=str(self.path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {self.path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{self._where(section)}: unknown section [{section}]")
            for key in parser[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(
                        f"{self._where(section, key)}: unknown key {key!r} in [{section}]"
                    )
        self._parser = parser

    def _where(self, section: str, key: str | None = None) -> str:
        """`path:line` of [section], or of `key =` inside it; line 0 if not found."""
        current = None
        for i, line in enumerate(self._text.splitlines(), start=1):
            header = re.match(r"\s*\[(.+)\]", line)
            if header:
                current = header[1]
                if key is None and current == section:
                    return f"{self.path}:{i}"
            elif key and current == section and re.match(rf"\s*{re.escape(key)}\s*=", line, re.I):
                return f"{self.path}:{i}"
        return f"{self.path}:0"

    def __getitem__(self, item: tuple[str, str]):
        """[section] key parsed by its SCHEMA entry, or its default when unset."""
        section, key = item
        parse, default = SCHEMA[section][key]
        if not self._parser.has_option(section, key):
            if default is REQUIRED:
                raise ConfigError(f"{self.path}: missing [{section}] {key}")
            return default
        raw = self._parser.get(section, key).strip()
        try:
            return parse(raw)
        except ValueError as exc:
            where = self._where(section, key)
            raise ConfigError(f"{where}: [{section}] {key} = {raw!r}: {exc}") from exc

    def resolve(self, relpath: str) -> Path:
        return (self.path.parent / relpath).resolve()

    # -- composite readers: checks that span keys or need the package -------

    @_config_values
    def diffusion_spec(self) -> DiffusionSpec:
        return DiffusionSpec(kind=self["spec", "eta"], beta=self["spec", "beta"])

    @_config_values
    def beta_list(self, kind: str) -> tuple[float, ...]:
        if kind in BETA_FREE_KINDS:
            return (1.0,)
        betas = self["spec", "beta_list"]
        for beta in betas:
            DiffusionSpec(kind=kind, beta=beta)  # raises on a beta the kind rejects
        return betas

    @_config_values
    def acquisition(self, grid: Grid2D) -> Acquisition:
        """The line acquisition, every source and receiver inside `grid`."""
        amp = self["acquisition", "source_amplitude"]
        n_src, n_rec = self["acquisition", "n_sources"], self["acquisition", "n_receivers"]
        src_z, rec_z = self["acquisition", "source_depth"], self["acquisition", "receiver_depth"]
        src_x0, src_x1 = self["acquisition", "source_x0"], self["acquisition", "source_x1"]
        rec_x0, rec_x1 = self["acquisition", "receiver_x0"], self["acquisition", "receiver_x1"]
        acq = Acquisition(
            sources=tuple((x, src_z, amp) for x in np.linspace(src_x0, src_x1, n_src)),
            receivers=tuple((x, rec_z) for x in np.linspace(rec_x0, rec_x1, n_rec)),
        )
        acq.validate_in(grid)
        return acq

    @_config_values
    def build_model(self, seed: int) -> Model:
        """The salt model, or with kind = layered its background alone."""
        spec = SaltModelSpec(
            c_top=self["model", "c_top"], c_bottom=self["model", "c_bottom"],
            domes=self["model", "domes"] if self["model", "kind"] == "salt" else (),
            c_min=self["model", "c_min"], c_max=self["model", "c_max"],
        )
        grid = Grid2D(
            nx=self["grid", "nx"], nz=self["grid", "nz"],
            hx=self["grid", "hx"], hz=self["grid", "hz"],
            x0=self["grid", "x0"], z0=self["grid", "z0"],
        )
        return add_model_noise(make_salt_model(spec, grid), self["model", "noise_percent"], seed)

    @_config_values
    def load_model(self, relpath: str) -> Model:
        path = self.resolve(relpath)
        if not path.is_file():
            raise FileNotFoundError(f"model file not found: {path}")
        field = fileio.read_field(path)
        if np.any(field.values <= 0.0):
            raise FieldFileError(f"{path}: squared slowness must be strictly positive")
        return Model(field=field, c_min=self["model", "c_min"], c_max=self["model", "c_max"])

    @_config_values
    def inversion(self) -> InversionConfig:
        nodal = self["inversion", "nodal"]
        return InversionConfig(
            frequencies=self["data", "frequencies"], n_iter=self["inversion", "n_iter"],
            n_schedule=() if nodal else self["inversion", "n_schedule"],
            spec=None if nodal else self.diffusion_spec(),
        )

    @_config_values
    def dataset(self) -> FrequencyDataset:
        """The [data] path dataset; a ConfigError unless it holds every
        configured frequency."""
        path = self.resolve(self["data", "path"])
        if not path.is_dir():
            raise FileNotFoundError(f"dataset directory not found: {path}")
        dataset = load_dataset(path)
        for freq in self["data", "frequencies"]:
            dataset.frequency_index(freq)  # raises GridError for a missing one
        return dataset


# ---------------------------------------------------------------------------
# commands


def _synthesize(cfg: RunConfig, model: Model, seed: int) -> tuple[FrequencyDataset, Path]:
    """Data for `model` over the configured acquisition and frequencies, with
    noise seeded by seed + 1 when [data] snr_db is set, saved to
    <output dir>/dataset.  Returns the dataset and the output directory."""
    snr_db = cfg["data", "snr_db"]
    ds = generate_data(model, cfg.acquisition(model.grid), cfg["data", "frequencies"])
    if snr_db is not None:
        ds = add_data_noise(ds, snr_db, seed + 1)
    out = fileio.ensure_dir(cfg.resolve(cfg["output", "dir"]))
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
    ds, out = _synthesize(cfg, cfg.load_model(cfg["model", "path"]), seed)
    print(f"forward: wrote {ds.n_frequencies}-frequency dataset to {out}")
    return EXIT_OK


def cmd_decompose(cfg: RunConfig, seed: int) -> int:
    """Sweep [spec] beta_list for one η and write decomposition_report.csv
    (also printed): a header line `beta,err_N<n>,...`; one row per β with
    the relative error at each N of [spec] n_list, every cell `failed` for
    a β whose basis could not be built; one `best_N<n> = <error> at beta =
    <β>` line per N, the first β winning a tie.  recon_N<n>.ewf and .pgm
    come from that best β's basis.  One basis is alive at a time; when
    every β fails, EigenSolveError is raised before anything is written.
    """
    model = cfg.load_model(cfg["model", "path"])
    kind = cfg["spec", "eta"]
    n_list = cfg["spec", "n_list"]
    lines = ["beta" + "".join(f",err_N{n}" for n in n_list)]
    best = {}  # n -> (error, beta, reconstruction)
    for beta in cfg.beta_list(kind):
        # an extreme scaling can make the diffusion LU singular or defeat the
        # eigensolver's residual contract; such a beta drops out of the sweep
        # instead of killing it
        try:
            basis = build_basis(model.field, DiffusionSpec(kind=kind, beta=beta), max(n_list))
        except (DiffusionError, EigenSolveError):
            lines.append(f"{beta:.17g}" + ",failed" * len(n_list))
            continue
        recons = [reconstruct(project(model.field, basis, n)) for n in n_list]
        del basis  # freed before the next beta's build
        errors = [relative_error(model.field, recon) for recon in recons]
        lines.append(f"{beta:.17g}" + "".join(f",{e:.17g}" for e in errors))
        for n, err, recon in zip(n_list, errors, recons):
            if n not in best or err < best[n][0]:
                best[n] = (err, beta, recon)
    if not best:
        raise EigenSolveError(f"every beta in the sweep failed for {kind}")
    lines += [f"best_N{n} = {best[n][0]:.17g} at beta = {best[n][1]:.17g}" for n in n_list]

    out = fileio.ensure_dir(cfg.resolve(cfg["output", "dir"]))
    report = "\n".join(lines) + "\n"
    (out / "decomposition_report.csv").write_text(report, encoding="ascii")
    print(report, end="")
    for n, (_, _, recon) in best.items():
        fileio.write_field(out / f"recon_N{n:04d}.ewf", recon)
        fileio.write_pgm(out / f"recon_N{n:04d}.pgm", recon)
    return EXIT_OK


def cmd_invert(cfg: RunConfig, seed: int) -> int:
    config = cfg.inversion()
    dataset = cfg.dataset()
    m_start = cfg.load_model(cfg["model", "start_path"])
    final, history = run_inversion(config, dataset, m_start)
    out = fileio.ensure_dir(cfg.resolve(cfg["output", "dir"]))
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
    model = cfg.load_model(cfg["model", "path"])
    spec = cfg.diffusion_spec()
    n = max(cfg["spec", "n_list"])
    basis = build_basis(model.field, spec, n)
    out = fileio.ensure_dir(cfg.resolve(cfg["output", "dir"]))
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
