import pytest

from eigenwave.cli import EXIT_IO, EXIT_OK, main
from eigenwave.dataset import MANIFEST_NAME
from eigenwave.fileio import read_field, write_field
from eigenwave.grid import Grid2D
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


def write_config(path, body):
    path.write_text(GRID + ACQUISITION + body, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(
        root / "synth.ini",
        """\
[model]
kind = salt
c_top = 1500
c_bottom = 2000
c_min = 800
c_max = 5000
domes = 600,300,200,100,2400

[data]
frequencies = 4 5 6
snr_db = 40

[output]
dir = synth
""",
    )
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
    assert lines[0].endswith(",n_backtracks,was_reset,n_factor")
    assert len(lines) == 1 + 3 * 3  # entry plus two steps per block
    final = read_field(synth_dir / "inv" / "final_model.ewf")
    assert final.grid == Grid2D(nx=24, nz=12, hx=50.0, hz=50.0)


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
            text = "\n".join(l for l in lines if not l.startswith("frequency = 5.0")).encode()
        (bad / path.name).write_bytes(text)
    cfg = invert_config(synth_dir, "bad_dataset", "inv_bad")
    assert main(["invert", "--config", cfg]) == EXIT_IO
