import numpy as np
import pytest

from eigenwave.dataset import ACQ_NAME, MANIFEST_NAME, FrequencyDataset, load_dataset, save_dataset
from eigenwave.fileio import FieldFileError
from eigenwave.helmholtz import Acquisition


@pytest.fixture
def saved(tmp_path):
    rng = np.random.default_rng(4)
    acq = Acquisition(
        sources=((10.0, 20.0, 1.0), (30.0, 20.0, 0.5 - 0.25j)),
        receivers=((5.0, 10.0), (15.0, 10.0), (25.0, 10.0)),
    )
    shape = (3, acq.n_sources, acq.n_receivers)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ds = FrequencyDataset(acquisition=acq, frequencies=(5.0, 7.0, 9.0), data=data, snr_db=30.0)
    return ds, save_dataset(tmp_path / "ds", ds)


def edit_manifest(root, edit):
    path = root / MANIFEST_NAME
    lines = path.read_text(encoding="ascii").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="ascii")


def test_round_trip_is_bit_exact(saved):
    ds, root = saved
    back = load_dataset(root)
    assert back.acquisition == ds.acquisition
    assert back.frequencies == ds.frequencies
    assert back.snr_db == ds.snr_db
    assert back.data.tobytes() == ds.data.tobytes()


def test_dropped_frequency_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l for l in lines if not l.startswith("frequency = 7.0")])
    with pytest.raises(FieldFileError, match="n_frequencies"):
        load_dataset(root)


def test_frequency_line_without_spaces_loads(saved):
    ds, root = saved
    edit_manifest(root, lambda lines: [l.replace(" = ", "=") for l in lines])
    back = load_dataset(root)
    assert back.frequencies == ds.frequencies
    assert back.data.tobytes() == ds.data.tobytes()


def test_malformed_frequency_line_rejected(saved):
    _, root = saved
    edit_manifest(
        root, lambda lines: [l.replace(" file = ", " ") if "7.0" in l else l for l in lines]
    )
    with pytest.raises(FieldFileError, match="unrecognized line"):
        load_dataset(root)


@pytest.mark.parametrize(
    "line", ["n_frequencies = 4", "n_sources = 3", "n_receivers = 2"]
)
def test_count_mismatch_rejected(saved, line):
    _, root = saved
    key = line.split()[0]
    edit_manifest(root, lambda lines: [line if l.startswith(key) else l for l in lines])
    with pytest.raises(FieldFileError, match=key):
        load_dataset(root)


def test_missing_count_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l for l in lines if not l.startswith("n_receivers")])
    with pytest.raises(FieldFileError, match="missing 'n_receivers"):
        load_dataset(root)


def test_mixed_source_depths_rejected(saved):
    _, root = saved
    path = root / ACQ_NAME
    text = path.read_text(encoding="ascii")
    assert "  30.0 20.0 " in text
    path.write_text(text.replace("  30.0 20.0 ", "  30.0 25.0 "), encoding="ascii")
    with pytest.raises(FieldFileError, match="single depth"):
        load_dataset(root)


@pytest.mark.parametrize("name", ["absolute", "../outside.dat", ".."])
def test_trace_file_outside_archive_rejected(saved, name):
    _, root = saved
    outside = root.parent / "outside.dat"
    outside.write_bytes((root / "traces_0002.dat").read_bytes())  # a well-sized payload
    name = str(outside) if name == "absolute" else name
    edit_manifest(root, lambda lines: [l.replace("traces_0002.dat", name) for l in lines])
    with pytest.raises(FieldFileError, match="not a bare file name"):
        load_dataset(root)
