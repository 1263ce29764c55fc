import re
from dataclasses import replace

import numpy as np
import pytest

from eigenwave import fileio
from eigenwave.dataset import TRACES_NAME, FrequencyDataset, load_dataset, save_dataset
from eigenwave.fileio import MANIFEST_NAME, FieldFileError
from eigenwave.grid import GridError
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


def drop_first_entry(name):
    """Manifest edit that drops the first entry of the list `name`."""

    def edit(lines):
        first = lines.index(f"{name} =") + 1
        return lines[:first] + lines[first + 1:]

    return edit


def test_round_trip_is_bit_exact(saved):
    ds, root = saved
    back = load_dataset(root)
    assert back.acquisition == ds.acquisition
    assert back.frequencies == ds.frequencies
    assert back.snr_db == ds.snr_db
    assert back.data.tobytes() == ds.data.tobytes()


def test_dropped_frequency_line_rejected(saved):
    _, root = saved
    edit_manifest(root, drop_first_entry("frequencies"))
    with pytest.raises(FieldFileError, match=TRACES_NAME):
        load_dataset(root)


def test_extra_frequency_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l + "\n  11.0" if l == "  9.0" else l for l in lines])
    with pytest.raises(FieldFileError, match=TRACES_NAME):
        load_dataset(root)


@pytest.mark.parametrize("name", ["sources", "receivers"])
def test_dropped_list_line_rejected(saved, name):
    _, root = saved
    edit_manifest(root, drop_first_entry(name))
    with pytest.raises(FieldFileError, match=TRACES_NAME):
        load_dataset(root)


def test_frequency_line_without_spaces_loads(saved):
    ds, root = saved
    edit_manifest(root, lambda lines: [re.sub(" ?= ?", "=", l) for l in lines])
    back = load_dataset(root)
    assert back.frequencies == ds.frequencies
    assert back.data.tobytes() == ds.data.tobytes()


def test_malformed_frequency_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l + " Hz" if l == "  7.0" else l for l in lines])
    with pytest.raises(FieldFileError, match="malformed"):
        load_dataset(root)


def test_missing_list_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l for l in lines if l != "receivers ="])
    with pytest.raises(FieldFileError, match="missing 'receivers ='"):
        load_dataset(root)


def test_repeated_manifest_line_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: lines + ["snr_db = 10.0"])
    with pytest.raises(FieldFileError, match="repeated 'snr_db =' line"):
        load_dataset(root)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_traces_rejected(saved, bad):
    ds, root = saved
    data = ds.data.copy()
    data[1, 0, 2] = bad
    with pytest.raises(GridError, match="finite"):
        replace(ds, data=data)
    (root / TRACES_NAME).write_bytes(data.astype("<c16").tobytes())
    with pytest.raises(FieldFileError, match="finite"):
        load_dataset(root)


@pytest.mark.parametrize(
    "old, new", [("  7.0", "  nan"), ("  7.0", "  -7.0"), ("  9.0", "  6.0")],
    ids=["nan", "negative", "decreasing"],
)
def test_bad_frequency_rejected(saved, old, new):
    _, root = saved
    edit_manifest(root, lambda lines: [new if l == old else l for l in lines])
    with pytest.raises(FieldFileError, match="malformed: frequencies .* finite and positive"):
        load_dataset(root)


@pytest.mark.parametrize("freqs", [(5.0, float("inf"), 9.0), (0.0, 7.0, 9.0), (5.0, 5.0, 9.0)])
def test_dataset_rejects_bad_frequencies(saved, freqs):
    ds, _ = saved
    with pytest.raises(GridError, match="increasing"):
        replace(ds, frequencies=freqs)


@pytest.mark.parametrize("block", [np.s_[:2], np.s_[:, :1], np.s_[:, :, 1:], np.s_[0]])
def test_dataset_rejects_block_of_wrong_shape(saved, block):
    ds, _ = saved
    with pytest.raises(GridError, match=re.escape("data must have shape (3, 2, 3)")):
        replace(ds, data=ds.data[block])


def test_mixed_source_depths_rejected(saved):
    _, root = saved
    edit_manifest(root, lambda lines: [l.replace("  30.0 20.0 ", "  30.0 25.0 ") for l in lines])
    with pytest.raises(FieldFileError, match="single depth"):
        load_dataset(root)


def test_resave_with_fewer_frequencies_leaves_no_stale_file(saved):
    ds, root = saved
    one = replace(ds, frequencies=(7.0,), data=ds.data[1:2], snr_db=None)
    save_dataset(root, one)
    assert {p.name for p in root.iterdir()} == {MANIFEST_NAME, TRACES_NAME}
    assert [p.name for p in root.parent.iterdir()] == [root.name]
    back = load_dataset(root)
    assert back.frequencies == (7.0,) and back.snr_db is None
    assert back.data.tobytes() == ds.data[1:2].tobytes()


@pytest.mark.parametrize("writer", ["write_payload", "write_manifest"])
def test_failed_write_keeps_old_archive(saved, monkeypatch, writer):
    ds, root = saved
    before = {p.name: p.read_bytes() for p in root.iterdir()}

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(fileio, writer, disk_full)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(root, replace(ds, frequencies=(7.0,), data=ds.data[1:2]))
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    assert [p.name for p in root.parent.iterdir()] == [root.name]
    assert load_dataset(root).data.tobytes() == ds.data.tobytes()
