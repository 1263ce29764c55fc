import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave import fileio
from eigenwave.fileio import (
    MANIFEST_NAME,
    FieldFileError,
    read_field,
    write_field,
    write_pgm,
)
from eigenwave.grid import Grid2D, ScalarField


def test_zero_field_round_trip(tmp_path):
    g = Grid2D(nx=3, nz=3, hx=10.0, hz=10.0)
    f = ScalarField(g, np.zeros(9))
    write_field(tmp_path / "f.ewf", f)
    back = read_field(tmp_path / "f.ewf")
    assert back.grid == g
    np.testing.assert_array_equal(back.values, f.values)


def test_pi_is_bit_identical(tmp_path):
    g = Grid2D(nx=3, nz=3, hx=10.0, hz=10.0)
    vals = np.zeros(9)
    vals[4] = np.pi
    write_field(tmp_path / "f.ewf", ScalarField(g, vals))
    back = read_field(tmp_path / "f.ewf")
    assert back.values[4].tobytes() == np.float64(np.pi).tobytes()


def test_payload_size_mismatch(tmp_path):
    path = tmp_path / "bad.ewf"
    payload = np.zeros(8).tobytes()  # header promises 9 values
    path.write_bytes(b"EWF1 3 3 10 10 0 0\n" + payload)
    with pytest.raises(FieldFileError, match="size mismatch"):
        read_field(path)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.ewf"
    path.write_bytes(b"NOPE 3 3 10 10 0 0\n" + np.zeros(9).tobytes())
    with pytest.raises(FieldFileError):
        read_field(path)
    path.write_bytes(b"EWF1 3 3 10 10 0\n" + np.zeros(9).tobytes())
    with pytest.raises(FieldFileError):
        read_field(path)


@pytest.mark.parametrize(
    "header, payload, message",
    [
        (b"EWF1 2 3 10 10 0 0\n", np.zeros(6), "at least 3x3"),
        (b"EWF1 3 3 10 10 0 0\n", np.r_[np.zeros(8), np.nan], "finite"),
        (b"EWF1 3 3 inf 10 0 0\n", np.zeros(9), "spacings"),
        (b"EWF1 3 3 10 10 nan 0\n", np.zeros(9), "must be finite"),
    ],
    ids=["grid_too_small", "nan_payload", "inf_spacing", "nan_origin"],
)
def test_header_or_payload_the_grid_rejects(tmp_path, header, payload, message):
    path = tmp_path / "bad.ewf"
    path.write_bytes(header + payload.astype("<f8").tobytes())
    with pytest.raises(FieldFileError, match=message):
        read_field(path)


@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-12, 1.0, 1e9]))
@settings(max_examples=20, deadline=None)
def test_round_trip_is_bit_exact(tmp_path_factory, seed, scale):
    rng = np.random.default_rng(seed)
    g = Grid2D(nx=5, nz=4, hx=12.5, hz=7.25, x0=-3.0, z0=11.0)
    vals = scale * rng.standard_normal(20)
    f = ScalarField(g, vals)
    path = tmp_path_factory.mktemp("rt") / "f.ewf"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == g
    assert back.values.tobytes() == f.values.tobytes()


def test_pgm_quicklook(tmp_path):
    g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
    f = ScalarField(g, np.linspace(0.0, 1.0, 12))
    path = tmp_path / "f.pgm"
    write_pgm(path, f)
    raw = path.read_bytes()
    header, data = raw.split(b"255\n", 1)
    assert header == b"P5\n4 3\n"
    assert len(data) == 12
    assert data[0] == 0 and data[-1] == 255


def test_pgm_constant_field(tmp_path):
    g = Grid2D(nx=3, nz=3, hx=1.0, hz=1.0)
    write_pgm(tmp_path / "c.pgm", ScalarField(g, np.full(9, 7.0)))
    data = (tmp_path / "c.pgm").read_bytes().split(b"255\n", 1)[1]
    assert set(data) == {0}


def test_failed_write_leaves_old_file(tmp_path, monkeypatch):
    g = Grid2D(nx=4, nz=3, hx=1.0, hz=1.0)
    path = tmp_path / "f.ewf"
    write_field(path, ScalarField(g, np.arange(12.0)))
    before = path.read_bytes()
    writes = []

    class FailsOnPayload:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise OSError("disk full")
            self.fh.write(data)

    atomic_open = fileio.atomic_open

    @contextmanager
    def failing_open(p):
        with atomic_open(p) as fh:
            yield FailsOnPayload(fh)

    monkeypatch.setattr(fileio, "atomic_open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        write_field(path, ScalarField(g, -np.arange(12.0)))
    assert [p.name for p in tmp_path.iterdir()] == ["f.ewf"]
    assert path.read_bytes() == before


def test_new_archive_replaces_the_whole_directory(tmp_path):
    root = tmp_path / "archive"
    root.mkdir()  # an empty directory may be replaced
    with fileio.new_archive(root) as new:
        fileio.write_manifest(new, {"k": 1.5}, {"xs": ["1 2", "3"], "ys": []})
        (new / "payload.bin").write_bytes(b"old")
    assert fileio.read_manifest(root, ("k",), ("xs", "ys")) == {
        "k": "1.5", "xs": ["1 2", "3"], "ys": []
    }
    with fileio.new_archive(root) as new:
        fileio.write_manifest(new, {"k": 2}, {})
    assert [p.name for p in root.iterdir()] == [MANIFEST_NAME]
    assert fileio.read_manifest(root, ("k",)) == {"k": "2"}
    assert [p.name for p in tmp_path.iterdir()] == ["archive"]


@pytest.mark.parametrize("kind", ["directory", "file"])
def test_new_archive_refuses_what_is_not_an_archive(tmp_path, kind):
    target = tmp_path / "out"
    if kind == "directory":
        target.mkdir()
        (target / "notes.txt").write_text("keep")
    else:
        target.write_text("keep")
    with pytest.raises(FieldFileError, match="not an archive"):
        with fileio.new_archive(target):
            pytest.fail("nothing may be written")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (target / "notes.txt" if kind == "directory" else target).read_text() == "keep"


def test_failed_swap_restores_the_old_archive(tmp_path, monkeypatch):
    root = tmp_path / "archive"
    with fileio.new_archive(root) as new:
        fileio.write_manifest(new, {"k": 1}, {})
    rename, calls = os.rename, []

    def second_rename_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:  # the new archive into place
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", second_rename_fails)
    with pytest.raises(OSError, match="rename failed"):
        with fileio.new_archive(root) as new:
            fileio.write_manifest(new, {"k": 2}, {})
    assert len(calls) == 3
    assert fileio.read_manifest(root, ("k",)) == {"k": "1"}
    assert [p.name for p in tmp_path.iterdir()] == ["archive"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("k = 1\nj = 2\nxs =\n", "unrecognized line 'j = 2'"),
        ("k = 1\n  3\nxs =\n", "unrecognized line '  3'"),  # an entry outside a list
        ("k = 1\nxs = 4\n", "unrecognized line 'xs = 4'"),  # a list header with a value
        ("xs =\n  1\n", "missing 'k ='"),
        ("k = 1\n", "missing 'xs ='"),
        ("k = 1\nk = 2\nxs =\n", "repeated 'k =' line"),
        ("k = 1\nxs =\n  1\nxs =\n  2\n", "repeated 'xs =' line"),
    ],
)
def test_read_manifest_rejects(tmp_path, text, message):
    (tmp_path / MANIFEST_NAME).write_text(text)
    with pytest.raises(FieldFileError, match=message):
        fileio.read_manifest(tmp_path, ("k",), ("xs",))


def test_read_payload_checks_its_size(tmp_path):
    path = tmp_path / "p.f64"
    fileio.write_payload(path, np.arange(6.0).reshape(2, 3), "<f8")
    assert fileio.read_payload(path, "<f8", (2, 3)).tolist() == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(FieldFileError, match="48 bytes, but \\(3, 3\\) <f8 values need 72"):
        fileio.read_payload(path, "<f8", (3, 3))
