"""Fuzzed binary readers. Starting from one small valid file of each format,
every strict prefix and every file with 1-64 bytes appended must raise the
reader's module error, and single-bit flips must either load or raise only
that error: never struct.error, IndexError, OverflowError or a bare
ValueError."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrkit.annotation import AnnotationError, AnnotationParams, CgrDataset, read_dataset, write_dataset
from cgrkit.cgr import CgrGridParams
from cgrkit.geometry import GeometryError, PointCloud, frame_from_z, load_stl
from cgrkit.model import DecisionBank, ModelError, init_model, load_bank, save_bank
from cgrkit.pipeline import PipelineError, TrialRecord, read_trials, write_trials

GRID = CgrGridParams(n_angles=4, n_sections=2, section_depths=(0.01, 0.02))


def _write_dataset(path):
    rng = np.random.default_rng(1)
    frames = np.stack([np.column_stack([frame_from_z(rng.normal(size=3)), rng.normal(size=3)]) for _ in range(3)])
    params = AnnotationParams(surface_resolution=0.01, approach_directions=3, grid=GRID)
    write_dataset(CgrDataset(params, frames, rng.uniform(0.0, 0.05, (3, 2, 4, 2)), np.array([True, False, True]),
                             np.array([0, 0, 1], np.uint32), np.zeros(3, int)), path)


def _write_trials(path):
    rng = np.random.default_rng(2)
    write_trials([TrialRecord(rng.normal(size=(3, 4)), rng.uniform(0.0, 0.05, (2, 4, 2)), rng.normal(size=(3, 4)),
                              k, k % 2, 0.5) for k in range(3)], GRID, path)


def _write_bank(path):
    save_bank(DecisionBank({k: init_model(seed=k, input_dim=3, hidden=2) for k in range(2)}), path)


def _write_cloud(path):
    rng = np.random.default_rng(3)
    normals = rng.normal(size=(4, 3))
    PointCloud(rng.uniform(-1.0, 1.0, (4, 3)), normals / np.linalg.norm(normals, axis=1)[:, None]).save(path)


def _write_stl(path):
    records = [struct.pack("<12fH", 0, 0, 1, *corners, 0) for corners in
               ((0, 0, 0, 1, 0, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1, 0, 1, 1))]
    path.write_bytes(b"\0" * 80 + struct.pack("<I", len(records)) + b"".join(records))


# format -> (writer of the valid file, reader, the reader's module error)
FORMATS = {
    "dataset": (_write_dataset, read_dataset, AnnotationError),
    "trials": (_write_trials, lambda path: read_trials(GRID, path), PipelineError),
    "bank": (_write_bank, load_bank, ModelError),
    "cloud": (_write_cloud, PointCloud.load, GeometryError),
    "stl": (_write_stl, load_stl, GeometryError),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def valid(scratch):
    """Each format's valid file as bytes, checked to load."""
    blobs = {}
    for fmt, (write, read, _) in FORMATS.items():
        path = scratch / f"{fmt}.valid"
        write(path)
        read(path)
        blobs[fmt] = path.read_bytes()
    return blobs


@pytest.mark.parametrize("fmt", FORMATS)
def test_reader_rejects_every_strict_prefix(fmt, valid, scratch):
    _, read, error = FORMATS[fmt]
    blob = valid[fmt]
    path = scratch / f"{fmt}.prefix"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(error):
            read(path)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(tail=st.binary(min_size=1, max_size=64), bit=st.integers(0, 2**20))
def test_reader_fuzz(fmt, valid, scratch, tail, bit):
    """Appended bytes raise the module error; a flipped bit (its index taken
    modulo the file's bits) loads or raises only that error."""
    _, read, error = FORMATS[fmt]
    blob = valid[fmt]
    path = scratch / f"{fmt}.fuzz"
    path.write_bytes(blob + tail)
    with pytest.raises(error):
        read(path)
    flipped = bytearray(blob)
    bit %= 8 * len(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(flipped))
    try:
        read(path)
    except error:
        pass
