"""Fuzzed file readers, each starting from one small valid file.

Binary formats: every strict prefix and every file with 1-64 bytes appended
must raise the reader's module error, and single-bit flips must either load
or raise only that error: never struct.error, IndexError, OverflowError or a
bare ValueError.

Text formats (.obj, .scene, .hand): every prefix, deleted and duplicated
tokens and nan, inf, 1e999, 1e200 or 30-digit integers in any field must
load or raise only the module error, without a warning; one byte that is not
UTF-8 raises the module error naming the file and line."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrkit.annotation import (
    AnnotationError,
    AnnotationParams,
    CgrDataset,
    compose_scene,
    read_dataset,
    write_dataset,
)
from cgrkit.cgr import CgrGridParams
from cgrkit.cli import UsageError, _read_config, _read_mesh_list
from cgrkit.geometry import GeometryError, PointCloud, frame_from_z, load_obj, load_stl
from cgrkit.hand import HandError, load_hand_spec
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


def test_bank_rejects_a_repeated_type_id(valid, scratch):
    """Two models under one grasp type id raise instead of losing one."""
    blob = bytearray(valid["bank"])
    half = (len(blob) - 12) // 2  # two models of one shape, each after its type id
    assert struct.unpack_from("<2I", blob, 8) == (2, 0) and struct.unpack_from("<I", blob, 12 + half) == (1,)
    struct.pack_into("<I", blob, 12 + half, 0)
    (scratch / "bank.repeated").write_bytes(bytes(blob))
    with pytest.raises(ModelError, match="repeated grasp type id 0"):
        load_bank(scratch / "bank.repeated")


# ---------------------------------------------------------------------------
# Text formats

TEXT_FILES = {
    "obj": "# tetrahedron\nv 0 0 0\nv 0.02 0 0\nv 0 0.02 0\nv 0 0 0.02  # apex\n"
           "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    "scene": "# one box on a table\nmesh box box.obj\ninstance box 1 0 0 0   0 0 0.01\n"
             "table 0 0 0   0 0 1  # flat\n",
    "hand": "name test hand\ngrasp_type 0\n  name pinch\n  approach 0 0 1\n  closing 1 0 0\n"
            "  max_close_travel 0.1\n  collision_mesh box.obj  # palm\n  fingertip 0.05 0 0  -1 0 0\n"
            "  fingertip -0.05 0 0  1 0 0\nend\n",
}
TEXT_READERS = {"obj": (load_obj, GeometryError), "scene": (compose_scene, AnnotationError),
                "hand": (load_hand_spec, HandError)}
# values put into a field: each is a number to float() and only some to int()
ODD_VALUES = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e200", "-1e200", "9" * 30, "-" + "9" * 30]


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    """A directory holding the valid files; box.obj is the mesh of the scene
    and the hand."""
    path = tmp_path_factory.mktemp("text")
    (path / "box.obj").write_text(TEXT_FILES["obj"])
    for fmt, (read, _) in TEXT_READERS.items():
        (path / f"valid.{fmt}").write_text(TEXT_FILES[fmt])
        read(path / f"valid.{fmt}")
    return path


def _load_or_raise(fmt, path):
    """Reads path as fmt: it loads or raises only the module error, and no
    warning is issued either way."""
    read, error = TEXT_READERS[fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            read(path)
        except error:
            pass


def _tokens(fmt):
    return [line.split() for line in TEXT_FILES[fmt].splitlines()]


def _edited(lines, index, edit):
    """lines with the token at flat position index deleted, duplicated or
    replaced by the value `edit`."""
    lines = [list(words) for words in lines]
    flat = [(i, j) for i, words in enumerate(lines) for j in range(len(words))]
    i, j = flat[index % len(flat)]
    if edit == "delete":
        del lines[i][j]
    elif edit == "duplicate":
        lines[i].insert(j, lines[i][j])
    else:
        lines[i][j] = edit
    return lines


@pytest.mark.parametrize("fmt", TEXT_READERS)
def test_text_reader_survives_every_prefix(fmt, text_dir):
    text = TEXT_FILES[fmt]
    path = text_dir / f"prefix.{fmt}"
    for cut in range(len(text)):
        path.write_text(text[:cut])
        _load_or_raise(fmt, path)


@pytest.mark.parametrize("fmt", TEXT_READERS)
def test_text_reader_survives_every_single_token_edit(fmt, text_dir):
    """Each token deleted, duplicated and replaced by each odd value."""
    lines = _tokens(fmt)
    path = text_dir / f"edit.{fmt}"
    for index in range(sum(map(len, lines))):
        for edit in ["delete", "duplicate", *ODD_VALUES]:
            path.write_text("\n".join(map(" ".join, _edited(lines, index, edit))) + "\n")
            _load_or_raise(fmt, path)


@pytest.mark.parametrize("fmt", TEXT_READERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(edits=st.lists(st.tuples(st.integers(0, 2**20), st.sampled_from(["delete", "duplicate", *ODD_VALUES])),
                      min_size=2, max_size=5))
def test_text_reader_fuzz(fmt, text_dir, edits):
    lines = _tokens(fmt)
    for index, edit in edits:
        if not any(lines):
            break
        lines = _edited(lines, index, edit)
    path = text_dir / f"fuzz.{fmt}"
    path.write_text("\n".join(map(" ".join, lines)) + "\n")
    _load_or_raise(fmt, path)


@pytest.mark.parametrize("fmt", TEXT_READERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(at=st.integers(0, 2**20), byte=st.integers(0x80, 0xFF))
def test_text_reader_names_the_line_of_a_byte_that_is_not_utf8(fmt, text_dir, at, byte):
    """A lone byte >= 0x80 among ASCII is never UTF-8: it raises the module
    error with the file and the line it is on."""
    blob = TEXT_FILES[fmt].encode()
    at %= len(blob) + 1
    path = text_dir / f"bytes.{fmt}"
    path.write_bytes(blob[:at] + bytes([byte]) + blob[at:])
    lineno = blob[:at].count(b"\n") + 1
    read, error = TEXT_READERS[fmt]
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value).startswith(f"{path}:{lineno}: ")


@pytest.mark.parametrize("fmt", TEXT_READERS)
def test_text_reader_rejects_a_byte_that_is_not_utf8(fmt, text_dir):
    lines = TEXT_FILES[fmt].encode().splitlines(keepends=True)
    lines[2] = lines[2].replace(b" ", b" \xff", 1)
    path = text_dir / f"latin.{fmt}"
    path.write_bytes(b"".join(lines))
    read, error = TEXT_READERS[fmt]
    with pytest.raises(error, match=rf"latin\.{fmt}:3: 'utf-8' codec can't decode byte 0xff"):
        read(path)


def test_obj_accepts_a_trailing_comment(text_dir):
    """'#' starts a comment on every OBJ line, as in the other text formats."""
    (text_dir / "comment.obj").write_text(TEXT_FILES["obj"].replace("f 2 3 4", "f 2 3 4 # last face"))
    got, want = load_obj(text_dir / "comment.obj"), load_obj(text_dir / "valid.obj")
    assert np.array_equal(got.vertices, want.vertices) and np.array_equal(got.triangles, want.triangles)


@pytest.mark.parametrize("index", [99999999999999999999999, -99999999999999999999999])
def test_obj_rejects_a_face_index_beyond_int64(text_dir, index):
    (text_dir / "huge.obj").write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {index}\n")
    with pytest.raises(GeometryError, match=r"huge\.obj:4: "):
        load_obj(text_dir / "huge.obj")


def test_cli_lists_name_the_line_of_a_byte_that_is_not_utf8(text_dir):
    (text_dir / "meshes.list").write_bytes(b"# meshes\nbox box.obj  # a box\nb\xffad box.obj\n")
    with pytest.raises(GeometryError, match=r"meshes\.list:3: "):
        _read_mesh_list(text_dir / "meshes.list")
    (text_dir / "c.cfg").write_bytes(b"epochs 5\nout \xff.bin\n")
    with pytest.raises(UsageError, match=r"c\.cfg:2: "):
        _read_config(text_dir / "c.cfg")


def test_mesh_list_reads_ids_paths_and_comments(text_dir):
    (text_dir / "ok.list").write_text("# meshes\nbox box.obj  # a box\n\ncopy box.obj\n")
    meshes = _read_mesh_list(text_dir / "ok.list")
    assert list(meshes) == ["box", "copy"]
    assert np.array_equal(meshes["copy"].triangles, load_obj(text_dir / "box.obj").triangles)
