import csv

import numpy as np
import pytest

from cgrkit.annotation import AnnotationParams, annotate_scene, compose_scene, read_dataset, write_dataset
from cgrkit.cgr import CgrGridParams
from cgrkit.cli import _read_config, cli
from cgrkit.geometry import make_box, make_cylinder, save_obj
from cgrkit.model import load_bank
from cgrkit.pipeline import read_trials


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Meshes and scene files shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    save_obj(make_box((0.05, 0.05, 0.05)), root / "box.obj")
    save_obj(make_box((0.03, 0.03, 0.06)), root / "slim.obj")
    save_obj(make_cylinder(0.018, 0.055, segments=24), root / "cyl.obj")
    (root / "one.scene").write_text(
        "mesh box box.obj\n"
        "instance box 1 0 0 0   0 0 0.025\n"
        "table 0 0 0   0 0 1\n"
    )
    (root / "two.scene").write_text(
        "mesh box box.obj\n"
        "mesh slim slim.obj\n"
        "instance box 1 0 0 0   0 0 0.025\n"
        "instance slim 1 0 0 0   0.12 0 0.03\n"
        "table 0 0 0   0 0 1\n"
    )
    return root


FAST = ["--resolution", "0.0125", "--dirs", "12"]


# ---------------------------------------------------------------------------
# Config parsing and usage errors


def test_read_config(tmp_path):
    (tmp_path / "c.cfg").write_text(
        "# comment line\n"
        "epochs 5\n"
        "out  results.bin  # trailing comment\n"
        "\n"
        "hidden 16\n"
    )
    assert _read_config(tmp_path / "c.cfg") == {
        "epochs": "5",
        "out": "results.bin",
        "hidden": "16",
    }


def test_no_command_exits_1():
    assert cli([]) == 1


def test_unknown_command_exits_1():
    assert cli(["frobnicate"]) == 1


def test_missing_required_flag_exits_1(tmp_path):
    assert cli(["annotate", "--out", str(tmp_path / "o.bin")]) == 1


def test_bad_preset_exits_1(work, tmp_path):
    (tmp_path / "list.txt").write_text("box box.obj\n")
    assert (
        cli(
            ["coverage", "--train", str(tmp_path / "list.txt"),
             "--test", str(tmp_path / "list.txt"),
             "--out", str(tmp_path / "cov.csv"), "--preset", "medium"]
        )
        == 1
    )


def test_missing_scene_file_exits_2(tmp_path):
    assert (
        cli(["annotate", "--scene", str(tmp_path / "nope.scene"),
             "--out", str(tmp_path / "o.bin")])
        == 2
    )


def test_short_scene_line_exits_2(work, tmp_path):
    (tmp_path / "short.scene").write_text(f"mesh box {work / 'box.obj'}\ninstance box 1 0 0\n")
    assert cli(["annotate", "--scene", str(tmp_path / "short.scene"), "--out", str(tmp_path / "o.bin")]) == 2


def test_truncated_mesh_exits_2(tmp_path):
    (tmp_path / "short.stl").write_bytes(b"\0" * 40)
    (tmp_path / "list.txt").write_text("short short.stl\n")
    assert (
        cli(["coverage", "--train", str(tmp_path / "list.txt"),
             "--test", str(tmp_path / "list.txt"), "--out", str(tmp_path / "cov.csv")])
        == 2
    )


def test_missing_trials_file_exits_2(tmp_path):
    assert (
        cli(["train", "--trials", str(tmp_path / "nope.bin"),
             "--out", str(tmp_path / "bank.bin")])
        == 2
    )


# ---------------------------------------------------------------------------
# End-to-end command chain


def test_annotate_command(work, capsys):
    out = work / "one.ds"
    assert cli(["annotate", "--scene", str(work / "one.scene"),
                "--out", str(out)] + FAST) == 0
    assert "annotated" in capsys.readouterr().out
    ds = read_dataset(out)
    assert len(ds.records) > 0
    assert ds.valid.any()


def test_annotate_defaults_are_the_library_defaults(tmp_path):
    """Given only --scene and --out, annotate writes what AnnotationParams()
    gives; the dataset header records every annotation parameter."""
    save_obj(make_box((0.002, 0.002, 0.002)), tmp_path / "bead.obj")
    scene = tmp_path / "bead.scene"
    scene.write_text("mesh bead bead.obj\ninstance bead 1 0 0 0   0 0 0.1\ntable 0 0 0   0 0 1\n")
    assert cli(["annotate", "--scene", str(scene), "--out", str(tmp_path / "cli.ds")]) == 0
    ds = annotate_scene(compose_scene(scene), AnnotationParams())
    assert ds.valid.any()
    write_dataset(ds, tmp_path / "lib.ds")
    assert (tmp_path / "cli.ds").read_bytes() == (tmp_path / "lib.ds").read_bytes()


def test_collect_train_detect_eval_chain(work, capsys):
    trials_path = work / "trials.bin"
    assert (
        cli(["collect",
             "--scenes", f"{work / 'one.scene'},{work / 'two.scene'}",
             "--hand", "archetype3",
             "--count", "60",
             "--out", str(trials_path)] + FAST)
        == 0
    )
    records = read_trials(CgrGridParams(), trials_path)
    assert len(records) == 60

    bank_path = work / "bank.bin"
    assert (
        cli(["train", "--trials", str(trials_path),
             "--epochs", "2", "--hidden", "16",
             "--out", str(bank_path)])
        == 0
    )
    bank = load_bank(bank_path)
    assert sorted(bank.models) == [0, 1, 2, 3]

    grasps_path = work / "grasps.csv"
    assert (
        cli(["detect", "--scene", str(work / "two.scene"),
             "--hand", "archetype3", "--bank", str(bank_path),
             "--top_cgr", "20",
             "--out", str(grasps_path)] + FAST)
        == 0
    )
    with open(grasps_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) > 0
    for row in rows:
        assert row["type_id"] in {"0", "1", "2", "3"}
        assert 0.0 <= float(row["decision_score"]) <= 1.0
        # pose rotation column sanity
        R = np.array([[float(row[f"r{i}{j}"]) for j in range(3)] for i in range(3)])
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-5)
    # the removed decision threshold: a config key is ignored, the flag is unknown
    cfg = work / "detect.cfg"
    cfg.write_text("threshold 0.95\n")
    again = ["detect", "--scene", str(work / "two.scene"), "--hand", "archetype3", "--bank", str(bank_path),
             "--top_cgr", "20", "--out", str(work / "again.csv")] + FAST
    assert cli(again + ["--config", str(cfg)]) == 0
    assert (work / "again.csv").read_text() == grasps_path.read_text()
    assert cli(again + ["--threshold", "0.95"]) == 1

    # the baseline leaves the decision column empty
    base_path = work / "grasps_base.csv"
    assert (
        cli(["detect", "--scene", str(work / "two.scene"),
             "--hand", "archetype3", "--top_cgr", "20",
             "--out", str(base_path)] + FAST)
        == 0
    )
    with open(base_path) as f:
        rows = list(csv.DictReader(f))
    assert rows and all(row["decision_score"] == "" for row in rows)

    eval_path = work / "eval.csv"
    assert (
        cli(["eval", "--scenes", str(work / "two.scene"),
             "--hand", "archetype3", "--policy", "baseline",
             "--out", str(eval_path)] + FAST)
        == 0
    )
    lines = eval_path.read_text().strip().splitlines()
    assert lines[0] == "attempts,successes,success_rate"
    attempts, successes, _rate = lines[1].split(",")
    assert 0 < int(attempts) <= 4  # 2x object budget on a 2-object scene
    assert 0 <= int(successes) <= int(attempts)
    # per-type frequency block sums to one
    header_idx = lines.index("type_id,attempts,successes,frequency")
    freq_sum = sum(float(ln.split(",")[3]) for ln in lines[header_idx + 1 :])
    assert abs(freq_sum - 1.0) < 1e-6


def test_config_file_supplies_defaults(work, tmp_path, capsys):
    """A config file fills in flags; explicit flags win."""
    out = tmp_path / "cfg.ds"
    cfg = tmp_path / "annotate.cfg"
    cfg.write_text(
        f"scene {work / 'one.scene'}\n"
        "resolution 0.025\n"
        "dirs 12\n"
        f"out {tmp_path / 'ignored.ds'}\n"
    )
    assert cli(["annotate", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "ignored.ds").exists()
    coarse = read_dataset(out)
    # the coarser config resolution yields fewer frames than FAST runs
    fine = read_dataset(work / "one.ds")
    assert 0 < len(coarse.records) < len(fine.records)
