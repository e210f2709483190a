"""Command-line interface.

Subcommands: annotate, coverage, collect, train, detect, eval. Every flag
maps to one config-file key; a config file supplies defaults and explicit
flags override it. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import bundled_hand_path
from .annotation import AnnotationParams, annotate_scene, compose_scene, write_dataset
from .cgr import CgrGridParams
from .coverage import coverage_curve, dense_params, sparse_params, write_coverage_csv
from .geometry import GeometryError, _read_lines, load_mesh
from .hand import load_hand_spec
from .model import DecisionBank, TrainConfig, load_bank, save_bank, train
from .pipeline import (
    CollectionConfig,
    DetectionConfig,
    collect,
    detect,
    detect_baseline,
    evaluate,
    read_trials,
    trials_to_training_data,
    write_trials,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_config(path) -> dict:
    """key value lines."""
    out = {}

    def parse(line):
        key, _, value = line.partition(" ")
        out[key.strip()] = value.strip()

    _read_lines(path, parse, UsageError)
    return out


def _merged(args) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    merged = {}
    if args.config:
        merged.update(_read_config(args.config))
    for key, val in vars(args).items():
        if val is not None:
            merged[key] = val
    return merged


def _require(merged: dict, *keys):
    for key in keys:
        if key not in merged or merged[key] in (None, ""):
            raise UsageError(f"missing required flag --{key}")
    return [merged[k] for k in keys]


def _given(merged: dict, **fields) -> dict:
    """Keyword arguments from the flags that were given, as flag=(name, type);
    a flag not given leaves the library's default in place."""
    return {name: kind(merged[flag]) for flag, (name, kind) in fields.items() if flag in merged}


def _resolve_hand(path_or_name: str):
    try:
        return load_hand_spec(path_or_name)
    except FileNotFoundError:
        return load_hand_spec(bundled_hand_path(path_or_name))


def _read_mesh_list(path) -> dict:
    """Lines of '<id> <mesh path>' (paths relative to the list file)."""
    base = os.path.dirname(os.path.abspath(path))
    out = {}

    def parse(line):
        oid, _, mesh_path = line.partition(" ")
        out[oid] = load_mesh(os.path.join(base, mesh_path.strip()))

    _read_lines(path, parse, GeometryError)
    return out


def _annotation_params(merged: dict) -> AnnotationParams:
    return AnnotationParams(**_given(
        merged,
        resolution=("surface_resolution", float),
        dirs=("approach_directions", int),
        cyl_radius=("cylinder_radius", float),
        cyl_length=("cylinder_length", float),
    ))


def _write_grasp_csv(path, candidates):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["rank", "type_id", "decision_score", "antipodal_score"]
            + [f"r{i}{j}" for i in range(3) for j in range(3)]
            + ["tx", "ty", "tz"]
        )
        for rank, c in enumerate(candidates):
            pose = list(c.pose[:, :3].reshape(9)) + list(c.pose[:, 3])
            writer.writerow(
                [rank, c.grasp_type_id,
                 "" if c.decision_score is None else f"{c.decision_score:.6f}",
                 f"{c.antipodal_score:.6f}"]
                + [f"{v:.8f}" for v in pose]
            )


def _cmd_annotate(merged: dict) -> int:
    scene_path, out = _require(merged, "scene", "out")
    params = _annotation_params(merged)
    scene = compose_scene(scene_path)
    ds = annotate_scene(scene, params)
    write_dataset(ds, out)
    print(f"annotated {len(ds)} CGRs ({int(ds.valid.sum())} valid) -> {out}")
    return 0


def _cmd_coverage(merged: dict) -> int:
    train_list, test_list, out = _require(merged, "train", "test", "out")
    preset = merged.get("preset", "dense")
    if preset not in ("dense", "sparse"):
        raise UsageError("--preset must be 'dense' or 'sparse'")
    params = dense_params() if preset == "dense" else sparse_params()
    rows = coverage_curve(
        _read_mesh_list(train_list),
        _read_mesh_list(test_list),
        train_params=params,
        **_given(merged, tau=("tau", float), seed=("seed", int)),
    )
    write_coverage_csv(rows, out)
    print(f"coverage for {len(rows)} test objects -> {out}")
    return 0


def _cmd_collect(merged: dict) -> int:
    scene_paths, hand_name, out = _require(merged, "scenes", "hand", "out")
    hand = _resolve_hand(hand_name)
    params = _annotation_params(merged)
    annotated = []
    for path in scene_paths.split(","):
        scene = compose_scene(path)
        annotated.append((scene, annotate_scene(scene, params)))
    config = CollectionConfig(**_given(merged, count=("target_size", int), seed=("seed", int)))
    records = collect(config, annotated, hand)
    write_trials(records, params.grid, out)
    successes = sum(r.outcome for r in records)
    print(f"collected {len(records)} trials ({successes} successes) -> {out}")
    return 0


def _cmd_train(merged: dict) -> int:
    trials_path, out = _require(merged, "trials", "out")
    grid = CgrGridParams()
    records = read_trials(grid, trials_path)
    if not records:
        raise ValueError("no trial records")
    config = TrainConfig(**_given(merged, epochs=("epochs", int), seed=("seed", int), hidden=("hidden", int)))
    models = {}
    for type_id, (feats, labels) in trials_to_training_data(records).items():
        sub, logs = train(feats, labels, config)
        models[type_id] = sub
        print(f"type {type_id}: {len(labels)} samples, final loss {logs[-1].mean_loss:.4f}")
    save_bank(DecisionBank(models), out)
    print(f"saved decision bank ({len(models)} sub-models) -> {out}")
    return 0


def _cmd_detect(merged: dict) -> int:
    scene_path, hand_path, out = _require(merged, "scene", "hand", "out")
    scene = compose_scene(scene_path)
    hand = _resolve_hand(hand_path)
    params = _annotation_params(merged)
    config = DetectionConfig(**_given(merged, top_cgr=("top_cgr", int), top_candidates=("top_candidates", int)))
    if merged.get("bank"):
        bank = load_bank(merged["bank"])
        ranked = detect(scene, hand, bank, config, annotation=params)
    else:
        ranked = detect_baseline(scene, hand, config, annotation=params, **_given(merged, seed=("seed", int)))
    _write_grasp_csv(out, ranked)
    print(f"{len(ranked)} grasps -> {out}")
    return 0


def _cmd_eval(merged: dict) -> int:
    scene_paths, hand_name, out = _require(merged, "scenes", "hand", "out")
    hand = _resolve_hand(hand_name)
    policy = merged.get("policy", "detect")
    bank = load_bank(merged["bank"]) if merged.get("bank") else None
    params = _annotation_params(merged)
    scenes = [compose_scene(p) for p in scene_paths.split(",")]
    stats = evaluate(policy, scenes, hand, bank, annotation=params,
                     **_given(merged, friction=("eval_friction", float), seed=("seed", int)))
    rate = stats.success_rate
    with open(out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["attempts", "successes", "success_rate"])
        writer.writerow([stats.attempts, stats.successes, "n/a" if rate is None else f"{rate:.4f}"])
        writer.writerow([])
        writer.writerow(["type_id", "attempts", "successes", "frequency"])
        freqs = stats.type_frequencies()
        for t in sorted(stats.per_type_attempts):
            writer.writerow(
                [t, stats.per_type_attempts[t], stats.per_type_successes.get(t, 0), f"{freqs[t]:.6f}"]
            )
    print(f"success rate: {'n/a' if rate is None else f'{rate:.3f}'} -> {out}")
    return 0


_COMMANDS = {
    "annotate": _cmd_annotate,
    "coverage": _cmd_coverage,
    "collect": _cmd_collect,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="cgrkit", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, *flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        for flag in flags:
            p.add_argument(f"--{flag}")
        return p

    add("annotate", "scene", "out", "resolution", "dirs", "cyl_radius", "cyl_length")
    # annotation is deterministic; every other command draws from --seed
    for p in (
        add("coverage", "train", "test", "preset", "tau", "out"),
        add("collect", "scenes", "hand", "count", "out", "resolution", "dirs"),
        add("train", "trials", "out", "epochs", "hidden"),
        add("detect", "scene", "hand", "bank", "out", "top_cgr", "top_candidates", "resolution", "dirs"),
        add("eval", "scenes", "hand", "bank", "policy", "friction", "out", "resolution", "dirs"),
    ):
        p.add_argument("--seed", type=int)
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](_merged(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
