"""Print the sha256 of the files one benchmark round writes and of the grasps
it returns.

Runs one `perfbench.workloads.run_round` of a workload, the first measured
round of `perfbench/run.py --seed N` (round seed N * 1000), and prints:

- the sha256 of the dataset, trial and bank files it wrote;
- the sha256 of its coverage pool (every patch's points bytes, in pool
  order), one over every pool patch's `source_pose` bytes and
  `source_object` name, and the coverage verdicts of its two checked
  probes;
- one sha256 over every `is_covered` verdict of the round, with their count;
- one sha256 over every grasp list that `detect` and `detect_baseline`
  returned in the round, each written through the CLI's grasp CSV writer;
- one sha256 over the sequence of grasp-oracle outcomes, with their count;
- one sha256 over every `EvalStats` that `evaluate` returned in the round
  (attempts, successes and the per-type attempt and success counts), in
  call order, with the call, attempt and success counts;
- one sha256 over the `valid` mask of every `annotate_scene` call of the
  round (the written dataset's and the warm calls of detect and evaluate),
  with the call count and the valid and total record counts. `evaluate`
  annotates each scene state once, not once per attempt, so this call count
  is lower than that of a version that re-annotated the state after every
  failed attempt (`loop` seed 7: 19 calls against 36) while every other
  line stays the same;
- one sha256 over the `(t, tri)` record of every ray that a
  `ray_intersect_batch` call casts and the result of every `ray_intersect`
  call of the round, in cast order, with the call and ray counts. Batch
  records are hashed ray by ray, so re-chunking the same casts into other
  calls changes the call count but not the digest. The class methods are
  rebound, as perfbench's `RaySampler` rebinds `ray_intersect`, so every
  cast counts: the pool-sampling, render and fingertip casts, which no file
  digest covers, and the CGR grids that `cgr_grids` casts ray by ray;
- one sha256 over every `cgr_grids` result of the round, with the call and
  frame counts: the grids of records that the approach filter invalidates
  and of the coverage pool's frames, whichever query cast them. `cgr_grids`
  is rebound in `cgr` (for `compute_cgr`), `annotation` and `coverage`,
  each of which holds its own name for it.

Two checkouts that print the same lines wrote byte-identical files, sampled
bit-identical pools at the same poses, judged every coverage probe alike,
returned the same grasps to the CSV's printed precision, judged every
executed grasp alike, scored every evaluation alike, kept the same records
through the approach filter, computed the same CGR grids and got the same
hit from every ray cast.

Run from the repo root:  python3 tools/file_digests.py --workload loop --seed 7
"""

import argparse
import hashlib
import os
import sys
import tempfile

# the benchmark pins BLAS to one thread before numpy loads; so does this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
import numpy as np  # noqa: E402
from cgrkit import annotation, cgr, cli, coverage, geometry, pipeline  # noqa: E402


def _recorded_round(spec, seed: int, workdir: str):
    """run_round with pipeline.detect, detect_baseline, grasp_oracle and
    evaluate, coverage.is_covered, annotate_scene (in `annotation`, where the
    benchmark calls it, and in `pipeline`, where evaluate calls it) and
    TriangleMesh.ray_intersect_batch and ray_intersect, and cgr_grids (in
    `cgr`, `annotation` and `coverage`) rebound to recorders; returns the
    round, the grasp-CSV digest and count, the oracle outcomes, the
    evaluation results, the coverage verdicts, the valid masks, the cast
    digest, call count and ray count, and the grid digest, call count and
    frame count."""
    grasps, outcomes, evals, verdicts, masks, n_lists = hashlib.sha256(), [], [], [], [], 0
    casts, n_casts = hashlib.sha256(), [0, 0]
    grids, n_grids = hashlib.sha256(), [0, 0]
    csv_path = os.path.join(workdir, "grasps.csv")

    def recording(fn):
        def wrapper(*args, **kwargs):
            nonlocal n_lists
            ranked = fn(*args, **kwargs)
            cli._write_grasp_csv(csv_path, ranked)
            with open(csv_path, "rb") as f:
                grasps.update(f.read())
            n_lists += 1
            return ranked
        return wrapper

    def oracle(*args, **kwargs):
        result = saved["grasp_oracle"](*args, **kwargs)
        outcomes.append(bool(result[0]))
        return result

    def evaluate(*args, **kwargs):
        stats = saved["evaluate"](*args, **kwargs)
        evals.append(stats)
        return stats

    def is_covered(*args, **kwargs):
        covered = saved_is_covered(*args, **kwargs)
        verdicts.append(bool(covered))
        return covered

    def annotate_scene(*args, **kwargs):
        dataset = saved_annotate(*args, **kwargs)
        masks.append(dataset.valid.copy())
        return dataset

    def ray_intersect_batch(mesh, *args, **kwargs):
        t, tri = saved_batch(mesh, *args, **kwargs)
        records = np.empty(len(t), [("t", "<f8"), ("tri", "<i8")])
        records["t"], records["tri"] = t, tri
        casts.update(records.tobytes())
        n_casts[0] += 1
        n_casts[1] += len(t)
        return t, tri

    def ray_intersect(mesh, *args, **kwargs):
        hit = saved_single(mesh, *args, **kwargs)
        casts.update(b"miss" if hit is None else np.float64(hit[0]).tobytes() + hit[1].tobytes())
        n_casts[0] += 1
        n_casts[1] += 1
        return hit

    def cgr_grids(*args, **kwargs):
        out = saved_grids(*args, **kwargs)
        grids.update(out.tobytes())
        n_grids[0] += 1
        n_grids[1] += len(out)
        return out

    saved = {name: getattr(pipeline, name) for name in ("detect", "detect_baseline", "grasp_oracle", "evaluate")}
    saved_is_covered, saved_annotate = coverage.is_covered, annotation.annotate_scene
    saved_batch, saved_single = geometry.TriangleMesh.ray_intersect_batch, geometry.TriangleMesh.ray_intersect
    saved_grids = cgr.cgr_grids
    pipeline.detect = recording(saved["detect"])
    pipeline.detect_baseline = recording(saved["detect_baseline"])
    pipeline.grasp_oracle = oracle
    pipeline.evaluate = evaluate
    coverage.is_covered = is_covered
    annotation.annotate_scene = pipeline.annotate_scene = annotate_scene
    geometry.TriangleMesh.ray_intersect_batch = ray_intersect_batch
    geometry.TriangleMesh.ray_intersect = ray_intersect
    cgr.cgr_grids = annotation.cgr_grids = coverage.cgr_grids = cgr_grids
    try:
        rnd = workloads.run_round(spec, workloads.make_fixtures(spec), seed=seed, workdir=workdir)
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
        coverage.is_covered = saved_is_covered
        annotation.annotate_scene = pipeline.annotate_scene = saved_annotate
        geometry.TriangleMesh.ray_intersect_batch = saved_batch
        geometry.TriangleMesh.ray_intersect = saved_single
        cgr.cgr_grids = annotation.cgr_grids = coverage.cgr_grids = saved_grids
    return (rnd, grasps.hexdigest(), n_lists, outcomes, evals, verdicts, masks, (casts.hexdigest(), *n_casts),
            (grids.hexdigest(), *n_grids))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    with tempfile.TemporaryDirectory() as workdir:
        rnd, grasps, n_lists, outcomes, evals, verdicts, masks, casts, grid_digest = _recorded_round(
            spec, args.seed * 1000, workdir)
        for name, path in sorted(rnd.check_inputs["paths"].items()):
            with open(path, "rb") as f:
                print(f"{name} {hashlib.sha256(f.read()).hexdigest()}")
    pool, poses = hashlib.sha256(), hashlib.sha256()
    for patch in rnd.check_inputs["pool"]:
        pool.update(patch.points.tobytes())
        poses.update(patch.source_pose.tobytes() + patch.source_object.encode() + b"\0")
    print(f"pool {pool.hexdigest()} ({len(rnd.check_inputs['pool'])} patches)")
    print(f"poses {poses.hexdigest()}")
    for k, (_, covered) in enumerate(rnd.check_inputs["probes"]):
        print(f"probe{k} covered={covered}")
    covered = hashlib.sha256(bytes(verdicts)).hexdigest()
    print(f"verdicts {covered} ({len(verdicts)} probes, {sum(verdicts)} covered)")
    print(f"grasps {grasps} ({n_lists} lists)")
    oracle = hashlib.sha256(bytes(outcomes)).hexdigest()
    print(f"oracle {oracle} ({len(outcomes)} outcomes, {sum(outcomes)} successes)")
    scored = hashlib.sha256()
    for stats in evals:
        scored.update(repr((stats.attempts, stats.successes, sorted(stats.per_type_attempts.items()),
                            sorted(stats.per_type_successes.items()))).encode() + b"\n")
    n_attempts, n_successes = sum(s.attempts for s in evals), sum(s.successes for s in evals)
    print(f"evals {scored.hexdigest()} ({len(evals)} calls, {n_attempts} attempts, {n_successes} successes)")
    valid = hashlib.sha256()
    for mask in masks:
        valid.update(mask.tobytes())
    n_valid, n_records = sum(int(m.sum()) for m in masks), sum(len(m) for m in masks)
    print(f"valid {valid.hexdigest()} ({len(masks)} calls, {n_valid} valid of {n_records})")
    print(f"casts {casts[0]} ({casts[1]} calls, {casts[2]} rays)")
    print(f"grids {grid_digest[0]} ({grid_digest[1]} calls, {grid_digest[2]} frames)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
