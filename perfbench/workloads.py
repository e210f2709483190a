"""Workload definitions and one measured round of the cgrkit pipeline.

Every workload runs the same stages -- annotate, collect, train, detect,
evaluate, file round-trip, coverage -- so every end-to-end metric exists on
every workload. What differs is the input, which decides the layer that
dominates (see README.md in this directory for the reasons and the
layer -> metric predictions).

The library is called through module attributes (``pipeline.collect``), so a
tracer that rebinds module functions sees every call.
"""

from __future__ import annotations

import gc
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from cgrkit import annotation, bundled_hand_path, cgr, coverage, geometry, hand, model, pipeline

TAU = 0.001  # coverage chamfer threshold, the library default
SLOT_RADIUS = 0.07  # scene objects sit 0.12 m apart (three slots) or 0.14 m (two)
IO_REPEATS = 5  # file round-trips per round, each one sample
COLLECT_CHUNKS = 4  # collect calls per round, each one sample of trials/s
PROBE_CHUNK = 8  # probe patches per sample of patches/s; even, so pairs stay whole
# The coverage pool is the workload's training set, a fixture: it is sampled
# with a fixed seed, so every round rebuilds the same pool and pool_build_s
# does not swing with the patch count. Probes are drawn from the round seed.
POOL_SEED = 0

# fast patch sampling, as in the criterion-10 recipe
FAST = dict(points_per_patch=48, surface_samples=3000, grasp_point_resolution=0.04)

MESHES = {
    # criterion-9 scene pool (12, 12 and 96 triangles)
    "cube": lambda: geometry.make_box((0.05, 0.05, 0.05)),
    "slim": lambda: geometry.make_box((0.03, 0.03, 0.06)),
    "cyl": lambda: geometry.make_cylinder(0.018, 0.055, segments=24),
    # criterion-10 base shapes
    "boxA": lambda: geometry.make_box((0.04, 0.05, 0.07)),
    "boxB": lambda: geometry.make_box((0.06, 0.06, 0.05)),
    "cyl2": lambda: geometry.make_cylinder(0.02, 0.06, segments=24),
    "sph": lambda: geometry.make_icosphere(0.03, 2),
    # scan meshes (256 and 1280 triangles). A 5120-triangle icosphere took
    # 5 s to annotate cold, too long for a round, so scan stops at 1280.
    "cyl64": lambda: geometry.make_cylinder(0.02, 0.06, segments=64),
    "ico3": lambda: geometry.make_icosphere(0.03, 3),
}


@dataclass(frozen=True)
class Spec:
    name: str
    scene_meshes: tuple  # one instance of each per scene
    annotation: annotation.AnnotationParams
    trials: int  # collected per round, in COLLECT_CHUNKS calls on as many scenes
    epochs: int
    detect_calls: int  # timed annotate_scene + detect calls per round on the first held-out scene
    eval_scenes: int  # held-out scenes cleared by evaluate per round, both policies
    pool_objects: tuple
    pool_params: coverage.SamplingParams
    probe_params: coverage.SamplingParams  # poses nested in pool_params
    probe_patches: int  # half copied from pool objects, half from novel shapes
    novel_objects: int = 3


def _ann(resolution, directions, grid=None):
    return annotation.AnnotationParams(
        surface_resolution=resolution,
        approach_directions=directions,
        grid=grid or cgr.CgrGridParams(),
    )


# probe poses V=10, A=2 are a strided subset of the sparse preset (50, 6),
# so an exact copy of a pool object yields patches identical to pool patches
_SPARSE_PROBE = coverage.SamplingParams(approach_directions=10, inplane_angles=2, **FAST)

# A round is one pass of the flywheel, kept to 5-9 s so that a run takes
# six or more samples of every stage: one sample of a stage swings by 10-30%
# on a shared 2-CPU machine. There are two workloads, not three, so that a
# run can last long enough for a slow spell of the host to touch few runs;
# the criterion-10 coverage pool rides on `scan`, where the pool build and
# the probes are timed as stages of their own.
SPECS = {
    "loop": Spec(
        name="loop",
        scene_meshes=("cube", "slim", "cyl"),
        annotation=_ann(0.02, 6),
        trials=120,
        epochs=30,
        detect_calls=8,
        eval_scenes=2,
        pool_objects=("cube",),
        pool_params=coverage.sparse_params(**FAST),
        probe_params=_SPARSE_PROBE,
        probe_patches=32,
    ),
    "scan": Spec(
        name="scan",
        scene_meshes=("cyl64", "ico3"),
        annotation=_ann(0.04, 6, cgr.CgrGridParams(
            n_angles=16, n_sections=3, section_depths=(0.005, 0.015, 0.03))),
        trials=40,
        epochs=30,
        detect_calls=8,
        eval_scenes=3,
        pool_objects=("boxA", "boxB", "cube", "cyl2", "sph"),
        pool_params=coverage.sparse_params(**FAST),
        probe_params=_SPARSE_PROBE,
        probe_patches=40,
        novel_objects=6,
    ),
}

# small inputs that touch every stage; run inside set-up to warm code paths
WARMUP = Spec(
    name="warmup",
    scene_meshes=("cube", "slim"),
    annotation=_ann(0.025, 6),
    trials=16,
    epochs=2,
    detect_calls=2,
    eval_scenes=1,
    pool_objects=("cube",),
    pool_params=coverage.sparse_params(**FAST),
    probe_params=_SPARSE_PROBE,
    probe_patches=2,
    novel_objects=1,
)


@dataclass
class Fixtures:
    meshes: dict
    hand: hand.HandSpec
    copies: dict  # workload name -> probe patches of its pool objects


def make_fixtures(spec: Spec) -> Fixtures:
    names = set(spec.scene_meshes) | set(spec.pool_objects) | set(WARMUP.scene_meshes) | set(WARMUP.pool_objects)
    meshes = {n: MESHES[n]() for n in sorted(names)}
    return Fixtures(meshes, hand.load_hand_spec(bundled_hand_path("archetype3")), {})


def pool_copies(spec: Spec, fx: Fixtures) -> list:
    """Probe patches sampled from the pool objects with the pool's seed: each
    equals a pool patch. The same for every round, so sampled once."""
    if spec.name not in fx.copies:
        fx.copies[spec.name] = [
            p for oid in sorted(spec.pool_objects)
            for p in coverage.sample_local_geometries(fx.meshes[oid], spec.probe_params, POOL_SEED, oid)
        ]
    return fx.copies[spec.name]


# ---------------------------------------------------------------------------
# Inputs drawn from the round seed


def make_scene(meshes: dict, ids: tuple, rng: np.random.Generator) -> annotation.Scene:
    """One upright instance of each mesh id, placed on evenly spaced slots of
    a circle (random rotation of the slot ring, random order, random yaw).
    Every scene holds the same meshes at the same spacing, so the work per
    scene -- records to filter, scene points near each grasp -- barely
    depends on the seed."""
    n = len(ids)
    ring = rng.uniform(0, 2 * np.pi)
    order = rng.permutation(n)
    instances = []
    for slot, k in enumerate(order):
        mesh_id = ids[k]
        angle = ring + 2 * np.pi * slot / n
        x, y = SLOT_RADIUS * np.cos(angle), SLOT_RADIUS * np.sin(angle)
        lo, _hi = meshes[mesh_id].bounds()
        yaw = geometry.rotation_z(rng.uniform(0, 2 * np.pi))
        instances.append(annotation.SceneInstance(mesh_id, geometry.RigidTransform(yaw, [x, y, -lo[2]])))
    scene_meshes = {k: meshes[k] for k in ids}
    return annotation.Scene(instances, np.zeros(3), np.array([0.0, 0.0, 1.0]), scene_meshes)


def make_novel(rng: np.random.Generator, count: int) -> dict:
    """Shapes absent from every pool: boxes, cylinders and spheres with
    random dimensions. Their patches miss the pool, so min_chamfer scans it
    whole."""
    out = {}
    for k in range(count):
        kind = k % 3
        if kind == 0:
            out[f"novel_box{k}"] = geometry.make_box(tuple(rng.uniform(0.035, 0.08, size=3)))
        elif kind == 1:
            out[f"novel_cyl{k}"] = geometry.make_cylinder(
                rng.uniform(0.015, 0.03), rng.uniform(0.05, 0.08), segments=24)
        else:
            out[f"novel_sph{k}"] = geometry.make_icosphere(rng.uniform(0.025, 0.035), 2)
    return out


def _interleave(groups: list, count: int) -> list:
    """Round-robin over patch lists until `count` patches are taken."""
    out, i = [], 0
    while len(out) < count:
        live = [g for g in groups if i < len(g)]
        if not live:
            raise RuntimeError(f"only {len(out)} of {count} probe patches available")
        out.extend(g[i] for g in live)
        i += 1
    return out[:count]


# ---------------------------------------------------------------------------
# One round


@dataclass
class Round:
    times: dict  # stage -> seconds
    samples: dict  # end-to-end metric -> its samples in this round
    check_inputs: dict


def run_round(spec: Spec, fx: Fixtures, seed: int, workdir: str, tracer=None, cache=None) -> Round:
    """All stages on inputs drawn from `seed`: annotated scenes feeding
    collect and train, and held-out scenes for detect and evaluate.
    `cache` is the (empty) annotation cache; a fresh dict when None, so CGRs
    start cold.

    Stages are cut into several short samples where the library allows it
    (collect in chunks, evaluate per attempt, file round-trips repeated,
    probes in chunks), so that a median over the run is robust to a slow
    spell of the machine."""
    rng = np.random.default_rng(seed)
    times = defaultdict(float)
    samples = defaultdict(list)

    @contextmanager
    def stage(name):
        # collect garbage left by earlier stages first, so that no full
        # collection of their objects lands inside this stage's timing
        gc.collect()
        with tracer.span(f"bench.{name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            yield
            times[name] += time.perf_counter() - t0

    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    cache = {} if cache is None else cache
    ann = spec.annotation
    dcfg = pipeline.DetectionConfig()
    scene = make_scene(fx.meshes, spec.scene_meshes, rng)
    held = [make_scene(fx.meshes, spec.scene_meshes, rng) for _ in range(spec.eval_scenes)]
    collect_seed, model_seed, eval_seed = (int(s) for s in rng.integers(0, 2**31, size=3))

    with stage("annotate"):
        dataset, secs = timed(annotation.annotate_scene, scene, ann, cache=cache)
    samples["annotate_s"].append(secs)
    # each collect chunk runs on a scene of its own, so that a run's samples
    # span many layouts; the extra scenes are annotated with the warm cache
    annotated = [(scene, dataset)] + [
        (sc, annotation.annotate_scene(sc, ann, cache=cache))
        for sc in (make_scene(fx.meshes, spec.scene_meshes, rng) for _ in range(COLLECT_CHUNKS - 1))
    ]
    with stage("collect"):
        records = []
        for k in range(COLLECT_CHUNKS):
            config = pipeline.CollectionConfig(target_size=spec.trials // COLLECT_CHUNKS, seed=collect_seed + k)
            chunk, secs = timed(pipeline.collect, config, [annotated[k]], fx.hand)
            records += chunk
            samples["collect_trials_per_s"].append(len(chunk) / secs)
    with stage("train"):
        config = model.TrainConfig(epochs=spec.epochs, hidden=64, seed=model_seed, learning_rate=1e-3)
        models = {}
        for type_id, (x, y) in pipeline.trials_to_training_data(records).items():
            models[type_id], _ = model.train(x, y, config, warn=lambda *_: None)
        bank = model.DecisionBank(models)
    samples["train_s"].append(times["train"])

    # detect latency: per call annotate_scene (warm CGR cache) + ranking on
    # a whole held-out scene, the two policies in turn. Every call sees the
    # same number of objects, so the calls form one population.
    with stage("detect"):
        for i in range(spec.detect_calls):
            t0 = time.perf_counter()
            ds = annotation.annotate_scene(held[0], ann, cache=cache)
            if i % 2 == 0:
                pipeline.detect(held[0], fx.hand, bank, dcfg, dataset=ds)
            else:
                pipeline.detect_baseline(held[0], fx.hand, dcfg, dataset=ds, seed=eval_seed + i)
            samples["detect_ms"].append(1e3 * (time.perf_counter() - t0))

    with stage("eval"), attempt_clock(len(spec.scene_meshes)) as clock:
        for k, state in enumerate(held):
            for policy in ("detect", "baseline"):
                clock.start()
                pipeline.evaluate(
                    policy, [state], fx.hand, bank if policy == "detect" else None, dcfg,
                    annotation=ann, cache=cache, seed=eval_seed + k)
    samples["eval_attempt_ms"] = clock.full_ms
    if not clock.full_ms:
        raise RuntimeError("evaluate made no attempts")

    for rep in range(IO_REPEATS):
        # fresh file names for every round-trip: ext4 starts writeback when
        # a truncated file is closed, and that would tie the figure to the
        # disk rather than to the program's encoding and parsing
        if rep:
            for path in paths.values():
                os.unlink(path)
        paths = {k: os.path.join(workdir, f"{seed}-{rep}-{k}") for k in ("dataset.bin", "trials.bin", "bank.bin")}
        with stage("io"):
            t0 = time.perf_counter()
            annotation.write_dataset(dataset, paths["dataset.bin"])
            pipeline.write_trials(records, ann.grid, paths["trials.bin"])
            model.save_bank(bank, paths["bank.bin"])
            annotation.read_dataset(paths["dataset.bin"])
            pipeline.read_trials(ann.grid, paths["trials.bin"])
            model.load_bank(paths["bank.bin"])
            samples["io_s"].append(time.perf_counter() - t0)

    with stage("pool_build"):
        pool = []
        for oid in sorted(spec.pool_objects):
            pool.extend(coverage.sample_local_geometries(fx.meshes[oid], spec.pool_params, POOL_SEED, oid))
    samples["pool_build_s"].append(times["pool_build"])
    if not pool:
        raise RuntimeError("empty coverage pool")
    # probes: copied patches picked at random, so the point where min_chamfer
    # exits early varies; novel shapes drawn until there are enough patches
    copies = pool_copies(spec, fx)
    half = spec.probe_patches // 2
    picked = [copies[k] for k in rng.choice(len(copies), size=half, replace=len(copies) < half)]
    with stage("probe_sample"):
        fresh = []
        while sum(len(g) for g in fresh) < spec.probe_patches - half:
            fresh += [
                coverage.sample_local_geometries(mesh, spec.probe_params, int(rng.integers(2**31)), oid)
                for oid, mesh in make_novel(rng, spec.novel_objects).items()
            ]
    probes = [p for pair in zip(picked, _interleave(fresh, spec.probe_patches - half)) for p in pair]
    covered = []
    with stage("coverage_query"):
        # chunks of copied/novel pairs, so every chunk holds the same mix
        for k in range(0, len(probes), PROBE_CHUNK):
            chunk = probes[k:k + PROBE_CHUNK]
            verdicts, secs = timed(lambda: [coverage.is_covered(p, pool, TAU) for p in chunk])
            covered += verdicts
            samples["coverage_patches_per_s"].append(len(chunk) / secs)

    return Round(
        times=dict(times),
        samples=dict(samples),
        check_inputs=dict(
            paths=paths, grid=ann.grid, pool=pool,
            # one patch copied from the pool and one from a novel shape
            probes=[(probes[0], covered[0]), (probes[1], covered[1])],
            records=len(records), expected_records=spec.trials // COLLECT_CHUNKS * COLLECT_CHUNKS,
        ),
    )


class _AttemptClock:
    def __init__(self, full: int):
        self.full = full  # object count of an untouched held-out scene
        self.full_ms: list = []
        self._mark = None

    def start(self):
        self._mark = time.perf_counter()


@contextmanager
def attempt_clock(full: int):
    """Times each attempt of ``pipeline.evaluate`` from outside: evaluate
    calls ``grasp_oracle`` once at the end of every attempt, so an attempt is
    the time from the call's start, or the last oracle return, to the next
    oracle return. Only attempts on the whole scene are kept: attempts after
    a success see fewer objects and cost less, so keeping them would tie the
    figure to how often the policy succeeds."""
    clock = _AttemptClock(full)
    original = pipeline.grasp_oracle

    def grasp_oracle(candidate, hand_spec, scene, *args, **kwargs):
        out = original(candidate, hand_spec, scene, *args, **kwargs)
        now = time.perf_counter()
        if len(scene.instances) == clock.full:
            clock.full_ms.append(1e3 * (now - clock._mark))
        clock._mark = now
        return out

    pipeline.grasp_oracle = grasp_oracle
    try:
        yield clock
    finally:
        pipeline.grasp_oracle = original


# ---------------------------------------------------------------------------
# Correctness checks, run outside the timed stages


def check_round(check_inputs: dict, ray_samples: list) -> tuple[int, int, list]:
    """Returns (attempted, failed, messages)."""
    attempted, failed, messages = 0, 0, []

    def record(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            messages.append(what)

    ci = check_inputs
    record(ci["records"] == ci["expected_records"], f"collect returned {ci['records']} trials")

    # write -> read -> write is byte-identical
    p = ci["paths"]
    rewrites = {
        "dataset.bin": lambda src, dst: annotation.write_dataset(annotation.read_dataset(src), dst),
        "trials.bin": lambda src, dst: pipeline.write_trials(pipeline.read_trials(ci["grid"], src), ci["grid"], dst),
        "bank.bin": lambda src, dst: model.save_bank(model.load_bank(src), dst),
    }
    for key, rewrite in rewrites.items():
        again = p[key] + ".again"
        rewrite(p[key], again)
        with open(p[key], "rb") as a, open(again, "rb") as b:
            record(a.read() == b.read(), f"{key} changed on write -> read -> write")
        os.unlink(p[key])
        os.unlink(again)

    # coverage verdicts re-derived with the quadratic chamfer over the whole pool
    pool_clouds = [geometry.PointCloud(q.points) for q in ci["pool"]]
    for patch, covered in ci["probes"]:
        cloud = geometry.PointCloud(patch.points)
        ref = min(geometry.chamfer_distance(cloud, q) for q in pool_clouds) < TAU
        record(ref == covered, f"is_covered={covered} but quadratic chamfer says {ref}")

    # BVH single-ray casts replayed through the brute-force reference
    for mesh, origin, direction, t_max, hit in ray_samples:
        ref = mesh.ray_intersect_brute(origin, direction, t_max)
        same = (hit is None and ref is None) or (
            hit is not None and ref is not None and hit[0] == ref[0] and np.array_equal(hit[1], ref[1]))
        record(same, f"ray_intersect {hit} != brute force {ref} at origin {origin.tolist()} dir {direction.tolist()}")
    return attempted, failed, messages


class RaySampler:
    """Keeps every EVERY-th TriangleMesh.ray_intersect call (arguments and
    result) for replay against the brute-force path. Installed in both
    traced and untraced runs; the cost is one counter step per cast."""

    EVERY, LIMIT = 7, 400

    def __init__(self):
        self.samples: list = []
        self._n = 0
        self._original = None

    def install(self):
        original = self._original = geometry.TriangleMesh.ray_intersect
        sampler = self

        def ray_intersect(mesh, origin, direction, t_max):
            hit = original(mesh, origin, direction, t_max)
            sampler._n += 1
            if sampler._n % sampler.EVERY == 0 and len(sampler.samples) < sampler.LIMIT:
                sampler.samples.append((
                    mesh, np.array(origin, dtype=float).reshape(3),
                    np.array(direction, dtype=float).reshape(3), t_max, hit))
            return hit

        geometry.TriangleMesh.ray_intersect = ray_intersect

    def uninstall(self):
        geometry.TriangleMesh.ray_intersect = self._original

    def take(self) -> list:
        out, self.samples = self.samples, []
        return out
