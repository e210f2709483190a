"""End-to-end orchestration: simulated trial-and-error data collection with
a force-closure oracle, grasp detection with and without the decision
model, and simulated scene-clearing evaluation.

Real-robot execution is replaced throughout by a contact oracle: close the
selected grasp type's fingertip rays against the scene mesh and test force
balance inside linearized friction cones. During collection the friction
coefficient is drawn per trial; evaluation uses a fixed held-out value.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .annotation import (
    AnnotationParams,
    CgrDataset,
    Scene,
    SceneInstance,
    annotate_scene,
)
from .cgr import best_antipodal_scores, best_grasp_poses, record_dtype
from .contacts import ForceClosureParams, force_closure
from .geometry import RigidTransform, _read_end, _read_exact, frame_array, rotation_z
from .hand import (
    GraspCandidate,
    HandSpec,
    aligned_poses,
    fingertip_contacts,
    hand_scene_collision,
    hand_scene_collisions,
)
from .model import DecisionBank, forward

TRIALS_MAGIC = b"CGRKTR1\0"
# surface samples per instance in the scene cloud that poses are
# collision-checked against, in collection and in detection
_SCENE_CLOUD_POINTS = 1500
# collection attempts allowed per requested trial before it reports a stall
_ATTEMPTS_PER_TRIAL = 50
# candidates in the first shortlist slice that detection collision-checks
# when it wants only max_results grasps: in 171 one-grasp calls of eight
# benchmark rounds, the first free candidate lay within the first 8 in all
# but one (index 9)
_FIRST_SLICE = 8


class PipelineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Oracle


def grasp_oracle(
    candidate: GraspCandidate, hand: HandSpec, scene: Scene, friction: float
) -> tuple[bool, object]:
    """Simulated grasp outcome: success iff the closed fingertips yield at
    least two contacts whose cone-edge wrenches can balance to zero."""
    gt = hand.type(candidate.grasp_type_id)
    contacts = fingertip_contacts(candidate, gt, scene.merged_mesh())
    if len(contacts) < 2:
        return False, None
    result = force_closure(contacts, ForceClosureParams(friction=friction))
    return result.feasible, result


# ---------------------------------------------------------------------------
# Scene generation


@dataclass(frozen=True)
class SceneGenParams:
    instances_per_scene: int = 3
    workspace_radius: float = 0.15
    min_separation: float = 0.08
    random_yaw: bool = True


def generate_scene(mesh_pool: dict, params: SceneGenParams, seed: int = 0) -> Scene:
    """Random cluttered scene: objects from the pool dropped upright at
    non-overlapping positions on the table plane z = 0."""
    if not mesh_pool:
        raise PipelineError("empty mesh pool")
    rng = np.random.default_rng(seed)
    ids = sorted(mesh_pool)
    placed = []
    instances = []
    for _ in range(params.instances_per_scene):
        mesh_id = ids[rng.integers(0, len(ids))]
        mesh = mesh_pool[mesh_id]
        lo, _hi = mesh.bounds()
        for _attempt in range(100):
            xy = rng.uniform(-params.workspace_radius, params.workspace_radius, size=2)
            if all(np.linalg.norm(xy - p) >= params.min_separation for p in placed):
                break
        else:
            raise PipelineError(f"no free position for instance {len(placed)} after 100 tries")
        placed.append(xy)
        yaw = rng.uniform(0, 2 * np.pi) if params.random_yaw else 0.0
        pose = RigidTransform(rotation_z(yaw), [xy[0], xy[1], -lo[2]])
        instances.append(SceneInstance(mesh_id, pose))
    return Scene(instances, np.zeros(3), np.array([0.0, 0.0, 1.0]), dict(mesh_pool))


# ---------------------------------------------------------------------------
# Data collection (simulated trial-and-error loop)


@dataclass(frozen=True)
class CollectionConfig:
    target_size: int = 400
    friction_range: tuple = (0.2, 0.8)
    seed: int = 0

    def __post_init__(self):
        if self.target_size < 1:
            raise PipelineError("target_size must be positive")
        lo, hi = self.friction_range
        if not (0.0 < lo <= hi <= 2.0):
            raise PipelineError("friction range must lie within (0, 2]")


@dataclass
class TrialRecord:
    """One trial: the source CGR's frame and grid and the executed grasp
    pose. Frames are [R | t] (3, 4): float64 as collected, the file's
    float32 values as read."""

    frame: np.ndarray  # (3, 4)
    grid: np.ndarray  # (M, N, 2)
    pose: np.ndarray  # (3, 4)
    grasp_type_id: int
    outcome: int  # 1 success, 0 failure
    friction: float
    closure: object = None  # diagnostics, not serialized


def collect(
    config: CollectionConfig, annotated_scenes: list, hand: HandSpec
) -> list[TrialRecord]:
    """Trial-and-error loop over pre-annotated scenes.

    annotated_scenes: list of (Scene, CgrDataset) pairs. Each iteration
    samples a valid CGR and a grasp type among those below their share of
    the target, skips colliding poses, executes the oracle at a per-trial
    friction and records the outcome.
    """
    if not annotated_scenes:
        raise PipelineError("no annotated scenes")
    rng = np.random.default_rng(config.seed)
    records: list[TrialRecord] = []
    type_counts = {gt.id: 0 for gt in hand.grasp_types}
    per_type = -(-config.target_size // len(hand.grasp_types))  # ceil
    # per scene: the candidates (row, type) of every graspable row, and a scene cloud
    prepared = []
    for scene, ds in annotated_scenes:
        usable = np.flatnonzero(ds.valid & (best_antipodal_scores(ds.grids, ds.params.grid) > 0.0))
        cands = _candidates(ds, usable, hand).reshape(len(usable), len(hand.grasp_types))
        prepared.append((scene, ds, cands, scene.surface_cloud(_SCENE_CLOUD_POINTS, seed=config.seed)))
    if all(not len(cands) for _, _, cands, _ in prepared):
        raise PipelineError("no valid CGR in any scene")
    no_cgr = collided = 0  # skipped attempts, by reason
    attempts = 0
    max_attempts = _ATTEMPTS_PER_TRIAL * config.target_size
    while len(records) < config.target_size:
        attempts += 1
        if attempts > max_attempts:
            raise PipelineError(
                f"collection stalled: {len(records)}/{config.target_size} after {attempts} attempts"
                f" (skipped: {no_cgr} no usable CGR, {collided} hand/scene collision)"
            )
        scene, ds, cands, cloud = prepared[rng.integers(0, len(prepared))]
        if not len(cands):
            no_cgr += 1
            continue
        row = rng.integers(0, len(cands))
        open_types = [t for t, c in sorted(type_counts.items()) if c < per_type]
        type_id = open_types[rng.integers(0, len(open_types))]
        cand = cands[row, type_id]
        candidate = _grasp_candidate(ds, cand)
        if hand_scene_collision(candidate, hand.type(type_id), cloud):
            collided += 1
            continue
        friction = float(rng.uniform(*config.friction_range))
        success, diag = grasp_oracle(candidate, hand, scene, friction)
        records.append(TrialRecord(ds.frames[cand["row"]], ds.grids[cand["row"]], candidate.pose, type_id,
                                   int(success), friction, diag))
        type_counts[type_id] += 1
    return records


# ---------------------------------------------------------------------------
# Detection


@dataclass(frozen=True)
class DetectionConfig:
    top_cgr: int = 100
    top_candidates: int = 200

    def __post_init__(self):
        if self.top_cgr < 1 or self.top_candidates < 1:
            raise PipelineError("top_cgr and top_candidates must be positive")


def _ranked_cgrs(dataset: CgrDataset, k: int) -> np.ndarray:
    """Rows of the k best valid records by antipodal score (> 0), in
    record order among equal scores."""
    scores = best_antipodal_scores(dataset.grids, dataset.params.grid)
    rows = np.flatnonzero(dataset.valid & (scores > 0.0))
    return rows[np.argsort(-scores[rows], kind="stable")[:k]]


# one grasp candidate: its dataset row, grasp type, the score of the winning
# antipodal entry and the aligned hand pose [R | t]
_CANDIDATE = np.dtype([("row", np.intp), ("type", np.intp), ("score", float), ("pose", float, (3, 4))])


def _candidates(dataset: CgrDataset, rows: np.ndarray, hand: HandSpec) -> np.ndarray:
    """One candidate per row and grasp type, row-major, all of a row's
    types anchored at its best antipodal pose."""
    anchors, _, _, score = best_grasp_poses(dataset.frames[rows], dataset.grids[rows], dataset.params.grid)
    out = np.zeros((len(rows), len(hand.grasp_types)), _CANDIDATE)
    out["type"] = [gt.id for gt in hand.grasp_types]
    out["row"] = rows[:, None]
    out["score"] = score[:, None]
    for gt in hand.grasp_types:
        out["pose"][:, gt.id] = aligned_poses(anchors, gt)
    return out.reshape(-1)


def _expand_candidates(dataset: CgrDataset, hand: HandSpec, k: int) -> np.ndarray:
    """The candidates of the k best-ranked rows."""
    return _candidates(dataset, _ranked_cgrs(dataset, k), hand)


def _grasp_candidate(dataset: CgrDataset, cand, decision_score: float | None = None) -> GraspCandidate:
    """The GraspCandidate of one candidate row."""
    return GraspCandidate(cand["pose"].copy(), int(cand["type"]), float(cand["score"]), decision_score,
                          int(dataset.instance[cand["row"]]))


def _collision_free(dataset: CgrDataset, shortlist: np.ndarray, hand: HandSpec, scene: Scene,
                    max_results: int | None, decision: np.ndarray | None = None) -> list[GraspCandidate]:
    """The first max_results collision-free candidates of the shortlist, in
    order. The shortlist is checked in slices of _FIRST_SLICE, then twice as
    many candidates as the slice before, one collision pass per grasp type
    and slice, until max_results are free; with max_results None one slice
    holds the whole shortlist. A pose's verdict does not depend on the poses
    checked with it, so the result is that of checking every candidate."""
    cloud = scene.surface_cloud(_SCENE_CLOUD_POINTS, seed=0)
    free: list[int] = []
    start, size = 0, len(shortlist) if max_results is None else _FIRST_SLICE
    while start < len(shortlist) and (max_results is None or len(free) < max_results):
        part = shortlist[start:start + size]
        hits = np.zeros(len(part), dtype=bool)
        for gt in hand.grasp_types:
            of_type = part["type"] == gt.id
            hits[of_type] = hand_scene_collisions(part["pose"][of_type], gt, cloud)
        free += (start + np.flatnonzero(~hits)).tolist()
        start, size = start + size, 2 * size
    return [_grasp_candidate(dataset, shortlist[i], None if decision is None else float(decision[i]))
            for i in free[:max_results]]


def detect(
    scene: Scene,
    hand: HandSpec,
    bank: DecisionBank,
    config: DetectionConfig | None = None,
    dataset: CgrDataset | None = None,
    annotation: AnnotationParams | None = None,
    max_results: int | None = None,
) -> list[GraspCandidate]:
    """Decision-model pipeline: top-K1 CGRs by antipodal score, one
    candidate per grasp type, top-K2 by decision score, collision filter,
    sorted by decision score (ties: antipodal score, then generation
    order)."""
    config = config or DetectionConfig()
    if dataset is None:
        dataset = annotate_scene(scene, annotation)
    cands = _expand_candidates(dataset, hand, config.top_cgr)
    if not len(cands):
        return []
    decision = np.empty(len(cands))
    for gt in hand.grasp_types:
        model = bank.models.get(gt.id)
        if model is None:
            raise PipelineError(f"decision bank missing grasp type {gt.id}")
        of_type = cands["type"] == gt.id
        decision[of_type] = forward(model, dataset.grids[cands["row"][of_type]].reshape(of_type.sum(), -1))
    order = np.lexsort((-cands["score"], -decision))[: config.top_candidates]
    return _collision_free(dataset, cands[order], hand, scene, max_results, decision[order])


def detect_baseline(
    scene: Scene,
    hand: HandSpec,
    config: DetectionConfig | None = None,
    dataset: CgrDataset | None = None,
    annotation: AnnotationParams | None = None,
    seed: int = 0,
    max_results: int | None = None,
) -> list[GraspCandidate]:
    """Principal-closing-axis baseline: same candidate generation, ranked by
    antipodal score only with a seeded random tie-break, collision
    filtered."""
    config = config or DetectionConfig()
    if dataset is None:
        dataset = annotate_scene(scene, annotation)
    cands = _expand_candidates(dataset, hand, config.top_cgr)
    if not len(cands):
        return []
    jitter = np.random.default_rng(seed).random(len(cands))
    order = np.lexsort((jitter, -cands["score"]))[: config.top_candidates]
    return _collision_free(dataset, cands[order], hand, scene, max_results)


# ---------------------------------------------------------------------------
# Evaluation (simulated table clearing)


@dataclass
class EvalStats:
    attempts: int = 0
    successes: int = 0
    per_type_attempts: dict = field(default_factory=dict)
    per_type_successes: dict = field(default_factory=dict)

    @property
    def success_rate(self):
        """successes / attempts; None when no attempts were made."""
        if self.attempts == 0:
            return None
        return self.successes / self.attempts

    def type_frequencies(self) -> dict:
        total = sum(self.per_type_attempts.values())
        if total == 0:
            return {}
        return {t: c / total for t, c in sorted(self.per_type_attempts.items())}


def evaluate(
    policy: str,
    scenes: list[Scene],
    hand: HandSpec,
    bank: DecisionBank | None,
    config: DetectionConfig | None = None,
    annotation: AnnotationParams | None = None,
    eval_friction: float = 0.5,
    seed: int = 0,
    cache: dict | None = None,
) -> EvalStats:
    """Simulated clearing: per scene, repeatedly execute the top detected
    grasp with the force-closure oracle at a fixed friction, removing the
    grasped object on success, until the scene is cleared or the attempt
    budget (2x object count) is spent. Each scene state is annotated once:
    a failed attempt leaves the state unchanged, and the next attempt ranks
    on the same dataset. Detection asks for one grasp, so its collision
    filter checks only the first slices of the shortlist."""
    if policy not in ("detect", "baseline"):
        raise PipelineError(f"unknown policy '{policy}'")
    if policy == "detect" and bank is None:
        raise PipelineError("detect policy requires a decision bank")
    stats = EvalStats()
    cache = {} if cache is None else cache
    for scene_idx, scene in enumerate(scenes):
        state, annotated = scene, None
        max_attempts = 2 * len(scene.instances)
        attempt = 0
        while len(state.instances) > 0 and attempt < max_attempts:
            if annotated is not state:  # a failed attempt leaves the state, and so its dataset, as it was
                ds, annotated = annotate_scene(state, annotation, scene_id=scene_idx, cache=cache), state
            if policy == "detect":
                ranked = detect(state, hand, bank, config, dataset=ds, max_results=1)
            else:
                ranked = detect_baseline(
                    state, hand, config, dataset=ds, seed=seed + attempt, max_results=1
                )
            if not ranked:
                break
            attempt += 1
            top = ranked[0]
            success, _diag = grasp_oracle(top, hand, state, eval_friction)
            stats.attempts += 1
            stats.per_type_attempts[top.grasp_type_id] = (
                stats.per_type_attempts.get(top.grasp_type_id, 0) + 1
            )
            if success:
                stats.successes += 1
                stats.per_type_successes[top.grasp_type_id] = (
                    stats.per_type_successes.get(top.grasp_type_id, 0) + 1
                )
                state = state.without_instance(top.instance_index)
    return stats


# ---------------------------------------------------------------------------
# Trial record persistence


_TRIAL_TAIL = [("pose_R", "<f4", (3, 3)), ("pose_t", "<f4", 3), ("type", "<u2"), ("outcome", "u1"), ("friction", "<f4")]


def write_trials(records: list[TrialRecord], grid_params, path) -> None:
    rows = np.array([
        (r.frame[:, :3], r.frame[:, 3], r.grid, r.pose[:, :3], r.pose[:, 3], r.grasp_type_id, r.outcome, r.friction)
        for r in records
    ], record_dtype(grid_params, _TRIAL_TAIL))
    with open(path, "wb") as f:
        f.write(TRIALS_MAGIC)
        f.write(struct.pack("<Q", len(rows)))
        f.write(rows)


def read_trials(grid_params, path) -> list[TrialRecord]:
    with open(path, "rb") as f:
        if f.read(8) != TRIALS_MAGIC:
            raise PipelineError("bad magic")
        (count,) = struct.unpack("<Q", _read_exact(f, 8, PipelineError))
        dtype = record_dtype(grid_params, _TRIAL_TAIL)
        rows = np.frombuffer(_read_exact(f, count * dtype.itemsize, PipelineError), dtype)
        _read_end(f, PipelineError)
    if (rows["outcome"] > 1).any():
        raise PipelineError("bad outcome flag: not 0 or 1")
    frames, poses = frame_array(rows["R"], rows["t"]), frame_array(rows["pose_R"], rows["pose_t"])
    grids = rows["grid"].astype(float)
    tails = zip(rows["type"].tolist(), rows["outcome"].tolist(), rows["friction"].tolist())
    return [TrialRecord(frames[i], grids[i], poses[i], *tail) for i, tail in enumerate(tails)]


def trials_to_training_data(records: list[TrialRecord]):
    """Per-type (features, labels) arrays for decision-model training."""
    if not records:
        return {}
    feats = np.stack([rec.grid.reshape(-1) for rec in records])
    labels = np.array([rec.outcome for rec in records], dtype=float)
    types = np.array([rec.grasp_type_id for rec in records])
    return {int(t): (feats[types == t], labels[types == t]) for t in np.unique(types)}
