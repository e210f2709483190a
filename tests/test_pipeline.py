import copy
import re
from dataclasses import replace

import numpy as np
import pytest

from cgrkit import pipeline
from cgrkit.annotation import AnnotationParams, annotate_scene, read_dataset, write_dataset
from cgrkit.cgr import CgrGridParams, best_grasp_poses, query_grasp_pose
from cgrkit.geometry import frame_array, make_box, make_cylinder
from cgrkit.hand import GraspCandidate, aligned_poses
from cgrkit.model import DecisionBank, TrainConfig, forward, train
from cgrkit.pipeline import (
    CollectionConfig,
    DetectionConfig,
    EvalStats,
    PipelineError,
    SceneGenParams,
    TrialRecord,
    _expand_candidates,
    _ranked_cgrs,
    collect,
    detect,
    detect_baseline,
    evaluate,
    generate_scene,
    grasp_oracle,
    read_trials,
    trials_to_training_data,
    write_trials,
)

from conftest import reference_alignment, reference_collision, reference_grasp_pose

ANN = AnnotationParams(
    surface_resolution=0.0125, approach_directions=12, grid=CgrGridParams()
)


@pytest.fixture(scope="module")
def pool():
    return {
        "cube": make_box((0.05, 0.05, 0.05)),
        "slim": make_box((0.03, 0.03, 0.06)),
        "cyl": make_cylinder(0.018, 0.055, segments=24),
    }


@pytest.fixture(scope="module")
def ann_cache():
    return {}


@pytest.fixture(scope="module")
def scene0(pool):
    return generate_scene(pool, SceneGenParams(), seed=0)


@pytest.fixture(scope="module")
def dataset0(scene0, ann_cache):
    return annotate_scene(scene0, ANN, cache=ann_cache)


@pytest.fixture(scope="module")
def trials0(scene0, dataset0, hand3):
    return collect(CollectionConfig(target_size=80, seed=0), [(scene0, dataset0)], hand3)


@pytest.fixture(scope="module")
def bank0(trials0):
    config = TrainConfig(epochs=3, hidden=16, seed=0, learning_rate=1e-3)
    models = {}
    for type_id, (x, y) in trials_to_training_data(trials0).items():
        model, _ = train(x, y, config, warn=lambda *_: None)
        models[type_id] = model
    return DecisionBank(models)


# ---------------------------------------------------------------------------
# Scene generation


def test_generate_scene_layout(pool):
    params = SceneGenParams(instances_per_scene=3, min_separation=0.08)
    scene = generate_scene(pool, params, seed=4)
    assert len(scene.instances) == 3
    xy = [inst.pose.translation[:2] for inst in scene.instances]
    for i in range(3):
        # objects rest on the table plane
        lo, _ = scene.instance_mesh(i).bounds()
        assert abs(lo[2]) < 1e-12
        for j in range(i + 1, 3):
            assert np.linalg.norm(xy[i] - xy[j]) >= 0.08 - 1e-12


def test_generate_scene_deterministic(pool):
    a = generate_scene(pool, SceneGenParams(), seed=7)
    b = generate_scene(pool, SceneGenParams(), seed=7)
    for ia, ib in zip(a.instances, b.instances):
        assert ia.mesh_id == ib.mesh_id
        assert np.array_equal(ia.pose.rotation, ib.pose.rotation)
        assert np.array_equal(ia.pose.translation, ib.pose.translation)


def test_generate_scene_no_yaw(pool):
    scene = generate_scene(pool, SceneGenParams(random_yaw=False), seed=1)
    for inst in scene.instances:
        assert np.allclose(inst.pose.rotation, np.eye(3))


def test_generate_scene_empty_pool():
    with pytest.raises(PipelineError):
        generate_scene({}, SceneGenParams())


def test_generate_scene_raises_when_crowded(pool):
    crowded = SceneGenParams(instances_per_scene=12, workspace_radius=0.05, min_separation=0.08)
    with pytest.raises(PipelineError, match="no free position"):
        generate_scene(pool, crowded, seed=0)


# ---------------------------------------------------------------------------
# Grasp oracle


def _pinch_candidate(center, type_id=0):
    pose = frame_array(np.eye(3), np.asarray(center, dtype=float))
    return GraspCandidate(pose, type_id, antipodal_score=1.0)


def test_grasp_oracle_pinch_on_cube(hand3):
    from conftest import simple_scene

    scene = simple_scene({"cube": make_box((0.05, 0.05, 0.05))}, {"cube": (0.0, 0.0)})
    # identity hand pose at the cube center: the pinch fingertips close along
    # x and meet opposite faces
    good = _pinch_candidate([0.0, 0.0, 0.025])
    success, diag = grasp_oracle(good, hand3, scene, friction=0.5)
    assert success
    assert diag is not None and diag.feasible
    # far away: the fingers close on air
    miss = _pinch_candidate([0.5, 0.0, 0.025])
    success, diag = grasp_oracle(miss, hand3, scene, friction=0.5)
    assert not success
    assert diag is None


# ---------------------------------------------------------------------------
# Collection


def test_collection_config_validation():
    with pytest.raises(PipelineError):
        CollectionConfig(target_size=0)
    with pytest.raises(PipelineError):
        CollectionConfig(friction_range=(0.0, 0.5))
    with pytest.raises(PipelineError):
        CollectionConfig(friction_range=(0.5, 2.5))


def test_collect_balanced_counts(trials0, hand3):
    assert len(trials0) == 80
    counts = {gt.id: 0 for gt in hand3.grasp_types}
    for rec in trials0:
        counts[rec.grasp_type_id] += 1
        assert rec.outcome in (0, 1)
        assert 0.2 <= rec.friction <= 0.8
    # balanced types: ceil(80 / 4) per type
    assert all(c == 20 for c in counts.values())
    # at least one grasp type succeeds sometimes and one never does
    assert any(rec.outcome == 1 for rec in trials0)
    assert any(rec.outcome == 0 for rec in trials0)


def test_collect_requires_scenes(hand3):
    with pytest.raises(PipelineError):
        collect(CollectionConfig(target_size=5), [], hand3)


def test_collect_requires_valid_cgrs(scene0, dataset0, hand3):
    empty = replace(dataset0, valid=np.zeros(len(dataset0), bool))
    with pytest.raises(PipelineError):
        collect(CollectionConfig(target_size=5), [(scene0, empty)], hand3)


def test_collect_stall_reports_skip_reasons(scene0, dataset0, hand3, monkeypatch):
    """Every attempt on the scene without usable CGRs and every colliding
    pose is counted in the stall error."""
    empty = replace(dataset0, valid=np.zeros(len(dataset0), bool))
    monkeypatch.setattr(pipeline, "hand_scene_collision", lambda *args: True)
    config = CollectionConfig(target_size=2)
    with pytest.raises(PipelineError) as err:
        collect(config, [(scene0, dataset0), (scene0, empty)], hand3)
    counts = [int(n) for n in
              re.fullmatch(r".*after 101 attempts \(skipped: (\d+) no usable CGR, (\d+) hand/scene collision\)",
                           str(err.value)).groups()]
    assert sum(counts) == 100 and min(counts) > 0


# ---------------------------------------------------------------------------
# Detection


def test_detection_config_validation():
    with pytest.raises(PipelineError):
        DetectionConfig(top_cgr=0)


def test_expand_candidates_count(scene0, dataset0, hand3):
    """K1 retained CGRs each expand to one candidate per grasp type."""
    k = 20
    candidates = _expand_candidates(dataset0, hand3, k)
    assert len(candidates) == k * len(hand3.grasp_types)
    for block, row in enumerate(_ranked_cgrs(dataset0, k)):
        chunk = candidates[4 * block : 4 * block + 4]
        assert chunk["type"].tolist() == [0, 1, 2, 3]
        # all four come from the row, share its antipodal score and anchor
        assert chunk["row"].tolist() == [row] * 4
        assert len(set(chunk["score"].tolist())) == 1
        assert np.all(chunk["pose"][:, :, 3] == chunk["pose"][0, :, 3])
        assert 0 <= dataset0.instance[row] < len(scene0.instances)


def test_candidates_match_per_cgr_path(tmp_path, dataset0, hand3, oblique_hand):
    """Every candidate of the batched path equals the per-CGR path bit for
    bit, on a fresh dataset and on one read from a file (float32 frames)."""
    write_dataset(dataset0, tmp_path / "ds.bin")
    for ds, hand in ((dataset0, hand3), (dataset0, oblique_hand), (read_dataset(tmp_path / "ds.bin"), oblique_hand)):
        candidates = _expand_candidates(ds, hand, 100)
        assert len(candidates) == 4 * len(_ranked_cgrs(ds, 100)) > 0
        _, angle, section, _ = best_grasp_poses(ds.frames[candidates["row"]], ds.grids[candidates["row"]], ds.params.grid)
        for cand, a, s in zip(candidates, angle, section):
            cgr = ds.cgr(cand["row"])
            R, t, i, j, score = reference_grasp_pose(cgr)
            gt = hand.type(cand["type"])
            q = query_grasp_pose(cgr)
            single = aligned_poses(frame_array(q.rotation, q.translation)[None], gt)[0]
            assert (a, s, cand["score"]) == (i, j, score)
            for rotation in (reference_alignment(R, gt), single[:, :3]):
                assert np.array_equal(cand["pose"][:, :3], rotation)
            for translation in (t, single[:, 3]):
                assert np.array_equal(cand["pose"][:, 3], translation)


def _reference_detect(scene, hand, ds, config, max_results, bank=None, seed=0):
    """detect (with a bank) or detect_baseline (without), one candidate at
    a time: per-CGR poses, per-type model batches, a sort on Python keys
    and a per-pose collision check until max_results are free."""
    cands = []
    for row in _ranked_cgrs(ds, config.top_cgr):
        R, t, _, _, score = reference_grasp_pose(ds.cgr(row))
        cands += [dict(type=gt.id, R=reference_alignment(R, gt), t=t, score=score, row=row) for gt in hand.grasp_types]
    if bank is not None:
        for gt in hand.grasp_types:
            mine = [c for c in cands if c["type"] == gt.id]
            probs = forward(bank.models[gt.id], np.stack([ds.grids[c["row"]].reshape(-1) for c in mine]))
            for c, p in zip(mine, probs):
                c["decision"] = float(p)
        order = sorted(range(len(cands)), key=lambda i: (-cands[i]["decision"], -cands[i]["score"], i))
    else:
        jitter = np.random.default_rng(seed).random(len(cands))
        order = sorted(range(len(cands)), key=lambda i: (-cands[i]["score"], jitter[i]))
    points = scene.surface_cloud(1500, seed=0).points
    out = []
    for c in (cands[i] for i in order[: config.top_candidates]):
        if not reference_collision(c["R"], c["t"], hand.type(c["type"]), points):
            out.append(c)
            if max_results is not None and len(out) == max_results:
                break
    return out


@pytest.mark.parametrize("max_results", [1, 3, None])
def test_detect_matches_per_candidate_reference(scene0, dataset0, hand3, oblique_hand, bank0, max_results):
    config = DetectionConfig(top_cgr=40, top_candidates=100)
    # a bank whose every type scores all its candidates alike: ties fall to
    # the antipodal score, then to generation order
    flat = DecisionBank(copy.deepcopy(bank0.models))
    for m in flat.models.values():
        m.weights[-1][:] = 0.0
    for hand, bank in ((hand3, bank0), (oblique_hand, bank0), (hand3, flat), (hand3, None), (oblique_hand, None)):
        if bank is None:
            got = detect_baseline(scene0, hand, config, dataset=dataset0, seed=5, max_results=max_results)
        else:
            got = detect(scene0, hand, bank, config, dataset=dataset0, max_results=max_results)
        want = _reference_detect(scene0, hand, dataset0, config, max_results, bank, seed=5)
        assert len(got) == len(want) == (max_results or len(want)) > 0
        for g, w in zip(got, want):
            assert g.grasp_type_id == w["type"] and g.antipodal_score == w["score"]
            assert g.decision_score == w.get("decision")
            assert np.array_equal(g.pose[:, :3], w["R"]) and np.array_equal(g.pose[:, 3], w["t"])
            assert g.instance_index == dataset0.instance[w["row"]]


def test_detect_scores_and_ordering(scene0, dataset0, hand3, bank0):
    config = DetectionConfig(top_cgr=20, top_candidates=40)
    out = detect(scene0, hand3, bank0, config, dataset=dataset0)
    assert 0 < len(out) <= 40
    # one order: decision score descending, ties by antipodal score
    keys = [(c.decision_score, c.antipodal_score) for c in out]
    assert keys == sorted(keys, reverse=True)


def test_detect_max_results(scene0, dataset0, hand3, bank0):
    config = DetectionConfig(top_cgr=20)
    out = detect(scene0, hand3, bank0, config, dataset=dataset0, max_results=3)
    assert len(out) == 3


def test_detect_missing_type_in_bank(scene0, dataset0, hand3, bank0):
    partial = DecisionBank({0: bank0.models[0]})
    with pytest.raises(PipelineError):
        detect(scene0, hand3, partial, DetectionConfig(top_cgr=5), dataset=dataset0)


def test_detect_on_read_dataset_matches_fresh(tmp_path, scene0, dataset0, hand3, bank0):
    """A written-then-read dataset (float32 rows, SO(3)-projected frames)
    ranks the same grasps as the fresh one."""
    write_dataset(dataset0, tmp_path / "ds.bin")
    back = read_dataset(tmp_path / "ds.bin")
    config = DetectionConfig(top_cgr=30, top_candidates=60)
    for run in (
        lambda ds: detect(scene0, hand3, bank0, config, dataset=ds),
        lambda ds: detect_baseline(scene0, hand3, config, dataset=ds, seed=2),
    ):
        fresh, read = run(dataset0), run(back)
        assert len(fresh) == len(read) > 0
        for a, b in zip(fresh, read):
            assert a.grasp_type_id == b.grasp_type_id
            assert abs(a.antipodal_score - b.antipodal_score) < 1e-6
            assert np.max(np.abs(a.pose - b.pose)) < 1e-6


def test_library_poses_stay_arrays(monkeypatch, pool, scene0, dataset0, hand3, bank0):
    """Poses computed inside the library stay [R | t] arrays: detection,
    collection, the oracle and patch sampling build no RigidTransform."""
    from cgrkit import geometry
    from cgrkit.coverage import sample_local_geometries, sparse_params

    built = []
    real = geometry.RigidTransform.__post_init__

    def counting(self):
        built.append(type(self))
        real(self)

    monkeypatch.setattr(geometry.RigidTransform, "__post_init__", counting)
    config = DetectionConfig(top_cgr=20, top_candidates=40)
    ranked = detect(scene0, hand3, bank0, config, dataset=dataset0)
    ranked += detect_baseline(scene0, hand3, config, dataset=dataset0, seed=1)
    collect(CollectionConfig(target_size=8, seed=1), [(scene0, dataset0)], hand3)
    for candidate in ranked[:8]:
        grasp_oracle(candidate, hand3, scene0, friction=0.5)
    params = sparse_params(points_per_patch=16, surface_samples=2000, grasp_point_resolution=0.04)
    patches = sample_local_geometries(pool["cube"], params, object_id="cube")
    assert built == []
    assert ranked and patches
    for pose in [c.pose for c in ranked] + [p.source_pose for p in patches]:
        assert pose.shape == (3, 4) and pose.dtype == np.float64


def test_detect_on_empty_scene(tmp_path, scene0, hand3, bank0):
    empty = scene0
    while empty.instances:
        empty = empty.without_instance(0)
    ds = annotate_scene(empty, ANN)
    assert len(ds) == 0 and ds.grids.shape == (0, 5, 48, 2)
    assert detect(empty, hand3, bank0, dataset=ds) == []
    assert detect_baseline(empty, hand3, dataset=ds) == []
    write_dataset(ds, tmp_path / "empty.bin")
    assert len(read_dataset(tmp_path / "empty.bin")) == 0


def test_baseline_ordering_and_determinism(scene0, dataset0, hand3):
    config = DetectionConfig(top_cgr=20, top_candidates=40)
    a = detect_baseline(scene0, hand3, config, dataset=dataset0, seed=3)
    b = detect_baseline(scene0, hand3, config, dataset=dataset0, seed=3)
    assert len(a) == len(b) > 0
    for ca, cb in zip(a, b):
        assert ca.grasp_type_id == cb.grasp_type_id
        assert np.array_equal(ca.pose[:, 3], cb.pose[:, 3])
    scores = [c.antipodal_score for c in a]
    assert scores == sorted(scores, reverse=True)
    for c in a:
        assert c.decision_score is None  # the baseline never consults a model


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_stats_rate_and_frequencies():
    s = EvalStats()
    assert s.success_rate is None
    assert s.type_frequencies() == {}
    s = EvalStats(attempts=6, successes=3, per_type_attempts={0: 3, 1: 3})
    assert s.success_rate == 0.5
    freqs = s.type_frequencies()
    assert freqs == {0: 0.5, 1: 0.5}
    assert abs(sum(freqs.values()) - 1.0) < 1e-12


def test_evaluate_validates_policy(scene0, hand3, bank0):
    with pytest.raises(PipelineError):
        evaluate("greedy", [scene0], hand3, bank0, annotation=ANN)
    with pytest.raises(PipelineError):
        evaluate("detect", [scene0], hand3, None, annotation=ANN)


def test_evaluate_baseline_clearing(scene0, hand3, ann_cache):
    stats = evaluate(
        "baseline", [scene0], hand3, None, annotation=ANN, seed=0, cache=ann_cache
    )
    assert 0 < stats.attempts <= 2 * len(scene0.instances)
    assert 0 <= stats.successes <= stats.attempts
    assert sum(stats.per_type_attempts.values()) == stats.attempts
    assert sum(stats.per_type_successes.values()) == stats.successes
    assert abs(sum(stats.type_frequencies().values()) - 1.0) < 1e-12


def test_evaluate_detect_runs(scene0, hand3, bank0, ann_cache):
    stats = evaluate(
        "detect", [scene0], hand3, bank0, annotation=ANN, cache=ann_cache
    )
    assert 0 < stats.attempts <= 2 * len(scene0.instances)


def test_evaluate_clears_the_grasped_instance(hand3, monkeypatch):
    """A pinch on a long plate whose grasp point lies nearer a vertex of a
    small neighbouring cube than any vertex of the plate clears the plate."""
    from conftest import simple_scene

    meshes = {"plate": make_box((0.04, 0.3, 0.05)), "cube": make_box((0.02, 0.02, 0.02))}
    scene = simple_scene(meshes, {"plate": (0.0, 0.0), "cube": (0.06, 0.0)})
    center = np.array([0.0, 0.0, 0.025])
    nearest_vertex = [
        np.min(np.linalg.norm(scene.instance_mesh(i).vertices - center, axis=1)) for i in range(2)
    ]
    assert nearest_vertex[1] < nearest_vertex[0]
    grasp = _pinch_candidate(center)
    grasp.instance_index = 0
    seen = []

    def first_call_pinches(state, *args, **kwargs):
        seen.append([inst.mesh_id for inst in state.instances])
        return [grasp] if len(seen) == 1 else []

    monkeypatch.setattr(pipeline, "annotate_scene", lambda *args, **kwargs: None)
    monkeypatch.setattr(pipeline, "detect_baseline", first_call_pinches)
    stats = evaluate("baseline", [scene], hand3, None, annotation=ANN)
    assert (stats.attempts, stats.successes) == (1, 1)
    assert seen == [["plate", "cube"], ["cube"]]


# ---------------------------------------------------------------------------
# Trial persistence and training data


def test_trials_roundtrip_bitwise(tmp_path, trials0):
    path = tmp_path / "trials.bin"
    write_trials(trials0, ANN.grid, path)
    back = read_trials(ANN.grid, path)
    assert len(back) == len(trials0)
    for got, want in zip(back, trials0):
        assert got.grasp_type_id == want.grasp_type_id
        assert got.outcome == want.outcome
        assert abs(got.friction - want.friction) < 1e-6
        assert np.allclose(got.pose[:, 3], want.pose[:, 3], atol=1e-6)
    write_trials(back, ANN.grid, tmp_path / "trials2.bin")
    assert path.read_bytes() == (tmp_path / "trials2.bin").read_bytes()


def test_read_trials_truncated(tmp_path, trials0):
    write_trials(trials0[:3], ANN.grid, tmp_path / "trials.bin")
    blob = (tmp_path / "trials.bin").read_bytes()
    rec = (len(blob) - 16) // 3
    # inside the count, a CGR, a pose, the type/outcome/friction tail
    for cut in (12, 16 + rec // 2, 16 + rec - 30, len(blob) - 1):
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        with pytest.raises(PipelineError, match="truncated file"):
            read_trials(ANN.grid, tmp_path / "cut.bin")


def test_read_trials_corrupt_count(tmp_path, trials0):
    write_trials(trials0[:3], ANN.grid, tmp_path / "trials.bin")
    blob = bytearray((tmp_path / "trials.bin").read_bytes())
    blob[8:16] = np.uint64(2**62).tobytes()
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(PipelineError, match="truncated file"):
        read_trials(ANN.grid, tmp_path / "bad.bin")


def test_trials_golden_layout(tmp_path):
    """Count, then per trial the 12 float32 frame values (R row-major, then
    t), the float32 grid, the 12 float32 pose values and <HBf (type id,
    outcome, friction)."""
    import struct

    g = CgrGridParams(n_angles=4, n_sections=2, section_depths=(0.01, 0.02))
    rng = np.random.default_rng(6)
    trials = [
        TrialRecord(rng.normal(size=(3, 4)), rng.uniform(0, 0.05, (2, 4, 2)), rng.normal(size=(3, 4)),
                    type_id, outcome, friction)
        for type_id, outcome, friction in ((3, 1, 0.25), (0, 0, 0.7))
    ]
    write_trials(trials, g, tmp_path / "t.bin")
    want = b"CGRKTR1\0" + struct.pack("<Q", 2)
    for t in trials:
        want += struct.pack("<12f", *t.frame[:, :3].reshape(9), *t.frame[:, 3])
        want += struct.pack("<16f", *t.grid.reshape(-1))
        want += struct.pack("<12f", *t.pose[:, :3].reshape(9), *t.pose[:, 3])
        want += struct.pack("<HBf", t.grasp_type_id, t.outcome, t.friction)
    assert (tmp_path / "t.bin").read_bytes() == want
    back = read_trials(g, tmp_path / "t.bin")
    assert [(t.grasp_type_id, t.outcome) for t in back] == [(3, 1), (0, 0)]
    assert np.array_equal(back[1].pose, trials[1].pose.astype(np.float32))


def _small_trials(grid_params, count=4):
    rng = np.random.default_rng(7)
    shape = (grid_params.n_sections, grid_params.n_angles, 2)
    return [TrialRecord(rng.normal(size=(3, 4)), rng.uniform(0, 0.05, shape), rng.normal(size=(3, 4)), k, k % 2, 0.5)
            for k in range(count)]


def test_read_trials_rejects_bytes_after_the_data(tmp_path):
    """One appended byte, a count lowered by one, or grid parameters smaller
    than the file's (16 x 3 for a file of 48 x 5 grids) leave bytes after the
    last record read, instead of returning records that read garbage."""
    g = CgrGridParams()
    write_trials(_small_trials(g), g, tmp_path / "t.bin")
    blob = (tmp_path / "t.bin").read_bytes()
    small = CgrGridParams(n_angles=16, n_sections=3, section_depths=(0.01, 0.02, 0.03))
    lowered = blob[:8] + np.uint64(3).tobytes() + blob[16:]
    for bad, params in ((blob + b"\0", g), (lowered, g), (blob, small)):
        (tmp_path / "bad.bin").write_bytes(bad)
        with pytest.raises(PipelineError, match="bytes after the end of the data"):
            read_trials(params, tmp_path / "bad.bin")


@pytest.mark.parametrize("flag", [2, 128, 255])
def test_read_trials_rejects_bad_outcome_flag(tmp_path, flag):
    """An outcome byte other than 0 or 1 raises instead of becoming a label."""
    g = CgrGridParams(n_angles=4, n_sections=2, section_depths=(0.01, 0.02))
    write_trials(_small_trials(g), g, tmp_path / "t.bin")
    blob = bytearray((tmp_path / "t.bin").read_bytes())
    at = len(blob) - 5  # the last record's outcome byte, before its float32 friction
    assert blob[at] == 1
    blob[at] = flag
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(PipelineError, match="bad outcome flag"):
        read_trials(g, tmp_path / "bad.bin")


def test_read_trials_bad_magic(tmp_path):
    (tmp_path / "x.bin").write_bytes(b"BADMAGIC" + b"\0" * 16)
    with pytest.raises(PipelineError):
        read_trials(ANN.grid, tmp_path / "x.bin")


def test_trials_to_training_data(trials0):
    data = trials_to_training_data(trials0)
    assert sorted(data) == [0, 1, 2, 3]
    total = 0
    for type_id, (x, y) in data.items():
        assert x.shape == (len(y), ANN.grid.flat_size)
        assert set(np.unique(y)) <= {0.0, 1.0}
        total += len(y)
    assert total == len(trials0)
