import numpy as np
import pytest

from cgrkit import bundled_hand_path
from cgrkit.cgr import antipodal_rep, best_grasp_poses, compute_cgr, query_grasp_pose
from cgrkit.geometry import (
    PointCloud,
    RigidTransform,
    TriangleMesh,
    frame_array,
    make_box,
    merge_meshes,
    rotation_z,
    save_obj,
)
from cgrkit.hand import (
    FingertipRay,
    GraspCandidate,
    GraspTypeSpec,
    HandError,
    HandSpec,
    aligned_poses,
    fingertip_contacts,
    hand_scene_collision,
    hand_scene_collisions,
    load_hand_spec,
)

from conftest import random_rotation, random_transform, reference_alignment, reference_collision


# ---------------------------------------------------------------------------
# Spec parsing


def test_bundled_archetype3_parses(hand3):
    assert len(hand3.grasp_types) == 4
    assert [gt.id for gt in hand3.grasp_types] == [0, 1, 2, 3]
    names = [gt.name for gt in hand3.grasp_types]
    assert names == ["pinch", "tripod", "deep-pinch", "wide-span"]
    for gt in hand3.grasp_types:
        assert len(gt.fingertip_rays) >= 2
        assert len(gt.collision_mesh) > 0
        assert abs(np.linalg.norm(gt.approach_axis) - 1) < 1e-12
        assert abs(np.linalg.norm(gt.principal_closing_axis) - 1) < 1e-12


def test_bundled_hand_path_missing():
    with pytest.raises(FileNotFoundError):
        bundled_hand_path("no-such-hand")


def _write_hand(tmp_path, body):
    save_obj(make_box((0.02, 0.02, 0.02)), tmp_path / "palm.obj")
    path = tmp_path / "test.hand"
    path.write_text(body)
    return path


MINIMAL_HAND = """name test hand
grasp_type 0
  name pinch
  approach 0 0 1
  closing 1 0 0
  max_close_travel 0.1
  collision_mesh palm.obj
  fingertip 0.05 0 0  -1 0 0
  fingertip -0.05 0 0  1 0 0
end
"""


def test_parse_minimal_hand(tmp_path):
    hand = load_hand_spec(_write_hand(tmp_path, MINIMAL_HAND))
    assert hand.name == "test hand"
    assert len(hand.grasp_types) == 1
    gt = hand.type(0)
    assert np.allclose(gt.fingertip_rays[0].origin, [0.05, 0, 0])
    assert np.allclose(gt.fingertip_rays[0].direction, [-1, 0, 0])
    assert gt.max_close_travel == 0.1


def test_parse_errors(tmp_path):
    with pytest.raises(HandError):  # missing closing axis
        load_hand_spec(
            _write_hand(
                tmp_path,
                "grasp_type 0\n name x\n approach 0 0 1\n max_close_travel 0.1\n"
                " collision_mesh palm.obj\n fingertip 0 0 0 1 0 0\n"
                " fingertip 1 0 0 -1 0 0\nend\n",
            )
        )
    with pytest.raises(HandError):  # unterminated block
        load_hand_spec(_write_hand(tmp_path, "grasp_type 0\n name x\n"))
    with pytest.raises(HandError):  # unknown directive
        load_hand_spec(_write_hand(tmp_path, "swivel 3\n"))


@pytest.mark.parametrize("line", [
    "approach 0 0",
    "approach 0 0 1 1",
    "closing 1 0",
    "max_close_travel 0.1 0.2",
    "collision_mesh palm.obj spare.obj",
    "fingertip 0.05 0 0  -1 0",
    "fingertip 0.05 0 0  -1 0 0 7",
])
def test_parse_checks_value_counts(tmp_path, line):
    key = line.split()[0]
    lines = MINIMAL_HAND.splitlines()
    lineno = next(n for n, text in enumerate(lines, 1) if text.split()[0] == key)
    lines[lineno - 1] = line
    with pytest.raises(HandError, match=rf"test\.hand:{lineno}: '{key}' takes \d values, got \d"):
        load_hand_spec(_write_hand(tmp_path, "\n".join(lines) + "\n"))


def test_spec_validation():
    ray = FingertipRay([0.05, 0, 0], [-1, 0, 0])
    mesh = make_box((0.01, 0.01, 0.01))
    with pytest.raises(HandError):  # parallel axes
        GraspTypeSpec(0, "x", [0, 0, 1], [0, 0, 1], [ray, ray], mesh, 0.1)
    with pytest.raises(HandError):  # single finger
        GraspTypeSpec(0, "x", [1, 0, 0], [0, 0, 1], [ray], mesh, 0.1)
    with pytest.raises(HandError):  # non-dense ids
        gt = GraspTypeSpec(1, "x", [1, 0, 0], [0, 0, 1], [ray, ray], mesh, 0.1)
        HandSpec("h", [gt])
    with pytest.raises(HandError):
        HandSpec("h", [])


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [-np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_spec_rejects_non_finite_and_zero_directions(bad):
    ray = FingertipRay([0.05, 0, 0], [-1, 0, 0])
    mesh = make_box((0.01, 0.01, 0.01))
    with pytest.raises(HandError, match="fingertip ray direction must be finite and nonzero"):
        FingertipRay([0.05, 0, 0], bad)
    with pytest.raises(HandError, match="principal_closing_axis must be finite and nonzero"):
        GraspTypeSpec(0, "x", bad, [0, 0, 1], [ray, ray], mesh, 0.1)
    with pytest.raises(HandError, match="approach_axis must be finite and nonzero"):
        GraspTypeSpec(0, "x", [1, 0, 0], bad, [ray, ray], mesh, 0.1)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line, message", [
    ("approach {v} 0 1", "approach_axis must be finite"),
    ("closing 1 {v} 0", "principal_closing_axis must be finite"),
    ("fingertip 0.05 0 0  -1 0 {v}", "fingertip ray direction must be finite"),
    ("fingertip 0.05 {v} 0  -1 0 0", "fingertip ray origin must be finite"),
], ids=["approach", "closing", "fingertip-direction", "fingertip-origin"])
def test_parse_rejects_non_finite_values(tmp_path, value, line, message):
    """A NaN or infinite direction or fingertip origin in a .hand file raises
    with the file and line, instead of loading a hand whose basis is NaN."""
    line = line.format(v=value)
    key = line.split()[0]
    lines = MINIMAL_HAND.splitlines()
    lineno = next(n for n, text in enumerate(lines, 1) if text.split()[0] == key)
    lines[lineno - 1] = line
    with pytest.raises(HandError, match=rf"test\.hand:\d+: {message}"):
        load_hand_spec(_write_hand(tmp_path, "\n".join(lines) + "\n"))


@pytest.mark.parametrize("travel", [0.0, -0.1, float("nan")])
def test_spec_rejects_non_positive_travel(travel):
    ray = FingertipRay([0.05, 0, 0], [-1, 0, 0])
    with pytest.raises(HandError, match="max_close_travel must be positive"):
        GraspTypeSpec(0, "x", [1, 0, 0], [0, 0, 1], [ray, ray], make_box((0.01, 0.01, 0.01)), travel)


def test_spec_accepts_infinite_travel():
    ray = FingertipRay([0.05, 0, 0], [-1, 0, 0])
    gt = GraspTypeSpec(0, "x", [1, 0, 0], [0, 0, 1], [ray, ray], make_box((0.01, 0.01, 0.01)), np.inf)
    assert gt.max_close_travel == np.inf


# ---------------------------------------------------------------------------
# Candidate generation


def test_align_to_antipodal_axis_mapping(hand3):
    rng = np.random.default_rng(0)
    for _ in range(20):
        tf = random_transform(rng)
        for gt in hand3.grasp_types:
            aligned = aligned_poses(frame_array(tf.rotation, tf.translation)[None], gt)[0]
            R = aligned[:, :3]
            # approach axis lands on the antipodal frame's z
            assert np.allclose(R @ gt.approach_axis, tf.rotation[:, 2], atol=1e-9)
            # closing axis (component orthogonal to approach) lands on x
            c = gt.principal_closing_axis
            c_perp = c - np.dot(c, gt.approach_axis) * gt.approach_axis
            c_perp /= np.linalg.norm(c_perp)
            assert np.allclose(R @ c_perp, tf.rotation[:, 0], atol=1e-9)
            assert np.allclose(aligned[:, 3], tf.translation)


def test_aligned_poses_match_per_pose(hand3, oblique_hand):
    rng = np.random.default_rng(2)
    anchors = np.array([frame_array(tf.rotation, tf.translation) for tf in (random_transform(rng) for _ in range(40))])
    for gt in hand3.grasp_types + oblique_hand.grasp_types:
        batch = aligned_poses(anchors, gt)
        for anchor, pose in zip(anchors, batch):
            single = aligned_poses(anchor[None].copy(), gt)[0]
            assert np.array_equal(pose[:, :3], reference_alignment(anchor[:, :3].copy(), gt))
            assert np.array_equal(pose[:, :3], single[:, :3])
            assert np.array_equal(pose[:, 3], anchor[:, 3]) and np.array_equal(single[:, 3], anchor[:, 3])


def test_candidates_from_cgr(slab, hand3):
    """One CGR's candidates: every grasp type anchored at its best antipodal
    pose, all sharing that entry's score."""
    cgr = compute_cgr(slab, RigidTransform(rotation_z(0.06), np.zeros(3)))
    frame = frame_array(cgr.frame.rotation, cgr.frame.translation)[None]
    anchors, _, _, score = best_grasp_poses(frame, cgr.grid[None], cgr.params)
    candidates = [aligned_poses(anchors, gt)[0] for gt in hand3.grasp_types]
    assert len(candidates) == len(hand3.grasp_types) == 4
    assert score[0] == antipodal_rep(cgr).best()[2] > 0.0
    pose = query_grasp_pose(cgr)
    for c in candidates:
        assert np.allclose(c[:, 3], pose.translation, atol=1e-12)


def test_candidate_score_validation(slab, hand3):
    cgr = compute_cgr(slab, RigidTransform.identity())
    tf = query_grasp_pose(cgr)
    pose = frame_array(tf.rotation, tf.translation)
    with pytest.raises(HandError):
        GraspCandidate(pose, 0, antipodal_score=1.5)
    with pytest.raises(HandError):
        GraspCandidate(pose, 0, antipodal_score=0.5, decision_score=-0.1)


# ---------------------------------------------------------------------------
# Collision checking


def _pinch_candidate(hand3, rotation=None, translation=(0, 0, 0)):
    pose = frame_array(rotation if rotation is not None else np.eye(3), np.asarray(translation, float))
    return GraspCandidate(pose, 0, antipodal_score=1.0)


def test_collision_detects_points_in_palm(hand3):
    gt = hand3.type(0)
    cand = _pinch_candidate(hand3)
    lo, hi = gt.collision_mesh.bounds()
    inside = PointCloud(((lo + hi) / 2)[None, :])
    assert hand_scene_collision(cand, gt, inside)
    far = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    assert not hand_scene_collision(cand, gt, far)
    assert not hand_scene_collision(cand, gt, PointCloud(np.zeros((0, 3))))


def test_collision_grid_belongs_to_its_spec(hand3):
    # each spec keeps its own solid grid: a palm built where a dropped one
    # was (and so likely under its id) must not answer with the old palm's
    # grid. Both palms span the same box; only the solid one holds the probe.
    solid = make_box((0.04, 0.04, 0.04))
    plates = merge_meshes(
        [make_box((0.004, 0.04, 0.04), center=(x, 0.0, 0.0)) for x in (-0.018, 0.018)]
    )
    ray = FingertipRay([0.05, 0, 0], [-1, 0, 0])
    cand = _pinch_candidate(hand3)
    probe = PointCloud(np.zeros((1, 3)))
    answers = []
    for palm in [solid, plates] * 3:
        mesh = TriangleMesh(palm.vertices, palm.triangles)
        gt = GraspTypeSpec(0, "x", [1, 0, 0], [0, 0, 1], [ray, ray], mesh, 0.1)
        answers.append(hand_scene_collision(cand, gt, probe))
        del gt, mesh
    assert answers == [True, False] * 3


def test_batched_collision_matches_per_pose(hand3):
    """One batched pass equals the per-pose check on random poses, on
    points lying exactly on voxel faces and on an empty cloud."""
    rng = np.random.default_rng(3)
    voxel = 0.005
    for gt in hand3.grasp_types:
        lo, hi = gt.collision_mesh.bounds()
        grid = gt.collision_grid
        assert grid.voxel_size == voxel
        # face points: every corner of the voxel lattice around the palm
        axes = [grid.origin[a] + voxel * np.arange(grid.offset[a] - 1, grid.offset[a] + grid.mask.shape[a] + 2)
                for a in range(3)]
        faces = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        scattered = rng.uniform(lo - 0.03, hi + 0.03, (1500, 3))
        # exact poses keep face points on the faces; random ones move them
        exact = [frame_array(np.eye(3), np.zeros(3)), frame_array(np.eye(3)[[1, 2, 0]], [voxel, 0.0, -2 * voxel]),
                 frame_array(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))]
        moved = [frame_array(random_rotation(rng), rng.uniform(-0.02, 0.02, 3)) for _ in range(40)]
        poses = np.array(exact + moved)
        for points in (faces, scattered, np.zeros((0, 3))):
            got = hand_scene_collisions(poses, gt, PointCloud(points))
            want = [reference_collision(p[:, :3].copy(), p[:, 3], gt, points) for p in poses]
            assert got.tolist() == want
            assert got.any() == (len(points) > 0) and not got[3:].all()
        assert hand_scene_collisions(poses[:0], gt, PointCloud(faces)).shape == (0,)


def test_collision_equivariant_under_pose(hand3):
    gt = hand3.type(0)
    rng = np.random.default_rng(1)
    lo, hi = gt.collision_mesh.bounds()
    pts = rng.uniform(lo - 0.02, hi + 0.02, (200, 3))
    base = _pinch_candidate(hand3)
    want = [
        hand_scene_collision(base, gt, PointCloud(p[None, :])) for p in pts
    ]
    tf = random_transform(rng)
    moved = _pinch_candidate(hand3, rotation=tf.rotation, translation=tf.translation)
    got = [
        hand_scene_collision(moved, gt, PointCloud(tf.apply(p)[None, :]))
        for p in pts
    ]
    assert got == want


# ---------------------------------------------------------------------------
# Fingertip contacts


def test_fingertip_contacts_on_cube(cube, hand3):
    # pinch centered in the cube: fingers close along +-x onto the side faces
    cand = _pinch_candidate(hand3)
    contacts = fingertip_contacts(cand, hand3.type(0), cube)
    assert len(contacts) == 2
    by_x = sorted(contacts, key=lambda c: c.position[0])
    assert np.allclose(by_x[0].position, [-0.025, 0, 0], atol=1e-9)
    assert np.allclose(by_x[1].position, [0.025, 0, 0], atol=1e-9)
    # normals point into the object, along each finger's push
    assert np.allclose(by_x[0].normal, [1, 0, 0], atol=1e-12)
    assert np.allclose(by_x[1].normal, [-1, 0, 0], atol=1e-12)


def test_fingertip_misses_produce_no_contact(cube, hand3):
    cand = _pinch_candidate(hand3, translation=(0, 0, 0.2))  # far above the cube
    assert fingertip_contacts(cand, hand3.type(0), cube) == []


def test_fingertip_respects_travel_limit(cube, hand3):
    gt = hand3.type(0)
    short = GraspTypeSpec(
        0,
        "short",
        gt.principal_closing_axis,
        gt.approach_axis,
        gt.fingertip_rays,
        gt.collision_mesh,
        max_close_travel=0.01,  # fingers stop before reaching the cube
    )
    cand = _pinch_candidate(hand3)
    assert fingertip_contacts(cand, short, cube) == []
