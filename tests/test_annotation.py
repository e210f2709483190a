import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrkit import annotation
from cgrkit.annotation import (
    AnnotationError,
    AnnotationParams,
    CgrDataset,
    CgrRecord,
    Scene,
    SceneInstance,
    _approach_collisions,
    _quat_to_rotation,
    annotate_scene,
    candidate_frames,
    compose_scene,
    read_dataset,
    surface_voxel_points,
    write_dataset,
)
from cgrkit.cgr import CgrGridParams, compute_cgr
from cgrkit.geometry import (
    RigidTransform,
    fibonacci_sphere,
    frame_array,
    frame_from_z,
    make_box,
    rotation_z,
    sample_surface_points,
    save_obj,
)

from conftest import random_rotation, reference_approach_collisions, simple_scene

SMALL = AnnotationParams(
    surface_resolution=0.0125, approach_directions=12, grid=CgrGridParams()
)


# ---------------------------------------------------------------------------
# Scene composition


def test_quat_to_rotation():
    assert np.allclose(_quat_to_rotation(1, 0, 0, 0), np.eye(3), atol=1e-12)
    half = np.sqrt(0.5)
    assert np.allclose(_quat_to_rotation(half, 0, 0, half), rotation_z(np.pi / 2), atol=1e-12)


def test_compose_scene_roundtrip(tmp_path):
    save_obj(make_box((0.05, 0.05, 0.05)), tmp_path / "box.obj")
    (tmp_path / "s.scene").write_text(
        """
# two boxes on a table
mesh box box.obj
instance box 1 0 0 0   0.0 0.0 0.025
instance box 0.7071067811865476 0 0 0.7071067811865476   0.1 0.0 0.025
table 0 0 0   0 0 1
"""
    )
    scene = compose_scene(tmp_path / "s.scene")
    assert len(scene.instances) == 2
    assert np.allclose(scene.instances[0].pose.translation, [0, 0, 0.025])
    assert np.allclose(scene.instances[1].pose.rotation, rotation_z(np.pi / 2), atol=1e-9)
    assert np.allclose(scene.table_normal, [0, 0, 1])
    lo, _ = scene.instance_mesh(0).bounds()
    assert abs(lo[2]) < 1e-12  # resting on the table


def test_compose_scene_errors(tmp_path):
    (tmp_path / "bad.scene").write_text("mesh box missing.obj\n")
    with pytest.raises(AnnotationError):
        compose_scene(tmp_path / "bad.scene")
    (tmp_path / "bad2.scene").write_text("instance box 1 0 0 0 0 0 0\n")
    with pytest.raises(AnnotationError):
        compose_scene(tmp_path / "bad2.scene")
    (tmp_path / "bad3.scene").write_text("# flat\ntable 0 0 0   0 0 0\n")
    with pytest.raises(AnnotationError, match=r"bad3\.scene:2: table point and normal must be finite"):
        compose_scene(tmp_path / "bad3.scene")


@pytest.mark.parametrize("line", [
    "mesh box",
    "mesh box box.obj spare.obj",
    "instance box 1 0 0",
    "instance box 1 0 0 0   0 0 0.025 7",
    "table 0 0 0   0 0",
    "table 0 0 0   0 0 1 1",
])
def test_compose_scene_checks_value_counts(tmp_path, line):
    save_obj(make_box((0.05, 0.05, 0.05)), tmp_path / "box.obj")
    (tmp_path / "s.scene").write_text(f"mesh box box.obj\n{line}\n")
    with pytest.raises(AnnotationError, match=rf"s\.scene:2: '{line.split()[0]}' takes \d values, got \d"):
        compose_scene(tmp_path / "s.scene")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line, message", [
    ("table 0 0 0   0 {v} 1", "table point and normal must be finite"),
    ("table 0 0 {v}   0 0 1", "table point and normal must be finite"),
    ("instance box 1 0 0 0   0 {v} 0.025", "translation must be finite"),
], ids=["table-normal", "table-point", "instance-translation"])
def test_compose_scene_rejects_non_finite_values(tmp_path, value, line, message):
    """A NaN or infinite table value or instance translation raises with the
    file and line, instead of a scene placed at NaN."""
    save_obj(make_box((0.05, 0.05, 0.05)), tmp_path / "box.obj")
    (tmp_path / "s.scene").write_text(f"mesh box box.obj\n{line.format(v=value)}\n")
    with pytest.raises(AnnotationError, match=rf"s\.scene:2: {message}"):
        compose_scene(tmp_path / "s.scene")


@pytest.mark.parametrize("point, normal", [
    ((0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (0, 0, np.nan)),
    ((0, 0, 0), (np.inf, 0, 1)),
    ((0, np.nan, 0), (0, 0, 1)),
    ((np.inf, 0, 0), (0, 0, 1)),
])
def test_scene_rejects_bad_table(point, normal):
    with pytest.raises(AnnotationError):
        Scene([], np.array(point, float), np.array(normal, float), {})


def test_scene_helpers(box_scene):
    merged = box_scene.merged_mesh()
    assert len(merged) == 12
    cloud = box_scene.surface_cloud(500)
    assert len(cloud) == 500
    emptier = box_scene.without_instance(0)
    assert len(emptier.instances) == 0


def test_surface_cloud_follows_scene_state(box_scene):
    first = box_scene.surface_cloud(500, seed=4)
    assert box_scene.surface_cloud(500, seed=4) is first  # one sample per state
    uncached = simple_scene().surface_cloud(500, seed=4)
    assert np.array_equal(first.points, uncached.points) and np.array_equal(first.normals, uncached.normals)
    assert box_scene.surface_cloud(400, seed=4) is not first
    assert box_scene.surface_cloud(500, seed=5) is not first
    again = box_scene.surface_cloud(500, seed=4)
    # re-posed in place: the pose's own translation array changes
    box_scene.instances[0].pose.translation[0] += 0.1
    moved = box_scene.surface_cloud(500, seed=4)
    assert moved is not again
    assert np.allclose(moved.points, again.points + [0.1, 0.0, 0.0], atol=1e-12)


def test_merged_mesh_follows_scene_state(box_scene):
    first = box_scene.merged_mesh()
    assert box_scene.merged_mesh() is first  # one mesh, one BVH per state
    # re-posed in place: the pose's own translation array changes
    box_scene.instances[0].pose.translation[0] += 0.1
    moved = box_scene.merged_mesh()
    assert moved is not first
    assert np.allclose(moved.bounds()[0], first.bounds()[0] + [0.1, 0.0, 0.0])
    hit = moved.ray_intersect(np.array([0.1, 0.0, 0.2]), np.array([0.0, 0.0, -1.0]), 1.0)
    assert hit is not None and abs(hit[0] - 0.15) < 1e-12
    # a new pose object, then a replaced mesh object
    box_scene.instances[0].pose = RigidTransform(rotation_z(0.3), [0.0, 0.0, 0.025])
    turned = box_scene.merged_mesh()
    assert turned is not moved
    assert np.allclose(turned.vertices, box_scene.instance_mesh(0).vertices)
    box_scene.meshes["box"] = make_box((0.02, 0.02, 0.02))
    assert box_scene.merged_mesh() is not turned
    assert np.allclose(box_scene.merged_mesh().vertices, box_scene.instance_mesh(0).vertices)


def test_scene_rejects_unknown_mesh():
    with pytest.raises(AnnotationError):
        Scene(
            [SceneInstance("ghost", RigidTransform.identity())],
            np.zeros(3),
            [0, 0, 1],
            {},
        )


# ---------------------------------------------------------------------------
# Frame spawning


def test_surface_voxel_points_on_surface(cube):
    pts = surface_voxel_points(cube, 0.0125)
    assert len(pts) > 20
    # representative points are means of surface samples per voxel: inside
    # the cube volume but near the boundary (edge voxels blend two faces)
    assert np.all(np.abs(pts) <= 0.025 + 1e-9)
    assert np.all(np.abs(pts).max(axis=1) >= 0.025 - 0.0125)
    again = surface_voxel_points(cube, 0.0125)
    assert np.array_equal(pts, again)


def test_candidate_frames_structure(cube):
    frames = candidate_frames(cube, SMALL)
    pts = surface_voxel_points(cube, SMALL.surface_resolution)
    assert len(frames) == len(pts) * SMALL.approach_directions
    dirs = fibonacci_sphere(SMALL.approach_directions)
    for k in (0, 5, len(frames) - 1):
        d = dirs[k % SMALL.approach_directions]
        assert np.allclose(frames[k, :, 2], d, atol=1e-12)
    # point-major: frame k sits at point k // D with direction k % D
    for k in range(len(frames)):
        p, d = divmod(k, SMALL.approach_directions)
        assert np.array_equal(frames[k], frame_array(frame_from_z(dirs[d]), pts[p]))


# ---------------------------------------------------------------------------
# Approach-cylinder filtering


def _filter_one(frame, scene, radius, length, points):
    """_approach_collisions for one RigidTransform frame."""
    frames = frame_array(frame.rotation, frame.translation)[None]
    return bool(_approach_collisions(frames, scene, radius, length, points)[0])


def test_filter_rejects_table_collision(box_scene):
    # approach from above (frame z pointing down): retreat cylinder goes up
    down = RigidTransform(frame_from_z(np.array([0.0, 0.0, -1.0])), [0, 0, 0.05])
    assert not _filter_one(down, box_scene, 0.06, 0.25, np.zeros((0, 3)))
    # approach from below (frame z up): retreat cylinder passes through the table
    up = RigidTransform(np.eye(3), [0, 0, 0.05])
    assert _filter_one(up, box_scene, 0.06, 0.25, np.zeros((0, 3)))


def test_filter_rejects_blocking_points(box_scene):
    down = RigidTransform(frame_from_z(np.array([0.0, 0.0, -1.0])), [0, 0, 0.05])
    blocking = np.array([[0.01, 0.0, 0.15]])  # inside the retreat cylinder
    assert _filter_one(down, box_scene, 0.06, 0.25, blocking)
    clear = np.array([[0.2, 0.0, 0.15]])
    assert not _filter_one(down, box_scene, 0.06, 0.25, clear)


def _filter_per_frame(frame, scene, radius, length, points):
    """The approach filter for one frame, written out directly."""
    axis, origin, n = -frame.rotation[:, 2], frame.translation, scene.table_normal
    h_origin = np.dot(origin - scene.table_point, n)
    h_end = np.dot(origin + length * axis - scene.table_point, n)
    axial = abs(np.dot(axis, n))
    if min(h_origin, h_end) - radius * np.sqrt(max(0.0, 1.0 - axial * axial)) < 0.0:
        return True
    rel = points - origin
    along = rel @ axis
    span = (along >= 0.0) & (along <= length)
    perp = rel[span] - np.outer(along[span], axis)
    return bool((np.einsum("ij,ij->i", perp, perp) <= radius * radius).any())


def _tilted_scene():
    """Three posed objects over a table plane that is not axis-aligned."""
    meshes = {"a": make_box((0.05, 0.05, 0.05)), "b": make_box((0.03, 0.03, 0.06))}
    tilt = RigidTransform(frame_from_z(np.array([0.3, 0.1, 1.0])), [0.06, 0.01, 0.035])
    instances = [
        SceneInstance("a", RigidTransform(rotation_z(0.3), [0.0, 0.0, 0.03])),
        SceneInstance("b", tilt),
        SceneInstance("a", RigidTransform(rotation_z(-1.1), [-0.05, 0.05, 0.031])),
    ]
    return Scene(instances, [0.0, 0.0, 0.004], [0.05, -0.08, 1.0], meshes)


def test_filter_batch_matches_per_frame(monkeypatch):
    """annotate_scene's chunked filter flags exactly the frames the one-frame
    test flags, on a tilted table with points from every other instance."""
    from cgrkit import annotation

    monkeypatch.setattr(annotation, "_FILTER_CHUNK", 5000)  # several chunks per instance
    scene = _tilted_scene()
    ds = annotate_scene(scene, SMALL)
    points = [
        sample_surface_points(scene.instance_mesh(i), 2000, seed=1 + i).points for i in range(3)
    ]
    for k in range(len(ds)):
        others = np.vstack([p for i, p in enumerate(points) if i != ds.instance[k]])
        frame = RigidTransform(ds.frames[k, :, :3], ds.frames[k, :, 3])
        want = _filter_per_frame(frame, scene, SMALL.cylinder_radius, SMALL.cylinder_length, others)
        assert ds.valid[k] == (not want)
        if k % 97 == 0:
            assert _filter_one(
                frame, scene, SMALL.cylinder_radius, SMALL.cylinder_length, others
            ) == want
    assert 0 < ds.valid.sum() < len(ds)


def test_filter_points_come_from_the_scene_cloud(monkeypatch):
    """The approach filter's points are the scene's cached 2000-per-instance
    cloud: a second annotation of an unchanged scene samples nothing, and
    each instance is tested against the samples of every other instance."""
    from cgrkit import annotation

    scene, cache = _tilted_scene(), {}
    annotate_scene(scene, SMALL, cache=cache)
    scene.surface_cloud(1500, seed=0)  # detection's cloud is kept beside it
    sampled, tested = [], []
    real_sample, real_filter = annotation.sample_surface_points, annotation._approach_collisions

    def counting_sample(*args, **kwargs):
        sampled.append(args)
        return real_sample(*args, **kwargs)

    def recording_filter(frames, scene, radius, length, scene_points):
        tested.append(scene_points)
        return real_filter(frames, scene, radius, length, scene_points)

    monkeypatch.setattr(annotation, "sample_surface_points", counting_sample)
    monkeypatch.setattr(annotation, "_approach_collisions", recording_filter)
    annotate_scene(scene, SMALL, cache=cache)
    assert sampled == []
    points = [sample_surface_points(scene.instance_mesh(i), 2000, seed=1 + i).points for i in range(3)]
    assert len(tested) == 3
    for idx, got in enumerate(tested):
        assert np.array_equal(got, np.vstack([p for i, p in enumerate(points) if i != idx]))


def _ulps(x, n):
    """x moved by n (-1, 0 or 1) ulps."""
    return np.nextafter(x, n * np.inf) if n else x


@st.composite
def _filter_cases(draw):
    """(frames, scene, radius, length, points, rows per block) for the
    approach filter: random and axis-aligned frames about a metre apart over
    a tilted table, all shifted by one offset of up to 1e6, and per frame at
    most one block of points near it:
    - "edge": points on the frame's start cap, end cap or side, or copies
    - "graze": one such point, then alternately a copy moved outward and
      a copy, so that the block's bounding sphere touches the cylinder
      grown by its radius
    - "free" and "far" points, or none.
    A cap or side point sits where the filter's arithmetic puts its `along`
    at 0 or `length`, or its distance to the axis at `radius`, or one ulp
    off. A short last block and an empty array occur too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.standard_normal(3) * draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, 1e3, 1e6]))
    radius, length = draw(st.sampled_from([0.01, 0.06])), draw(st.sampled_from([0.05, 0.25]))
    rotations = []
    for _ in range(draw(st.integers(1, 12))):
        aligned = draw(st.sampled_from([None, 0, 1, 2]))
        if aligned is None:
            rotations.append(random_rotation(rng))
        else:
            rotations.append(frame_from_z(np.eye(3)[aligned] * draw(st.sampled_from([1.0, -1.0]))))
    frames = np.stack([frame_array(R, offset + rng.uniform(-1.0, 1.0, 3)) for R in rotations])
    table = offset + [0.0, 0.0, draw(st.sampled_from([-2.0, -2.0, -0.5, 0.0]))]
    scene = Scene([], table, [*rng.uniform(-0.4, 0.4, 2), 1.0], {})
    rows = draw(st.sampled_from([1, 2, 3, 5]))
    points, placed, copies = [], [], []  # copies: (row, source row, shift)

    def boundary(k):
        """A point on frame k's cylinder, recorded for placement, and its
        outward direction."""
        axis = -frames[k, :, 2]
        angle = rng.uniform(0, 2 * np.pi)
        u = np.cos(angle) * frames[k, :, 0] + np.sin(angle) * frames[k, :, 1]
        where, n = draw(st.sampled_from(["start", "end", "end", "side"])), draw(st.integers(-1, 1))
        if where == "side":
            at, target, move, out = rng.uniform(0, length), ("radius", _ulps(radius, n)), u, u
            s = radius
        else:
            at = 0.0 if where == "start" else length
            target, move, out = ("along", _ulps(at, n)), axis, (axis if at else -axis)
            s = radius * draw(st.sampled_from([0.0, 0.5, 1.0]))
        placed.append((len(points), k, target, move))
        points.append(frames[k, :, 3] + at * axis + s * u)
        return out

    for k in range(len(frames)):
        kind = draw(st.sampled_from(["graze"] * 4 + ["edge", "free", "far", "none"]))
        if kind == "edge":
            first, same = len(points), draw(st.booleans())
            for i in range(rows):
                if same and i:
                    copies.append((len(points), first, 0.0))
                    points.append(points[first])
                else:
                    boundary(k)
        elif kind == "graze":
            first = len(points)
            shift = 2 * rng.uniform(1e-3, 0.05) * boundary(k)
            for i in range(1, rows):
                copies.append((len(points), first, shift if i % 2 else 0.0))
                points.append(points[first])
        elif kind in ("free", "far"):
            points += list(frames[k, :, 3] + (0.0 if kind == "free" else 2.0) + rng.uniform(-0.3, 0.3, (rows, 3)))
    points = np.array(points, dtype=float).reshape(-1, 3)
    points = points[:len(points) - draw(st.integers(0, min(rows - 1, len(points))))]
    # move each placed point along the axis (or radially) until the filter's
    # arithmetic, at the point's row of the whole array, meets its target
    for row, k, (what, target), move in placed:
        axis, origin = -frames[k, :, 2], frames[k, :, 3]
        for _ in range(4):
            if row >= len(points):
                break
            rel = points - origin
            along = np.matmul(rel[None], axis[None, :, None])[0, :, 0]
            if what == "along":
                miss = target - along[row]
            else:
                perp = rel[row] - along[row] * axis
                miss = target - np.sqrt(np.einsum("i,i->", perp, perp))
            if miss == 0.0:
                break
            points[row] += miss * move
    for row, source, shift in copies:
        if row < len(points):
            points[row] = points[source] + shift
    return frames, scene, radius, length, points, rows


def _end_cap_graze():
    """A two-point block whose bounding sphere touches the end of the grown
    cylinder: its inner point sits where the filter's arithmetic puts
    `along` at exactly `length`, and without the cull's slack rounding
    would drop the frame."""
    z = np.array([-0.9141490681831038, -0.10496149644078663, -0.3915540389331644])
    frames = frame_array(frame_from_z(z), [-0.773, -0.218, 0.033])[None]
    p = np.array([-0.5444627329542241, -0.19175962588980333, 0.13088850973329108])
    points = np.array([p, p - 0.06 * frames[0, :, 2]])
    return frames, Scene([], [0.0, 0.0, -2.0], [0.0, 0.0, 1.0], {}), 0.01, 0.25, points, 2


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_filter_cases())
@example(_end_cap_graze())
def test_filter_matches_reference_on_generated_cases(case):
    """The bounding-sphere cull never drops a frame that the exact point
    test would flag, for any block size."""
    frames, scene, radius, length, points, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(annotation, "_FILTER_POINTS", rows)
        got = _approach_collisions(frames, scene, radius, length, points)
    assert np.array_equal(got, reference_approach_collisions(frames, scene, radius, length, points))


def test_filter_on_a_single_instance_scene():
    """With no other instance there are no points: only the table test
    flags frames, and annotate_scene's mask is the reference's."""
    scene = simple_scene()
    ds = annotate_scene(scene, SMALL)
    want = reference_approach_collisions(ds.frames, scene, SMALL.cylinder_radius, SMALL.cylinder_length,
                                         np.zeros((0, 3)))
    assert np.array_equal(ds.valid, ~want)
    assert 0 < ds.valid.sum() < len(ds)


def test_filter_validates_params():
    with pytest.raises(AnnotationError):
        AnnotationParams(cylinder_radius=0)
    with pytest.raises(AnnotationError):
        AnnotationParams(cylinder_length=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["surface_resolution", "cylinder_radius", "cylinder_length"])
def test_params_reject_non_finite_sizes(name, value):
    with pytest.raises(AnnotationError, match=f"{name} must be positive and finite"):
        AnnotationParams(**{name: value})


# ---------------------------------------------------------------------------
# Scene annotation


def test_annotate_scene_structure(box_scene):
    ds = annotate_scene(box_scene, SMALL)
    pts = surface_voxel_points(box_scene.meshes["box"], SMALL.surface_resolution)
    assert len(ds.records) == len(pts) * SMALL.approach_directions
    assert 0 < ds.valid.sum() < len(ds.records)
    for rec in ds.records[:50]:
        assert rec.scene_id == 0
        assert rec.instance_index == 0


def test_annotate_world_frame_projection(box_scene):
    """World CGR grids equal object-frame CGRs; frames carry the pose."""
    ds = annotate_scene(box_scene, SMALL)
    inst = box_scene.instances[0]
    obj = box_scene.meshes["box"]
    cgr = ds.cgr(int(np.flatnonzero(ds.valid)[0]))
    obj_frame = inst.pose.inverse().compose(cgr.frame)
    again = compute_cgr(obj, obj_frame, SMALL.grid)
    assert np.max(np.abs(again.grid - cgr.grid)) < 1e-9


def test_annotate_world_frames_match_compose():
    scene = _tilted_scene()
    ds = annotate_scene(scene, SMALL)
    obj_frames = {m: candidate_frames(mesh, SMALL) for m, mesh in scene.meshes.items()}
    rows = 0
    for idx, inst in enumerate(scene.instances):
        local = obj_frames[inst.mesh_id]
        mine = ds.frames[ds.instance == idx]
        assert len(mine) == len(local)
        for k in range(0, len(local), 7):
            world = inst.pose.compose(RigidTransform(local[k, :, :3], local[k, :, 3]))
            assert np.array_equal(mine[k, :, :3], world.rotation)
            assert np.array_equal(mine[k, :, 3], world.translation)
            rows += 1
    assert rows > 100


def test_annotate_cache_follows_mesh_and_params(box_scene):
    coarse = AnnotationParams(surface_resolution=0.02, approach_directions=2)
    fine = AnnotationParams(surface_resolution=0.01, approach_directions=2)
    cache = {}
    n_coarse = len(annotate_scene(box_scene, coarse, cache=cache))
    n_fine = len(annotate_scene(box_scene, fine))
    assert n_coarse < n_fine
    assert len(annotate_scene(box_scene, fine, cache=cache)) == n_fine
    # another mesh under the same id
    big = simple_scene({"box": make_box((0.1, 0.1, 0.1))})
    want = annotate_scene(big, fine)
    got = annotate_scene(big, fine, cache=cache)
    assert np.array_equal(got.grids, want.grids) and np.array_equal(got.valid, want.valid)


def test_annotate_cache_reuse(box_scene):
    cache = {}
    a = annotate_scene(box_scene, SMALL, cache=cache)
    assert "box" in cache
    b = annotate_scene(box_scene, SMALL, cache=cache)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.cgr.grid, rb.cgr.grid)
        assert ra.valid == rb.valid


def test_annotate_invalidates_near_neighbor():
    meshes = {"a": make_box((0.05, 0.05, 0.05)), "b": make_box((0.05, 0.05, 0.05))}
    lone = simple_scene({"a": meshes["a"]}, {"a": (0.0, 0.0)})
    crowded = simple_scene(meshes, {"a": (0.0, 0.0), "b": (0.07, 0.0)})
    v_lone = int(annotate_scene(lone, SMALL).valid.sum())
    v_crowded = sum(
        1 for r in annotate_scene(crowded, SMALL).records if r.valid and r.instance_index == 0
    )
    assert v_crowded < v_lone  # the neighbor blocks some approaches


# ---------------------------------------------------------------------------
# Dataset persistence


def test_dataset_roundtrip_bitwise(tmp_path, box_scene):
    ds = annotate_scene(box_scene, SMALL)
    path = tmp_path / "ds.bin"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert len(back.records) == len(ds.records)
    assert back.params.grid.n_angles == SMALL.grid.n_angles
    # parameters are stored as float32
    assert np.allclose(back.params.grid.section_depths, SMALL.grid.section_depths, atol=1e-7)
    write_dataset(back, tmp_path / "ds2.bin")
    assert path.read_bytes() == (tmp_path / "ds2.bin").read_bytes()


def test_dataset_invalid_records_zeroed(tmp_path, box_scene):
    ds = annotate_scene(box_scene, SMALL)
    assert any(not r.valid for r in ds.records)
    path = tmp_path / "ds.bin"
    write_dataset(ds, path)
    back = read_dataset(path)
    for rec in back.records:
        if not rec.valid:
            assert np.all(rec.cgr.grid == 0.0)
    # valid grids survive at float32 precision
    for got, want in zip(back.records, ds.records):
        if want.valid:
            assert np.array_equal(
                got.cgr.grid.astype(np.float32), want.cgr.grid.astype(np.float32)
            )


def test_dataset_golden_layout(tmp_path):
    """Header, then per record the 12 float32 frame values (R row-major,
    then t), the float32 grid (zeros when invalid) and <IB (scene id, valid)."""
    import struct

    g = CgrGridParams(n_angles=4, n_sections=2, section_depths=(0.01, 0.02))
    params = AnnotationParams(surface_resolution=0.01, approach_directions=3, grid=g)
    rng = np.random.default_rng(5)
    frames = np.stack([
        np.column_stack([frame_from_z(rng.normal(size=3)), rng.normal(size=3)]) for _ in range(3)
    ])
    grids = rng.uniform(0.0, 0.05, (3, 2, 4, 2))
    valid = np.array([True, False, True])
    ds = CgrDataset(params, frames, grids, valid, np.array([7, 7, 9], np.uint32), np.zeros(3, int))
    write_dataset(ds, tmp_path / "ds.bin")
    want = b"CGRKDS1\0" + struct.pack("<IIff", 4, 2, 0.05, np.pi / 2) + struct.pack("<2f", 0.01, 0.02)
    want += struct.pack("<fIff", 0.01, 3, 0.06, 0.25) + struct.pack("<Q", 3)
    for k in range(3):
        f = frames[k]
        want += struct.pack("<12f", *f[:, :3].reshape(9), *f[:, 3])
        want += struct.pack("<16f", *(grids[k].reshape(-1) if valid[k] else np.zeros(16)))
        want += struct.pack("<IB", int(ds.scene_id[k]), int(valid[k]))
    assert (tmp_path / "ds.bin").read_bytes() == want
    back = read_dataset(tmp_path / "ds.bin")
    assert back.frames.dtype == np.float32 and list(back.instance) == [-1] * 3
    assert np.array_equal(back.frames, frames.astype(np.float32))
    assert list(back.valid) == list(valid) and list(back.scene_id) == [7, 7, 9]


def _small_dataset(count=5):
    """A dataset of `count` records on a 4 x 2 grid, every other one valid."""
    g = CgrGridParams(n_angles=4, n_sections=2, section_depths=(0.01, 0.02))
    rng = np.random.default_rng(6)
    frames = np.stack([np.column_stack([frame_from_z(rng.normal(size=3)), rng.normal(size=3)]) for _ in range(count)])
    return CgrDataset(AnnotationParams(surface_resolution=0.01, approach_directions=3, grid=g), frames,
                      rng.uniform(0.0, 0.05, (count, 2, 4, 2)), np.arange(count) % 2 == 0,
                      np.full(count, 3, np.uint32), np.zeros(count, int))


def test_read_dataset_rejects_bytes_after_the_data(tmp_path):
    """One appended byte, or a record count lowered by 3, leaves bytes after
    the last record: the file is not what its header says."""
    write_dataset(_small_dataset(), tmp_path / "ds.bin")
    blob = (tmp_path / "ds.bin").read_bytes()
    at = 8 + 16 + 4 * 2 + 16  # magic, params, then the record count
    assert blob[at:at + 8] == np.uint64(5).tobytes()
    for bad in (blob + b"\0", blob[:at] + np.uint64(2).tobytes() + blob[at + 8:]):
        (tmp_path / "bad.bin").write_bytes(bad)
        with pytest.raises(AnnotationError, match="bytes after the end of the data"):
            read_dataset(tmp_path / "bad.bin")


def test_read_dataset_rejects_grid_too_large_for_a_record(tmp_path):
    """An n_angles that CgrGridParams accepts but whose record numpy cannot
    hold (found by fuzzing: one flipped bit) raises AnnotationError, not a
    bare ValueError."""
    write_dataset(_small_dataset(), tmp_path / "ds.bin")
    blob = bytearray((tmp_path / "ds.bin").read_bytes())
    blob[8:12] = np.uint32(2**30).tobytes()
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(AnnotationError, match="bad grid header"):
        read_dataset(tmp_path / "bad.bin")


@pytest.mark.parametrize("flag", [2, 128, 255])
def test_read_dataset_rejects_bad_valid_flag(tmp_path, flag):
    """A valid byte other than 0 or 1 raises instead of reading as valid."""
    write_dataset(_small_dataset(), tmp_path / "ds.bin")
    blob = bytearray((tmp_path / "ds.bin").read_bytes())
    assert blob[-1] == 1  # the last record's valid byte
    blob[-1] = flag
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(AnnotationError, match="bad valid flag"):
        read_dataset(tmp_path / "bad.bin")


def test_read_dataset_bad_magic(tmp_path):
    (tmp_path / "x.bin").write_bytes(b"WRONG!!\0" + b"\0" * 64)
    with pytest.raises(AnnotationError):
        read_dataset(tmp_path / "x.bin")


def test_read_dataset_truncated(tmp_path, box_scene):
    ds = annotate_scene(box_scene, SMALL)
    path = tmp_path / "ds.bin"
    write_dataset(ds, path)
    blob = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(AnnotationError):
        read_dataset(tmp_path / "cut.bin")


def test_read_dataset_corrupt_grid_header(tmp_path, box_scene):
    """A grid header that CgrGridParams rejects, here an odd n_angles from
    one flipped bit, raises AnnotationError, not CgrError."""
    ds = annotate_scene(box_scene, SMALL)
    path = tmp_path / "ds.bin"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    assert blob[8:12] == np.uint32(SMALL.grid.n_angles).tobytes() and SMALL.grid.n_angles % 2 == 0
    blob[8] ^= 1
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(AnnotationError, match="bad grid header: n_angles"):
        read_dataset(tmp_path / "bad.bin")


def test_read_dataset_corrupt_count(tmp_path, box_scene):
    ds = annotate_scene(box_scene, SMALL)
    path = tmp_path / "ds.bin"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    at = 8 + 16 + 4 * SMALL.grid.n_sections + 16  # magic, params, then the record count
    assert blob[at:at + 8] == np.uint64(len(ds)).tobytes()
    blob[at:at + 8] = np.uint64(2**62).tobytes()
    (tmp_path / "bad.bin").write_bytes(bytes(blob))
    with pytest.raises(AnnotationError, match="truncated file"):
        read_dataset(tmp_path / "bad.bin")
