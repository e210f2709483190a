import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrkit import bundled_hand_path, geometry
from cgrkit.geometry import (
    _RAY_CHUNK,
    CameraIntrinsics,
    GeometryError,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    VoxelGrid,
    bin_points,
    chamfer_distance,
    fibonacci_sphere,
    frame_array,
    frame_from_z,
    load_mesh,
    load_obj,
    load_stl,
    make_box,
    make_cylinder,
    make_icosphere,
    merge_meshes,
    orthonormal_tangents,
    point_direction_frames,
    render_partial_cloud,
    rotation_z,
    sample_surface_points,
    save_obj,
    voxelize_mesh,
)

from conftest import (
    assert_same_grid,
    random_rotation,
    random_transform,
    reference_bin_points,
    reference_voxelize,
    triangle_soups,
)


# ---------------------------------------------------------------------------
# Rigid transforms


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(GeometryError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))


def test_rigid_transform_rejects_reflection():
    R = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(GeometryError):
        RigidTransform(R, np.zeros(3))


def test_compose_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_transform(rng)
        b = random_transform(rng)
        pts = rng.uniform(-1, 1, (10, 3))
        # compose applies right-hand transform first
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-12)
        assert np.allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-12)


def test_apply_vector_ignores_translation():
    rng = np.random.default_rng(4)
    tf = random_transform(rng)
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(tf.apply_vector(v), tf.rotation @ v)


def test_rotation_z_quarter_turn():
    R = rotation_z(np.pi / 2)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    assert np.allclose(R @ [0, 0, 1], [0, 0, 1], atol=1e-12)


def test_frame_from_z_is_rotation_with_given_z():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.standard_normal(3)
        z /= np.linalg.norm(z)
        R = frame_from_z(z)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) > 0
        assert np.allclose(R[:, 2], z, atol=1e-12)


def test_orthonormal_tangents():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        u, v = orthonormal_tangents(n)
        for a, b in ((u, v), (u, n), (v, n)):
            assert abs(np.dot(a, b)) < 1e-12
        assert abs(np.linalg.norm(u) - 1) < 1e-12
        assert abs(np.linalg.norm(v) - 1) < 1e-12


@st.composite
def _directions(draw):
    """Approach directions: random, axis-aligned, |x| = 0.9 exactly, with
    -0.0 components, each scaled to a length from 1e-6 to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["free", "axis", "x0.9", "signed_zero"]), min_size=1, max_size=12))
    dirs = []
    for kind in kinds:
        if kind == "axis":
            d = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        elif kind == "x0.9":  # unit length but for rounding: the tangent choice's edge
            y = rng.uniform(-np.sqrt(0.19), np.sqrt(0.19))
            d = np.array([rng.choice([-0.9, 0.9]), y, rng.choice([-1.0, 1.0]) * np.sqrt(0.19 - y * y)])
        else:
            d = rng.standard_normal(3)
        if kind == "signed_zero" or rng.random() < 0.3:
            d[rng.random(3) < 0.5] = -0.0
        if not d.any():
            d[rng.integers(3)] = rng.choice([-1.0, 1.0])
        dirs.append(d * 10.0 ** rng.uniform(-6, 6))
    return np.array(dirs)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_directions())
def test_point_direction_frames_match_frame_from_z(dirs):
    """The stacked rotations are frame_from_z's, bit for bit, point-major."""
    points = np.array([[0.01, -0.02, 0.03], [-1.5, 2.0, 1e3]])
    want = frame_array(np.tile(np.array([frame_from_z(d) for d in dirs]), (2, 1, 1)), np.repeat(points, len(dirs), 0))
    got = point_direction_frames(points, dirs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-13, 0.0, 0.0],
                                 [np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [-np.inf, 0.0, 1.0], [1e200, 0.0, 0.0]])
@pytest.mark.filterwarnings("error")
def test_point_direction_frames_reject_degenerate_directions(bad):
    dirs = np.array([[0.0, 0.0, 1.0], bad])
    with pytest.raises(GeometryError, match="degenerate direction"):
        frame_from_z(dirs[1])
    with pytest.raises(GeometryError, match="degenerate direction"):
        point_direction_frames(np.zeros((1, 3)), dirs)
    with pytest.raises(GeometryError, match="degenerate direction"):
        orthonormal_tangents(dirs[1])


def test_fibonacci_sphere_unit_and_spread():
    dirs = fibonacci_sphere(300)
    assert dirs.shape == (300, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # both hemispheres populated
    assert (dirs[:, 2] > 0).sum() > 100
    assert (dirs[:, 2] < 0).sum() > 100


# ---------------------------------------------------------------------------
# Ray casting


def _oracle_ray_triangle(origin, direction, a, b, c):
    """Independent ray/triangle test: plane intersection + barycentric
    containment (not Moller-Trumbore)."""
    n = np.cross(b - a, c - a)
    denom = np.dot(n, direction)
    if abs(denom) < 1e-15:
        return None
    t = np.dot(n, a - origin) / denom
    if t <= 1e-9:
        return None
    p = origin + t * direction
    # barycentric coordinates via normal-projected areas
    area = np.dot(n, n)
    w0 = np.dot(np.cross(b - p, c - p), n) / area
    w1 = np.dot(np.cross(c - p, a - p), n) / area
    w2 = np.dot(np.cross(a - p, b - p), n) / area
    if w0 < -1e-10 or w1 < -1e-10 or w2 < -1e-10:
        return None
    return t


def _oracle_ray_mesh(mesh, origin, direction, t_max):
    """Vectorized version of the plane/barycentric oracle over all triangles."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    n = np.cross(b - a, c - a)
    denom = n @ direction
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("ij,ij->i", n, a - origin) / denom
    p = origin + t[:, None] * direction
    area = np.einsum("ij,ij->i", n, n)
    w0 = np.einsum("ij,ij->i", np.cross(b - p, c - p), n) / area
    w1 = np.einsum("ij,ij->i", np.cross(c - p, a - p), n) / area
    w2 = np.einsum("ij,ij->i", np.cross(a - p, b - p), n) / area
    ok = (
        (np.abs(denom) >= 1e-15)
        & (t > 1e-9)
        & (t <= t_max)
        & (w0 >= -1e-10)
        & (w1 >= -1e-10)
        & (w2 >= -1e-10)
    )
    if not ok.any():
        return None
    t = np.where(ok, t, np.inf)
    idx = int(np.argmin(t))
    return float(t[idx]), idx


def test_ray_intersect_matches_independent_oracle(cube, sphere):
    rng = np.random.default_rng(7)
    for mesh in (cube, sphere):
        hits = 0
        for _ in range(300):
            origin = rng.uniform(-0.04, 0.04, 3)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            got = mesh.ray_intersect(origin, direction, 0.5)
            want = _oracle_ray_mesh(mesh, origin, direction, 0.5)
            if want is None:
                assert got is None
            else:
                assert got is not None
                t, _normal = got
                assert abs(t - want[0]) < 1e-9
                hits += 1
        assert hits > 50  # the fixture actually exercises hits


def test_bvh_identical_to_brute_force(sphere, cube):
    rng = np.random.default_rng(8)
    rays = []
    for _ in range(500):
        origin = rng.uniform(-0.06, 0.06, 3)
        direction = rng.standard_normal(3)
        rays.append((sphere, origin, direction / np.linalg.norm(direction)))
    # axis-aligned rays, parallel to two slab axes of every node box: from the
    # centre, from bounding-box corners and from vertices (which lie on the
    # planes of the node boxes holding them), plus a few random origins
    for mesh in (sphere, cube):
        lo, hi = mesh.bounds()
        starts = [np.zeros(3), lo, hi, *mesh.vertices[::7], *rng.uniform(-0.03, 0.03, (5, 3))]
        rays += [(mesh, o, d) for o in starts for d in np.vstack([np.eye(3), -np.eye(3)])]
    # from every vertex of a 32-segment cylinder: without the padded boxes,
    # six of these rays lose their lowest-index tie
    cylinder = make_cylinder(0.02, 0.05, 32)
    rays += [(cylinder, o, d) for o in cylinder.vertices for d in np.vstack([np.eye(3), -np.eye(3)])]
    for mesh, origin, direction in rays:
        a = mesh.ray_intersect(origin, direction, 0.3)
        b = mesh.ray_intersect_brute(origin, direction, 0.3)
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1])
    # from far away, x components too small to matter over a short ray carry
    # these rays across the cube's x planes, so only a subnormal component
    # may count as parallel: a hit, a miss, and a subnormal one
    lo = cube.bounds()[0]
    origins = np.array([[lo[0] - 5e-7, -1e6, 0.0], [lo[0] + 5e-7, -1e6, 0.0], [lo[0] + 1e-7, -1e6, 0.0]])
    dirs = np.array([[0.9e-12, 1.0, 0.0], [-0.9e-12, 1.0, 0.0], [-1e-310, 1.0, 0.0]])
    t, _tri = cube.ray_intersect_batch(origins, dirs, 2e6)
    for i in range(3):
        ref = cube.ray_intersect_brute(origins[i], dirs[i], 2e6)
        single = cube.ray_intersect(origins[i], dirs[i], 2e6)
        assert (ref is None) == (i == 1) == (single is None) == (t[i] == np.inf)
        if ref is not None:
            assert single[0] == ref[0] == t[i]
    # whole batches on the 5,120-triangle sphere: random rays, axis-aligned
    # rays from every 37th node-box corner and rays lying in one plane of
    # such a box, at a short and a huge t_max. The sphere's triangle normals
    # are distinct, so equal normals mean the same triangle.
    bvh = sphere._ensure_bvh()
    corners = np.stack([bvh.lo.T, bvh.hi.T], axis=1)[::37].reshape(-1, 3)
    in_plane = rng.standard_normal(corners.shape)
    in_plane[np.arange(len(corners)), np.arange(len(corners)) % 3] = 0.0
    random_dirs = rng.standard_normal((500, 3))
    origins = np.vstack([rng.uniform(-0.06, 0.06, (500, 3)), np.repeat(corners, 6, axis=0), corners])
    dirs = np.vstack([random_dirs, np.tile(np.vstack([np.eye(3), -np.eye(3)]), (len(corners), 1)), in_plane])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    hits = 0
    for t_max in (0.3, 1e12):
        t, tri = sphere.ray_intersect_batch(origins, dirs, t_max)
        for i in range(len(origins)):
            ref = sphere.ray_intersect_brute(origins[i], dirs[i], t_max)
            if ref is None:
                assert tri[i] == -1 and t[i] == np.inf
            else:
                assert t[i] == ref[0]
                assert np.array_equal(sphere.normals[tri[i]], ref[1])
                hits += 1
    assert hits > 1000


def test_bvh_columns_and_consecutive_children(cube, sphere):
    """The walk reads per-axis bound columns and steps to consecutive
    siblings: lo and hi are contiguous (3, N) columns, each inner node's
    children first[i] and first[i] + 1 lie inside its box, every node but
    the root is the child of exactly one inner node, the leaves hold every
    triangle once, each leaf's box holds its triangles' corners, and every
    array is read-only."""
    one = TriangleMesh([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]])
    for mesh in (cube, sphere, one):
        bvh = mesh._ensure_bvh()
        for a in (bvh.lo, bvh.hi):
            assert a.shape == (3, len(bvh.first)) and a.flags.c_contiguous
        inner = np.flatnonzero(bvh.first >= 0)
        for child in (bvh.first[inner], bvh.first[inner] + 1):
            assert np.all(child > inner)
            assert np.all(bvh.lo[:, child] >= bvh.lo[:, inner])
            assert np.all(bvh.hi[:, child] <= bvh.hi[:, inner])
        children = np.concatenate([bvh.first[inner], bvh.first[inner] + 1])
        assert np.array_equal(np.sort(children), np.arange(1, len(bvh.first)))
        assert np.all(bvh.leaf_tris[inner] == -1)
        held = bvh.leaf_tris[bvh.first < 0]
        assert np.array_equal(np.sort(held[held >= 0]), np.arange(len(mesh)))
        leaf, slot = np.nonzero(bvh.leaf_tris >= 0)
        corners = mesh.vertices[mesh.triangles[bvh.leaf_tris[leaf, slot]]]  # (pairs, 3, 3)
        assert np.all(corners >= bvh.lo.T[leaf, None]) and np.all(corners <= bvh.hi.T[leaf, None])
        for a in (bvh.lo, bvh.hi, bvh.first, bvh.leaf_tris):
            assert not a.flags.writeable
    assert len(sphere) == 5120 and len(sphere._ensure_bvh().first) > 1000


def test_ray_cast_edge_cases(sphere):
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    x = np.array([1.0, 0.0, 0.0])
    t, tri = empty.ray_intersect_batch(np.zeros((4, 3)), np.tile(x, (4, 1)), 1.0)
    assert np.array_equal(t, np.full(4, np.inf)) and np.array_equal(tri, np.full(4, -1))
    assert empty.ray_intersect(np.zeros(3), x, 1.0) is None
    assert empty.ray_intersect_brute(np.zeros(3), x, 1.0) is None
    t, tri = sphere.ray_intersect_batch(np.zeros((0, 3)), np.zeros((0, 3)), 1.0)
    assert t.shape == (0,) and tri.shape == (0,)
    # more rays than one chunk: chunk boundaries do not change any result,
    # and every ray from the centre hits the sphere
    n = 2 * _RAY_CHUNK + 3
    origins = np.zeros((n, 3))
    dirs = fibonacci_sphere(n)
    t, tri = sphere.ray_intersect_batch(origins, dirs, 1.0)
    whole_t, whole_tri = sphere._ensure_bvh().intersect(origins, dirs, 1.0)
    assert np.array_equal(t, whole_t) and np.array_equal(tri, whole_tri)
    assert np.all(tri >= 0) and np.all((t > 0.029) & (t <= 0.03 + 1e-12))


def test_batch_matches_single(cube, sphere):
    rng = np.random.default_rng(9)
    for mesh in (cube, sphere):
        origins = rng.uniform(-0.07, 0.07, (400, 3))
        dirs = rng.standard_normal((400, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        t, tri = mesh.ray_intersect_batch(origins, dirs, 0.4)
        for i in range(400):
            single = mesh.ray_intersect(origins[i], dirs[i], 0.4)
            if tri[i] < 0:
                assert single is None
            else:
                assert single is not None
                assert t[i] == single[0]
                assert np.array_equal(mesh.normals[tri[i]], single[1])


def test_ray_from_inside_cube_hits_wall(cube):
    hit = cube.ray_intersect(np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0)
    assert hit is not None
    t, normal = hit
    assert abs(t - 0.025) < 1e-12
    assert np.allclose(normal, [1, 0, 0], atol=1e-12)


def test_ray_respects_t_max(cube):
    assert cube.ray_intersect(np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.01) is None


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("cast", ["ray_intersect", "ray_intersect_batch", "ray_intersect_brute"])
def test_ray_casts_reject_bad_t_max(cube, cast, t_max):
    with pytest.raises(GeometryError, match="t_max"):
        getattr(cube, cast)(np.zeros(3), np.array([1.0, 0.0, 0.0]), t_max)


def test_ray_casts_accept_infinite_t_max(cube):
    o, d = np.zeros(3), np.array([1.0, 0.0, 0.0])
    t, _tri = cube.ray_intersect_batch(o, d, np.inf)
    assert cube.ray_intersect(o, d, np.inf)[0] == cube.ray_intersect_brute(o, d, np.inf)[0] == t[0] == 0.025


@st.composite
def _ray_cases(draw):
    """(mesh, origins, directions, t_max): a small box, icosphere or
    cylinder, posed or not, or a triangle soup with degenerate and
    duplicated triangles; rays from vertices, points on edges, points on
    the planes of the mesh's box or of a BVH node box, and free points, cast
    along an axis, within a coordinate plane, with a subnormal component,
    towards a vertex or anywhere; t_max from 1e-9 to 1e6, or inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["box", "sphere", "cylinder", "soup"]))
    if shape == "soup":
        vertices, _ = draw(triangle_soups())
        mesh = TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))
    else:
        mesh = {"box": lambda: make_box(rng.uniform(0.01, 0.1, 3)),
                "sphere": lambda: make_icosphere(0.03, 1),
                "cylinder": lambda: make_cylinder(0.02, 0.05, 8)}[shape]()
        if draw(st.booleans()):
            mesh = mesh.transformed(random_transform(rng, 0.05))
    corners = mesh.vertices[mesh.triangles]
    lo, hi = mesh.bounds()
    bvh = mesh._ensure_bvh()
    nodes = np.stack([bvh.lo.T, bvh.hi.T], axis=1)  # (N, 2, 3) corners
    origins, dirs = [], []
    for _ in range(draw(st.integers(1, 12))):
        tri, j = corners[rng.integers(len(corners))], rng.integers(3)
        kind = draw(st.sampled_from(["vertex", "edge", "bounds", "node", "free"]))
        if kind == "vertex":
            o = tri[j]
        elif kind == "edge":
            o = tri[j] + draw(st.sampled_from([0.5, rng.uniform()])) * (tri[(j + 1) % 3] - tri[j])
        elif kind in ("bounds", "node"):
            box_lo, box_hi = (lo, hi) if kind == "bounds" else nodes[rng.integers(len(nodes))]
            o = rng.uniform(box_lo - 0.01, box_hi + 0.01)
            axis = rng.integers(3)
            o[axis] = (box_lo, box_hi)[rng.integers(2)][axis]
        else:
            o = rng.uniform(lo - 0.05, hi + 0.05)
        aim = draw(st.sampled_from(["axis", "plane", "subnormal", "towards", "free"]))
        if aim == "axis":
            d = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        elif aim == "towards":
            d = corners[rng.integers(len(corners)), rng.integers(3)] - o
        else:
            d = rng.standard_normal(3)
            if aim != "free":
                d[rng.integers(3)] = 0.0 if aim == "plane" else rng.choice([-1e-310, 1e-310])
        origins.append(o)
        dirs.append(d)
    t_max = draw(st.one_of(st.floats(-9, 6).map(lambda e: 10.0 ** e), st.sampled_from([1e-9, 1e6, np.inf])))
    return mesh, np.array(origins, dtype=float), np.array(dirs, dtype=float), t_max


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_ray_cases())
def test_ray_casts_match_brute_force_on_generated_rays(case):
    """ray_intersect_batch and ray_intersect give ray_intersect_brute's hit
    bit for bit, and that hit is the nearest of the one-triangle brute casts,
    ties to the lowest triangle index."""
    mesh, origins, dirs, t_max = case
    singles = [TriangleMesh(c, [[0, 1, 2]]) for c in mesh.vertices[mesh.triangles]]
    t, tri = mesh.ray_intersect_batch(origins, dirs, t_max)
    for i, (o, d) in enumerate(zip(origins, dirs)):
        per_tri = [s.ray_intersect_brute(o, d, t_max) for s in singles]
        each = [np.inf if hit is None else hit[0] for hit in per_tri]
        want = min(each)
        want_tri = each.index(want) if want < np.inf else -1
        assert t[i] == want and tri[i] == want_tri
        brute, single = mesh.ray_intersect_brute(o, d, t_max), mesh.ray_intersect(o, d, t_max)
        if want_tri < 0:
            assert brute is None and single is None
        else:
            assert brute[0] == single[0] == want
            assert np.array_equal(brute[1], mesh.normals[want_tri])
            assert np.array_equal(single[1], mesh.normals[want_tri])


def test_mesh_arrays_are_read_only():
    m = make_box((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        m.vertices += [0, 0, 2]
    assert not any(a.flags.writeable for a in (m.vertices, m.triangles, m.normals, m._v0, m._e1, m._e2))


def test_mesh_copies_its_input():
    """Editing the caller's vertex array after construction changes nothing:
    a sideways ray at z = 0.2 still hits the box's -x face, also through the
    BVH that the first cast builds."""
    box = make_box((1.0, 1.0, 1.0))
    source = box.vertices.copy()
    m = TriangleMesh(source, box.triangles)
    source += [0.0, 0.0, 2.0]
    want = box.ray_intersect([-5.0, 0.1, 0.2], [1.0, 0.0, 0.0], 10.0)
    got = m.ray_intersect([-5.0, 0.1, 0.2], [1.0, 0.0, 0.0], 10.0)
    assert got is not None and got[0] == want[0] and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# Point clouds and chamfer distance


def test_chamfer_against_quadratic_oracle():
    rng = np.random.default_rng(10)
    a = PointCloud(rng.uniform(-1, 1, (60, 3)))
    b = PointCloud(rng.uniform(-1, 1, (45, 3)))
    d2 = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
    want = 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
    assert abs(chamfer_distance(a, b) - want) < 1e-12


def test_chamfer_symmetric_and_zero_on_self():
    rng = np.random.default_rng(11)
    a = PointCloud(rng.uniform(-1, 1, (30, 3)))
    b = PointCloud(rng.uniform(-1, 1, (50, 3)))
    assert chamfer_distance(a, b) == chamfer_distance(b, a)
    assert chamfer_distance(a, a) == 0.0


def test_point_cloud_save_load_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    cloud = PointCloud(rng.uniform(-1, 1, (100, 3)).astype(np.float32).astype(float))
    path = tmp_path / "cloud.pc"
    cloud.save(path)
    back = PointCloud.load(path)
    assert np.array_equal(back.points.astype(np.float32), cloud.points.astype(np.float32))
    back.save(tmp_path / "cloud2.pc")
    assert (tmp_path / "cloud.pc").read_bytes() == (tmp_path / "cloud2.pc").read_bytes()


def test_point_cloud_load_truncated(tmp_path, cube):
    sample_surface_points(cube, 50, seed=0).save(tmp_path / "cloud.pc")
    blob = (tmp_path / "cloud.pc").read_bytes()
    # inside the count, the points, before the normals flag, inside the normals
    for cut in (12, 16 + 300, 16 + 600, len(blob) - 1):
        (tmp_path / "cut.pc").write_bytes(blob[:cut])
        with pytest.raises(GeometryError, match="truncated file"):
            PointCloud.load(tmp_path / "cut.pc")


def test_point_cloud_load_corrupt_count(tmp_path, cube):
    sample_surface_points(cube, 50, seed=0).save(tmp_path / "cloud.pc")
    blob = bytearray((tmp_path / "cloud.pc").read_bytes())
    blob[8:16] = np.uint64(2**62).tobytes()  # 12 * count overflows a C size
    (tmp_path / "bad.pc").write_bytes(bytes(blob))
    with pytest.raises(GeometryError, match="truncated file"):
        PointCloud.load(tmp_path / "bad.pc")


def test_point_cloud_load_rejects_bytes_after_the_data(tmp_path):
    """One appended byte, or a count lowered by one, leaves bytes after the
    last field: the file is not what the count says. The last point is the
    origin, so with the lowered count its first byte reads as the "no
    normals" flag."""
    points = np.random.default_rng(13).uniform(-1, 1, (50, 3))
    points[-1] = 0.0
    PointCloud(points).save(tmp_path / "cloud.pc")
    blob = (tmp_path / "cloud.pc").read_bytes()
    lowered = blob[:8] + np.uint64(49).tobytes() + blob[16:]
    for bad in (blob + b"\0", lowered):
        (tmp_path / "bad.pc").write_bytes(bad)
        with pytest.raises(GeometryError, match="bytes after the end of the data"):
            PointCloud.load(tmp_path / "bad.pc")


def test_read_exact_rejects_negative_size(tmp_path):
    (tmp_path / "f.bin").write_bytes(b"\0" * 8)
    with open(tmp_path / "f.bin", "rb") as f:
        with pytest.raises(GeometryError, match="negative read size -4"):
            geometry._read_exact(f, -4, GeometryError)


def test_point_cloud_load_rejects_bad_normals_flag(tmp_path, cube):
    cloud = sample_surface_points(cube, 50, seed=0)
    cloud.save(tmp_path / "cloud.pc")
    blob = bytearray((tmp_path / "cloud.pc").read_bytes())
    assert blob[16 + 12 * len(cloud)] in (0, 1)
    blob[16 + 12 * len(cloud)] = 2
    (tmp_path / "bad.pc").write_bytes(bytes(blob))
    with pytest.raises(GeometryError, match="bad normals flag"):
        PointCloud.load(tmp_path / "bad.pc")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index, value", [(0, np.nan), (1, np.inf), (5, -np.inf)])
def test_point_cloud_rejects_non_finite_values(tmp_path, cube, index, value):
    """A NaN or infinite point or normal raises, at construction and at load,
    where an infinite normal used to turn into NaN."""
    cloud = sample_surface_points(cube, 4, seed=0)
    points, normals = cloud.points.copy(), cloud.normals.copy()
    points.flat[index], normals.flat[index] = value, value
    with pytest.raises(GeometryError, match="points must be finite"):
        PointCloud(points)
    with pytest.raises(GeometryError, match="normals must be finite and unit length"):
        PointCloud(cloud.points, normals)
    cloud.save(tmp_path / "cloud.pc")
    blob = bytearray((tmp_path / "cloud.pc").read_bytes())
    for start in (16, 17 + 12 * len(cloud)):  # the points, then the normals
        bad = blob.copy()
        bad[start + 4 * index:start + 4 * index + 4] = np.float32(value).tobytes()
        (tmp_path / "bad.pc").write_bytes(bytes(bad))
        with pytest.raises(GeometryError, match="must be finite"):
            PointCloud.load(tmp_path / "bad.pc")


@pytest.mark.parametrize("line", ["v 0 1", "v 0 x 1", "f 1 2 y"])
def test_load_obj_names_bad_line(tmp_path, line):
    (tmp_path / "t.obj").write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\nf 1 2 3\n")
    with pytest.raises(GeometryError, match=r"t\.obj:4: bad '[vf]' line"):
        load_obj(tmp_path / "t.obj")


# ---------------------------------------------------------------------------
# Voxelization


def test_voxelize_unit_cube_coarse():
    cube = make_box((1.0, 1.0, 1.0))
    grid = voxelize_mesh(cube, 0.5)
    # surface shell of a 3x3x3 block: 27 - 1 interior
    assert len(grid) == 26


def test_voxelize_unit_cube_fine_shell_count():
    cube = make_box((1.0, 1.0, 1.0))
    h = 0.005
    grid = voxelize_mesh(cube, h)
    # cube faces fall on voxel centers: the surface shell spans 201 cells per
    # axis with a 199^3 empty interior
    n = int(round(1.0 / h)) + 1
    assert len(grid) == n**3 - (n - 2) ** 3


def test_voxel_grid_contains_points():
    cube = make_box((0.05, 0.05, 0.05))
    grid = voxelize_mesh(cube, 0.01)
    on_surface = np.array([[0.025, 0.0, 0.0], [0.0, -0.025, 0.01]])
    far = np.array([[0.2, 0.0, 0.0], [0.0, 0.0, -0.3]])
    assert grid.contains_points(on_surface).all()
    assert not grid.contains_points(far).any()


def test_voxel_grid_filled_marks_interior():
    cube = make_box((0.05, 0.05, 0.05))
    grid = voxelize_mesh(cube, 0.005)
    center = np.array([[0.0, 0.0, 0.0]])
    assert not grid.contains_points(center).any()  # surface shell only
    solid = grid.filled()
    assert solid.contains_points(center).all()
    assert len(solid) > len(grid)
    # nothing outside the cube gets filled
    assert not solid.contains_points(np.array([[0.04, 0.0, 0.0]])).any()


def test_voxelize_conservative_against_sampled_surface(sphere):
    grid = voxelize_mesh(sphere, 0.004)
    cloud = sample_surface_points(sphere, 5000, seed=0)
    assert grid.contains_points(cloud.points).all()


@pytest.mark.parametrize("size", [0.0, -0.01, float("nan"), float("inf"), float("-inf")])
def test_voxel_size_must_be_positive_and_finite(cube, size):
    with pytest.raises(GeometryError):
        voxelize_mesh(cube, size)
    with pytest.raises(GeometryError):
        VoxelGrid(np.zeros(3), size)


def _parity_mesh(name, request):
    """A parity-corpus mesh: a conftest fixture, a bundled palm, the unit
    cube, an empty mesh, or randomly posed icosphere "ico<seed>"."""
    if name.startswith("ico"):
        rng = np.random.default_rng(int(name[3:]))
        mesh = make_icosphere(rng.uniform(0.01, 0.04), subdivisions=int(rng.integers(1, 4)))
        return mesh.transformed(random_transform(rng, 0.1))
    if name.startswith("palm"):
        return load_mesh(os.path.join(os.path.dirname(bundled_hand_path("archetype3")), f"{name}.obj"))
    if name == "unit_cube":
        return make_box((1.0, 1.0, 1.0))
    if name == "empty":
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    return request.getfixturevalue(name)


VOXEL_PARITY = (
    [("cube", s) for s in (0.02, 0.01, 0.005, 0.004, 0.003)]
    + [("sphere", s) for s in (0.01, 0.004)]
    + [("slab", s) for s in (0.02, 0.01, 0.005, 0.004, 0.003)]
    + [("plates", s) for s in (0.01, 0.004)]
    + [(f"palm{k}", 0.005) for k in (3, 4, 5)]
    + [("unit_cube", 0.5), ("unit_cube", 0.05), ("empty", 0.01)]
    + [(f"ico{k}", (0.003, 0.005, 0.01)[k % 3]) for k in range(12)]
)


@pytest.mark.parametrize("name, size", VOXEL_PARITY)
def test_voxelize_matches_reference(request, name, size):
    mesh = _parity_mesh(name, request)
    assert_same_grid(voxelize_mesh(mesh, size), reference_voxelize(mesh, size))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(triangle_soups())
def test_voxelize_matches_reference_on_triangle_soups(soup):
    vertices, size = soup
    mesh = TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))
    assert_same_grid(voxelize_mesh(mesh, size), reference_voxelize(mesh, size))


def test_voxelize_matches_reference_at_the_slack_edge():
    """Slide a triangle along its normal and along its plane to where the
    reference mask first changes, and compare every ulp step around there,
    where a 3-term sum rounded in another order flips a cell. Triangles 1
    and 20 of this draw flip one through the plane sum, triangle 10 through
    an axis sum. Two point triangles pin the grid."""
    pins = np.array([[0.1] * 3] * 3 + [[-0.1] * 3] * 3)

    def posed(tri, slide):
        return TriangleMesh(np.vstack([tri + slide, pins]), np.arange(9).reshape(3, 3))

    for tri in np.random.default_rng(1).uniform(-0.02, 0.02, (21, 3, 3))[[1, 10, 20]]:
        n = np.cross(tri[1] - tri[0], tri[2] - tri[1])
        for u in (n, np.cross(n, tri[1] - tri[0])):
            u = u / np.linalg.norm(u)
            start = reference_voxelize(posed(tri, 0.0), 0.01).mask.tobytes()
            lo, hi = 0.0, 0.004
            assert reference_voxelize(posed(tri, hi * u), 0.01).mask.tobytes() != start
            for _ in range(60):
                mid = (lo + hi) / 2
                same = reference_voxelize(posed(tri, mid * u), 0.01).mask.tobytes() == start
                lo, hi = (mid, hi) if same else (lo, mid)
            for step in range(-40, 41):
                mesh = posed(tri, (lo + step * np.spacing(lo)) * u)
                assert_same_grid(voxelize_mesh(mesh, 0.01), reference_voxelize(mesh, 0.01))


@pytest.mark.parametrize("chunk", [1, 7])
def test_voxelize_chunk_size_does_not_change_masks(monkeypatch, sphere, chunk):
    box = make_box((0.03, 0.05, 0.02)).transformed(random_transform(np.random.default_rng(4), 0.05))
    cases = [(sphere, 0.02), (box, 0.005)]
    want = [voxelize_mesh(mesh, size) for mesh, size in cases]
    monkeypatch.setattr(geometry, "_SAT_CHUNK", chunk)
    for (mesh, size), grid in zip(cases, want):
        assert_same_grid(voxelize_mesh(mesh, size), grid)


@st.composite
def _clouds(draw):
    """Point clouds for bin_points: a single point or more, with duplicated
    points, coordinates on cell faces, negative coordinates, offsets near
    1e3 m and spreads of up to a million cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([0.004, 0.03, 0.04, 0.25, 1.0]))
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (-0.013, 0.02, -0.5), (1e3, -1e3, 999.99)])))
    n = draw(st.one_of(st.just(1), st.integers(2, 40)))
    center = draw(st.sampled_from([0.0, -0.05, 1e3, -1e3 + 0.017]))
    spread = size * draw(st.sampled_from([0.5, 4.0, 1e6]))
    points = center + rng.uniform(-spread, spread, (n, 3))
    on_face = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    points[on_face] = (origin + np.floor((points - origin) / size) * size)[on_face]
    copied = rng.random(n) < draw(st.sampled_from([0.0, 0.5]))
    points[copied] = points[rng.integers(0, n, n)][copied]
    return points, origin, size


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_clouds())
def test_bin_points_matches_unique_reference(cloud):
    """Cells and means equal the np.unique grouping's, bit for bit."""
    keys, means = bin_points(*cloud)
    want_keys, want_means = reference_bin_points(*cloud)
    assert keys.dtype == want_keys.dtype and keys.shape == want_keys.shape
    assert keys.tobytes() == want_keys.tobytes()
    assert means.shape == want_means.shape and means.tobytes() == want_means.tobytes()


def test_bin_points_of_no_points():
    keys, means = bin_points(np.zeros((0, 3)), np.zeros(3), 0.01)
    assert keys.shape == means.shape == (0, 3)


# ---------------------------------------------------------------------------
# Surface sampling


def test_sample_surface_points_lie_on_surface(cube):
    cloud = sample_surface_points(cube, 2000, seed=1)
    assert len(cloud) == 2000
    # every sample sits on some face plane of the cube
    on_face = np.isclose(np.abs(cloud.points), 0.025, atol=1e-12).any(axis=1)
    assert on_face.all()
    assert np.all(np.abs(cloud.points) <= 0.025 + 1e-12)


def test_sample_surface_area_weighting():
    # slab with two large faces (0.2 x 0.2) and four small rims; large faces
    # carry ~87% of the area
    slab = make_box((0.01, 0.2, 0.2))
    cloud = sample_surface_points(slab, 4000, seed=2)
    frac_large = np.isclose(np.abs(cloud.points[:, 0]), 0.005, atol=1e-12).mean()
    area_large = 2 * 0.2 * 0.2
    area_total = area_large + 4 * 0.01 * 0.2
    assert abs(frac_large - area_large / area_total) < 0.03


def test_sample_surface_deterministic(cube):
    a = sample_surface_points(cube, 500, seed=7)
    b = sample_surface_points(cube, 500, seed=7)
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# Rendering


def test_render_partial_cloud_sees_only_front(cube):
    cam = CameraIntrinsics(width=64, height=64, focal=200.0, cx=32.0, cy=32.0)
    # camera above the cube with its viewing axis (+z) pointing down
    cam_pose = RigidTransform(
        np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
        [0.0, 0.0, 0.3],
    )
    cloud = render_partial_cloud(cube, cam_pose, cam)
    assert len(cloud) > 100
    # only the top face (z = +0.025) is visible from above
    assert np.allclose(cloud.points[:, 2], 0.025, atol=1e-9)


# ---------------------------------------------------------------------------
# Mesh construction and IO


def test_make_box_bounds():
    box = make_box((0.1, 0.2, 0.3), center=(1.0, 0.0, -1.0))
    lo, hi = box.bounds()
    assert np.allclose(lo, [0.95, -0.1, -1.15])
    assert np.allclose(hi, [1.05, 0.1, -0.85])


def test_make_icosphere_radius():
    s = make_icosphere(0.07, subdivisions=3, center=(0.01, 0.02, 0.03))
    r = np.linalg.norm(s.vertices - [0.01, 0.02, 0.03], axis=1)
    assert np.allclose(r, 0.07, atol=1e-12)


def test_make_cylinder_extent():
    c = make_cylinder(0.02, 0.1, segments=48)
    lo, hi = c.bounds()
    assert np.allclose(lo, [-0.02, -0.02, -0.05], atol=1e-12)
    assert np.allclose(hi, [0.02, 0.02, 0.05], atol=1e-12)


def test_merge_meshes_offsets_indices(cube, sphere):
    merged = merge_meshes([cube, sphere])
    assert len(merged) == len(cube) + len(sphere)
    assert len(merged.vertices) == len(cube.vertices) + len(sphere.vertices)
    assert merged.triangles.max() == len(merged.vertices) - 1


def test_obj_roundtrip(tmp_path, cube):
    path = tmp_path / "cube.obj"
    save_obj(cube, path)
    back = load_obj(path)
    assert np.allclose(back.vertices, cube.vertices, atol=1e-9)
    assert np.array_equal(back.triangles, cube.triangles)


def test_stl_load(tmp_path):
    import struct

    # minimal binary STL: one triangle
    tri = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with open(tmp_path / "t.stl", "wb") as f:
        f.write(b"\0" * 80)
        f.write(struct.pack("<I", 1))
        f.write(struct.pack("<3f", 0, 0, 1))
        for v in tri:
            f.write(struct.pack("<3f", *v))
        f.write(struct.pack("<H", 0))
    mesh = load_stl(tmp_path / "t.stl")
    assert len(mesh) == 1
    assert np.allclose(sorted(mesh.vertices.tolist()), sorted(tri))
    blob = (tmp_path / "t.stl").read_bytes()
    # inside the header, inside the count, inside the triangle record
    for cut in (40, 82, 84 + 30):
        (tmp_path / "cut.stl").write_bytes(blob[:cut])
        with pytest.raises(GeometryError, match="truncated file"):
            load_stl(tmp_path / "cut.stl")


def test_stl_load_rejects_bytes_after_the_data(tmp_path):
    """One appended byte, or a triangle count lowered by one, leaves bytes
    after the last triangle record."""
    import struct

    record = struct.pack("<12fH", 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0)
    blob = b"\0" * 80 + struct.pack("<I", 2) + record * 2
    path = tmp_path / "t.stl"
    path.write_bytes(blob)
    assert len(load_stl(path)) == 2
    for bad in (blob + b"\0", blob[:80] + struct.pack("<I", 1) + blob[84:]):
        path.write_bytes(bad)
        with pytest.raises(GeometryError, match="bytes after the end of the data"):
            load_stl(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertices(tmp_path, bad):
    """A non-finite vertex raises at construction, so the readers report it,
    instead of voxelizing to an empty grid."""
    import struct

    box = make_box((1.0, 1.0, 1.0))
    vertices = box.vertices.copy()
    vertices[3, 1] = bad
    with pytest.raises(GeometryError, match="finite"):
        TriangleMesh(vertices, box.triangles)
    (tmp_path / "t.obj").write_text(f"v 0 0 0\nv {bad} 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(GeometryError, match="finite"):
        load_obj(tmp_path / "t.obj")
    record = struct.pack("<12f", 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, bad, 0) + struct.pack("<H", 0)
    (tmp_path / "t.stl").write_bytes(b"\0" * 80 + struct.pack("<I", 1) + record)
    with pytest.raises(GeometryError, match="finite"):
        load_stl(tmp_path / "t.stl")


def test_mesh_normals_outward(cube):
    centers = cube.vertices[cube.triangles].mean(axis=1)
    outward = np.einsum("ij,ij->i", cube.normals, centers)
    assert (outward > 0).all()


def test_transformed_mesh_equivariance(cube):
    rng = np.random.default_rng(13)
    tf = random_transform(rng)
    moved = cube.transformed(tf)
    assert np.allclose(moved.vertices, tf.apply(cube.vertices), atol=1e-12)
    assert np.allclose(moved.normals, tf.apply_vector(cube.normals), atol=1e-9)
