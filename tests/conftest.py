import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cgrkit import annotation, bundled_hand_path
from cgrkit.annotation import Scene, SceneInstance
from cgrkit.cgr import CgrGridParams, antipodal_rep, compute_cgr
from cgrkit.coverage import (
    MASTER_DIRECTIONS,
    MASTER_INPLANE,
    LocalGeometry,
    preset_directions,
)
from cgrkit.geometry import (
    RigidTransform,
    VoxelGrid,
    frame_array,
    frame_from_z,
    make_box,
    make_cylinder,
    make_icosphere,
    rotation_z,
    sample_surface_points,
)
from cgrkit.hand import GraspTypeSpec, HandSpec, load_hand_spec


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def random_transform(rng: np.random.Generator, t_scale: float = 0.3) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-t_scale, t_scale, 3))


# ---------------------------------------------------------------------------
# Per-object references for the batched candidate path: one CGR, one pose,
# one candidate at a time, with the arithmetic of the single-object code.


def reference_grasp_pose(cgr):
    """(R, t, angle index, section index, score) of one CGR's best
    antipodal entry: the frame turned about its z by the winning angle and
    advanced along it to the winning section."""
    i, j, score = antipodal_rep(cgr).best()
    Rz = rotation_z(2 * np.pi * i / cgr.params.n_angles)
    R = cgr.frame.rotation @ Rz
    t = cgr.frame.translation + cgr.params.section_depths[j] * (cgr.frame.rotation @ Rz @ np.array([0.0, 0.0, 1.0]))
    return R, t, i, j, score


def reference_alignment(R, gt):
    """Hand rotation of grasp type gt at antipodal rotation R: approach
    axis onto R's z, the closing axis (made orthogonal to it) onto R's x."""
    a, c = gt.approach_axis, gt.principal_closing_axis
    c_perp = c - np.dot(c, a) * a
    c_perp /= np.linalg.norm(c_perp)
    return R @ np.column_stack([c_perp, np.cross(a, c_perp), a]).T


def reference_collision(R, t, gt, points):
    """Does any point land in the solid palm of gt posed at (R, t)?"""
    if len(points) == 0:
        return False
    local = RigidTransform(R, t).inverse().apply(points)
    lo, hi = gt.collision_mesh.bounds()
    grid = gt.collision_grid
    near = np.all((local >= lo - grid.voxel_size) & (local <= hi + grid.voxel_size), axis=1)
    if not near.any():
        return False
    return bool(grid.contains_points(local[near]).any())


def reference_patches(obj, params, seed=0, object_id=""):
    """sample_local_geometries one frame at a time: per grasp point and
    direction one RigidTransform, one CGR and one AntipodalRep, then per
    in-plane angle with a positive score one box transform and its crop."""
    surface = sample_surface_points(obj, params.surface_samples, seed)
    dirs = preset_directions(params.approach_directions)
    bx, by, bz = params.box_dims
    half = np.array([bx / 2.0, by / 2.0, bz / 2.0])
    grid = CgrGridParams(n_angles=max(4, 2 * params.inplane_angles), n_sections=1,
                         section_depths=(bz / 2.0,), d_max=float(np.linalg.norm(half)))
    angle_stride = grid.n_angles // 2 // params.inplane_angles
    patches = []
    grasp_points = reference_bin_points(surface.points, np.zeros(3), params.grasp_point_resolution)[1]
    for point_idx, p in enumerate(grasp_points):
        for dir_idx, d in enumerate(dirs):
            cgr = compute_cgr(obj, RigidTransform(frame_from_z(d), p), grid)
            rep = antipodal_rep(cgr)
            for a in range(params.inplane_angles):
                idx = a * angle_stride
                if rep.score[0, idx] <= 0.0:
                    continue
                R_box = cgr.frame.rotation @ rotation_z(2 * np.pi * idx / grid.n_angles)
                box_tf = RigidTransform(R_box, cgr.frame.translation)
                local = box_tf.inverse().apply(surface.points)
                pts = local[np.all(np.abs(local - [0.0, 0.0, half[2]]) <= half, axis=1)]
                if len(pts) == 0:
                    continue
                rng = np.random.default_rng((seed, point_idx, dir_idx * (MASTER_DIRECTIONS // len(dirs)),
                                             a * (MASTER_INPLANE // params.inplane_angles)))
                sel = rng.integers(0, len(pts), size=params.points_per_patch)
                patches.append(LocalGeometry(pts[sel], object_id, frame_array(R_box, cgr.frame.translation)))
    return patches


def reference_bin_points(points, origin, size):
    """bin_points by np.unique over the cell rows: lexicographic keys, and
    each mean from a bincount of the points in input order."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cells = np.floor((points - origin) / size).astype(np.int64)
    keys, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.column_stack([np.bincount(inverse, weights=points[:, d]) for d in range(3)])
    return keys, sums / np.bincount(inverse)[:, None]


def reference_min_chamfer(test_patch, pool, stop_below=None):
    """min_chamfer as one KD-tree chamfer per pool patch, in pool order,
    skipping a patch only when half its forward mean reaches the best so far."""
    best = np.inf
    t_tree = cKDTree(test_patch.points)
    for patch in pool:
        da, _ = cKDTree(patch.points).query(test_patch.points)
        fwd = float(np.mean(da))
        if 0.5 * fwd >= best:  # symmetric chamfer >= fwd/2
            continue
        db, _ = t_tree.query(patch.points)
        d = 0.5 * (fwd + float(np.mean(db)))
        if d < best:
            best = d
            if stop_below is not None and best < stop_below:
                return best
    return best


def reference_voxelize(mesh, voxel_size):
    """voxelize_mesh one triangle at a time: the separating-axis test
    (Akenine-Moller, JGT 2001) of each triangle against every cell of its
    bounding-box block, as numpy products over the block."""
    if len(mesh) == 0:
        return VoxelGrid(np.zeros(3), voxel_size)
    mn, mx = mesh.bounds()
    origin = (mn + mx) / 2.0 - voxel_size / 2.0
    half = voxel_size / 2.0
    corners = mesh.vertices[mesh.triangles]
    lo = np.floor((corners - origin).min(axis=1) / voxel_size - 1e-9).astype(np.int64)
    hi = np.floor((corners - origin).max(axis=1) / voxel_size + 1e-9).astype(np.int64)
    offset = lo.min(axis=0)
    mask = np.zeros(hi.max(axis=0) - offset + 1, dtype=bool)
    for tri, tlo, thi in zip(corners, lo, hi):
        cells = np.indices(thi - tlo + 1).reshape(3, -1).T + tlo
        centers = origin + (cells + 0.5) * voxel_size
        # box face normals
        keep = np.all(centers - half <= tri.max(axis=0) + 1e-12, axis=1)
        keep &= np.all(centers + half >= tri.min(axis=0) - 1e-12, axis=1)
        # triangle plane
        e = np.array([tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]])
        n = np.cross(e[0], e[1])
        keep &= np.abs(centers @ n - np.dot(n, tri[0])) <= half * np.sum(np.abs(n)) + 1e-12
        # edge x box-axis cross products that are not degenerate
        axes = np.cross(e[:, None], np.eye(3)).reshape(9, 3)
        axes = axes[np.linalg.norm(axes, axis=1) >= 1e-12]
        p, c = tri @ axes.T, centers @ axes.T
        r = half * np.sum(np.abs(axes), axis=1)
        keep &= np.all((p.min(axis=0) - c <= r + 1e-12) & (p.max(axis=0) - c >= -r - 1e-12), axis=1)
        mask[tuple((cells[keep] - offset).T)] = True
    return VoxelGrid(origin, voxel_size, mask, offset)


def reference_approach_collisions(frames, scene, radius, length, scene_points):
    """annotation._approach_collisions without the bounding-sphere cull: the
    table test, then the exact point test of every live frame against every
    point, in chunks of about _FILTER_CHUNK (frame, point) pairs."""
    axis = -frames[:, :, 2]
    origin = frames[:, :, 3]
    n = scene.table_normal

    def dot_n(v):  # per row v[k] . n, summed as np.dot sums one vector pair
        return np.matmul(v[:, None, :], n[:, None])[:, 0, 0]

    h_origin = dot_n(origin - scene.table_point)
    h_end = dot_n(origin + length * axis - scene.table_point)
    axial = np.abs(dot_n(axis))
    radial_slack = radius * np.sqrt(np.maximum(0.0, 1.0 - axial * axial))
    hits = np.minimum(h_origin, h_end) - radial_slack < 0.0
    todo = np.flatnonzero(~hits)
    step = max(1, annotation._FILTER_CHUNK // max(1, len(scene_points)))
    for start in range(0, len(todo), step):
        rows = todo[start:start + step]
        rel = scene_points[None] - origin[rows, None]  # (c, P, 3)
        along = np.matmul(rel, axis[rows, :, None])[..., 0]
        c, p = np.nonzero((along >= 0.0) & (along <= length))
        perp = rel[c, p] - along[c, p, None] * axis[rows[c]]
        hits[rows[c[np.einsum("ij,ij->i", perp, perp) <= radius * radius]]] = True
    return hits


def assert_same_grid(got, want):
    """Byte-identical mask, offset, origin and voxel size."""
    assert got.voxel_size == want.voxel_size
    assert got.origin.tobytes() == want.origin.tobytes()
    assert got.offset.tobytes() == want.offset.tobytes()
    assert got.mask.shape == want.mask.shape
    assert got.mask.tobytes() == want.mask.tobytes()


@st.composite
def triangle_soups(draw):
    """(vertices (3n, 3), voxel size): triangles with corners on the quarter
    lattice of the cells (so faces fall on cell planes and centers) or
    anywhere, made axis-aligned, shrunk below a cell, collapsed to zero area
    or duplicated."""
    size = draw(st.sampled_from([0.25, 0.1, 1.0 / 64]))
    coord = st.one_of(st.integers(-24, 24).map(lambda i: i * size / 4),
                      st.floats(-6 * size, 6 * size, allow_nan=False))
    tris = []
    for _ in range(draw(st.integers(1, 8))):
        v = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=3)))
        kind = draw(st.sampled_from(["free", "flat", "tiny", "point", "edge", "collinear", "copy"]))
        if kind == "flat":
            v[:, draw(st.integers(0, 2))] = v[0, draw(st.integers(0, 2))]
        elif kind == "tiny":
            v = v[0] + (v - v[0]) * draw(st.sampled_from([1e-3, 0.1, 0.3]))
        elif kind == "point":
            v[:] = v[0]
        elif kind == "edge":
            v[2] = v[1]
        elif kind == "collinear":
            v[2] = 2.0 * v[1] - v[0]
        elif kind == "copy" and tris:
            v = tris[draw(st.integers(0, len(tris) - 1))][draw(st.permutations(range(3)))]
        tris.append(v)
    return np.concatenate(tris), size


@pytest.fixture(scope="session")
def cube():
    """Unit-scale test cube, 0.05 m on a side, centered at the origin."""
    return make_box((0.05, 0.05, 0.05))


@pytest.fixture(scope="session")
def sphere():
    return make_icosphere(0.03, subdivisions=4)


@pytest.fixture(scope="session")
def slab():
    """Thin slab: 0.04 m along x, wide in y/z."""
    return make_box((0.04, 0.2, 0.2))


@pytest.fixture(scope="session")
def plates():
    """Two parallel walls with a 0.04 m gap along x."""
    from cgrkit.geometry import merge_meshes

    left = make_box((0.01, 0.2, 0.2), center=(-0.025, 0.0, 0.0))
    right = make_box((0.01, 0.2, 0.2), center=(0.025, 0.0, 0.0))
    return merge_meshes([left, right])


@pytest.fixture(scope="session")
def hand3():
    return load_hand_spec(bundled_hand_path("archetype3"))


@pytest.fixture(scope="session")
def oblique_hand(hand3):
    """hand3 with every type's axes tilted off the coordinate axes, so that
    aligning a pose is a matmul with rounding in every entry."""
    tilt = np.array([0.3, -0.2, 0.1])
    return HandSpec("oblique", [
        GraspTypeSpec(gt.id, gt.name, gt.principal_closing_axis + tilt, gt.approach_axis - tilt[::-1],
                      gt.fingertip_rays, gt.collision_mesh, gt.max_close_travel)
        for gt in hand3.grasp_types
    ])


def simple_scene(meshes=None, positions=None) -> Scene:
    """One-to-three boxes resting on the table plane z = 0."""
    if meshes is None:
        meshes = {"box": make_box((0.05, 0.05, 0.05))}
    if positions is None:
        positions = {"box": (0.0, 0.0)}
    instances = []
    for i, (mesh_id, xy) in enumerate(positions.items()):
        lo, _ = meshes[mesh_id].bounds()
        pose = RigidTransform(rotation_z(0.0), [xy[0], xy[1], -lo[2]])
        instances.append(SceneInstance(mesh_id, pose))
    return Scene(instances, np.zeros(3), np.array([0.0, 0.0, 1.0]), meshes)


@pytest.fixture()
def box_scene():
    return simple_scene()
