import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrkit import cgr, geometry
from cgrkit.cgr import (
    Cgr,
    CgrError,
    CgrGridParams,
    antipodal_rep,
    best_grasp_poses,
    cgr_grids,
    compute_cgr,
    frame_from_row,
    graspness,
    query_grasp_pose,
    record_dtype,
)
from cgrkit.annotation import AnnotationParams, candidate_frames
from cgrkit.geometry import RigidTransform, TriangleMesh, frame_array, frame_from_z, rotation_z

from conftest import reference_grasp_pose, random_transform, triangle_soups


# ---------------------------------------------------------------------------
# Grid parameters


def test_default_grid_shape_and_flat_size():
    p = CgrGridParams()
    assert p.n_angles == 48
    assert p.n_sections == 5
    assert p.section_depths == (0.005, 0.01, 0.02, 0.03, 0.04)
    assert p.flat_size == 480


def test_grid_params_validation():
    with pytest.raises(CgrError):
        CgrGridParams(n_angles=7)
    with pytest.raises(CgrError):
        CgrGridParams(n_sections=2, section_depths=(0.02, 0.01))
    with pytest.raises(CgrError):
        CgrGridParams(section_depths=(0.01,))  # length mismatch
    with pytest.raises(CgrError):
        CgrGridParams(d_max=0.0)


@pytest.mark.parametrize("d_max", [0.0, -0.01, float("nan")])
def test_grid_params_reject_non_positive_d_max(d_max):
    with pytest.raises(CgrError, match="d_max must be positive"):
        CgrGridParams(d_max=d_max)


def test_grid_params_accept_infinite_d_max():
    assert CgrGridParams(d_max=np.inf).d_max == np.inf


def _random_cgr(rng, params=None):
    params = params or CgrGridParams()
    d = rng.uniform(0.0, params.d_max * 1.2, (params.n_sections, params.n_angles))
    th = np.where(
        d < params.d_max,
        rng.uniform(0.0, np.pi / 2, d.shape),
        params.theta_sentinel,
    )
    return Cgr(RigidTransform.identity(), np.stack([d, th], axis=2), params)


def test_flatten_is_section_major_interleaved():
    rng = np.random.default_rng(1)
    cgr = _random_cgr(rng)
    flat = cgr.flatten()
    assert flat.shape == (480,)
    p = cgr.params
    for j in (0, 2, 4):
        for i in (0, 13, 47):
            base = 2 * (j * p.n_angles + i)
            assert flat[base] == cgr.grid[j, i, 0]
            assert flat[base + 1] == cgr.grid[j, i, 1]


# ---------------------------------------------------------------------------
# Analytic CGR oracles


def test_cgr_slab_analytic(slab):
    """Frame at the slab center: rays exit through 0.02 m of material on the
    +-x sides; distance 0.02/|cos a|, normal angle arccos|cos a|."""
    p = CgrGridParams()
    cgr = compute_cgr(slab, RigidTransform.identity(), p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            c = abs(np.cos(alpha))
            if c > 1e-12 and 0.02 / c <= p.d_max:
                assert abs(cgr.grid[j, i, 0] - 0.02 / c) < 1e-6
                assert abs(cgr.grid[j, i, 1] - np.arccos(c)) < 1e-6
            else:
                assert cgr.grid[j, i, 0] == p.d_max
                assert cgr.grid[j, i, 1] == p.theta_sentinel


def test_cgr_cube_analytic(cube):
    """Frame on a cube face with z pointing inward: square-section distances
    0.025/max(|cos a|, |sin a|)."""
    p = CgrGridParams()
    frame = RigidTransform(np.eye(3), [0.0, 0.0, -0.025])
    cgr = compute_cgr(cube, frame, p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            m = max(abs(np.cos(alpha)), abs(np.sin(alpha)))
            assert abs(cgr.grid[j, i, 0] - 0.025 / m) < 1e-6
            assert abs(cgr.grid[j, i, 1] - np.arccos(m)) < 1e-6


def test_cgr_sphere_analytic(sphere):
    """Frame at the sphere's south pole, z toward the center: section at
    depth d has circle radius sqrt(r^2 - (d - r)^2); normal angle has
    cos(theta) = rho / r."""
    r = 0.03
    p = CgrGridParams()
    frame = RigidTransform(np.eye(3), [0.0, 0.0, -r])
    cgr = compute_cgr(sphere, frame, p)
    for j, d in enumerate(p.section_depths):
        rho = np.sqrt(r**2 - (d - r) ** 2)
        got = cgr.grid[j, :, 0]
        assert np.all(np.abs(got - rho) / rho < 1e-2)
        # facet normals wobble; allow a few degrees
        assert np.all(np.abs(cgr.grid[j, :, 1] - np.arccos(rho / r)) < 0.1)


def test_cgr_plates_analytic(plates):
    """Frame centered in the gap between two walls 0.02 m away: distances
    0.02/|cos a|; rays enter the material from outside so the outward hit
    normal opposes them (theta = pi - arccos|cos a|)."""
    p = CgrGridParams()
    cgr = compute_cgr(plates, RigidTransform.identity(), p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            c = abs(np.cos(alpha))
            if c > 1e-12 and 0.02 / c <= p.d_max:
                assert abs(cgr.grid[j, i, 0] - 0.02 / c) < 1e-6
                assert abs(cgr.grid[j, i, 1] - (np.pi - np.arccos(c))) < 1e-6
            else:
                assert cgr.grid[j, i, 0] == p.d_max


def test_cgr_miss_everything(cube):
    frame = RigidTransform(np.eye(3), [1.0, 1.0, 1.0])
    cgr = compute_cgr(cube, frame)
    assert np.all(cgr.grid[:, :, 0] == cgr.params.d_max)
    assert np.all(cgr.grid[:, :, 1] == cgr.params.theta_sentinel)
    assert not cgr.hits.any()


def test_compute_cgrs_matches_single(cube, slab):
    rng = np.random.default_rng(2)
    frames = [random_transform(rng, t_scale=0.03) for _ in range(5)]
    batch = cgr_grids(cube, np.array([frame_array(f.rotation, f.translation) for f in frames]), CgrGridParams())
    for frame, grid in zip(frames, batch):
        single = compute_cgr(cube, frame)
        assert np.array_equal(grid, single.grid)


def _brute_grids(mesh, frames, p):
    """cgr_grids one ray at a time through ray_intersect_brute, with the
    rays built as cgr_grids builds them."""
    dirs_local = np.column_stack([np.cos(p.alphas), np.sin(p.alphas), np.zeros(p.n_angles)])
    out = np.empty((len(frames), p.n_sections, p.n_angles, 2))
    for k, frame in enumerate(frames):
        R = frame[:, :3]
        dirs = dirs_local @ R.T
        for j, depth in enumerate(p.section_depths):
            origin = frame[:, 3] + depth * R[:, 2]
            for i, d in enumerate(dirs):
                hit = mesh.ray_intersect_brute(origin, d, p.d_max)
                if hit is None:
                    out[k, j, i] = p.d_max, p.theta_sentinel
                else:
                    cosang = np.einsum("ij,ij->i", d[None], hit[1][None])[0]
                    out[k, j, i] = hit[0], np.arccos(np.clip(cosang, -1.0, 1.0))
    return out


@functools.cache
def _brute_case(shape):
    """(mesh, frames, brute-force grids) of a box or a 24-segment cylinder:
    its candidate frames plus frames whose z-axis is a coordinate axis."""
    mesh = geometry.make_box((0.05, 0.04, 0.03)) if shape == "box" else geometry.make_cylinder(0.02, 0.05, 24)
    frames = candidate_frames(mesh, AnnotationParams(surface_resolution=0.02, approach_directions=4))
    axes = np.vstack([np.eye(3), -np.eye(3)])
    frames = np.concatenate([frames, geometry.point_direction_frames(frames[::37, :, 3], axes)])
    return mesh, frames, _brute_grids(mesh, frames, CgrGridParams())


@pytest.mark.parametrize("shape", ["box", "cylinder"])
@pytest.mark.parametrize("sections", [False, True], ids=["rays", "sections"])
def test_cgr_grids_match_brute_force_rays(sections, shape):
    """Either query of cgr_grids on the candidate frames of a box and a
    24-segment cylinder, plus frames whose z-axis is a coordinate axis,
    equals a grid cast ray by ray through the brute-force oracle, bit for
    bit. The axis frames put exactly-zero direction components into the
    batches, so the walk's parallel-axis branch runs, and section planes on
    the box's faces."""
    mesh, frames, want = _brute_case(shape)
    p = CgrGridParams()
    dirs_local = np.column_stack([np.cos(p.alphas), np.sin(p.alphas), np.zeros(p.n_angles)])
    assert (dirs_local @ frames[-1, :, :3].T == 0.0).any()
    grids = cgr._grids(mesh, frames, p, sections)
    assert np.array_equal(grids, want)
    hit = grids[..., 0] < p.d_max
    assert hit.any() and not hit.all()


@st.composite
def _section_cases(draw):
    """(mesh, frames (K, 3, 4), params): a box, cylinder or icosphere, posed
    or not, a triangle soup with coplanar, zero-area and duplicated
    triangles, or an empty mesh; frames whose first pole (depth 0) lies on
    a vertex, on an edge, inside a face or anywhere, with z along a
    coordinate axis (axis-aligned u and v), along a face normal (the section
    plane holds the face), in a coordinate plane or anywhere, or with ray 0
    pointing exactly at a triangle corner; N rays of 4, 12 or 48 and a reach
    of 1e-3, 0.05, inf or the first pole's distance to the mesh's box."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["box", "cylinder", "sphere", "soup", "empty"]))
    if shape == "soup":
        vertices, _ = draw(triangle_soups())
        mesh = TriangleMesh(vertices, np.arange(len(vertices)).reshape(-1, 3))
    elif shape == "empty":
        mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    else:
        mesh = {"box": lambda: geometry.make_box(rng.uniform(0.01, 0.1, 3)),
                "cylinder": lambda: geometry.make_cylinder(0.02, 0.05, 8),
                "sphere": lambda: geometry.make_icosphere(0.03, 1)}[shape]()
        if draw(st.booleans()):
            mesh = mesh.transformed(random_transform(rng, 0.05))
    corners = mesh.vertices[mesh.triangles] if len(mesh) else np.zeros((1, 3, 3))
    normals = mesh.normals if len(mesh) else np.eye(3)
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        k, j = rng.integers(len(corners)), rng.integers(3)
        tri = corners[k]
        at = draw(st.sampled_from(["vertex", "edge", "face", "free"]))
        if at == "vertex":
            pole = tri[j]
        elif at == "edge":
            pole = tri[j] + draw(st.sampled_from([0.5, rng.uniform()])) * (tri[(j + 1) % 3] - tri[j])
        elif at == "face":
            w = rng.dirichlet(np.ones(3))
            pole = w @ tri
        else:
            pole = rng.uniform(corners.min(axis=(0, 1)) - 0.02, corners.max(axis=(0, 1)) + 0.02)
        aim = draw(st.sampled_from(["axis", "normal", "corner", "plane", "free"]))
        target = corners[rng.integers(len(corners)), rng.integers(3)] - pole
        if aim == "corner" and np.linalg.norm(target) > 1e-6:
            # ray 0 points exactly at a corner: its direction is u
            u = target / np.linalg.norm(target)
            z = np.cross(u, rng.standard_normal(3))
            z /= np.linalg.norm(z)
            R = np.column_stack([u, np.cross(z, u), z])
        else:
            if aim == "axis":
                z = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
            elif aim == "normal" and np.linalg.norm(normals[k]) > 0.5:
                z = normals[k] * rng.choice([-1.0, 1.0])
            else:
                z = rng.standard_normal(3)
                if aim == "plane":
                    z[rng.integers(3)] = 0.0
            R = frame_from_z(z)
            if aim not in ("axis", "normal"):
                R = R @ rotation_z(rng.uniform(0, 2 * np.pi))
        frames.append(frame_array(R, pole))
    depths = draw(st.sampled_from([(0.0,), (0.0, 0.004), (0.0, 0.005, 0.02)]))
    # "box": the first pole's distance to the mesh's box, which a ray along
    # an axis from outside a box mesh hits at exactly that distance
    d_max = draw(st.sampled_from([1e-3, 0.05, np.inf, "box"]))
    if d_max == "box":
        lo, hi = mesh.bounds()
        d_max = float(np.linalg.norm(np.maximum(np.maximum(lo - frames[0][:, 3], frames[0][:, 3] - hi), 0.0))) or 0.05
    params = CgrGridParams(n_angles=draw(st.sampled_from([4, 12, 48])), n_sections=len(depths),
                           section_depths=depths, d_max=d_max)
    return mesh, np.array(frames), params


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_section_cases())
def test_section_query_matches_brute_force_on_generated_frames(case):
    """The section query and the ray query give the brute-force grids bit
    for bit on generated meshes and frames; so does compute_cgr on a single
    frame, by whichever query cgr_grids selects."""
    mesh, frames, p = case
    want = _brute_grids(mesh, frames, p)
    assert np.array_equal(cgr._grids(mesh, frames, p, True), want)
    assert np.array_equal(cgr._grids(mesh, frames, p, False), want)
    if len(frames) == 1:
        frame = RigidTransform(frames[0, :, :3], frames[0, :, 3])
        assert np.array_equal(compute_cgr(mesh, frame, p).grid, want[0])


def test_cgr_grids_selects_sections_for_many_rays_on_small_meshes(cube):
    """Sections for the default 48-ray grid on the benchmark's loop meshes
    and for coverage sampling's 12- and 24-ray grids on meshes of up to 96
    triangles; rays for 4-ray grids (coverage probes at two in-plane angles)
    and for 16-ray grids on 256 and 1,280 triangles. At 32 rays the bound is
    N^3 / 8: 1,280 triangles take sections and 5,120 rays."""
    default = CgrGridParams()
    cyl = geometry.make_cylinder(0.018, 0.055, 24)
    assert cgr._by_sections(default, cube)
    assert cgr._by_sections(default, cyl)
    for n in (12, 24):
        single = CgrGridParams(n_angles=n, n_sections=1, section_depths=(0.04,))
        assert cgr._by_sections(single, cube) and cgr._by_sections(single, cyl)
    assert not cgr._by_sections(CgrGridParams(n_angles=4, n_sections=1, section_depths=(0.04,)), cube)
    scan = CgrGridParams(n_angles=16, n_sections=3, section_depths=(0.005, 0.015, 0.03))
    ico3 = geometry.make_icosphere(0.03, 3)
    for mesh in (geometry.make_cylinder(0.02, 0.06, 64), ico3):
        assert not cgr._by_sections(scan, mesh)
    assert cgr._by_sections(CgrGridParams(n_angles=32), ico3)
    assert not cgr._by_sections(CgrGridParams(n_angles=32), geometry.make_icosphere(0.03, 4))


def test_cgr_grids_chunked_equals_default(cube, monkeypatch):
    """Frames are cast a chunk at a time; a chunk of three frames gives the
    same grids, bit for bit, by either query."""
    rng = np.random.default_rng(12)
    p = CgrGridParams()
    frames = np.array([frame_array(tf.rotation, tf.translation)
                       for tf in (random_transform(rng, t_scale=0.03) for _ in range(20))])
    whole = cgr_grids(cube, frames, p)
    assert whole.shape == (20, p.n_sections, p.n_angles, 2)
    assert (whole[..., 0] < p.d_max).any() and (whole[..., 0] == p.d_max).any()
    monkeypatch.setattr(geometry, "_RAY_CHUNK", 3 * p.n_sections * p.n_angles)
    monkeypatch.setattr(geometry, "_SECTION_CHUNK", 3 * p.n_sections * p.n_angles)
    for sections in (False, True):
        assert np.array_equal(cgr._grids(cube, frames, p, sections), whole)
    assert cgr_grids(cube, frames[:0], p).shape == (0, p.n_sections, p.n_angles, 2)


# ---------------------------------------------------------------------------
# SE(3) equivariance


def test_cgr_se3_equivariance(cube, slab, sphere):
    # base frames twisted off the fixtures' symmetry axes so that no ray is
    # exactly perpendicular to a face (arccos is ill-conditioned there)
    from conftest import random_rotation

    rng = np.random.default_rng(3)
    # a generic pose on the sphere keeps rays away from tessellation edges,
    # where the chosen facet (and its normal) could flip under the transform
    generic = random_rotation(np.random.default_rng(99)) @ rotation_z(0.06)
    base_frames = {
        id(cube): RigidTransform(rotation_z(0.06), [0.0, 0.0, -0.025]),
        id(slab): RigidTransform(rotation_z(0.06), np.zeros(3)),
        id(sphere): RigidTransform(generic, [0.0011, -0.0007, -0.0293]),
    }
    for mesh in (cube, slab, sphere):
        frame = base_frames[id(mesh)]
        ref = compute_cgr(mesh, frame)
        for _ in range(10):
            tf = random_transform(rng)
            moved = compute_cgr(mesh.transformed(tf), tf.compose(frame))
            assert np.max(np.abs(moved.grid - ref.grid)) < 1e-6


def test_query_pose_commutes_with_transform(slab):
    # slab + twisted frame: the best antipodal pair is unique, so the winner
    # cannot flip between symmetric ties under the transform
    rng = np.random.default_rng(4)
    frame = RigidTransform(rotation_z(0.06), np.zeros(3))
    cgr = compute_cgr(slab, frame)
    pose = query_grasp_pose(cgr)
    for _ in range(10):
        tf = random_transform(rng)
        moved = compute_cgr(slab.transformed(tf), tf.compose(frame))
        pose_t = query_grasp_pose(moved)
        assert np.max(np.abs(pose_t.rotation - tf.rotation @ pose.rotation)) < 1e-9
        assert np.max(np.abs(pose_t.translation - tf.apply(pose.translation))) < 1e-9


# ---------------------------------------------------------------------------
# Antipodal representation (brute-force oracle)


def _oracle_antipodal(cgr):
    p = cgr.params
    half = p.n_angles // 2
    m = p.n_sections
    width = np.zeros((m, half))
    friction = np.zeros((m, half))
    score = np.zeros((m, half))
    for j in range(m):
        for i in range(half):
            d1, th1 = cgr.grid[j, i]
            d2, th2 = cgr.grid[j, i + half]
            width[j, i] = 2.0 * max(d1, d2)
            friction[j, i] = max(np.tan(th1), np.tan(th2))
            if d1 < p.d_max and d2 < p.d_max:
                score[j, i] = min(max(1.0 - friction[j, i], 0.0), 1.0)
    return width, friction, score


def test_antipodal_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cgr = _random_cgr(rng)
        rep = antipodal_rep(cgr)
        w, f, s = _oracle_antipodal(cgr)
        assert np.max(np.abs(rep.width - w)) < 1e-12
        assert np.max(np.abs(rep.friction - f)) < 1e-12
        assert np.max(np.abs(rep.score - s)) < 1e-12


def test_antipodal_slab_perfect_score(slab):
    cgr = compute_cgr(slab, RigidTransform.identity())
    rep = antipodal_rep(cgr)
    # the 0/180-degree pair: width is the full slab thickness, flat-on contact
    assert abs(rep.width[0, 0] - 0.04) < 1e-9
    assert abs(rep.friction[0, 0]) < 1e-9
    assert abs(rep.score[0, 0] - 1.0) < 1e-9


def test_best_tie_break_lowest_section_then_angle():
    p = CgrGridParams()
    grid = np.zeros((p.n_sections, p.n_angles, 2))
    grid[:, :, 0] = 0.01  # all hit
    grid[:, :, 1] = 0.0  # all perfect -> every entry scores 1.0
    cgr = Cgr(RigidTransform.identity(), grid, p)
    i, j, s = antipodal_rep(cgr).best()
    assert (i, j, s) == (0, 0, 1.0)
    # degrade everything except a single interior winner
    grid[:, :, 1] = 1.0
    grid[2, 5, 1] = 0.0
    grid[2, 5 + p.n_angles // 2, 1] = 0.0
    cgr = Cgr(RigidTransform.identity(), grid, p)
    i, j, s = antipodal_rep(cgr).best()
    assert (i, j) == (5, 2)
    assert s == 1.0


# ---------------------------------------------------------------------------
# Graspness


def _oracle_graspness(cgr, theta_threshold, score_threshold):
    p = cgr.params
    nm = p.n_sections * p.n_angles
    low = 0
    for j in range(p.n_sections):
        for i in range(p.n_angles):
            if cgr.grid[j, i, 0] < p.d_max and cgr.grid[j, i, 1] < theta_threshold:
                low += 1
    _w, _f, score = _oracle_antipodal(cgr)
    good = int((score >= score_threshold).sum())
    return low / nm + good / (nm / 2)


def test_graspness_matches_count_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        cgr = _random_cgr(rng)
        got = graspness(cgr, theta_threshold=0.3, score_threshold=0.9)
        want = _oracle_graspness(cgr, 0.3, 0.9)
        assert abs(got - want) < 1e-12


def test_graspness_extremes(slab, cube):
    empty = compute_cgr(cube, RigidTransform(np.eye(3), [1.0, 1.0, 1.0]))
    assert graspness(empty) == 0.0
    flat = compute_cgr(slab, RigidTransform.identity())
    assert graspness(flat) > 0.0


def test_graspness_validates_thresholds(slab):
    cgr = compute_cgr(slab, RigidTransform.identity())
    with pytest.raises(CgrError):
        graspness(cgr, theta_threshold=0.0)
    with pytest.raises(CgrError):
        graspness(cgr, score_threshold=1.5)


# ---------------------------------------------------------------------------
# Pose query


def test_query_pose_formula():
    p = CgrGridParams()
    grid = np.zeros((p.n_sections, p.n_angles, 2))
    grid[:, :, 0] = p.d_max  # all miss
    grid[:, :, 1] = p.theta_sentinel
    # single antipodal winner at angle 7, section 3
    i_win, j_win = 7, 3
    for i in (i_win, i_win + p.n_angles // 2):
        grid[j_win, i, 0] = 0.01
        grid[j_win, i, 1] = 0.1
    rng = np.random.default_rng(7)
    frame = random_transform(rng)
    cgr = Cgr(frame, grid, p)
    pose = query_grasp_pose(cgr)
    alpha = 2 * np.pi * i_win / p.n_angles
    R_expect = frame.rotation @ rotation_z(alpha)
    t_expect = frame.translation + p.section_depths[j_win] * R_expect[:, 2]
    assert np.allclose(pose.rotation, R_expect, atol=1e-12)
    assert np.allclose(pose.translation, t_expect, atol=1e-12)
    _, angle, section, _ = best_grasp_poses(frame_array(frame.rotation, frame.translation)[None], grid[None], p)
    assert (angle[0], section[0]) == (i_win, j_win)


def _tie_grids(rng, p, count):
    """Grids whose antipodal scores tie often: hits with normal angles from
    a set of three, some rows all equal, some all missed."""
    d = np.where(rng.random((count, p.n_sections, p.n_angles)) < 0.8, 0.01, p.d_max)
    th = rng.choice([0.0, 0.3, 0.6], size=d.shape)
    d[:3], th[:3] = 0.01, 0.3  # every entry ties across sections and angles
    d[3] = p.d_max  # no contact: score 0 everywhere
    return np.stack([d, np.where(d < p.d_max, th, p.theta_sentinel)], axis=3)


def _svd_frame(row):
    """One float32 row's transform, projected onto SO(3) one matrix at a time."""
    row = np.asarray(row, dtype=float)
    u, _, vt = np.linalg.svd(row[:, :3])
    R = u @ vt
    if np.linalg.det(R) < 0:
        u[:, -1] *= -1
        R = u @ vt
    return RigidTransform(R, row[:, 3])


def test_best_grasp_poses_match_per_cgr():
    """The batched pose query equals the per-CGR path bit for bit, ties and
    float32 frames (as a file holds them) included."""
    rng = np.random.default_rng(11)
    p = CgrGridParams()
    grids = _tie_grids(rng, p, 60)
    frames = np.array([frame_array(tf.rotation, tf.translation) for tf in (random_transform(rng) for _ in range(60))])
    stored32 = frames.astype(np.float32)
    stored32[::7, 2] *= -1  # reflections project with a flipped singular vector
    for stored in (frames, stored32):
        poses, angle, section, score = best_grasp_poses(stored, grids, p)
        for k in range(len(grids)):
            if stored.dtype == np.float32:
                frame = _svd_frame(stored[k])
                assert np.array_equal(frame_from_row(stored[k]).rotation, frame.rotation)
            else:
                frame = RigidTransform(stored[k, :, :3], stored[k, :, 3])
            cgr = Cgr(frame, grids[k], p)
            R, t, i, j, s = reference_grasp_pose(cgr)
            assert (angle[k], section[k], score[k]) == (i, j, s)
            assert np.array_equal(poses[k, :, :3], R) and np.array_equal(poses[k, :, 3], t)
            if s > 0:
                pose = query_grasp_pose(cgr)
                assert np.array_equal(pose.rotation, R) and np.array_equal(pose.translation, t)
    # a full tie goes to the first entry; no contact scores 0
    assert (angle[0], section[0], score[3]) == (0, 0, 0.0)


def test_query_pose_raises_without_contact(cube):
    empty = compute_cgr(cube, RigidTransform(np.eye(3), [1.0, 1.0, 1.0]))
    with pytest.raises(CgrError):
        query_grasp_pose(empty)


# ---------------------------------------------------------------------------
# Serialization


def _stored_row(cgr):
    """The float32 [R | t] frame as a dataset or trial file stores it."""
    return np.column_stack([cgr.frame.rotation, cgr.frame.translation]).astype(np.float32)


def test_cgr_bytes_roundtrip_bitwise():
    rng = np.random.default_rng(8)
    p = CgrGridParams()
    cgr = Cgr(random_transform(rng, t_scale=0.05), _random_cgr(rng).grid, p)
    dtype = record_dtype(p, [])
    assert dtype.itemsize == 4 * (12 + p.flat_size)
    rows = np.zeros(1, dtype)
    row = _stored_row(cgr)
    rows["R"], rows["t"], rows["grid"] = row[:, :3], row[:, 3], cgr.grid
    blob = rows.tobytes()
    # frame values first (R row-major, then t), then the grid
    assert blob == row[:, :3].tobytes() + row[:, 3].tobytes() + cgr.grid.astype("<f4").tobytes()
    back = np.frombuffer(blob, dtype)
    stored = np.column_stack([back["R"][0], back["t"][0]])
    assert np.array_equal(stored, row)
    assert np.array_equal(back["grid"][0], cgr.grid.astype(np.float32))
    # the rows are kept as read; only the transform built from them is projected
    frame = frame_from_row(stored)
    assert np.max(np.abs(frame.rotation - cgr.frame.rotation)) < 1e-6


def test_cgr_from_bytes_reorthonormalizes():
    rng = np.random.default_rng(9)
    row = np.column_stack([random_transform(rng).rotation, rng.normal(size=3)]).astype(np.float32)
    reflected = row * np.float32([[1], [1], [-1]])  # det = -1 after float32 rounding
    for stored in (row, reflected):
        frame = frame_from_row(stored)
        R = frame.rotation
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert np.array_equal(frame.translation, stored[:, 3].astype(float))
    assert np.max(np.abs(frame_from_row(row).rotation - row[:, :3])) < 1e-6
