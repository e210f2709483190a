from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrkit import cgr, coverage
from cgrkit.cgr import CgrGridParams
from cgrkit.coverage import (
    MASTER_DIRECTIONS,
    CoverageError,
    LocalGeometry,
    SamplingParams,
    coverage_curve,
    dense_params,
    is_covered,
    min_chamfer,
    preset_directions,
    sample_local_geometries,
    sparse_params,
    write_coverage_csv,
)
from cgrkit.geometry import PointCloud, chamfer_distance, make_box, make_cylinder, make_icosphere

from conftest import reference_min_chamfer, reference_patches


# ---------------------------------------------------------------------------
# Parameters and presets


def test_preset_values():
    d, s = dense_params(), sparse_params()
    assert (d.approach_directions, d.inplane_angles) == (100, 12)
    assert (s.approach_directions, s.inplane_angles) == (50, 6)


def test_params_validation():
    with pytest.raises(CoverageError):
        SamplingParams(approach_directions=7)  # does not divide 300
    with pytest.raises(CoverageError):
        SamplingParams(inplane_angles=5)  # does not divide 12
    with pytest.raises(CoverageError):
        SamplingParams(points_per_patch=0)
    with pytest.raises(CoverageError):
        SamplingParams(box_dims=(0.04, -0.04, 0.08))


def test_preset_directions_nest():
    dense = preset_directions(100)
    sparse = preset_directions(50)
    master = preset_directions(MASTER_DIRECTIONS)
    assert dense.shape == (100, 3)
    assert sparse.shape == (50, 3)
    dense_set = {tuple(d) for d in dense}
    master_set = {tuple(d) for d in master}
    assert all(tuple(d) in dense_set for d in sparse)
    assert all(tuple(d) in master_set for d in dense)


# ---------------------------------------------------------------------------
# Patch sampling


FAST = dict(points_per_patch=128, surface_samples=5000)


def test_patches_lie_in_grasp_box():
    box = make_box((0.06, 0.06, 0.06))
    params = dense_params(**FAST)
    patches = sample_local_geometries(box, params, seed=0, object_id="box")
    assert len(patches) > 50
    bx, by, bz = params.box_dims
    for p in patches[:100]:
        assert p.points.shape == (params.points_per_patch, 3)
        assert np.all(np.abs(p.points[:, 0]) <= bx / 2 + 1e-9)
        assert np.all(np.abs(p.points[:, 1]) <= by / 2 + 1e-9)
        assert np.all((p.points[:, 2] >= -1e-9) & (p.points[:, 2] <= bz + 1e-9))
        assert p.source_object == "box"


def test_patch_sampling_deterministic():
    box = make_box((0.05, 0.05, 0.06))
    a = sample_local_geometries(box, sparse_params(**FAST), seed=3)
    b = sample_local_geometries(box, sparse_params(**FAST), seed=3)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.points, pb.points)


def test_sparse_pool_is_subset_of_dense():
    """Nested presets: every sparse patch appears verbatim in the dense pool."""
    for mesh in (make_box((0.05, 0.05, 0.06)), make_icosphere(0.032, 2)):
        dense = sample_local_geometries(mesh, dense_params(**FAST), seed=1)
        sparse = sample_local_geometries(mesh, sparse_params(**FAST), seed=1)
        assert len(dense) > len(sparse) > 0
        dense_keys = {p.points.tobytes() for p in dense}
        assert all(p.points.tobytes() in dense_keys for p in sparse)


@pytest.mark.parametrize("preset", [dense_params, sparse_params])
def test_patches_match_per_frame_reference(preset):
    """Every patch, its points and its box pose, equals the one-frame-at-a-time
    reference bit for bit, in the same order. The 12-triangle cube casts its
    grids by sections and the 1,280-triangle icosphere by rays."""
    params = preset(points_per_patch=48, surface_samples=3000, grasp_point_resolution=0.04)
    shapes = {"boxA": make_box((0.04, 0.05, 0.07)), "cyl": make_cylinder(0.02, 0.06, segments=24),
              "sph": make_icosphere(0.03, 2), "cube": make_box((0.05, 0.05, 0.05)),
              "ico3": make_icosphere(0.03, 3)}
    grid = CgrGridParams(n_angles=2 * params.inplane_angles, n_sections=1, section_depths=(0.04,))
    assert cgr._by_sections(grid, shapes["cube"]) and not cgr._by_sections(grid, shapes["ico3"])
    for oid, mesh in shapes.items():
        got = sample_local_geometries(mesh, params, seed=2, object_id=oid)
        want = reference_patches(mesh, params, seed=2, object_id=oid)
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert np.array_equal(g.points, w.points) and g.source_object == w.source_object == oid
            assert np.array_equal(g.source_pose, w.source_pose)


def test_too_small_object_yields_no_patches():
    # the single CGR section sits at half the box depth; a 2 cm object never
    # reaches it
    tiny = make_box((0.02, 0.02, 0.02))
    assert sample_local_geometries(tiny, sparse_params(**FAST), seed=0) == []


# ---------------------------------------------------------------------------
# Coverage predicate


def _pool_from(mesh, seed=0):
    return sample_local_geometries(mesh, sparse_params(**FAST), seed=seed, object_id="m")


def test_patch_covers_itself():
    pool = _pool_from(make_box((0.05, 0.05, 0.06)))
    assert is_covered(pool[0], pool, tau=1e-9)
    assert min_chamfer(pool[0], pool) == 0.0


def test_min_chamfer_matches_bruteforce():
    rng = np.random.default_rng(4)
    test = LocalGeometry(rng.uniform(0, 0.04, (64, 3)), "t", None)
    pool = [LocalGeometry(rng.uniform(0, 0.04, (64, 3)), "p", None) for _ in range(12)]
    want = min(
        chamfer_distance(PointCloud(test.points), PointCloud(p.points)) for p in pool
    )
    assert abs(min_chamfer(test, pool) - want) < 1e-12


def test_is_covered_validation():
    pool = _pool_from(make_box((0.05, 0.05, 0.06)))
    with pytest.raises(CoverageError):
        is_covered(pool[0], [], tau=0.001)
    with pytest.raises(CoverageError):
        is_covered(pool[0], pool, tau=0.0)


@pytest.mark.parametrize("points", [
    np.zeros((0, 3)),
    np.array([[0.0, 0.01, np.nan]]),
    np.array([[0.0, -np.inf, 0.02], [0.0, 0.0, 0.0]]),
    np.zeros((4, 2)),
    np.zeros(3),
])
def test_local_geometry_checks_points(points):
    with pytest.raises(CoverageError, match="patch points must be"):
        LocalGeometry(points, "bad", None)


def test_far_patch_not_covered():
    pool = _pool_from(make_box((0.05, 0.05, 0.06)))
    shifted = LocalGeometry(pool[0].points + [0.0, 0.0, 0.05], "far", None)
    assert not is_covered(shifted, pool, tau=0.001)


# ---------------------------------------------------------------------------
# The lower-bound cascade against the exact chamfer


@pytest.fixture(scope="module")
def cascade_case():
    """A sparse pool over boxA, cyl and sph plus a one-point patch, a patch of
    duplicate points and a second copy of a patch; probes copied from the
    pool, from a novel box, a far-shifted patch and the odd patches; and the
    KD-tree and quadratic chamfer of every (probe, pool patch) pair."""
    params = sparse_params(points_per_patch=48, surface_samples=3000, grasp_point_resolution=0.04)
    shapes = {"boxA": make_box((0.04, 0.05, 0.07)), "cyl": make_cylinder(0.02, 0.06, segments=24),
              "sph": make_icosphere(0.03, 2)}
    pool = [p for oid, mesh in shapes.items() for p in sample_local_geometries(mesh, params, seed=2, object_id=oid)]
    one_point = LocalGeometry(pool[7].points[:1], "one", None)
    duplicates = LocalGeometry(np.repeat(pool[40].points[:4], 12, axis=0), "dup", None)
    pool += [one_point, duplicates, LocalGeometry(pool[100].points.copy(), "twin", None)]
    novel = sample_local_geometries(make_box((0.05, 0.07, 0.09)), params, seed=5, object_id="novel")
    probes = [LocalGeometry(p.points.copy(), "copy", None) for p in pool[::30]] + novel[::25] + [
        LocalGeometry(pool[0].points + [0.0, 0.0, 0.05], "far", None), one_point, duplicates,
        LocalGeometry(pool[40].points[:4], "dup4", None)]
    kd = np.array([[reference_min_chamfer(q, [p]) for p in pool] for q in probes])
    clouds = [PointCloud(p.points) for p in pool]
    quad = np.array([[chamfer_distance(PointCloud(q.points), c) for c in clouds] for q in probes])
    return pool, probes, kd, quad


def _cascade_by_runs(q, pool, cutoff):
    """coverage._cascade called once on each run of consecutive pool patches
    with one point count, its results joined in pool order: live indices into
    the pool, bounds, exact chamfers and the largest slack."""
    results, start = [], 0
    for _, run in groupby(pool, lambda p: len(p.points)):
        run = list(run)
        points, boxes = np.array([p.points for p in run]), np.array([p.bounds for p in run])
        live, lb, exact, slack = coverage._cascade(q, points, boxes, cutoff)
        results.append((start + live, lb, exact, slack))
        start += len(run)
    live, lb, exact, slack = zip(*results)
    return np.concatenate(live), np.concatenate(lb), np.concatenate(exact), max(slack)


@pytest.mark.parametrize("strides", [(), (3,), (3, 1)])
def test_lower_bounds_are_sound(cascade_case, strides):
    """On every pair, the cascade's bound after the exact forward passes of
    the given strides (none: the box bound alone; (3, 1): the exact chamfer)
    is at most the KD-tree chamfer plus the slack; after (3, 1) it equals the
    KD-tree chamfer bit for bit. The pool's runs of 48-, 1- and 48-point
    patches go through _cascade one run at a time."""
    pool, probes, kd, _ = cascade_case
    assert [len(list(run)) for _, run in groupby(pool, lambda p: len(p.points))] == [len(pool) - 3, 1, 2]
    for q, want in zip(probes, kd):
        if strides:
            live, lb, exact, slack = _cascade_by_runs(q, pool, np.inf)
            assert np.array_equal(live, np.arange(len(pool)))
        else:  # with cutoff -inf no patch passes the box bound
            live, lb, exact, slack = _cascade_by_runs(q, pool, -np.inf)
            assert live.size == 0 and exact.size == 0
        assert 0.0 < slack < 1e-11
        bound = exact if strides == (3, 1) else lb
        assert np.all(bound <= want + slack)
        if strides == (3, 1):
            assert np.array_equal(exact, want)
    # the far probe is ruled out by its bounding box alone
    far = probes[-4]
    live, lb, exact, _ = _cascade_by_runs(far, pool, 0.001)
    assert live.size == 0 and exact.size == 0
    assert np.array_equal(lb, _cascade_by_runs(far, pool, -np.inf)[1])


@pytest.mark.parametrize("tau", [1e-9, 0.001, 0.01])
def test_is_covered_matches_quadratic_chamfer(cascade_case, tau):
    pool, probes, _, quad = cascade_case
    got = [is_covered(q, pool, tau) for q in probes]
    assert got == list(quad.min(1) < tau)
    assert any(got) and (tau == 0.01 or not all(got))


def test_min_chamfer_equals_reference_loop(cascade_case):
    """Without stop_below, bit for bit the per-patch KD-tree loop; with it, the
    loop's value whenever that is below stop_below, and otherwise no less."""
    pool, probes, _, _ = cascade_case
    for q in probes:
        assert min_chamfer(q, pool) == reference_min_chamfer(q, pool)
        for stop in (1e-9, 0.001, 0.01):
            want = reference_min_chamfer(q, pool, stop_below=stop)
            got = min_chamfer(q, pool, stop_below=stop)
            assert got == want if want < stop else got >= stop


def test_block_size_does_not_change_results(cascade_case, monkeypatch):
    pool, probes, _, _ = cascade_case
    want = [(min_chamfer(q, pool), min_chamfer(q, pool, 0.001), is_covered(q, pool, 0.01)) for q in probes]
    monkeypatch.setattr(coverage, "_PAIR_BLOCK", 1)  # one pool patch per block
    got = [(min_chamfer(q, pool), min_chamfer(q, pool, 0.001), is_covered(q, pool, 0.01)) for q in probes]
    assert got == want


@st.composite
def _generated_pools(draw):
    """(probe, pool) of 1-8 patches of 1 to 48 points within a few cm:
    one-point patches, patches of repeated points and copies of an earlier
    patch, shifted or not; the probe is a copy of a pool patch (jittered or
    not), a patch of repeated points or a free patch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.sampled_from([1, 2, 5, 17, 48]))
        kind = draw(st.sampled_from(["free", "repeated", "copy"]))
        if kind == "copy" and pool:
            shift = draw(st.sampled_from([0.0, 1e-4, 0.01]))
            points = pool[int(rng.integers(len(pool)))].points + shift
        elif kind == "repeated":
            points = np.repeat(rng.uniform(-0.02, 0.02, (max(1, size // 4), 3)), 4, axis=0)
        else:
            points = rng.uniform(-0.02, 0.02, (size, 3))
        pool.append(LocalGeometry(points, "gen", None))
    kind = draw(st.sampled_from(["copy", "jitter", "repeated", "free"]))
    source = pool[int(rng.integers(len(pool)))].points
    if kind == "copy":
        points = source.copy()
    elif kind == "jitter":
        points = source + rng.normal(0.0, 1e-4, source.shape)
    elif kind == "repeated":
        points = np.repeat(source[:2], 7, axis=0)
    else:
        points = rng.uniform(-0.02, 0.02, (draw(st.sampled_from([1, 9, 48])), 3))
    return LocalGeometry(points, "probe", None), pool


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_generated_pools())
def test_min_chamfer_matches_reference_on_generated_pools(case):
    """With one pool patch per block and with the default block, without
    stop_below bit for bit the per-patch KD-tree loop; with it, the loop's
    value whenever that is below stop_below, and otherwise no less."""
    probe, pool = case
    for block in (1, coverage._PAIR_BLOCK):
        with mock.patch.object(coverage, "_PAIR_BLOCK", block):
            assert min_chamfer(probe, pool) == reference_min_chamfer(probe, pool)
            for stop in (1e-9, 1e-4, 0.001, 0.01):
                want = reference_min_chamfer(probe, pool, stop_below=stop)
                got = min_chamfer(probe, pool, stop_below=stop)
                assert got == want if want < stop else got >= stop


def _dense_min_chamfer(probe, pool):
    """Smallest symmetric chamfer over the pool, each from the full matrix of
    point-pair distances by numpy broadcasting: no KD-tree and no cdist."""
    best = np.inf
    for patch in pool:
        d = np.sqrt(((probe.points[:, None, :] - patch.points[None, :, :]) ** 2).sum(axis=-1))
        best = min(best, 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean())))
    return best


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_generated_pools())
def test_min_chamfer_matches_dense_all_pairs(case):
    """A second oracle, independent of the KD-tree and of cdist: within the
    1e-12 of test_min_chamfer_matches_bruteforce of the dense all-pairs
    chamfer; with stop_below, below it exactly when that chamfer is."""
    probe, pool = case
    want = _dense_min_chamfer(probe, pool)
    assert abs(min_chamfer(probe, pool) - want) <= 1e-12
    for stop in (1e-9, 1e-4, 0.001, 0.01):
        if abs(want - stop) > 1e-12:
            assert (min_chamfer(probe, pool, stop_below=stop) < stop) == (want < stop)


# ---------------------------------------------------------------------------
# Coverage curves


def test_coverage_curve_same_object_fully_covered():
    box = make_box((0.05, 0.05, 0.06))
    rows = coverage_curve(
        {"box": box},
        {"box": box},
        train_params=sparse_params(**FAST),
        test_params=sparse_params(**FAST),
        seed=0,
    )
    assert len(rows) == 1
    assert rows[0].patch_count > 0
    assert rows[0].covered_count == rows[0].patch_count


def test_coverage_curve_sorted_and_discriminative():
    box = make_box((0.05, 0.05, 0.06))
    lean = SamplingParams(approach_directions=25, inplane_angles=3, **FAST)
    rows = coverage_curve(
        {"box": box},
        {
            "same": box,
            "sphere": make_icosphere(0.032, 2),
        },
        train_params=lean,
        test_params=lean,
        seed=0,
    )
    counts = [r.covered_count for r in rows]
    assert counts == sorted(counts)
    by_id = {r.object_id: r for r in rows}
    # flat box patches do not explain the curved sphere
    frac_same = by_id["same"].covered_count / by_id["same"].patch_count
    frac_sphere = by_id["sphere"].covered_count / max(1, by_id["sphere"].patch_count)
    assert frac_same == 1.0
    assert frac_sphere < frac_same


def test_coverage_curve_validation():
    box = make_box((0.05, 0.05, 0.06))
    with pytest.raises(CoverageError):
        coverage_curve({}, {"b": box})
    with pytest.raises(CoverageError):
        coverage_curve({"b": box}, {})


def test_write_coverage_csv(tmp_path):
    from cgrkit.coverage import CoverageRow

    path = tmp_path / "cov.csv"
    write_coverage_csv([CoverageRow("a", 10, 4), CoverageRow("b", 8, 8)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "test_object_id,patch_count,covered_count"
    assert lines[1] == "a,10,4"
    assert lines[2] == "b,8,8"
