"""Geometry coverage analysis.

Local geometries are surface patches cropped by a grasp-sized box around
antipodally graspable poses, expressed in the box frame and resampled to a
fixed point count. A test patch is "covered" when some training patch lies
within a chamfer-distance threshold (default 1 mm).

Direction presets are nested (sparse directions are a strided subset of the
dense ones), so denser sampling provably produces a superset patch pool.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
from scipy.spatial.distance import cdist

from .cgr import CgrGridParams, _antipodal, cgr_grids
from .geometry import (
    TriangleMesh,
    bin_points,
    fibonacci_sphere,
    frame_array,
    point_direction_frames,
    rotation_z,
    sample_surface_points,
)

MASTER_DIRECTIONS = 300  # master spiral; presets take strided subsets
MASTER_INPLANE = 12  # master in-plane angle count; presets take strided subsets

DEFAULT_BOX_DIMS = (0.04, 0.04, 0.08)  # closing (x), width (y), approach (z)

# A lower bound rules a pool patch out only when it reaches the cutoff plus
# this slack, scaled by the largest coordinate magnitude where that exceeds 1:
# bound and exact distance are both means of rounded terms, and their
# rounding is far smaller.
_BOUND_SLACK = 1e-12
# probe-point x pool-point pairs per block of pool patches; bounds the dense
# distance arrays of min_chamfer
_PAIR_BLOCK = 1 << 20


class CoverageError(ValueError):
    pass


@dataclass(frozen=True)
class SamplingParams:
    approach_directions: int = 100  # V
    inplane_angles: int = 12  # A
    box_dims: tuple = DEFAULT_BOX_DIMS
    points_per_patch: int = 512
    grasp_point_resolution: float = 0.03
    surface_samples: int = 20000

    def __post_init__(self):
        if self.approach_directions < 1 or self.inplane_angles < 1:
            raise CoverageError("V and A must be positive")
        if self.points_per_patch < 1:
            raise CoverageError("points_per_patch must be positive")
        if any(d <= 0 for d in self.box_dims) or len(self.box_dims) != 3:
            raise CoverageError("box_dims must be three positive lengths")
        if MASTER_DIRECTIONS % self.approach_directions != 0:
            raise CoverageError(
                f"approach_directions must divide {MASTER_DIRECTIONS} so presets nest"
            )
        if MASTER_INPLANE % self.inplane_angles != 0:
            raise CoverageError(
                f"inplane_angles must divide {MASTER_INPLANE} so presets nest"
            )


def dense_params(**kw) -> SamplingParams:
    return SamplingParams(approach_directions=100, inplane_angles=12, **kw)


def sparse_params(**kw) -> SamplingParams:
    return SamplingParams(approach_directions=50, inplane_angles=6, **kw)


@dataclass
class LocalGeometry:
    points: np.ndarray  # (points_per_patch, 3), box frame
    source_object: str
    source_pose: np.ndarray  # (3, 4) box frame [R | t]
    bounds: np.ndarray = field(init=False, repr=False)  # (2, 3) min and max corner of points

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) == 0:
            raise CoverageError(f"patch points must be a (P, 3) array with P >= 1, got shape {self.points.shape}")
        self.bounds = np.array([self.points.min(0), self.points.max(0)])
        if not np.isfinite(self.bounds).all():  # min and max carry any nan or inf
            raise CoverageError("patch points must be finite")


def preset_directions(v: int) -> np.ndarray:
    stride = MASTER_DIRECTIONS // v
    return fibonacci_sphere(MASTER_DIRECTIONS)[::stride]


def sample_local_geometries(
    obj: TriangleMesh,
    params: SamplingParams | None = None,
    seed: int = 0,
    object_id: str = "",
) -> list[LocalGeometry]:
    """Patches around antipodally graspable poses.

    A pose is kept when a single-section CGR at the grasp point has a
    positive antipodal score for the pose's in-plane angle.
    """
    params = params or SamplingParams()
    surface = sample_surface_points(obj, params.surface_samples, seed)
    if len(surface) == 0:
        raise CoverageError("empty object")
    # grasp points: the surface samples' mean point in each occupied cell
    grasp_points = bin_points(surface.points, np.zeros(3), params.grasp_point_resolution)[1]
    dirs = preset_directions(params.approach_directions)
    hx, hy, hz = (d / 2.0 for d in params.box_dims)  # the box is [-hx, hx] x [-hy, hy] x [0, 2 hz]
    # single section at half the box depth; reach bounded by the box
    grid = CgrGridParams(
        n_angles=max(4, 2 * params.inplane_angles),
        n_sections=1,
        section_depths=(hz,),
        d_max=float(np.linalg.norm([hx, hy, hz])),
    )
    frames = point_direction_frames(grasp_points, dirs)
    angle_idx = np.arange(params.inplane_angles) * (grid.n_angles // 2 // params.inplane_angles)
    score = _antipodal(cgr_grids(obj, frames, grid), grid)[2][:, 0, angle_idx]
    k, a = np.nonzero(score > 0.0)  # kept (frame, angle) pairs, frame-major
    Rz = np.array([rotation_z(2 * np.pi * i / grid.n_angles) for i in angle_idx])
    R_box = frames[k, :, :3] @ Rz[a]
    dir_stride = MASTER_DIRECTIONS // params.approach_directions
    master_angle_stride = MASTER_INPLANE // params.inplane_angles
    patches: list[LocalGeometry] = []
    for j in range(len(k)):
        point_idx, dir_idx = divmod(int(k[j]), len(dirs))
        R, t = R_box[j], grasp_points[point_idx]
        # RigidTransform(R, t).inverse().apply, term for term
        local = surface.points @ R + -R.T @ t
        inside = np.flatnonzero((np.abs(local[:, 0]) <= hx) & (np.abs(local[:, 1]) <= hy)
                                & (np.abs(local[:, 2] - hz) <= hz))  # a reduction over 3-wide rows is slow
        if len(inside) == 0:
            continue
        # per-patch rng keyed on master-grid indices: the same pose
        # yields an identical patch under any preset, so denser presets
        # produce strict supersets of sparser ones
        rng = np.random.default_rng((seed, point_idx, dir_idx * dir_stride, int(a[j]) * master_angle_stride))
        sel = rng.integers(0, len(inside), size=params.points_per_patch)
        patches.append(LocalGeometry(local[inside[sel]], object_id, frame_array(R, t)))
    return patches


def is_covered(
    test_patch: LocalGeometry, training_pool: list[LocalGeometry], tau: float = 0.001
) -> bool:
    """True iff some pool patch is within chamfer distance tau."""
    if not training_pool:
        raise CoverageError("empty pool")
    if tau <= 0:
        raise CoverageError("tau must be positive")
    return min_chamfer(test_patch, training_pool, stop_below=tau) < tau


def min_chamfer(
    test_patch: LocalGeometry, pool: list[LocalGeometry], stop_below: float | None = None
) -> float:
    """Smallest symmetric chamfer distance from test_patch to a pool patch.

    Without stop_below the result is exact: bit for bit the smallest KD-tree
    chamfer over the pool. With stop_below the search stops at the first pool
    patch, in pool order, within stop_below and returns its exact distance; a
    result >= stop_below says only that no pool patch is within stop_below,
    not how far the nearest one is (it may be inf).

    Pool patches are ruled out by a cascade of lower bounds on the chamfer,
    each compared with the cutoff (stop_below if given, else the best distance
    so far) plus a slack of _BOUND_SLACK that covers rounding:

    1. half the mean distance from the probe's points to each patch's bounding
       box plus the mean distance from each patch's points to the probe's box;
    2. the same with the forward distances of every third probe point
       measured exactly;
    3. the exact chamfer of each patch that remains, from one dense pass over
       all its point pairs with the probe.

    The pool is taken as runs of consecutive patches with one point count,
    each run in blocks of at most _PAIR_BLOCK point pairs.
    """
    limit = np.inf if stop_below is None else stop_below
    best = np.inf
    for _, run in groupby(pool, lambda p: len(p.points)):
        run = list(run)
        per_block = max(1, _PAIR_BLOCK // (len(test_patch.points) * len(run[0].points)))
        for start in range(0, len(run), per_block):
            block = run[start:start + per_block]
            points, boxes = np.array([p.points for p in block]), np.array([p.bounds for p in block])
            d = _cascade(test_patch, points, boxes, min(best, limit))[2]
            if stop_below is not None and np.any(d < stop_below):
                return float(d[d < stop_below][0])
            best = min(best, float(d.min(initial=np.inf)))
    return best


def _cascade(
    test_patch: LocalGeometry, points: np.ndarray, boxes: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The cascade of min_chamfer on one block of k patches of P points each,
    points (k, P, 3) and boxes (k, 2, 3): the indices, in block order, of the
    patches whose bounds 1 and 2 stay below cutoff plus the slack, the bounds
    (bound 2 only where bound 1 passed), the exact chamfers of those patches
    and the slack."""
    q = test_patch.points
    k, P = points.shape[:2]
    slack = _BOUND_SLACK * max(1.0, np.abs(boxes).max(), np.abs(test_patch.bounds).max())
    fwd = _box_distances(q, boxes)
    bwd = _box_distances(points.reshape(-1, 3), test_patch.bounds[None])[0].reshape(k, P).mean(1)
    lb = 0.5 * (fwd.mean(1) + bwd)
    live = np.flatnonzero(lb < cutoff + slack)
    cols = np.arange(0, len(q), 3)
    fwd[live[:, None], cols] = cdist(points[live].reshape(-1, 3), q[cols]).reshape(len(live), P, len(cols)).min(1)
    lb[live] = 0.5 * (fwd[live].mean(1) + bwd[live])
    live = live[lb[live] < cutoff + slack]
    # per patch, the minima over its points are the forward distances and
    # those over the probe's points the backward ones; a mean over the last
    # axis sums each row pairwise, as np.mean over one patch does, so the
    # exact chamfers are bit for bit the KD-tree chamfer's
    near = cdist(points[live].reshape(-1, 3), q).reshape(len(live), P, len(q))
    exact = 0.5 * (near.min(1).mean(1) + near.min(2).mean(1))
    return live, lb, exact, slack


def _box_distances(points: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(len(boxes), len(points)) distances from each point to each axis-aligned
    box, 0 inside; boxes are (n, 2, 3) min and max corners. No more than the
    distance to any point inside the box."""
    sq = np.zeros((len(boxes), len(points)))
    for k in range(3):
        gap = np.maximum(boxes[:, 0, k, None] - points[:, k], points[:, k] - boxes[:, 1, k, None])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        sq += gap
    return np.sqrt(sq, out=sq)


@dataclass
class CoverageRow:
    object_id: str
    patch_count: int
    covered_count: int


def coverage_curve(
    train_objects: dict,
    test_objects: dict,
    train_params: SamplingParams | None = None,
    test_params: SamplingParams | None = None,
    tau: float = 0.001,
    seed: int = 0,
) -> list[CoverageRow]:
    """Covered-patch counts per test object, sorted ascending by count.

    train_objects / test_objects: mapping id -> TriangleMesh.
    """
    if not train_objects or not test_objects:
        raise CoverageError("train and test sets must be non-empty")
    train_params = train_params or dense_params()
    test_params = test_params or dense_params()
    pool: list[LocalGeometry] = []
    for oid in sorted(train_objects):
        pool.extend(sample_local_geometries(train_objects[oid], train_params, seed, oid))
    if not pool:
        raise CoverageError("training pool is empty")
    rows = []
    for oid in sorted(test_objects):
        patches = sample_local_geometries(test_objects[oid], test_params, seed, oid)
        covered = sum(1 for p in patches if is_covered(p, pool, tau))
        rows.append(CoverageRow(oid, len(patches), covered))
    rows.sort(key=lambda r: (r.covered_count, r.object_id))
    return rows


def write_coverage_csv(rows: list[CoverageRow], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["test_object_id", "patch_count", "covered_count"])
        for r in rows:
            writer.writerow([r.object_id, r.patch_count, r.covered_count])
