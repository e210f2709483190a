"""Scene composition and dense CGR annotation.

Scenes are posed object-mesh instances above a table plane. Annotation
voxelizes each object surface, spawns approach frames on every surface
voxel, computes CGRs against the object's complete mesh, projects them into
the scene and invalidates any whose backward approach cylinder collides
with the rest of the scene or the table.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .cgr import Cgr, CgrError, CgrGridParams, cgr_grids, frame_from_row, record_dtype
from .geometry import (
    PointCloud,
    RigidTransform,
    TriangleMesh,
    _read_end,
    _read_exact,
    _unit_vector,
    bin_points,
    fibonacci_sphere,
    frame_array,
    load_mesh,
    merge_meshes,
    point_direction_frames,
    sample_surface_points,
    voxelize_mesh,
)

DATASET_MAGIC = b"CGRKDS1\0"
# (frame, scene point) pairs per chunk of the approach filter: about 3 MB
# of float64 offsets
_FILTER_CHUNK = 1 << 17
# surface samples per instance that the approach filter tests against
_FILTER_POINTS = 2000
# values after the directive on each .scene line
_SCENE_VALUES = {"mesh": 2, "instance": 8, "table": 6}


class AnnotationError(ValueError):
    pass


@dataclass
class SceneInstance:
    mesh_id: str
    pose: RigidTransform


def _table_plane(point, normal) -> tuple[np.ndarray, np.ndarray]:
    """The table's point and unit normal; both finite, the normal nonzero."""
    point = np.asarray(point, dtype=float).reshape(3)
    message = "table point and normal must be finite and the normal nonzero"
    if not np.isfinite(point).all():
        raise AnnotationError(message)
    return point, _unit_vector(normal, AnnotationError, message)


@dataclass
class Scene:
    instances: list[SceneInstance]
    table_point: np.ndarray
    table_normal: np.ndarray
    meshes: dict  # mesh_id -> TriangleMesh (object frame)
    _merged: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _clouds: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table_point, self.table_normal = _table_plane(self.table_point, self.table_normal)
        for inst in self.instances:
            if inst.mesh_id not in self.meshes:
                raise AnnotationError(f"unresolved mesh id '{inst.mesh_id}'")

    def instance_mesh(self, index: int) -> TriangleMesh:
        inst = self.instances[index]
        return self.meshes[inst.mesh_id].transformed(inst.pose)

    def _state_key(self) -> list:
        """The posed scene's identity: each instance's mesh object and pose bytes."""
        return [(self.meshes[i.mesh_id], i.pose.rotation.tobytes(), i.pose.translation.tobytes())
                for i in self.instances]

    def merged_mesh(self) -> TriangleMesh:
        """All instances posed in one mesh, rebuilt only when the scene state
        changes, so each scene state builds one BVH."""
        key = self._state_key()
        if self._merged[0] != key:
            self._merged = (key, merge_meshes([self.instance_mesh(i) for i in range(len(self.instances))]))
        return self._merged[1]

    def surface_cloud(self, count_per_instance: int = 2000, seed: int = 0) -> PointCloud:
        """count_per_instance surface samples of each instance (seed + index),
        in instance order. One cloud per (count, seed) is kept for the
        current scene state, so callers asking for different clouds do not
        evict each other; a state change drops them all."""
        state = self._state_key()
        if self._clouds[0] != state:
            self._clouds = (state, {})
        clouds = self._clouds[1]
        if (count_per_instance, seed) not in clouds:
            parts = [sample_surface_points(self.instance_mesh(i), count_per_instance, seed + i)
                     for i in range(len(self.instances))]
            clouds[count_per_instance, seed] = (
                PointCloud(np.vstack([c.points for c in parts]), np.vstack([c.normals for c in parts]))
                if parts else PointCloud(np.zeros((0, 3))))
        return clouds[count_per_instance, seed]

    def without_instance(self, index: int) -> "Scene":
        rest = [inst for i, inst in enumerate(self.instances) if i != index]
        return Scene(rest, self.table_point, self.table_normal, self.meshes)


def _quat_to_rotation(w, x, y, z) -> np.ndarray:
    q = np.array([w, x, y, z], dtype=float)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def compose_scene(path) -> Scene:
    """Parse a .scene file:

        mesh <id> <relative mesh path>
        instance <mesh id> <qw qx qy qz> <tx ty tz>
        table <px py pz> <nx ny nz>
    """
    base = os.path.dirname(os.path.abspath(path))
    meshes: dict = {}
    instances: list[SceneInstance] = []
    table_point = np.zeros(3)
    table_normal = np.array([0.0, 0.0, 1.0])
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *args = line.split()
            try:
                if key not in _SCENE_VALUES:
                    raise AnnotationError(f"unknown directive '{key}'")
                if len(args) != _SCENE_VALUES[key]:
                    raise AnnotationError(f"'{key}' takes {_SCENE_VALUES[key]} values, got {len(args)}")
                if key == "mesh":
                    mesh_path = os.path.join(base, args[1])
                    if not os.path.exists(mesh_path):
                        raise AnnotationError(f"mesh file not found for '{args[0]}': {mesh_path}")
                    meshes[args[0]] = load_mesh(mesh_path)
                elif key == "instance":
                    vals = [float(x) for x in args[1:]]
                    pose = RigidTransform(_quat_to_rotation(*vals[:4]), vals[4:])
                    if args[0] not in meshes:
                        raise AnnotationError(f"instance references unknown mesh '{args[0]}'")
                    instances.append(SceneInstance(args[0], pose))
                else:
                    vals = [float(x) for x in args]
                    table_point = np.array(vals[:3])
                    table_normal = np.array(vals[3:])
                    _table_plane(table_point, table_normal)  # checked here so the error names this line
            except ValueError as exc:  # AnnotationError and bad numbers alike
                raise AnnotationError(f"{path}:{lineno}: {exc}") from exc
    return Scene(instances, table_point, table_normal, meshes)


@dataclass(frozen=True)
class AnnotationParams:
    surface_resolution: float = 0.005
    approach_directions: int = 300
    cylinder_radius: float = 0.06
    cylinder_length: float = 0.25
    grid: CgrGridParams = field(default_factory=CgrGridParams)

    def __post_init__(self):
        for name in ("surface_resolution", "cylinder_radius", "cylinder_length"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise AnnotationError(f"{name} must be positive and finite")
        if self.approach_directions < 1:
            raise AnnotationError("approach_directions must be positive")


@dataclass
class CgrRecord:
    cgr: Cgr
    scene_id: int
    valid: bool
    instance_index: int = -1  # runtime-only convenience; not serialized


@dataclass
class CgrDataset:
    """K annotated CGRs as parallel arrays. `frames` are float64 as computed
    or the file's float32 rows as read; `instance` is -1 when read."""

    params: AnnotationParams
    frames: np.ndarray  # (K, 3, 4) world [R | t]
    grids: np.ndarray  # (K, M, N, 2)
    valid: np.ndarray  # (K,) bool
    scene_id: np.ndarray  # (K,) uint32
    instance: np.ndarray  # (K,) int

    def __len__(self) -> int:
        return len(self.frames)

    def cgr(self, k: int) -> Cgr:
        """Record k as a Cgr; a float32 frame read from a file is projected onto SO(3)."""
        f = self.frames[k]
        frame = frame_from_row(f) if f.dtype == np.float32 else RigidTransform(f[:, :3], f[:, 3])
        return Cgr(frame, self.grids[k], self.params.grid)

    @property
    def records(self) -> list[CgrRecord]:
        """Every record as a CgrRecord, built on each access (for inspection)."""
        return [CgrRecord(self.cgr(k), int(s), bool(v), int(i))
                for k, (s, v, i) in enumerate(zip(self.scene_id, self.valid, self.instance))]


def surface_voxel_points(mesh: TriangleMesh, resolution: float) -> np.ndarray:
    """One representative surface point per occupied surface voxel: the mean
    of dense surface samples binned to the voxel grid, in occupancy order.
    A voxel no sample reached is represented by its center."""
    grid = voxelize_mesh(mesh, resolution)
    if not len(grid):
        raise AnnotationError("empty surface")
    n_samples = max(1000, min(200_000, 64 * len(grid)))
    cloud = sample_surface_points(mesh, n_samples, seed=0)
    cells = grid.cells()
    points = grid.origin + (cells + 0.5) * resolution
    # samples that round into an empty voxel are dropped
    on = grid.contains_points(cloud.points)
    keys, means = bin_points(cloud.points[on], grid.origin, resolution)
    slot = np.zeros(grid.mask.shape, dtype=np.int64)  # index of each occupied voxel in `cells`
    slot[grid.mask] = np.arange(len(cells))
    points[slot[tuple((keys - grid.offset).T)]] = means
    return points


def candidate_frames(obj: TriangleMesh, params: AnnotationParams) -> np.ndarray:
    """Approach frames (K, 3, 4): surface-voxel representative points
    crossed with a deterministic spiral of approach directions (frame
    z-axis), point-major."""
    points = surface_voxel_points(obj, params.surface_resolution)
    return point_direction_frames(points, fibonacci_sphere(params.approach_directions))


def _approach_collisions(frames: np.ndarray, scene: Scene, radius: float, length: float,
                         scene_points: np.ndarray) -> np.ndarray:
    """(K,) bool: does the cylinder extending backward (-z) from the origin
    of each of K frames (K, 3, 4) hit a scene point or the table halfspace?
    Frames whose cylinder reaches no bounding sphere of a _FILTER_POINTS-row
    block of `scene_points` are misses; the rest run the exact point test
    against all points, in chunks of about _FILTER_CHUNK (frame, point) pairs."""
    axis = -frames[:, :, 2]
    origin = frames[:, :, 3]
    n = scene.table_normal

    def dot_n(v):  # per row v[k] . n, summed as np.dot sums one vector pair
        return np.matmul(v[:, None, :], n[:, None])[:, 0, 0]

    # table: does any point of the cylinder fall below the table plane?
    # most-negative plane offset over the cylinder: center line end plus radius slack
    h_origin = dot_n(origin - scene.table_point)
    h_end = dot_n(origin + length * axis - scene.table_point)
    axial = np.abs(dot_n(axis))
    radial_slack = radius * np.sqrt(np.maximum(0.0, 1.0 - axial * axial))
    hits = np.minimum(h_origin, h_end) - radial_slack < 0.0
    todo = np.flatnonzero(~hits)
    # cull: a point within distance rho of c moves `along` and the distance
    # to the axis by at most rho, so a frame whose cylinder, grown by rho,
    # misses every block's centre c holds no point; the slack covers rounding
    starts = np.arange(0, len(scene_points), _FILTER_POINTS)
    if len(todo) and len(starts):
        lo = np.minimum.reduceat(scene_points, starts)
        centre = lo + 0.5 * (np.maximum.reduceat(scene_points, starts) - lo)
        off = scene_points - centre[np.arange(len(scene_points)) // _FILTER_POINTS]
        rho = np.sqrt(np.maximum.reduceat(np.einsum("ij,ij->i", off, off), starts))
        slack = 1e-9 * (1.0 + max(np.abs(scene_points).max(), np.abs(origin[todo]).max()))
        rel = centre[None] - origin[todo, None]  # (t, B, 3)
        along = np.einsum("tbi,ti->tb", rel, axis[todo])
        perp = rel - along[..., None] * axis[todo, None]
        dist = np.sqrt(np.einsum("tbi,tbi->tb", perp, perp))
        # written as "not out of reach", so that NaN keeps a frame live
        out = (along < -rho - slack) | (along > length + rho + slack) | (dist > radius + rho + slack)
        todo = todo[~out.all(axis=1)]
    step = max(1, _FILTER_CHUNK // max(1, len(scene_points)))
    for start in range(0, len(todo), step):
        rows = todo[start:start + step]
        rel = scene_points[None] - origin[rows, None]  # (c, P, 3)
        along = np.matmul(rel, axis[rows, :, None])[..., 0]
        c, p = np.nonzero((along >= 0.0) & (along <= length))
        perp = rel[c, p] - along[c, p, None] * axis[rows[c]]
        hits[rows[c[np.einsum("ij,ij->i", perp, perp) <= radius * radius]]] = True
    return hits


def annotate_scene(
    scene: Scene,
    params: AnnotationParams | None = None,
    scene_id: int = 0,
    cache: dict | None = None,
) -> CgrDataset:
    """Dense CGR annotation: per instance, frames on the object surface,
    CGRs against the object's own complete mesh, projected to world, then
    cylinder-filtered against the whole scene.

    `cache` (mesh_id -> (mesh, params, object-frame frames, grids)) skips
    recomputation when the same object appears in many scenes; grids are
    pose-independent. An entry made for another mesh object or other
    params is recomputed.
    """
    params = params or AnnotationParams()
    g = params.grid
    frames, grids, valid = [np.zeros((0, 3, 4))], [np.zeros((0, g.n_sections, g.n_angles, 2))], [np.zeros(0, bool)]
    scene_points = scene.surface_cloud(_FILTER_POINTS, seed=1).points  # instance-major
    for idx, inst in enumerate(scene.instances):
        obj = scene.meshes[inst.mesh_id]
        entry = cache[inst.mesh_id] if cache is not None and inst.mesh_id in cache else None
        if entry is None or entry[0] is not obj or entry[1] != params:
            frames_obj = candidate_frames(obj, params)
            entry = (obj, params, frames_obj, cgr_grids(obj, frames_obj, g))
            if cache is not None:
                cache[inst.mesh_id] = entry
        _, _, frames_obj, grids_obj = entry
        # the stacked forms of inst.pose.compose(frame), bit for bit
        Rp, tp = inst.pose.rotation, inst.pose.translation
        world = frame_array(Rp @ frames_obj[:, :, :3], (Rp @ frames_obj[:, :, 3:])[..., 0] + tp)
        other_points = np.delete(scene_points, np.s_[idx * _FILTER_POINTS:(idx + 1) * _FILTER_POINTS], axis=0)
        frames.append(world)
        grids.append(grids_obj)
        valid.append(~_approach_collisions(world, scene, params.cylinder_radius, params.cylinder_length, other_points))
    counts = [len(f) for f in frames[1:]]
    return CgrDataset(params, np.concatenate(frames), np.concatenate(grids), np.concatenate(valid),
                      np.full(sum(counts), scene_id, dtype=np.uint32), np.repeat(np.arange(len(counts)), counts))


# ---------------------------------------------------------------------------
# Dataset persistence


def _pack_params(params: AnnotationParams) -> bytes:
    g = params.grid
    out = struct.pack("<IIff", g.n_angles, g.n_sections, g.d_max, g.theta_sentinel)
    out += np.asarray(g.section_depths, dtype="<f4").tobytes()
    out += struct.pack(
        "<fIff",
        params.surface_resolution,
        params.approach_directions,
        params.cylinder_radius,
        params.cylinder_length,
    )
    return out


def _unpack_params(f) -> AnnotationParams:
    n, m, d_max, sentinel = struct.unpack("<IIff", _read_exact(f, 16, AnnotationError))
    depths = np.frombuffer(_read_exact(f, 4 * m, AnnotationError), dtype="<f4").astype(float)
    res, v, rad, length = struct.unpack("<fIff", _read_exact(f, 16, AnnotationError))
    try:
        grid = CgrGridParams(n, m, tuple(depths), float(d_max), float(sentinel))
    except CgrError as exc:
        raise AnnotationError(f"bad grid header: {exc}") from exc
    return AnnotationParams(float(res), int(v), float(rad), float(length), grid)


_DATASET_TAIL = [("scene_id", "<u4"), ("valid", "u1")]


def write_dataset(ds: CgrDataset, path) -> None:
    """Invalidated records are stored with all-zero grids."""
    rows = np.zeros(len(ds), record_dtype(ds.params.grid, _DATASET_TAIL))
    rows["R"] = ds.frames[:, :, :3]
    rows["t"] = ds.frames[:, :, 3]
    rows["grid"][ds.valid] = ds.grids[ds.valid]
    rows["scene_id"] = ds.scene_id
    rows["valid"] = ds.valid
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(_pack_params(ds.params))
        f.write(struct.pack("<Q", len(rows)))
        f.write(rows)


def read_dataset(path) -> CgrDataset:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != DATASET_MAGIC:
            raise AnnotationError("bad magic")
        params = _unpack_params(f)
        (count,) = struct.unpack("<Q", _read_exact(f, 8, AnnotationError))
        try:
            dtype = record_dtype(params.grid, _DATASET_TAIL)
        except ValueError as exc:  # a record larger than numpy allows, which no writer wrote
            raise AnnotationError(f"bad grid header: {exc}") from exc
        rows = np.frombuffer(_read_exact(f, count * dtype.itemsize, AnnotationError), dtype)
        _read_end(f, AnnotationError)
    if (rows["valid"] > 1).any():
        raise AnnotationError("bad valid flag: not 0 or 1")
    return CgrDataset(params, frame_array(rows["R"], rows["t"]), rows["grid"].astype(float), rows["valid"] != 0,
                      rows["scene_id"].astype(np.uint32), np.full(count, -1))
