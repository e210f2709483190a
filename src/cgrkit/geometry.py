"""Geometric primitives: meshes, rigid transforms, ray casting, voxel grids,
surface sampling, virtual depth rendering and chamfer distance.

All lengths are meters. Everything here is pure: objects are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import binary_fill_holes
from scipy.spatial import cKDTree

_EPS = 1e-12
RAY_T_MIN = 1e-9
_SAT_CHUNK = 1 << 15  # (triangle, cell) pairs per voxelize_mesh pass

POINTCLOUD_MAGIC = b"CGRKPC1\0"


class GeometryError(ValueError):
    pass


def _read_exact(f, size: int, error: type) -> bytes:
    """The next `size` bytes of binary file `f`; raises `error("truncated
    file")` before reading when fewer remain (a corrupt count asks for more)."""
    if size < 0:
        raise error(f"negative read size {size}")
    if size > os.fstat(f.fileno()).st_size - f.tell():
        raise error("truncated file")
    return f.read(size)


def _read_end(f, error: type) -> None:
    """Raises `error` unless binary file `f` has been read to its end: bytes
    after the last field mean a wrong count or header."""
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise error(f"{extra} bytes after the end of the data")


# ---------------------------------------------------------------------------
# Rigid transforms


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform: x_world = R @ x_local + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9):
            raise GeometryError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise GeometryError("rotation determinant is not +1")
        if not np.isfinite(t).all():
            raise GeometryError("translation must be finite")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation

    def apply_vector(self, vectors: np.ndarray) -> np.ndarray:
        return np.asarray(vectors, dtype=float) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self ∘ other: apply `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)


def frame_array(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """[R | t] frames (..., 3, 4) from rotations (..., 3, 3) and translations (..., 3)."""
    return np.concatenate([rotation, np.asarray(translation)[..., None]], axis=-1)


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _unit_vector(v, error: type, message: str) -> np.ndarray:
    """Direction v from outside the program as a float (3,) unit vector:
    unchanged within 1e-9 of unit length, else divided by its length.
    Raises error(message) unless its length is finite and at least 1e-12."""
    v = np.asarray(v, dtype=float).reshape(3)
    ln = np.linalg.norm(v)
    if not 1e-12 <= ln < np.inf:  # also rejects NaN
        raise error(message)
    return v if abs(ln - 1.0) <= 1e-9 else v / ln


def _z_rotations(z: np.ndarray) -> np.ndarray:
    """Rotations (n, 3, 3) whose third columns are the directions z (n, 3)
    scaled to unit length, with a deterministic in-plane choice; raises on
    a zero, NaN or infinite direction."""
    z = np.asarray(z, dtype=float).reshape(-1, 3)
    norm = _row_norms(z)
    if not np.all((norm >= 1e-12) & (norm < np.inf)):
        raise GeometryError("degenerate direction")
    z = z / norm
    u = np.cross(np.where(np.abs(z[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), z)
    u /= _row_norms(u)
    return np.stack([u, np.cross(z, u), z], axis=2)


def orthonormal_tangents(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (u, v) with (u, v, n) right-handed orthonormal."""
    R = _z_rotations(n)[0]
    return R[:, 0], R[:, 1]


def frame_from_z(z: np.ndarray) -> np.ndarray:
    """Rotation whose third column is z, with a deterministic in-plane choice."""
    return _z_rotations(z)[0]


def point_direction_frames(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """[R | t] frames (P * D, 3, 4) at P points crossed with D approach
    directions (frame_from_z z-axes), point-major."""
    rotations = _z_rotations(directions)
    return frame_array(np.tile(rotations, (len(points), 1, 1)), np.repeat(points, len(rotations), axis=0))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """(n, 1) norms of the rows of x (n, 3). Each is a dot product, as
    np.linalg.norm of one vector takes it, so the two agree bit for bit; a
    sum of squares along the rows rounds differently."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic spiral covering of the unit sphere, shape (count, 3)."""
    if count < 1:
        raise GeometryError("count must be positive")
    i = np.arange(count, dtype=float)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


# ---------------------------------------------------------------------------
# Point clouds


@dataclass
class PointCloud:
    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if len(self.normals) != len(self.points):
                raise GeometryError("normals/points length mismatch")
            lens = np.linalg.norm(self.normals, axis=1)
            if len(lens) and np.max(np.abs(lens - 1.0)) > 1e-6:
                raise GeometryError("normals must be unit length")

    def __len__(self) -> int:
        return len(self.points)

    def transformed(self, tf: RigidTransform) -> "PointCloud":
        normals = tf.apply_vector(self.normals) if self.normals is not None else None
        return PointCloud(tf.apply(self.points), normals)

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(POINTCLOUD_MAGIC)
            f.write(struct.pack("<Q", len(self.points)))
            f.write(self.points.astype("<f4").tobytes())
            if self.normals is not None:
                f.write(b"\x01")
                f.write(self.normals.astype("<f4").tobytes())
            else:
                f.write(b"\x00")

    @staticmethod
    def load(path) -> "PointCloud":
        with open(path, "rb") as f:
            magic = f.read(8)
            if magic != POINTCLOUD_MAGIC:
                raise GeometryError("bad magic")
            (n,) = struct.unpack("<Q", _read_exact(f, 8, GeometryError))
            pts = np.frombuffer(_read_exact(f, 12 * n, GeometryError), dtype="<f4").reshape(n, 3)
            flag = _read_exact(f, 1, GeometryError)
            if flag not in (b"\x00", b"\x01"):
                raise GeometryError(f"bad normals flag {flag!r}")
            normals = None
            if flag == b"\x01":
                normals = np.frombuffer(_read_exact(f, 12 * n, GeometryError), dtype="<f4").reshape(n, 3)
                normals = normals.astype(float)
                lens = np.linalg.norm(normals, axis=1)
                lens[lens < 1e-12] = 1.0
                normals = normals / lens[:, None]
            _read_end(f, GeometryError)
            return PointCloud(pts.astype(float), normals)


def chamfer_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric chamfer: mean of the two directed mean-NN distances."""
    if len(a) == 0 or len(b) == 0:
        raise GeometryError("empty cloud")
    da, _ = cKDTree(b.points).query(a.points)
    db, _ = cKDTree(a.points).query(b.points)
    return 0.5 * (float(np.mean(da)) + float(np.mean(db)))


# ---------------------------------------------------------------------------
# Triangle meshes


class TriangleMesh:
    """Indexed triangle mesh. Normals are recomputed from winding order;
    any normals present in input files are ignored. The mesh owns copies of
    its vertices and triangles and keeps every array read-only, so that the
    edges, normals and BVH computed from them cannot go stale."""

    def __init__(self, vertices, triangles):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.vertices).all():
            raise GeometryError("mesh vertices must be finite")
        self.triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise GeometryError("triangle index out of range")
        # first corner and edge vectors of every triangle, for ray casting
        corners = self.vertices[self.triangles]
        self._v0 = corners[:, 0]
        self._e1, self._e2 = corners[:, 1] - self._v0, corners[:, 2] - self._v0
        n = np.cross(self._e1, self._e2)
        lens = np.linalg.norm(n, axis=1)
        self.normals = n / np.where(lens > _EPS, lens, 1.0)[:, None]
        for a in (self.vertices, self.triangles, self.normals, self._v0, self._e1, self._e2):
            a.setflags(write=False)
        self._bvh = None

    def __len__(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        cross = np.cross(self._e1, self._e2)
        return 0.5 * np.linalg.norm(cross, axis=1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self.vertices) == 0:
            return np.zeros(3), np.zeros(3)
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def transformed(self, tf: RigidTransform) -> "TriangleMesh":
        return TriangleMesh(tf.apply(self.vertices), self.triangles)

    # -- ray casting ----------------------------------------------------

    def _ensure_bvh(self):
        if self._bvh is None and len(self.triangles):
            self._bvh = _Bvh(self)
        return self._bvh

    def ray_intersect(self, origin, direction, t_max: float):
        """Nearest intersection along a single ray: a batch of one.

        Returns (t, normal) or None. Hits with t <= RAY_T_MIN are ignored.
        """
        _check_t_max(t_max)
        origin = np.asarray(origin, dtype=float).reshape(1, 3)
        direction = np.asarray(direction, dtype=float).reshape(1, 3)
        bvh = self._ensure_bvh()
        if bvh is None:
            return None
        t, tri = bvh.intersect(origin, direction, t_max)
        if tri[0] < 0:
            return None
        return float(t[0]), self.normals[tri[0]].copy()

    def ray_intersect_brute(self, origin, direction, t_max: float):
        """Reference oracle for the BVH: one ray against every triangle with
        the same kernel and semantics as `ray_intersect`. Only the tests and
        perfbench's replay check call it."""
        _check_t_max(t_max)
        origin = np.asarray(origin, dtype=float).reshape(3)
        direction = np.asarray(direction, dtype=float).reshape(3)
        t = _moller_trumbore(origin, direction, self._v0, self._e1, self._e2, t_max)
        if not len(t) or not np.isfinite(t.min()):
            return None
        tri = int(np.argmin(t))  # ties: lowest triangle index
        return float(t[tri]), self.normals[tri].copy()

    def ray_intersect_batch(self, origins: np.ndarray, directions: np.ndarray, t_max: float):
        """Nearest hit for many rays at once, cast through the BVH in chunks
        of _RAY_CHUNK rays.

        Returns (t, tri_index): t = np.inf and tri = -1 for misses.
        """
        _check_t_max(t_max)
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        directions = np.asarray(directions, dtype=float).reshape(-1, 3)
        t_out = np.full(len(origins), np.inf)
        tri_out = np.full(len(origins), -1, dtype=np.int64)
        bvh = self._ensure_bvh() if len(origins) else None
        if bvh is None:
            return t_out, tri_out
        for s in range(0, len(origins), _RAY_CHUNK):
            e = s + _RAY_CHUNK
            t_out[s:e], tri_out[s:e] = bvh.intersect(origins[s:e], directions[s:e], t_max)
        return t_out, tri_out


def _check_t_max(t_max):
    if not t_max > 0:  # also rejects NaN; inf is a valid bound
        raise GeometryError("t_max must be positive")


# rays per BVH walk: bounds the (ray, node) and (ray, triangle) pair arrays,
# about 17 MB for 2,048 camera rays through a 20,480-triangle sphere
_RAY_CHUNK = 2048
# rays per section query, whole sections: bounds its (section, node),
# (section, triangle) and (ray, triangle) pair arrays, about 4 MB for 68
# frames of the default 48x5 grid on a cube and 35 MB on a 20,480-triangle
# sphere
_SECTION_CHUNK = 1 << 14


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    # (x + z) + y: numpy einsum's order for rows of three, in which the CGR
    # grids of existing datasets were computed
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _moller_trumbore(origins, directions, v0, e1, e2, t_max):
    """Moller-Trumbore, elementwise over (n, 3) or (3,) arrays of rays and
    triangles broadcast against each other: the hit distance of each
    (ray, triangle) pair, np.inf where the ray misses or the hit lies
    outside (RAY_T_MIN, t_max]. A pair's result depends only on that pair,
    so the BVH and the brute-force oracle agree bit for bit."""
    d, e1, e2 = directions.T, e1.T, e2.T
    tvec = (origins - v0).T
    pvec = _cross(d, e2)
    det = _dot(e1, pvec)
    valid = np.abs(det) > _EPS
    inv_det = 1.0 / np.where(valid, det, 1.0)
    u = _dot(tvec, pvec) * inv_det
    qvec = _cross(tvec, e1)
    v = _dot(d, qvec) * inv_det
    t = _dot(e2, qvec) * inv_det
    hit = valid & (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
    return np.where(hit & (t > RAY_T_MIN) & (t <= t_max), t, np.inf)


class _Bvh:
    """Median-split AABB tree in flat arrays, the one ray-casting engine,
    with two queries: one walk per ray (`intersect`) and one walk per
    section plane of rays that share a pole (`intersect_sections`).

    Nodes are numbered breadth first: node i has the box of corners
    lo[:, i] and hi[:, i], held as per-axis columns lo[axis] and hi[axis],
    and the two children first[i] and first[i] + 1, or first[i] = -1 and up
    to _LEAF_SIZE sorted triangle ids in leaf_tris[i], padded with -1.
    Both queries walk the tree with one descent, `_descend`, level by level
    over a whole batch of rows, and differ only in its node test, made of
    elementwise ufuncs over the columns: a slab test per ray for
    `intersect`, a plane and ball test per section for `intersect_sections`.
    Both run `_moller_trumbore`, also the kernel of the
    brute-force oracle `TriangleMesh.ray_intersect_brute`, over the (ray,
    leaf triangle) pairs they keep. Padded boxes and slacks keep rounding
    from pruning a hit and ties go to the lowest triangle index, so results
    are bit-identical to the oracle."""

    _LEAF_SIZE = 8

    def __init__(self, mesh: TriangleMesh):
        self._v0, self._e1, self._e2 = mesh._v0, mesh._e1, mesh._e2
        corners = mesh.vertices[mesh.triangles]  # (T, 3, 3)
        self._extent = np.abs(corners).max()
        pad = 1e-9 * (1.0 + self._extent)
        tri_lo, tri_hi = corners.min(axis=1) - pad, corners.max(axis=1) + pad
        centroid = corners.mean(axis=1)
        # one tree level per pass: `perm` lists the triangles of the level's
        # nodes, node by node, and seg[k] is the rank of perm[k]'s node
        perm = np.arange(len(corners))
        seg = np.zeros(len(perm), dtype=np.int64)
        lows, highs, first, leaf_tris = [], [], [], []
        n_nodes = 0
        while len(perm):
            starts = np.flatnonzero(np.diff(seg, prepend=-1))
            sizes = np.diff(starts, append=len(perm))
            lo = np.minimum.reduceat(tri_lo[perm], starts)
            hi = np.maximum.reduceat(tri_hi[perm], starts)
            lows.append(lo)
            highs.append(hi)
            leaf = sizes <= self._LEAF_SIZE
            inner_rank = np.cumsum(~leaf) - 1
            n_nodes += len(starts)
            first.append(np.where(leaf, -1, n_nodes + 2 * inner_rank))
            # stable sort within each node: inner nodes by centroid along the
            # box's longest axis (the median split), leaves by triangle id
            in_leaf = leaf[seg]
            axis = np.argmax(hi - lo, axis=1)
            key = np.where(in_leaf, perm, centroid[perm, axis[seg]])
            perm = perm[np.lexsort((key, seg))]
            rank = np.arange(len(perm)) - starts[seg]
            tris = np.full((len(starts), self._LEAF_SIZE), -1, dtype=np.int64)
            tris[seg[in_leaf], rank[in_leaf]] = perm[in_leaf]
            leaf_tris.append(tris)
            # the lower half of an inner node goes to its first child
            child = 2 * inner_rank[seg] + (rank >= (sizes // 2)[seg])
            perm, seg = perm[~in_leaf], child[~in_leaf]
        self.lo, self.hi = (np.ascontiguousarray(np.concatenate(b).T) for b in (lows, highs))  # (3, N) each
        self.first, self.leaf_tris = np.concatenate(first), np.concatenate(leaf_tris)
        for a in (self.first, self.leaf_tris, self.lo, self.hi):
            a.setflags(write=False)

    def intersect(self, origins, directions, t_max):
        """Nearest hit of each ray: (t, tri), np.inf and -1 on a miss."""
        # an axis with a zero or subnormal direction component holds the whole
        # ray iff it holds the origin, planes included; the others bound t
        origin, direction = np.ascontiguousarray(origins.T), np.ascontiguousarray(directions.T)
        parallel = np.abs(direction) < np.finfo(float).tiny
        inv_dir = 1.0 / np.where(parallel, 1.0, direction)
        axis_parallel = parallel.any(axis=1)

        def slab(ray, node):
            near, far = 0.0, t_max
            for a in range(3):  # min and max are exact and propagate NaN
                lo, hi, o, inv = self.lo[a][node], self.hi[a][node], origin[a][ray], inv_dir[a][ray]
                t_lo, t_hi = (lo - o) * inv, (hi - o) * inv
                a_near, a_far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
                if axis_parallel[a]:  # rare: other batches skip these array passes
                    par = parallel[a][ray]
                    a_near = np.where(par, np.where((lo <= o) & (o <= hi), -np.inf, np.inf), a_near)
                    a_far = np.where(par, np.inf, a_far)
                near, far = np.maximum(near, a_near), np.minimum(far, a_far)
            return near <= far

        ray, tri = self._descend(len(origins), slab)
        t = _moller_trumbore(origins[ray], directions[ray], self._v0[tri], self._e1[tri], self._e2[tri], t_max)
        return _nearest(len(origins), ray, tri, t)

    def intersect_sections(self, poles, u, v, directions, t_max):
        """Nearest hit of each ray of S sections, as `intersect` gives it for
        the same rays: (t, tri) of shape (S * N,), section-major. Section s
        casts N rays from poles[s] (S, 3) along directions[s] (S, N, 3); ray
        i lies in the plane of u[s] and v[s] (S, 3) at angle 2 pi i / N from
        u[s] towards v[s].

        One walk per section keeps the leaf triangles whose boxes straddle
        the section plane and lie within t_max of the pole, and of those the
        triangles whose corners straddle it, all within `slack` = 1e-9 (1 +
        the largest |coordinate| of the mesh or pole), as the tree pads its
        boxes. Each kept triangle's part within `slack` of the plane,
        projected onto it, is seen from the pole within an arc; only the
        rays in that arc, widened by the angle that `slack` subtends at the
        part's least distance from the pole, are cast against the triangle.
        A part that surrounds the pole or comes within twice `slack` of it
        takes all N rays. Every test is written so that NaN keeps a pair."""
        n = directions.shape[1]
        w = np.cross(u, v)
        ww = np.einsum("ij,ij->i", w, w)
        normal = w / np.sqrt(ww)[:, None]
        slack = 1e-9 * (1.0 + np.maximum(self._extent, np.abs(poles).max(axis=1)))
        d_len = np.sqrt(np.einsum("sni,sni->sn", directions, directions).max(axis=1))
        reach = t_max * d_len * (1.0 + 1e-9) + slack
        pole_c, normal_c = np.ascontiguousarray(poles.T), np.ascontiguousarray(normal.T)

        def plane_and_ball(sec, node):
            # twice the box centre's plane offset and twice its half-extent
            # along the normal; the squared distance from the pole to the box
            off, rad, gap = 0.0, 0.0, 0.0
            for a in range(3):
                lo, hi, o, nm = self.lo[a][node], self.hi[a][node], pole_c[a][sec], normal_c[a][sec]
                off = off + ((lo - o) + (hi - o)) * nm
                rad = rad + (hi - lo) * np.abs(nm)
                g = np.maximum(np.maximum(lo - o, o - hi), 0.0)
                gap = gap + g * g
            r = reach[sec]
            return ~((np.abs(off) > rad + 2.0 * slack[sec]) | (gap > r * r))

        sec, tri = self._descend(len(poles), plane_and_ball)
        # a point q - pole = a u + b v + c w has a = q . du and b = q . dv
        du, dv = np.cross(v, w) / ww[:, None], np.cross(w, u) / ww[:, None]
        sec, tri, first, count = self._arcs(sec, tri, pole_c, normal_c, du, dv, slack, n)
        # the (ray, triangle) pairs: rays first .. first + count - 1 modulo N
        cand = np.repeat(np.arange(len(tri)), count)
        i = first[cand] + np.arange(len(cand)) - np.repeat(np.cumsum(count) - count, count)
        i -= n * (i >= n)
        sec, tri = sec[cand], tri[cand]
        t = _moller_trumbore(poles[sec], directions[sec, i], self._v0[tri], self._e1[tri], self._e2[tri], t_max)
        return _nearest(len(poles) * n, sec * n + i, tri, t)

    def _arcs(self, sec, tri, pole_c, normal_c, du, dv, slack, n):
        """The (section, triangle) pairs of `intersect_sections` whose
        triangle straddles the section plane, with the first ray and the
        ray count of each one's arc, all N rays where that arc is not known.
        Plane offsets of the corners come first, in-plane coordinates only
        for the triangles that straddle the plane; corners k = 1, 2 are
        taken as v0 + e_k, within rounding of `slack`."""
        # corner 0 and the two edges from it, relative to the pole, (3, P)
        q, e1, e2 = (self._v0[tri] - pole_c[:, sec].T).T, self._e1[tri].T, self._e2[tri].T

        def corners(axis):  # (3 corners, P) coordinates along `axis` (3, P)
            c0 = _dot(q, axis)
            return np.stack([c0, c0 + _dot(e1, axis), c0 + _dot(e2, axis)])

        s = corners(normal_c[:, sec])
        sl = slack[sec]
        out = (np.minimum(np.minimum(s[0], s[1]), s[2]) > sl) | (np.maximum(np.maximum(s[0], s[1]), s[2]) < -sl)
        sec, tri, s, sl = sec[~out], tri[~out], s[:, ~out], sl[~out]
        q, e1, e2 = q[:, ~out], e1[:, ~out], e2[:, ~out]
        a, b = corners(du.T[:, sec]), corners(dv.T[:, sec])
        # edge k runs from corner k to corner k + 1; [lo, hi] is its part
        # within the slab |s| <= slack, empty when lo > hi. The endpoints of
        # these parts span the triangle's part within the slab.
        nxt = [1, 2, 0]
        ds = s[nxt] - s
        with np.errstate(divide="ignore", invalid="ignore"):
            t1, t2 = (-sl - s) / ds, (sl - s) / ds
        flat = ds == 0.0
        lo = np.where(flat, 0.0, np.maximum(np.minimum(t1, t2), 0.0))
        hi = np.where(flat, np.where(np.abs(s) <= sl, 1.0, -1.0), np.minimum(np.maximum(t1, t2), 1.0))
        tau = np.concatenate([lo, hi])  # (6, P)
        ga = np.concatenate([a, a]) + tau * np.concatenate([a[nxt] - a] * 2)
        gb = np.concatenate([b, b]) + tau * np.concatenate([b[nxt] - b] * 2)
        valid = np.concatenate([lo <= hi] * 2)
        theta = np.arctan2(gb, ga)
        # each endpoint's angle relative to the first valid one, in [-pi, pi)
        ref = theta[valid.argmax(axis=0), np.arange(len(tri))]
        rel = theta - ref
        rel = np.where(rel < -np.pi, rel + 2.0 * np.pi, np.where(rel >= np.pi, rel - 2.0 * np.pi, rel))
        rel_lo, rel_hi = np.where(valid, rel, np.inf).min(axis=0), np.where(valid, rel, -np.inf).max(axis=0)
        # within an arc of span < pi, the part keeps at least `least` =
        # rho cos(span / 2) from the pole; a point `slack` off it lies within
        # asin(slack / least) < `widen` of the arc. A part with no valid
        # endpoint has span -inf and a NaN `least`.
        rho = np.sqrt(np.where(valid, ga * ga + gb * gb, np.inf).min(axis=0))
        step = 2.0 * np.pi / n
        with np.errstate(divide="ignore", invalid="ignore"):
            least = rho * np.cos((rel_hi - rel_lo) / 2.0)
            widen = 2.0 * sl / least
            first = np.ceil((ref + rel_lo - widen) / step)
            count = np.floor((ref + rel_hi + widen) / step) + 1.0 - first
        wide = ~((least > 2.0 * sl) & (count < n))
        first = (np.where(wide, 0.0, first) % n).astype(np.int64)
        return sec, tri, first, np.where(wide, n, count).astype(np.int64)

    def _descend(self, n_rows, keep):
        """The (row, leaf triangle) pairs of one level-by-level walk of n_rows
        rows (rays or sections): each level keeps the (row, node) pairs that
        pass keep(row, node), sets leaves aside and descends from the rest."""
        row, node = np.arange(n_rows), np.zeros(n_rows, dtype=np.int64)
        leaf_rows, leaf_nodes = [], []
        while len(row):
            kept = keep(row, node)
            row, node = row[kept], node[kept]
            kids = self.first[node]
            leaf = kids < 0
            leaf_rows.append(row[leaf])
            leaf_nodes.append(node[leaf])
            inner = ~leaf
            row, node = row[inner].repeat(2), (kids[inner, None] + [0, 1]).reshape(-1)
        tris = self.leaf_tris[np.concatenate(leaf_nodes)]
        pair, slot = np.nonzero(tris >= 0)
        return np.concatenate(leaf_rows)[pair], tris[pair, slot]


def _nearest(n_rays, ray, tri, t):
    """(t, tri) of each of n_rays rays from the kernel's distances t of its
    (ray, triangle) pairs: the nearest hit, ties to the lowest triangle
    index; np.inf and -1 on a miss."""
    hit = np.flatnonzero(t < np.inf)
    hit = hit[np.lexsort((tri[hit], t[hit], ray[hit]))]
    hit = hit[np.diff(ray[hit], prepend=-1) != 0]
    t_out = np.full(n_rays, np.inf)
    tri_out = np.full(n_rays, -1, dtype=np.int64)
    t_out[ray[hit]], tri_out[ray[hit]] = t[hit], tri[hit]
    return t_out, tri_out


def merge_meshes(meshes: list[TriangleMesh]) -> TriangleMesh:
    if not meshes:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    verts, tris, offset = [], [], 0
    for m in meshes:
        verts.append(m.vertices)
        tris.append(m.triangles + offset)
        offset += len(m.vertices)
    return TriangleMesh(np.vstack(verts), np.vstack(tris))


# ---------------------------------------------------------------------------
# Voxel grids


@dataclass
class VoxelGrid:
    """Occupancy of the cubes origin + (cell + [0, 1)^3) * voxel_size, stored
    as a dense boolean block `mask` whose mask[0, 0, 0] is cell `offset`;
    every cell outside the block is empty."""

    origin: np.ndarray
    voxel_size: float
    mask: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), dtype=bool))
    offset: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    def __post_init__(self):
        if not 0.0 < self.voxel_size < np.inf:
            raise GeometryError("voxel_size must be positive and finite")
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.offset = np.asarray(self.offset, dtype=np.int64).reshape(3)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def cells(self) -> np.ndarray:
        """Occupied cell indices, shape (n, 3), in lexicographic order."""
        return np.argwhere(self.mask) + self.offset

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which points fall inside occupied voxels."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        idx = np.floor((points - self.origin) / self.voxel_size).astype(np.int64) - self.offset
        inside = np.all((idx >= 0) & (idx < self.mask.shape), axis=1)
        out = np.zeros(len(points), dtype=bool)
        out[inside] = self.mask[tuple(idx[inside].T)]
        return out

    def filled(self) -> "VoxelGrid":
        """Solid occupancy: free cells not 6-connected to the outside through
        free space are marked occupied."""
        return VoxelGrid(
            self.origin.copy(), self.voxel_size, binary_fill_holes(self.mask), self.offset.copy()
        )


def voxelize_mesh(mesh: TriangleMesh, voxel_size: float) -> VoxelGrid:
    """Conservative surface voxelization: a voxel is occupied iff some
    triangle overlaps it. The separating-axis test (Akenine-Moller, "Fast 3D
    Triangle-Box Overlap Testing", JGT 2001) runs on every (triangle,
    candidate cell) pair, in passes of at most _SAT_CHUNK pairs."""
    if not 0.0 < voxel_size < np.inf:
        raise GeometryError("voxel_size must be positive and finite")
    if len(mesh) == 0:
        return VoxelGrid(np.zeros(3), voxel_size)
    # center the grid on the mesh so that symmetric meshes voxelize symmetrically
    mn, mx = mesh.bounds()
    origin = (mn + mx) / 2.0 - voxel_size / 2.0
    half = voxel_size / 2.0
    tri = mesh.vertices[mesh.triangles]
    local = tri - origin
    # candidate cells of each triangle: its bounding box, widened by rounding slack
    lo = np.floor(local.min(axis=1) / voxel_size - 1e-9).astype(np.int64)
    hi = np.floor(local.max(axis=1) / voxel_size + 1e-9).astype(np.int64)
    offset = lo.min(axis=0)
    mask = np.zeros(hi.max(axis=0) - offset + 1, dtype=bool)
    dims = hi - lo + 1
    counts = np.prod(dims, axis=1)
    starts = np.cumsum(counts) - counts
    # per triangle: bounds, plane normal n, the 9 edge-cross axes (an edge
    # parallel to a box axis gives none), box radii and extents along each
    t_lo, t_hi = tri.min(axis=1), tri.max(axis=1)
    e = tri[:, [1, 2, 0]] - tri
    n = np.cross(e[:, 0], e[:, 1])
    n_r = half * np.sum(np.abs(n), axis=1)
    n_d = np.matmul(n[:, None], tri[:, 0, :, None])[:, 0, 0]
    axes = np.cross(e[:, :, None], np.eye(3)).reshape(-1, 9, 3)
    live = np.linalg.norm(axes, axis=2) >= _EPS
    ax_r = half * np.sum(np.abs(axes), axis=2)
    p = np.matmul(tri, axes.transpose(0, 2, 1))
    p_min, p_max = p.min(axis=1), p.max(axis=1)
    # Every 3-term sum rounds as in the SAT of one triangle against its block
    # of cells. There OpenBLAS summed the plane term by gemv: the rows of its
    # 4-row blocks as fma(c0, n0, c1 n1) + c2 n2, the others like dot, as
    # fma(c2, n2, fma(c1, n1, c0 n0)). The axis terms went through gemm, like
    # dot, or for a one-cell block through gemv, which adds term 1 first. Here
    # the plane sum is a stacked dot and the axis sums a stacked gemv, with
    # terms 0 and 1 swapped for a multi-cell block.
    multi = counts > 1
    axes_t = np.where(multi[:, None, None], axes[..., [1, 0, 2]], axes).transpose(0, 2, 1)
    total = int(counts.sum())
    for first in range(0, total, _SAT_CHUNK):
        # pair k is cell j of triangle t's block, in np.indices (C) order
        k = np.arange(first, min(first + _SAT_CHUNK, total))
        t = np.searchsorted(starts, k, side="right") - 1
        j = k - starts[t]
        d1, d2 = dims[t, 1], dims[t, 2]
        cells = lo[t] + np.stack([j // (d1 * d2), j // d2 % d1, j % d2], axis=1)
        centers = origin + (cells + 0.5) * voxel_size
        # box face normals (AABB vs AABB)
        keep = np.all(centers - half <= t_hi[t] + 1e-12, axis=1)
        keep &= np.all(centers + half >= t_lo[t] - 1e-12, axis=1)
        # triangle plane
        d = np.matmul(centers[:, None], n[t, :, None])[:, 0, 0]
        b = np.flatnonzero(j < (counts[t] & -4))  # rows in gemv's 4-row blocks
        d[b] = np.matmul(centers[b][:, None, [1, 0]], n[t[b]][:, [1, 0], None])[:, 0, 0]
        d[b] += centers[b, 2] * n[t[b], 2]
        keep &= np.abs(d - n_d[t]) <= n_r[t] + 1e-12
        # edge-cross axes, on the pairs still in
        s = np.flatnonzero(keep)
        t, cs = t[s], centers[s]
        c = np.matmul(np.where(multi[t, None], cs[:, [1, 0, 2]], cs)[:, None], axes_t[t])[:, 0]
        ok = (p_min[t] - c <= ax_r[t] + 1e-12) & (p_max[t] - c >= -ax_r[t] - 1e-12)
        hit = s[np.all(ok | ~live[t], axis=1)]
        mask[tuple((cells[hit] - offset).T)] = True
    return VoxelGrid(origin, voxel_size, mask, offset)


def bin_points(points: np.ndarray, origin: np.ndarray, size: float) -> tuple[np.ndarray, np.ndarray]:
    """Group points by the grid cell floor((p - origin) / size) they fall in.

    Returns the distinct cells, shape (n, 3), in lexicographic order and the
    mean point of each cell, its sum accumulated in input order.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cells = np.floor((points - origin) / size).astype(np.int64)
    order = np.lexsort(cells.T[::-1])  # first coordinate most significant
    cells = cells[order]
    first = np.ones(len(cells), dtype=bool)  # where a new cell starts in sorted order
    first[1:] = (cells[1:, 0] != cells[:-1, 0]) | (cells[1:, 1] != cells[:-1, 1]) | (cells[1:, 2] != cells[:-1, 2])
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    sums = np.column_stack([np.bincount(inverse, weights=points[:, d]) for d in range(3)])
    return cells[first], sums / np.bincount(inverse)[:, None]


# ---------------------------------------------------------------------------
# Surface sampling and rendering


def sample_surface_points(mesh: TriangleMesh, count: int, seed: int) -> PointCloud:
    """Area-weighted uniform surface samples with triangle normals."""
    if count <= 0:
        raise GeometryError("count must be positive")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0:
        raise GeometryError("zero-area mesh")
    rng = np.random.default_rng(seed)
    tri_idx = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = mesh._v0[tri_idx] + u[:, None] * mesh._e1[tri_idx] + v[:, None] * mesh._e2[tri_idx]
    return PointCloud(pts, mesh.normals[tri_idx])


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int
    height: int
    focal: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.width < 16 or self.height < 16:
            raise GeometryError("resolution must be at least 16x16")


def render_partial_cloud(
    scene_mesh: TriangleMesh, camera: RigidTransform, intrinsics: CameraIntrinsics
) -> PointCloud:
    """One ray per pixel through a pinhole camera looking along camera +z.

    Returns hit points (scene frame) with the hit triangles' normals.
    """
    w, h = intrinsics.width, intrinsics.height
    px, py = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    dirs_cam = np.stack(
        [
            (px.ravel() - intrinsics.cx) / intrinsics.focal,
            (py.ravel() - intrinsics.cy) / intrinsics.focal,
            np.ones(w * h),
        ],
        axis=1,
    )
    dirs_cam /= np.linalg.norm(dirs_cam, axis=1)[:, None]
    dirs = camera.apply_vector(dirs_cam)
    origins = np.broadcast_to(camera.translation, dirs.shape)
    t, tri = scene_mesh.ray_intersect_batch(origins, dirs, t_max=1e6)
    hit = tri >= 0
    pts = origins[hit] + t[hit, None] * dirs[hit]
    return PointCloud(pts, scene_mesh.normals[tri[hit]] if hit.any() else None)


# ---------------------------------------------------------------------------
# Mesh file ingestion (ASCII OBJ, binary STL) and primitives


def load_mesh(path) -> TriangleMesh:
    path = str(path)
    if path.lower().endswith(".obj"):
        return load_obj(path)
    if path.lower().endswith(".stl"):
        return load_stl(path)
    raise GeometryError(f"unsupported mesh format: {path}")


def load_obj(path) -> TriangleMesh:
    verts, tris = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "v":
                    if len(parts) < 4:
                        raise ValueError("a vertex needs 3 coordinates")
                    verts.append([float(x) for x in parts[1:4]])
                elif parts[0] == "f":
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                    for k in range(1, len(idx) - 1):  # fan-triangulate
                        tris.append([idx[0], idx[k], idx[k + 1]])
            except ValueError as exc:
                raise GeometryError(f"{path}:{lineno}: bad {parts[0]!r} line: {exc}") from exc
    return TriangleMesh(np.array(verts), np.array(tris, dtype=np.int64))


def save_obj(mesh: TriangleMesh, path) -> None:
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def load_stl(path) -> TriangleMesh:
    with open(path, "rb") as f:
        _read_exact(f, 80, GeometryError)
        (n,) = struct.unpack("<I", _read_exact(f, 4, GeometryError))
        data = np.frombuffer(_read_exact(f, n * 50, GeometryError), dtype=np.uint8).reshape(n, 50)
        _read_end(f, GeometryError)
    tris = data[:, 12:48].copy().view("<f4").reshape(n, 3, 3).astype(float)
    verts = tris.reshape(-1, 3)
    faces = np.arange(3 * n, dtype=np.int64).reshape(n, 3)
    return TriangleMesh(verts, faces)


def make_box(extents, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Axis-aligned box with outward-facing triangles."""
    ex, ey, ez = np.asarray(extents, dtype=float) / 2.0
    c = np.asarray(center, dtype=float)
    corners = np.array(
        [
            [-ex, -ey, -ez], [ex, -ey, -ez], [ex, ey, -ez], [-ex, ey, -ez],
            [-ex, -ey, ez], [ex, -ey, ez], [ex, ey, ez], [-ex, ey, ez],
        ]
    ) + c
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # -z
            [4, 5, 6], [4, 6, 7],  # +z
            [0, 1, 5], [0, 5, 4],  # -y
            [2, 3, 7], [2, 7, 6],  # +y
            [1, 2, 6], [1, 6, 5],  # +x
            [3, 0, 4], [3, 4, 7],  # -x
        ],
        dtype=np.int64,
    )
    return TriangleMesh(corners, faces)


def make_icosphere(radius: float = 1.0, subdivisions: int = 3, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Subdivided icosahedron with outward normals."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []
        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = (np.array(verts[i]) + np.array(verts[j])) / 2.0
                m /= np.linalg.norm(m)
                verts.append(tuple(m))
                cache[key] = len(verts) - 1
            return cache[key]
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.array(verts) * radius + np.asarray(center, dtype=float)
    return TriangleMesh(v, np.array(faces, dtype=np.int64))


def make_cylinder(radius: float, height: float, segments: int = 32, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Closed cylinder along z, outward normals."""
    ang = 2 * np.pi * np.arange(segments) / segments
    ring = np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])
    h = height / 2.0
    bot = np.column_stack([ring, np.full(segments, -h)])
    top = np.column_stack([ring, np.full(segments, h)])
    verts = np.vstack([bot, top, [[0, 0, -h]], [[0, 0, h]]])
    cb, ct = 2 * segments, 2 * segments + 1
    faces = []
    for i in range(segments):
        j = (i + 1) % segments
        faces += [
            [i, j, segments + j], [i, segments + j, segments + i],  # side
            [cb, j, i],  # bottom cap (normal -z)
            [ct, segments + i, segments + j],  # top cap (+z)
        ]
    verts = verts + np.asarray(center, dtype=float)
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))
