"""Contact-centric grasp representation (CGR).

A CGR anchors a local frame on an object surface with its z-axis as the
approach direction. At each of M depths along z, N rays are cast radially
inside the section plane; each ray stores (distance, normal angle). From the
grid we derive the antipodal opening widths / required-friction table, a
graspness heuristic, and a 6-DoF grasp pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import RigidTransform, TriangleMesh, frame_array, rotation_z

CGR_DEFAULT_DEPTHS = (0.005, 0.01, 0.02, 0.03, 0.04)


class CgrError(ValueError):
    pass


@dataclass(frozen=True)
class CgrGridParams:
    n_angles: int = 48
    n_sections: int = 5
    section_depths: tuple = CGR_DEFAULT_DEPTHS
    d_max: float = 0.05
    theta_sentinel: float = np.pi / 2

    def __post_init__(self):
        if self.n_angles < 4 or self.n_angles % 2 != 0:
            raise CgrError("n_angles must be even and >= 4")
        if self.n_sections < 1:
            raise CgrError("n_sections must be >= 1")
        depths = tuple(float(d) for d in self.section_depths)
        if len(depths) != self.n_sections:
            raise CgrError("section_depths length must equal n_sections")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise CgrError("section_depths must be strictly increasing")
        if not self.d_max > 0:  # also rejects NaN; inf is a valid ray bound
            raise CgrError("d_max must be positive")
        object.__setattr__(self, "section_depths", depths)

    @property
    def alphas(self) -> np.ndarray:
        return 2 * np.pi * np.arange(self.n_angles) / self.n_angles

    @property
    def flat_size(self) -> int:
        return 2 * self.n_sections * self.n_angles


@dataclass
class Cgr:
    frame: RigidTransform
    grid: np.ndarray  # (M, N, 2): [:, :, 0] = distance, [:, :, 1] = normal angle
    params: CgrGridParams

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        expect = (self.params.n_sections, self.params.n_angles, 2)
        if self.grid.shape != expect:
            raise CgrError(f"grid shape {self.grid.shape} != {expect}")

    @property
    def hits(self) -> np.ndarray:
        """Boolean (M, N): entries where the ray hit geometry."""
        return self.grid[:, :, 0] < self.params.d_max

    def flatten(self) -> np.ndarray:
        """Section-major, (d, theta)-interleaved flattening; length 2*M*N."""
        return self.grid.reshape(-1)


@dataclass
class AntipodalRep:
    """Per half-angle and section: opening width w, required friction mu and
    a higher-is-better score s = clamp(1 - mu, 0, 1); s = 0 when either of
    the paired rays missed."""

    width: np.ndarray  # (M, N/2)
    friction: np.ndarray  # (M, N/2)
    score: np.ndarray  # (M, N/2)

    def best(self) -> tuple[int, int, float]:
        """(alpha_index, section_index, score) of the best entry;
        ties broken by lowest section then lowest angle index."""
        m, half = self.score.shape
        flat = self.score.reshape(-1)  # section-major: index = j * half + i
        order = np.argmax(flat)
        # argmax returns the first maximum in section-major order, which is
        # exactly lowest-section-then-lowest-angle tie-breaking
        j, i = divmod(int(order), half)
        return i, j, float(flat[order])


def frame_from_row(row: np.ndarray) -> RigidTransform:
    """The transform of a stored float32 [R | t] frame (3, 4). float32
    storage degrades orthogonality, so R is projected back onto SO(3)."""
    row = np.asarray(row, dtype=float)
    return RigidTransform(_project_so3(row[:, :3]), row[:, 3])


def _project_so3(R: np.ndarray) -> np.ndarray:
    """The nearest rotations to matrices (..., 3, 3), by SVD."""
    u, _, vt = np.linalg.svd(R)
    u[..., -1] *= np.where(np.linalg.det(u @ vt) < 0, -1.0, 1.0)[..., None]
    return u @ vt


def record_dtype(params: CgrGridParams, tail: list) -> np.dtype:
    """Packed little-endian file record of one CGR: its float32 frame (R
    row-major, then t: 48 bytes) and float32 grid, then the `tail` fields."""
    grid = ("grid", "<f4", (params.n_sections, params.n_angles, 2))
    return np.dtype([("R", "<f4", (3, 3)), ("t", "<f4", 3), grid] + tail)


def compute_cgr(scene_mesh: TriangleMesh, frame: RigidTransform, params: CgrGridParams | None = None) -> Cgr:
    params = params or CgrGridParams()
    return Cgr(frame, cgr_grids(scene_mesh, frame_array(frame.rotation, frame.translation)[None], params)[0], params)


def cgr_grids(scene_mesh: TriangleMesh, frames: np.ndarray, params: CgrGridParams) -> np.ndarray:
    """(K, M, N, 2) grids of K [R | t] frames (K, 3, 4) against one mesh.
    Per frame, ray (j, i) starts at depth j on the frame's z-axis and points
    along its in-plane angle i.

    The mesh's one BVH answers the grid by one of two queries with the same
    bit-identical result: one tree walk per section, whose N rays share a
    pole and a plane, or one walk per ray. `_by_sections` picks one from N
    and the mesh's triangle count."""
    return _grids(scene_mesh, frames, params, _by_sections(params, scene_mesh))


def _by_sections(params: CgrGridParams, scene_mesh: TriangleMesh) -> bool:
    """Whether cgr_grids casts by sections: on at most N^3 / 8 triangles with
    N >= 32 rays per section, and on at most 2 N^2 / 3 with fewer. A section
    walk replaces N ray walks but then filters the triangles that cross its
    plane, which grow with the mesh, so the section query pays for many rays
    on small meshes; the fewer the rays, the more its cost per section
    weighs. The bounds are fitted to the crossover that tools/scale_probe.py
    measured (BLAS on one thread, 2-vCPU VM), as section over ray query
    speed on T triangles: N = 4: 0.9x at T = 12; N = 12 (coverage
    sampling's sparse grid): 1.8-2.3x at 12, 1.35-1.6x at 96, 0.6-0.9x at
    256; N = 16, three sections: 1.4-2.2x at 96, 0.64-0.85x at 256 and
    1,280; N = 24: 2.3-2.7x at 96; N = 32: 3.5x at 96, 2.5x at 1,280, 0.77x
    at 5,120; N = 40: 1.3x at 5,120, 0.72x at 20,480; N = 48: 3.8x at 12,
    3.2x at 1,280, 1.7x at 5,120, 0.80x at 20,480; N = 64: 1.5x at 20,480.
    T alone does not see a mesh's shape: 12 rays measured 1.35x on a
    320-triangle icosphere, which keeps the ray query."""
    n = params.n_angles
    return len(scene_mesh) <= (n ** 3 // 8 if n >= 32 else 2 * n * n // 3)


def _grids(scene_mesh: TriangleMesh, frames: np.ndarray, params: CgrGridParams, sections: bool) -> np.ndarray:
    """cgr_grids by the section query (`sections`) or the ray query. Rays
    are built and cast for whole frames of about geometry._SECTION_CHUNK or
    geometry._RAY_CHUNK rays at a time, so memory stays bounded."""
    m, n = params.n_sections, params.n_angles
    dirs_local = np.column_stack([np.cos(params.alphas), np.sin(params.alphas), np.zeros(n)])
    depths = np.asarray(params.section_depths)[None, :, None]
    out = np.empty((len(frames), m, n, 2))
    bvh = scene_mesh._ensure_bvh() if sections else None  # None: no tree, or rays
    step = max(1, (geometry._SECTION_CHUNK if sections else geometry._RAY_CHUNK) // (m * n))
    for s in range(0, len(frames), step):
        chunk = frames[s:s + step]
        k, R = len(chunk), chunk[:, :, :3]
        dirs = np.broadcast_to((dirs_local @ R.transpose(0, 2, 1))[:, None], (k, m, n, 3)).reshape(-1, 3)
        origins = chunk[:, None, :, 3] + depths * R[:, None, :, 2]  # (k, M, 3)
        if bvh is not None:
            u, v = (np.repeat(R[:, :, a], m, axis=0) for a in (0, 1))
            t, tri = bvh.intersect_sections(origins.reshape(-1, 3), u, v, dirs.reshape(-1, n, 3), params.d_max)
        else:
            origins = np.broadcast_to(origins[:, :, None], (k, m, n, 3)).reshape(-1, 3)
            t, tri = scene_mesh.ray_intersect_batch(origins, dirs, params.d_max)
        hit = tri >= 0
        theta = np.full(len(t), params.theta_sentinel)
        if hit.any():
            cosang = np.einsum("ij,ij->i", dirs[hit], scene_mesh.normals[tri[hit]])
            theta[hit] = np.arccos(np.clip(cosang, -1.0, 1.0))
        out[s:s + step] = np.stack([np.where(hit, t, params.d_max), theta], axis=1).reshape(k, m, n, 2)
    return out


def _antipodal(grid: np.ndarray, params: CgrGridParams) -> tuple:
    """Width, friction and score over the trailing (M, N, 2) axes of `grid`;
    leading axes are batch axes."""
    half = params.n_angles // 2
    d, th = grid[..., 0], grid[..., 1]
    hit = d < params.d_max
    width = 2.0 * np.maximum(d[..., :half], d[..., half:])
    friction = np.maximum(np.tan(th[..., :half]), np.tan(th[..., half:]))
    both = hit[..., :half] & hit[..., half:]
    score = np.where(both, np.clip(1.0 - friction, 0.0, 1.0), 0.0)
    return width, friction, score


def antipodal_rep(cgr: Cgr) -> AntipodalRep:
    """Opening width / required friction per opposing ray pair.

    w = 2 * max(d_a, d_{a+pi}); mu = max(tan th_a, tan th_{a+pi}).
    Score is 0 when either side missed, else clamp(1 - mu, 0, 1).
    """
    return AntipodalRep(*_antipodal(cgr.grid, cgr.params))


def best_antipodal_scores(grids: np.ndarray, params: CgrGridParams) -> np.ndarray:
    """`antipodal_rep(cgr).best()` score of each of K grids (K, M, N, 2)."""
    return _antipodal(grids, params)[2].max(axis=(-2, -1))


def graspness(cgr: Cgr, theta_threshold: float = 0.3, score_threshold: float = 0.9) -> float:
    """Heuristic promise score: fraction of low-normal-angle hits plus the
    fraction of high-score antipodal entries."""
    if not (0.0 < theta_threshold <= np.pi / 2):
        raise CgrError("theta_threshold out of range")
    if not (0.0 < score_threshold <= 1.0):
        raise CgrError("score_threshold out of range")
    p = cgr.params
    nm = p.n_sections * p.n_angles
    low_theta = int(np.count_nonzero(cgr.hits & (cgr.grid[:, :, 1] < theta_threshold)))
    rep = antipodal_rep(cgr)
    good_pairs = int(np.count_nonzero(rep.score >= score_threshold))
    return low_theta / nm + good_pairs / (nm / 2)


def best_grasp_poses(frames: np.ndarray, grids: np.ndarray, params: CgrGridParams) -> tuple:
    """query_grasp_pose for K frames (K, 3, 4) and grids (K, M, N, 2): the
    [R | t] poses (K, 3, 4) of each grid's best antipodal entry, its angle
    and section indices and its score (ties as AntipodalRep.best()). float32
    frames, as read from a file, are projected onto SO(3) as frame_from_row
    does."""
    half = params.n_angles // 2
    score = _antipodal(grids, params)[2].reshape(len(grids), params.n_sections * half)  # section-major
    best = score.argmax(axis=1)  # first maximum: lowest section, then lowest angle
    section, angle = np.divmod(best, half)
    f = np.asarray(frames, dtype=float)
    R = _project_so3(f[:, :, :3]) if frames.dtype == np.float32 else f[:, :, :3]
    Rz = np.array([rotation_z(2 * np.pi * i / params.n_angles) for i in range(half)])
    R_g = R @ Rz[angle]
    t_g = f[:, :, 3] + np.asarray(params.section_depths)[section, None] * (R_g @ np.array([0.0, 0.0, 1.0]))
    return frame_array(R_g, t_g), angle, section, score[np.arange(len(score)), best]


def query_grasp_pose(cgr: Cgr) -> RigidTransform:
    """6-DoF pose of the best antipodal entry: rotate the frame about its own
    z by the winning angle and advance to the winning section depth."""
    frame = frame_array(cgr.frame.rotation, cgr.frame.translation)[None]
    poses, _, _, score = best_grasp_poses(frame, cgr.grid[None], cgr.params)
    if score[0] <= 0.0:
        raise CgrError("no antipodal contact")
    return RigidTransform(poses[0, :, :3], poses[0, :, 3])
