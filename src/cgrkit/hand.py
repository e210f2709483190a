"""Hand specifications and candidate generation.

A hand is abstracted as a set of discrete grasp types. Each type carries a
principal closing axis, an approach axis, per-finger closing rays used to
generate simulated contacts, and a pre-shaped collision mesh. Spec files are
a line-based key/value format with nested grasp-type blocks; collision
meshes are referenced by relative path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contacts import Contact
from .geometry import (PointCloud, TriangleMesh, VoxelGrid, _read_lines, _unit_vector, frame_array, load_mesh,
                       voxelize_mesh)

# edge of the voxels that hand collision meshes are checked in
COLLISION_VOXEL = 0.005
# values after the key on each grasp_type field line of a .hand file that
# takes a fixed number
_FIELD_VALUES = {"approach": 3, "closing": 3, "max_close_travel": 1, "collision_mesh": 1, "fingertip": 6}


class HandError(ValueError):
    pass


@dataclass
class FingertipRay:
    origin: np.ndarray  # hand frame
    direction: np.ndarray  # hand frame, unit

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        if not np.isfinite(self.origin).all():
            raise HandError("fingertip ray origin must be finite")
        self.direction = _unit_vector(self.direction, HandError,
                                      "fingertip ray direction must be finite and nonzero")


@dataclass
class GraspTypeSpec:
    id: int
    name: str
    principal_closing_axis: np.ndarray
    approach_axis: np.ndarray
    fingertip_rays: list[FingertipRay]
    collision_mesh: TriangleMesh
    max_close_travel: float
    # hand-frame basis (closing, approach x closing, approach) as columns
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    _collision_bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("principal_closing_axis", "approach_axis"):
            setattr(self, attr, _unit_vector(getattr(self, attr), HandError,
                                             f"{attr} must be finite and nonzero"))
        if abs(np.dot(self.principal_closing_axis, self.approach_axis)) >= 0.999:
            raise HandError("axes parallel")
        if len(self.fingertip_rays) < 2:
            raise HandError("need at least 2 fingertip rays")
        if not self.max_close_travel > 0:  # also rejects NaN; inf is a valid ray bound
            raise HandError("max_close_travel must be positive")
        a, c = self.approach_axis, self.principal_closing_axis
        c_perp = c - np.dot(c, a) * a
        c_perp /= np.linalg.norm(c_perp)
        self.basis = np.column_stack([c_perp, np.cross(a, c_perp), a])
        self._collision_bounds = self.collision_mesh.bounds()

    @cached_property
    def collision_grid(self) -> VoxelGrid:
        """collision_mesh voxelized at COLLISION_VOXEL and filled, built on
        first use: the hand is a solid, so points fully inside collide too."""
        return voxelize_mesh(self.collision_mesh, COLLISION_VOXEL).filled()


@dataclass
class HandSpec:
    name: str
    grasp_types: list[GraspTypeSpec]

    def __post_init__(self):
        if not self.grasp_types:
            raise HandError("grasp_types empty")
        ids = [gt.id for gt in self.grasp_types]
        if ids != list(range(len(ids))):
            raise HandError("grasp type ids must be dense from 0")

    def type(self, type_id: int) -> GraspTypeSpec:
        return self.grasp_types[type_id]


@dataclass
class GraspCandidate:
    pose: np.ndarray  # (3, 4) hand pose [R | t]
    grasp_type_id: int
    antipodal_score: float
    decision_score: float | None = None
    instance_index: int = -1  # scene instance of the source CGR, when known

    def __post_init__(self):
        if not (0.0 <= self.antipodal_score <= 1.0):
            raise HandError("antipodal_score out of [0,1]")
        if self.decision_score is not None and not (0.0 <= self.decision_score <= 1.0):
            raise HandError("decision_score out of [0,1]")


def load_hand_spec(path) -> HandSpec:
    """Parse a .hand file. Grammar:

        name <hand name>
        grasp_type <id>
          name <type name>
          approach x y z
          closing x y z
          max_close_travel <m>
          collision_mesh <relative path>
          fingertip ox oy oz dx dy dz   (one line per finger)
        end
    """
    base = os.path.dirname(os.path.abspath(path))
    hand_name = None
    types: list[GraspTypeSpec] = []
    cur: dict | None = None

    def finish(block):
        for key in ("name", "approach", "closing", "max_close_travel", "collision_mesh"):
            if key not in block:
                raise HandError(f"grasp_type {block['id']}: missing field '{key}'")
        mesh_path = os.path.join(base, block["collision_mesh"])
        if not os.path.exists(mesh_path):
            raise HandError(f"grasp_type {block['id']}: collision mesh not found: {mesh_path}")
        return GraspTypeSpec(id=block["id"], name=block["name"], principal_closing_axis=block["closing"],
                             approach_axis=block["approach"], fingertip_rays=block["fingertips"],
                             collision_mesh=load_mesh(mesh_path), max_close_travel=block["max_close_travel"])

    def parse(line):
        nonlocal hand_name, cur
        key, *args = line.split()
        if key == "name" and cur is None:
            hand_name = " ".join(args)
        elif key == "grasp_type":
            if cur is not None:
                raise HandError("nested grasp_type block")
            cur = {"id": int(args[0]), "fingertips": []}
        elif key == "end":
            if cur is None:
                raise HandError("'end' outside grasp_type block")
            types.append(finish(cur))
            cur = None
        elif cur is None:
            raise HandError(f"unknown directive '{key}'")
        elif key in _FIELD_VALUES and len(args) != _FIELD_VALUES[key]:
            raise HandError(f"'{key}' takes {_FIELD_VALUES[key]} values, got {len(args)}")
        elif key in ("name", "collision_mesh"):  # a collision_mesh path is one word
            cur[key] = " ".join(args)
        elif key in ("approach", "closing"):
            cur[key] = [float(x) for x in args]
        elif key == "max_close_travel":
            cur["max_close_travel"] = float(args[0])
        elif key == "fingertip":
            vals = [float(x) for x in args]
            cur["fingertips"].append(FingertipRay(vals[:3], vals[3:]))
        else:
            raise HandError(f"unknown field '{key}'")

    _read_lines(path, parse, HandError)
    if cur is not None:
        raise HandError("unterminated grasp_type block")
    return HandSpec(name=hand_name or os.path.basename(path), grasp_types=types)


def aligned_poses(anchors: np.ndarray, gt: GraspTypeSpec) -> np.ndarray:
    """Hand poses (C, 3, 4) of grasp type gt at C antipodal [R | t] poses:
    the approach axis maps to each pose's z and the principal closing axis
    to its x; translations unchanged."""
    return frame_array(anchors[:, :, :3] @ gt.basis.T, anchors[:, :, 3])


def hand_scene_collisions(poses: np.ndarray, gt: GraspTypeSpec, scene_cloud: PointCloud) -> np.ndarray:
    """(C,) bool: does any scene point land inside an occupied voxel of the
    collision mesh of grasp type gt posed at each of C [R | t] poses (C, 3, 4)?
    The mesh is voxelized once in the hand frame and scene points are mapped
    into each pose's frame; rigid motion preserves the test."""
    hits = np.zeros(len(poses), dtype=bool)
    if len(scene_cloud) == 0 or len(poses) == 0:
        return hits
    # RigidTransform.inverse().apply, stacked and coordinate-major (C, 3, P):
    # each value is the same sum of products, and each coordinate is one
    # contiguous row for the box test
    Rt = poses[:, :, :3].transpose(0, 2, 1)
    local = Rt @ scene_cloud.points.T
    local += (-Rt) @ poses[:, :, 3:]  # in place: a second (C, 3, P) buffer costs more than the add
    lo, hi = gt._collision_bounds
    near = np.ones((len(poses), len(scene_cloud)), dtype=bool)
    for j in range(3):
        near &= (local[:, j] >= lo[j] - COLLISION_VOXEL) & (local[:, j] <= hi[j] + COLLISION_VOXEL)
    c, p = np.nonzero(near)
    if len(c):
        hits[c[gt.collision_grid.contains_points(local[c, :, p])]] = True
    return hits


def hand_scene_collision(candidate: GraspCandidate, gt: GraspTypeSpec, scene_cloud: PointCloud) -> bool:
    """hand_scene_collisions for one candidate."""
    return bool(hand_scene_collisions(candidate.pose[None], gt, scene_cloud)[0])


def fingertip_contacts(
    candidate: GraspCandidate, gt: GraspTypeSpec, scene_mesh: TriangleMesh
) -> list[Contact]:
    """Simulated finger closing: each fingertip ray's first hit within
    max_close_travel becomes a contact. Contact normals follow the push
    direction (into the object); fingers that miss produce no contact."""
    R, t = candidate.pose[:, :3], candidate.pose[:, 3]
    contacts = []
    for ray in gt.fingertip_rays:
        # RigidTransform(R, t).apply / apply_vector, term for term
        origin = ray.origin @ R.T + t
        direction = ray.direction @ R.T
        hit = scene_mesh.ray_intersect(origin, direction, gt.max_close_travel)
        if hit is None:
            continue
        dist, normal = hit
        # orient into the object: oppose the outward surface normal facing the ray
        n = -normal if np.dot(normal, direction) < 0 else normal
        contacts.append(Contact(origin + dist * direction, n))
    return contacts
