"""Grasp-matrix construction and force-closure feasibility.

A grasp is a set of point contacts with friction. Force closure holds when
the grasp matrix has full wrench rank and a nontrivial nonnegative
combination of linearized friction-cone edges produces zero net wrench.
The feasibility LP is solved by a self-contained phase-1 simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _unit_vector, _z_rotations


# the grasp matrix G has full wrench rank when the smallest eigenvalue of
# G G^T exceeds this
_RANK_EPS = 1e-3
# phase-1 simplex pivots allowed per tableau column; Bland's rule cannot
# cycle, so reaching the cap means the tableau has gone numerically wrong
_PIVOT_CAP = 200
# contact positions are divided by this length (m) in the grasp matrix, so
# torques and forces have comparable magnitudes
TORQUE_SCALE = 0.1


class ContactError(ValueError):
    pass


@dataclass
class Contact:
    """Surface contact: position and unit normal pointing into the object
    (along the finger's push)."""

    position: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        if not np.isfinite(self.position).all():
            raise ContactError("non-finite contact position")
        self.normal = _unit_vector(self.normal, ContactError, "non-finite or zero-length contact normal")


@dataclass(frozen=True)
class ForceClosureParams:
    friction: float = 0.5
    cone_edges: int = 8

    def __post_init__(self):
        if self.friction <= 0:
            raise ContactError("friction must be positive")
        if self.cone_edges < 3:
            raise ContactError("cone_edges must be >= 3")


def cross_matrix(p: np.ndarray) -> np.ndarray:
    x, y, z = p
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def grasp_matrix(contacts: list[Contact], torque_scale: float = TORQUE_SCALE) -> np.ndarray:
    """6 x 3m map from stacked contact forces to net wrench; torques scaled
    by 1/torque_scale to keep units comparable."""
    if not contacts:
        raise ContactError("need at least one contact")
    blocks = []
    for c in contacts:
        blocks.append(np.vstack([np.eye(3), cross_matrix(c.position / torque_scale)]))
    return np.hstack(blocks)


def friction_cone_edges(n: np.ndarray, mu: float, k: int) -> np.ndarray:
    """k unit edge vectors (..., k, 3) of the inner linearized friction cone
    around each normal n (..., 3)."""
    if k < 3:
        raise ContactError("cone_edges must be >= 3")
    n = np.asarray(n, dtype=float)
    R = _z_rotations(n).reshape(n.shape[:-1] + (1, 3, 3))
    u, v, n = R[..., 0], R[..., 1], R[..., 2]
    ang = 2 * np.pi * np.arange(k) / k
    edges = n + mu * (np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v)
    return edges / np.linalg.norm(edges, axis=-1)[..., None]


def _phase1_simplex(A: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Feasibility of {x >= 0 : A x = b} via phase-1 simplex with Bland's rule."""
    m, n = A.shape
    # make b nonnegative so artificials form a feasible starting basis
    sign = np.where(b < 0, -1.0, 1.0)
    A = A * sign[:, None]
    b = b * sign
    # tableau over [x | artificials], objective = sum of artificials
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    # objective row: minimize sum of artificials (reduced costs)
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    for _ in range(_PIVOT_CAP * (n + m)):
        # Bland: entering = lowest-index column with negative reduced cost
        negative = np.flatnonzero(T[m, :-1] < -tol)
        if not len(negative):
            break
        enter = negative[0]
        col = T[:m, enter]
        ratios = np.where(col > tol, T[:m, -1] / np.where(col > tol, col, 1.0), np.inf)
        best = np.inf
        leave = -1
        for r in np.flatnonzero(np.isfinite(ratios)):
            if ratios[r] < best - 1e-15 or (
                abs(ratios[r] - best) <= 1e-15 and leave >= 0 and basis[r] < basis[leave]
            ):
                best = ratios[r]
                leave = r
        if leave < 0:  # no finite ratio: unbounded, which phase 1 cannot be
            raise ContactError(f"phase-1 simplex: column {enter} is unbounded")
        T[leave] /= T[leave, enter]
        # every other row at once; a zero factor leaves a finite row as it is
        factor = T[:, enter].copy()
        factor[leave] = 0.0
        T -= np.outer(factor, T[leave])
        basis[leave] = enter
    else:
        raise ContactError(f"phase-1 simplex: no optimum after {_PIVOT_CAP * (n + m)} pivots")
    objective = -T[m, -1]
    return objective < 1e-7


@dataclass
class ClosureResult:
    closure: bool
    rank_ok: bool
    feasible: bool
    min_eigenvalue: float


def force_closure(contacts: list[Contact], params: ForceClosureParams | None = None) -> ClosureResult:
    """Rank test on G G^T plus the normalized edge-weight feasibility LP.

    feasible: exists w >= 0 with G E w = 0 and sum(w) = 1, where E stacks
    the linearized friction-cone edges of every contact.
    """
    params = params or ForceClosureParams()
    if not contacts:
        raise ContactError("need at least one contact")
    G = grasp_matrix(contacts, TORQUE_SCALE)
    GG = G @ G.T
    eigs = np.linalg.eigvalsh(GG)
    min_eig = float(eigs[0])
    rank_ok = min_eig > _RANK_EPS
    # wrench of each cone edge: columns of G E, shape (6, m*k)
    edges = friction_cone_edges(np.array([c.normal for c in contacts]), params.friction, params.cone_edges)
    W = np.hstack([G[:, 3 * i:3 * i + 3] @ e.T for i, e in enumerate(edges)])
    A = np.vstack([W, np.ones((1, W.shape[1]))])
    b = np.concatenate([np.zeros(6), [1.0]])
    feasible = _phase1_simplex(A, b)
    return ClosureResult(closure=rank_ok and feasible, rank_ok=rank_ok, feasible=feasible, min_eigenvalue=min_eig)
