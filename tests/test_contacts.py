import numpy as np
import pytest
from scipy.optimize import linprog

from cgrkit import contacts
from cgrkit.contacts import (
    TORQUE_SCALE,
    ClosureResult,
    Contact,
    ContactError,
    ForceClosureParams,
    _phase1_simplex,
    cross_matrix,
    force_closure,
    friction_cone_edges,
    grasp_matrix,
)


# ---------------------------------------------------------------------------
# Contacts and grasp matrix


def test_contact_normalizes_normal():
    c = Contact([0, 0, 0], [0, 0, 2.0])
    assert np.allclose(c.normal, [0, 0, 1])
    with pytest.raises(ContactError):
        Contact([0, 0, 0], [0, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_contact_rejects_non_finite(bad):
    with pytest.raises(ContactError, match="non-finite"):
        Contact([0, 0, 0], [bad, 0, 0])
    with pytest.raises(ContactError, match="non-finite"):
        Contact([0, bad, 0], [0, 0, 1])


def test_cross_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p, v = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(cross_matrix(p) @ v, np.cross(p, v), atol=1e-12)


def test_grasp_matrix_maps_forces_to_wrench():
    rng = np.random.default_rng(1)
    scale = 0.1
    contacts = [Contact(rng.standard_normal(3), rng.standard_normal(3)) for _ in range(3)]
    G = grasp_matrix(contacts, torque_scale=scale)
    assert G.shape == (6, 9)
    forces = rng.standard_normal((3, 3))
    wrench = G @ forces.reshape(-1)
    want_force = forces.sum(axis=0)
    want_torque = sum(np.cross(c.position / scale, f) for c, f in zip(contacts, forces))
    assert np.allclose(wrench[:3], want_force, atol=1e-12)
    assert np.allclose(wrench[3:], want_torque, atol=1e-12)


def test_grasp_matrix_requires_contacts():
    with pytest.raises(ContactError):
        grasp_matrix([])


# ---------------------------------------------------------------------------
# Friction cone edges


def test_cone_edges_geometry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        mu, k = rng.uniform(0.1, 1.5), int(rng.integers(3, 12))
        edges = friction_cone_edges(n, mu, k)
        assert edges.shape == (k, 3)
        assert np.allclose(np.linalg.norm(edges, axis=1), 1.0, atol=1e-12)
        # inner linearization: every edge lies exactly on the cone boundary
        cos_half = 1.0 / np.sqrt(1.0 + mu * mu)
        assert np.allclose(edges @ n, cos_half, atol=1e-12)


# ---------------------------------------------------------------------------
# Phase-1 simplex vs scipy linprog


def _linprog_feasible(A, b):
    """Independent feasibility oracle for {x >= 0 : A x = b} (HiGHS)."""
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    return res.status == 0


def test_phase1_simplex_agrees_with_linprog():
    rng = np.random.default_rng(3)
    feas = infeas = 0
    for _ in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 12))
        A = rng.standard_normal((m, n))
        if rng.random() < 0.5:
            # force feasibility: b is a nonnegative combination of columns
            x = rng.uniform(0, 1, n)
            b = A @ x
        else:
            b = rng.standard_normal(m)
        want = _linprog_feasible(A, b)
        got = _phase1_simplex(A, b)
        assert got == want
        feas += want
        infeas += not want
    assert feas > 40 and infeas > 40  # both branches exercised


def test_phase1_simplex_known_cases():
    # x1 + x2 = 1 with x >= 0: feasible
    assert _phase1_simplex(np.array([[1.0, 1.0]]), np.array([1.0]))
    # x1 + x2 = -1 with x >= 0: infeasible
    assert not _phase1_simplex(np.array([[1.0, 1.0]]), np.array([-1.0]))
    # x1 - x1 = 1 (zero row after combination): infeasible
    assert not _phase1_simplex(np.array([[1.0, -1.0], [1.0, -1.0]]), np.array([0.0, 1.0]))


def test_phase1_simplex_exits_raise(monkeypatch):
    """Leaving the pivot loop without an optimal tableau raises instead of
    judging feasibility from a half-solved one."""
    # a NaN right-hand side leaves no finite ratio: the unbounded exit
    with pytest.raises(ContactError, match="unbounded"):
        _phase1_simplex(np.array([[1.0, 1.0]]), np.array([np.nan]))
    # three random contacts whose LP needs more than n + m pivots
    rng = np.random.default_rng(1)
    grasp = [Contact(p, n) for p, n in zip(0.02 * rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))]
    assert not force_closure(grasp).feasible
    monkeypatch.setattr(contacts, "_PIVOT_CAP", 1)
    with pytest.raises(ContactError, match="no optimum after 31 pivots"):
        force_closure(grasp)


# ---------------------------------------------------------------------------
# Force closure


def _oracle_feasible(contacts, params):
    """Feasibility of the cone-edge LP via scipy, built independently."""
    G = grasp_matrix(contacts, TORQUE_SCALE)
    cols = []
    for i, c in enumerate(contacts):
        E = friction_cone_edges(c.normal, params.friction, params.cone_edges)
        cols.append(G[:, 3 * i : 3 * i + 3] @ E.T)
    W = np.hstack(cols)
    A = np.vstack([W, np.ones((1, W.shape[1]))])
    b = np.concatenate([np.zeros(6), [1.0]])
    return _linprog_feasible(A, b)


def _random_contacts(rng, m):
    out = []
    for _ in range(m):
        n = rng.standard_normal(3)
        out.append(Contact(rng.uniform(-0.05, 0.05, 3), n / np.linalg.norm(n)))
    return out


def _jittered_pinch(rng):
    """Roughly opposing contact pair, randomly posed; feasible for most
    draws but not all."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    p = rng.uniform(0.01, 0.05) * axis
    n1 = -axis + rng.normal(0, 0.25, 3)
    n2 = axis + rng.normal(0, 0.25, 3)
    return [Contact(p, n1), Contact(-p + rng.normal(0, 0.005, 3), n2)]


def test_force_closure_feasibility_matches_linprog_oracle():
    rng = np.random.default_rng(4)
    agree_feas = agree_infeas = 0
    for trial in range(100):
        k = int(rng.integers(3, 7))
        mu = float(rng.uniform(0.2, 1.2))
        if trial % 2 == 0:
            contacts = _random_contacts(rng, int(rng.integers(2, 4)))
        else:
            contacts = _jittered_pinch(rng)
        params = ForceClosureParams(friction=mu, cone_edges=k)
        result = force_closure(contacts, params)
        want = _oracle_feasible(contacts, params)
        assert result.feasible == want
        agree_feas += want
        agree_infeas += not want
    assert agree_feas > 10 and agree_infeas > 10


def test_friction_monotonicity():
    # enlarging the friction cone can only keep or gain feasibility
    rng = np.random.default_rng(5)
    for _ in range(100):
        contacts = _random_contacts(rng, int(rng.integers(2, 4)))
        mus = sorted(rng.uniform(0.1, 1.5, size=3))
        feas = [
            force_closure(contacts, ForceClosureParams(friction=mu)).feasible
            for mu in mus
        ]
        for lo, hi in zip(feas, feas[1:]):
            assert hi >= lo


def test_opposing_pinch_is_force_closure():
    contacts = [
        Contact([0.02, 0, 0], [-1, 0, 0]),
        Contact([-0.02, 0, 0], [1, 0, 0]),
    ]
    result = force_closure(contacts, ForceClosureParams(friction=0.5))
    assert result.feasible
    # two point contacts can never span all six wrench directions
    assert not result.rank_ok
    assert not result.closure


def test_same_side_contacts_not_feasible():
    contacts = [
        Contact([0.02, 0, 0], [1, 0, 0]),
        Contact([0.02, 0.01, 0], [1, 0, 0]),
    ]
    result = force_closure(contacts, ForceClosureParams(friction=0.3))
    assert not result.feasible


def test_tripod_closure_full_rank():
    # three wide-spread contacts squeezing a sphere of radius 0.03
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    contacts = [
        Contact(
            [0.03 * np.cos(a), 0.03 * np.sin(a), 0.0],
            [-np.cos(a), -np.sin(a), 0.0],
        )
        for a in angles
    ]
    result = force_closure(contacts, ForceClosureParams(friction=0.8))
    assert result.feasible
    assert result.rank_ok
    assert result.closure
    assert result.min_eigenvalue > 1e-3


def test_single_contact_never_feasible():
    result = force_closure([Contact([0, 0, 0.03], [0, 0, -1])])
    assert not result.feasible
    assert not result.closure


def test_params_validation():
    with pytest.raises(ContactError):
        ForceClosureParams(friction=0.0)
    with pytest.raises(ContactError):
        ForceClosureParams(cone_edges=2)
    with pytest.raises(ContactError):
        force_closure([])
