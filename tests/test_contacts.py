import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from cgrkit.geometry import GeometryError


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


def test_cone_edges_of_stacked_normals():
    """Normals (m, 3) give (m, k, 3): each normal's edges, bit for bit; a
    NaN, infinite or zero normal in the stack raises."""
    rng = np.random.default_rng(21)
    normals = rng.standard_normal((5, 3))
    normals[1] = [0.0, 0.0, -1.0]
    normals[2] *= 1e3
    edges = friction_cone_edges(normals, 0.4, 7)
    assert edges.shape == (5, 7, 3)
    for n, e in zip(normals, edges):
        assert e.tobytes() == friction_cone_edges(n, 0.4, 7).tobytes()
    for bad in ([np.nan, 0.0, 1.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(GeometryError, match="degenerate direction"):
            friction_cone_edges(np.vstack([normals, bad]), 0.4, 7)


# ---------------------------------------------------------------------------
# Phase-1 simplex vs scipy linprog


def _linprog_feasible(A, b):
    """Independent feasibility oracle for {x >= 0 : A x = b} (HiGHS): True at
    an optimum, False when HiGHS finds the LP infeasible; any other status,
    such as 4 (numerical trouble), is no verdict and fails the caller."""
    res = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status in (0, 2), f"HiGHS gave no verdict: status {res.status}: {res.message}"
    return res.status == 0


def _highs_phase1(A, b):
    """HiGHS's optimum of the LP that _phase1_simplex solves: the least sum
    of artificials a >= 0 with A' x + a = b', x >= 0, where A' and b' are A
    and b with the rows of negative b negated; None when HiGHS reports
    numerical trouble."""
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    res = linprog(np.r_[np.zeros(n), np.ones(m)], A_eq=np.hstack([A * sign[:, None], np.eye(m)]), b_eq=b * sign,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    return res.fun if res.status == 0 else None


def _agrees_with_highs(feasible, A, b):
    """Whether a verdict of _phase1_simplex, feasible when its phase-1
    optimum is below 1e-7, matches HiGHS's optimum of the same LP; also true
    when that optimum lies within a decade of 1e-7, where rounding decides
    (coplanar contacts 1e-6 m apart can miss feasibility by 3e-9), or when
    HiGHS reports numerical trouble."""
    opt = _highs_phase1(A, b)
    return opt is None or 1e-8 <= opt <= 1e-6 or feasible == (opt < 1e-7)


def _reference_phase1_simplex(A, b, tol=1e-9):
    """_phase1_simplex one tableau entry at a time: Bland's entering column
    and leaving row found by scalar scans, and each row with a nonzero
    factor eliminated on its own."""
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    A, b = A * sign[:, None], b * sign
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:n + m], T[:m, -1] = A, np.eye(m), b
    T[m, :n], T[m, -1] = -A.sum(axis=0), -b.sum()
    basis = list(range(n, n + m))
    for _ in range(contacts._PIVOT_CAP * (n + m)):
        enter = next((j for j in range(n + m) if T[m, j] < -tol), -1)
        if enter < 0:
            return -T[m, -1] < 1e-7
        col = T[:m, enter]
        ratios = np.where(col > tol, T[:m, -1] / np.where(col > tol, col, 1.0), np.inf)
        best, leave = np.inf, -1
        for r in range(m):
            if np.isfinite(ratios[r]) and (ratios[r] < best - 1e-15 or (
                    abs(ratios[r] - best) <= 1e-15 and leave >= 0 and basis[r] < basis[leave])):
                best, leave = ratios[r], r
        if leave < 0:
            raise ContactError(f"phase-1 simplex: column {enter} is unbounded")
        T[leave] /= T[leave, enter]
        for r in range(m + 1):
            if r != leave and abs(T[r, enter]) > 0:
                T[r] -= T[r, enter] * T[leave]
        basis[leave] = enter
    raise ContactError(f"phase-1 simplex: no optimum after {contacts._PIVOT_CAP * (n + m)} pivots")


def _outcome(simplex, A, b):
    """The verdict of simplex(A, b), or the message of the ContactError it raises."""
    try:
        return bool(simplex(A, b))
    except ContactError as exc:
        return str(exc)


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


def _closure_lp(contacts, params):
    """(A, b) of the cone-edge LP, built independently of force_closure."""
    G = grasp_matrix(contacts, TORQUE_SCALE)
    cols = []
    for i, c in enumerate(contacts):
        E = friction_cone_edges(c.normal, params.friction, params.cone_edges)
        cols.append(G[:, 3 * i : 3 * i + 3] @ E.T)
    W = np.hstack(cols)
    A = np.vstack([W, np.ones((1, W.shape[1]))])
    b = np.concatenate([np.zeros(6), [1.0]])
    return A, b


def _oracle_feasible(contacts, params):
    """Feasibility of the cone-edge LP via scipy."""
    return _linprog_feasible(*_closure_lp(contacts, params))


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


@st.composite
def _degenerate_grasps(draw):
    """(contacts, params) of 2-4 contacts: positions coincident, coplanar
    (z = 0) or free, at a scale of 1e-6 to 1e3 m; normals parallel (all
    along one axis, signs drawn), along coordinate axes or free; friction
    from 1e-9 up to 1.5 and 3-8 cone edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 4))
    scale = draw(st.sampled_from([1e-6, 1e-3, 0.05, 1.0, 1e3]))
    positions = scale * rng.uniform(-1.0, 1.0, (m, 3))
    layout = draw(st.sampled_from(["coincident", "coplanar", "free"]))
    if layout == "coincident":
        positions[:] = positions[0]
    elif layout == "coplanar":
        positions[:, 2] = 0.0
    kind = draw(st.sampled_from(["parallel", "axes", "free"]))
    if kind == "parallel":
        normals = rng.choice([-1.0, 1.0], (m, 1)) * rng.standard_normal(3)
    elif kind == "axes":
        normals = np.eye(3)[rng.integers(0, 3, m)] * rng.choice([-1.0, 1.0], (m, 1))
    else:
        normals = rng.standard_normal((m, 3))
    friction = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.5]))
    params = ForceClosureParams(friction=friction, cone_edges=draw(st.integers(3, 8)))
    return [Contact(p, n) for p, n in zip(positions, normals)], params


# two coincident opposed contacts 1e3 m out at friction 1e-9, on which HiGHS
# reports numerical trouble for the feasibility LP; three coplanar contacts
# 1e-6 m apart whose LP misses feasibility by 3e-9, within the simplex's 1e-7
_FAR_PINCH = [937.36795473, -677.46515491, -971.88023294], [-0.18653094, 0.67844068, -0.71058036]
_TINY_TRIPOD = ([[-8.28701666e-07, -5.26378987e-07, 0.0], [1.64324072e-07, -8.11742716e-07, 0.0],
                 [-4.18974037e-08, -6.80522171e-07, 0.0]],
                [[0.9921544, 0.06741355, -0.10528566], [-0.21973225, -0.52185528, -0.82424803],
                 [-0.58788366, 0.7249926, -0.35885726]])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_degenerate_grasps())
@example(([Contact(_FAR_PINCH[0], _FAR_PINCH[1]), Contact(_FAR_PINCH[0], -np.array(_FAR_PINCH[1]))],
          ForceClosureParams(friction=1e-9, cone_edges=3)))
@example(([Contact(p, n) for p, n in zip(*_TINY_TRIPOD)], ForceClosureParams(friction=1.5, cone_edges=3)))
def test_force_closure_agrees_with_linprog_on_degenerate_grasps(case):
    """On coincident and coplanar contacts, parallel normals, friction near 0
    and positions from 1e-6 to 1e3 m, the phase-1 simplex and HiGHS judge
    feasibility alike, or the simplex raises ContactError; the simplex also
    gives its scalar-loop reference's outcome on the same LP."""
    grasp, params = case
    A, b = _closure_lp(grasp, params)
    assert _outcome(_phase1_simplex, A, b) == _outcome(_reference_phase1_simplex, A, b)
    try:
        got = force_closure(grasp, params).feasible
    except ContactError:
        return
    assert _agrees_with_highs(got, A, b)


def test_linprog_oracle_gives_no_verdict_on_numerical_trouble():
    """HiGHS returns status 4 (numerical trouble) on the feasibility LP of two
    coincident opposed contacts 1e3 m out at friction 1e-9, which is feasible:
    the simplex says so and HiGHS's phase-1 optimum is 0. The oracle raises
    there instead of reading the LP as infeasible."""
    grasp = [Contact(_FAR_PINCH[0], _FAR_PINCH[1]), Contact(_FAR_PINCH[0], -np.array(_FAR_PINCH[1]))]
    A, b = _closure_lp(grasp, ForceClosureParams(friction=1e-9, cone_edges=3))
    with pytest.raises(AssertionError, match="status 4"):
        _linprog_feasible(A, b)
    assert _phase1_simplex(A, b) and _highs_phase1(A, b) == 0.0


@st.composite
def _degenerate_systems(draw):
    """(A, b) with 1-6 rows and 1-10 columns of small integers, so that
    ratio ties, zero rows and repeated columns are common, scaled by one
    power of ten; b is a nonnegative combination of the columns, zero or
    free."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    A = rng.integers(-2, 3, (m, n)).astype(float)
    if draw(st.booleans()):
        A[:, rng.integers(0, n, n)] = A[:, rng.integers(0, n, n)]  # repeated columns
    A *= draw(st.sampled_from([1e-6, 1.0, 1e3]))
    kind = draw(st.sampled_from(["feasible", "zero", "free"]))
    if kind == "feasible":
        b = A @ rng.integers(0, 3, n).astype(float)
    elif kind == "zero":
        b = np.zeros(m)
    else:
        b = rng.integers(-3, 4, m).astype(float)
    return A, b


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_degenerate_systems())
def test_phase1_simplex_agrees_with_linprog_on_degenerate_systems(case):
    """The simplex gives its scalar-loop reference's verdict or error, and
    agrees with HiGHS unless it raises ContactError."""
    A, b = case
    got = _outcome(_phase1_simplex, A, b)
    assert got == _outcome(_reference_phase1_simplex, A, b)
    assert isinstance(got, str) or _agrees_with_highs(got, A, b)


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
