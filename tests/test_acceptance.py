"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line. Heavier criteria reuse the calibrated small-scale recipes
from the per-module suites."""

import time

import numpy as np
import pytest

from cgrkit.annotation import (
    AnnotationParams,
    annotate_scene,
    read_dataset,
    write_dataset,
)
from cgrkit.cgr import (
    Cgr,
    CgrGridParams,
    antipodal_rep,
    compute_cgr,
    query_grasp_pose,
)
from cgrkit.contacts import ForceClosureParams, force_closure
from cgrkit.coverage import (
    SamplingParams,
    coverage_curve,
    dense_params,
    sparse_params,
)
from cgrkit.geometry import (
    RigidTransform,
    TriangleMesh,
    make_box,
    make_cylinder,
    make_icosphere,
    rotation_z,
)
from cgrkit.model import (
    DecisionBank,
    TrainConfig,
    gradients,
    init_model,
    load_bank,
    load_model,
    save_bank,
    save_model,
    train,
)
from cgrkit.pipeline import (
    CollectionConfig,
    DetectionConfig,
    SceneGenParams,
    _expand_candidates,
    collect,
    evaluate,
    generate_scene,
    read_trials,
    trials_to_training_data,
    write_trials,
)

from conftest import random_rotation, random_transform
from test_cgr import _oracle_antipodal, _random_cgr
from test_contacts import _jittered_pinch, _oracle_feasible, _random_contacts
from test_model import _separable_data

ANN = AnnotationParams(
    surface_resolution=0.0125, approach_directions=12, grid=CgrGridParams()
)


@pytest.fixture
def report(capsys):
    start = time.time()

    def _report(num, name, ok):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[criterion {num:2d}] {name}: {verdict} ({time.time() - start:.1f}s)")
        assert ok, f"criterion {num} ({name}) failed"

    return _report


@pytest.fixture(scope="module")
def pool():
    return {
        "cube": make_box((0.05, 0.05, 0.05)),
        "slim": make_box((0.03, 0.03, 0.06)),
        "cyl": make_cylinder(0.018, 0.055, segments=24),
    }


@pytest.fixture(scope="module")
def ann_cache():
    return {}


@pytest.fixture(scope="module")
def scene_a(pool):
    return generate_scene(pool, SceneGenParams(), seed=0)


@pytest.fixture(scope="module")
def dataset_a(scene_a, ann_cache):
    return annotate_scene(scene_a, ANN, cache=ann_cache)


# ---------------------------------------------------------------------------


def test_criterion_01_structural_fidelity(cube, report):
    params = CgrGridParams()
    cgr = compute_cgr(cube, RigidTransform.identity(), params)
    ok = (
        params.n_sections == 5
        and params.n_angles == 48
        and cgr.grid.shape == (5, 48, 2)
        and params.flat_size == 480
        and cgr.flatten().shape == (480,)
    )
    report(1, "CGR structural fidelity", ok)


def test_criterion_02_analytic_correctness(cube, slab, sphere, plates, report):
    p = CgrGridParams()
    ok = True

    # slab, 0.04 m thick, frame at the center: d = 0.02/|cos a|
    cgr = compute_cgr(slab, RigidTransform.identity(), p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            c = abs(np.cos(alpha))
            if c > 1e-12 and 0.02 / c <= p.d_max:
                ok &= abs(cgr.grid[j, i, 0] - 0.02 / c) < 1e-6
                ok &= abs(cgr.grid[j, i, 1] - np.arccos(c)) < 1e-6
            else:
                ok &= cgr.grid[j, i, 0] == p.d_max

    # cube, frame on a face: square sections, d = 0.025/max(|cos|,|sin|)
    cgr = compute_cgr(cube, RigidTransform(np.eye(3), [0, 0, -0.025]), p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            m = max(abs(np.cos(alpha)), abs(np.sin(alpha)))
            ok &= abs(cgr.grid[j, i, 0] - 0.025 / m) < 1e-6
            ok &= abs(cgr.grid[j, i, 1] - np.arccos(m)) < 1e-6

    # parallel plates 0.02 m away on both sides: rays enter material from
    # outside, so the outward hit normal opposes them
    cgr = compute_cgr(plates, RigidTransform.identity(), p)
    for j in range(p.n_sections):
        for i, alpha in enumerate(p.alphas):
            c = abs(np.cos(alpha))
            if c > 1e-12 and 0.02 / c <= p.d_max:
                ok &= abs(cgr.grid[j, i, 0] - 0.02 / c) < 1e-6
                ok &= abs(cgr.grid[j, i, 1] - (np.pi - np.arccos(c))) < 1e-6

    # tessellated sphere, frame at the south pole: circle sections within
    # 1e-2 relative
    r = 0.03
    cgr = compute_cgr(sphere, RigidTransform(np.eye(3), [0, 0, -r]), p)
    for j, d in enumerate(p.section_depths):
        rho = np.sqrt(r**2 - (d - r) ** 2)
        ok &= bool(np.all(np.abs(cgr.grid[j, :, 0] - rho) / rho < 1e-2))

    report(2, "CGR analytic correctness", ok)


def test_criterion_03_se3_equivariance(cube, slab, sphere, report):
    rng = np.random.default_rng(3)
    # frames twisted off the symmetry axes so no ray is exactly perpendicular
    # to a face; generic pose on the sphere keeps rays off tessellation edges
    generic = random_rotation(np.random.default_rng(99)) @ rotation_z(0.06)
    fixtures = [
        (cube, RigidTransform(rotation_z(0.06), [0.0, 0.0, -0.025])),
        (slab, RigidTransform(rotation_z(0.06), np.zeros(3))),
        (sphere, RigidTransform(generic, [0.0011, -0.0007, -0.0293])),
    ]
    transforms = [random_transform(rng) for _ in range(100)]
    worst = 0.0
    for mesh, frame in fixtures:
        ref = compute_cgr(mesh, frame)
        for tf in transforms:
            moved = compute_cgr(mesh.transformed(tf), tf.compose(frame))
            worst = max(worst, float(np.max(np.abs(moved.grid - ref.grid))))
    ok = worst < 1e-6

    # query_grasp_pose commutes with the rigid transform
    frame = RigidTransform(rotation_z(0.06), np.zeros(3))
    pose = query_grasp_pose(compute_cgr(slab, frame))
    pose_worst = 0.0
    for tf in transforms:
        moved = compute_cgr(slab.transformed(tf), tf.compose(frame))
        pose_t = query_grasp_pose(moved)
        pose_worst = max(
            pose_worst,
            float(np.max(np.abs(pose_t.rotation - tf.rotation @ pose.rotation))),
            float(np.max(np.abs(pose_t.translation - tf.apply(pose.translation)))),
        )
    ok &= pose_worst < 1e-9
    report(3, "SE(3) equivariance", ok)


def test_criterion_04_antipodal_oracle_equivalence(report):
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        cgr = _random_cgr(rng)
        rep = antipodal_rep(cgr)
        w, f, s = _oracle_antipodal(cgr)
        ok &= float(np.max(np.abs(rep.width - w))) < 1e-12
        ok &= float(np.max(np.abs(rep.friction - f))) < 1e-12
        ok &= float(np.max(np.abs(rep.score - s))) < 1e-12
        if not ok:
            break
    report(4, "antipodal oracle equivalence", ok)


def test_criterion_05_force_closure_correctness(report):
    rng = np.random.default_rng(5)
    agree = 0
    for trial in range(100):
        k = int(rng.integers(3, 7))
        mu = float(rng.uniform(0.2, 1.2))
        contacts = (
            _random_contacts(rng, int(rng.integers(2, 4)))
            if trial % 2 == 0
            else _jittered_pinch(rng)
        )
        params = ForceClosureParams(friction=mu, cone_edges=k)
        agree += force_closure(contacts, params).feasible == _oracle_feasible(
            contacts, params
        )
    ok = agree == 100

    # friction monotonicity: enlarging the cone can only gain feasibility
    for _ in range(100):
        contacts = _random_contacts(rng, int(rng.integers(2, 4)))
        mus = sorted(rng.uniform(0.1, 1.5, size=3))
        feas = [
            force_closure(contacts, ForceClosureParams(friction=mu)).feasible
            for mu in mus
        ]
        ok &= all(hi >= lo for lo, hi in zip(feas, feas[1:]))
    report(5, "force-closure correctness", ok)


def test_criterion_06_gradient_check(report):
    rng = np.random.default_rng(6)
    model = init_model(seed=7, input_dim=12, hidden=8)
    x = rng.standard_normal((16, 12))
    y = (rng.random(16) > 0.5).astype(float)
    _, grads = gradients(model, x, y, training=True)

    def numeric(arr, idx, h=1e-6):
        old = arr[idx]
        arr[idx] = old + h
        lp, _ = gradients(model, x, y, training=True)
        arr[idx] = old - h
        lm, _ = gradients(model, x, y, training=True)
        arr[idx] = old
        return (lp - lm) / (2 * h)

    ok = True
    for name, arr in model.flat_parameters():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        # at least 100 coordinate checks per parameter tensor (with
        # replacement when the tensor is smaller than that)
        idxs = rng.choice(flat.size, size=max(100, flat.size), replace=True)
        for idx in idxs:
            num = numeric(flat, idx)
            ana = gflat[idx]
            if abs(num - ana) < 5e-9:
                continue  # below central-difference roundoff noise
            ok &= abs(num - ana) / max(abs(num), abs(ana)) < 1e-4
        if not ok:
            break
    report(6, "gradient check", ok)


def test_criterion_07_training_sanity(report):
    rng = np.random.default_rng(10)
    x, y = _separable_data(rng, n=1000)
    split = 800
    config = TrainConfig(epochs=20, hidden=64, seed=0, learning_rate=3e-3)
    model, logs = train(x[:split], y[:split], config, holdout=(x[split:], y[split:]))
    ok = len(logs) == 20 and logs[-1].holdout_accuracy > 0.95

    again, _ = train(x[:split], y[:split], config, holdout=(x[split:], y[split:]))
    for (n1, a1), (n2, a2) in zip(model.flat_parameters(), again.flat_parameters()):
        ok &= n1 == n2 and bool(np.array_equal(a1, a2))
    report(7, "training sanity", ok)


def test_criterion_08_pipeline_structure(scene_a, hand3, report):
    # denser approach sampling so the scene yields well over 100 usable CGRs
    ann = AnnotationParams(
        surface_resolution=0.0125, approach_directions=24, grid=CgrGridParams()
    )
    dataset = annotate_scene(scene_a, ann)
    usable = sum(
        1
        for rec in dataset.records
        if rec.valid and antipodal_rep(rec.cgr).best()[2] > 0.0
    )
    candidates = _expand_candidates(dataset, hand3, 100)
    ok = (
        len(hand3.grasp_types) == 4
        and usable >= 100
        and len(candidates) == 400
    )
    report(8, "pipeline candidate structure", ok)


def test_criterion_09_learning_beats_baseline(pool, hand3, ann_cache, report):
    gen = SceneGenParams(instances_per_scene=3)
    wins = 0
    for g in range(5):
        annotated = []
        for s in range(5):
            sc = generate_scene(pool, gen, seed=1000 * g + s)
            annotated.append((sc, annotate_scene(sc, ANN, cache=ann_cache)))
        records = collect(CollectionConfig(target_size=800, seed=g), annotated, hand3)
        config = TrainConfig(epochs=20, hidden=64, seed=g, learning_rate=1e-3)
        models = {}
        for type_id, (x, y) in trials_to_training_data(records).items():
            model, _ = train(x, y, config, warn=lambda *_: None)
            models[type_id] = model
        bank = DecisionBank(models)
        # 4 held-out scenes per seed group, 20 total, paired between policies
        held_out = [generate_scene(pool, gen, seed=9000 + 10 * g + s) for s in range(4)]
        dcfg = DetectionConfig()
        learned = evaluate("detect", held_out, hand3, bank, dcfg,
                           annotation=ANN, cache=ann_cache)
        baseline = evaluate("baseline", held_out, hand3, None, dcfg,
                            annotation=ANN, cache=ann_cache, seed=g)
        if learned.success_rate - baseline.success_rate >= 0.10:
            wins += 1
    report(9, "learning beats baseline", wins >= 4)


def test_criterion_10_coverage_density(report):
    fast = dict(points_per_patch=48, surface_samples=3000, grasp_point_resolution=0.04)

    def scaled(mesh, s):
        return TriangleMesh(mesh.vertices * s, mesh.triangles)

    base = {
        "cube": make_box((0.05, 0.05, 0.05)),
        "boxA": make_box((0.04, 0.05, 0.07)),
        "boxB": make_box((0.06, 0.06, 0.05)),
        "cyl": make_cylinder(0.02, 0.06, segments=24),
        "sph": make_icosphere(0.03, 2),
    }
    train5 = dict(base)
    # the 15-object set pads the same shapes with slightly scaled variants
    train15 = dict(base)
    for name, mesh in base.items():
        train15[name + "_s99"] = scaled(mesh, 0.99)
        train15[name + "_s101"] = scaled(mesh, 1.01)

    test_objects = {}
    for name, mesh in base.items():
        test_objects["t_" + name] = mesh
        test_objects["t_" + name + "_105"] = scaled(mesh, 1.05)
    test_objects.update({
        "n_boxC": make_box((0.05, 0.07, 0.09)),
        "n_boxD": make_box((0.035, 0.06, 0.06)),
        "n_cylB": make_cylinder(0.025, 0.07, segments=24),
        "n_cylC": make_cylinder(0.015, 0.06, segments=16),
        "n_sphB": make_icosphere(0.035, 2),
        "n_sphC": make_icosphere(0.026, 3),
        "n_slab": make_box((0.02, 0.08, 0.08)),
        "n_bar": make_box((0.03, 0.03, 0.1)),
        "n_cylD": make_cylinder(0.03, 0.05, segments=24),
        "n_cube2": make_box((0.07, 0.07, 0.07)),
    })
    assert len(train15) == 15 and len(test_objects) == 20

    # test probes on master-grid poses that the dense preset contains but the
    # sparse preset does not (direction stride 15 vs 6, angle stride 3 vs 2)
    probe = SamplingParams(approach_directions=20, inplane_angles=4, **fast)
    dense5 = coverage_curve(train5, test_objects,
                            train_params=dense_params(**fast), test_params=probe, seed=0)
    sparse5 = coverage_curve(train5, test_objects,
                             train_params=sparse_params(**fast), test_params=probe, seed=0)
    sparse15 = coverage_curve(train15, test_objects,
                              train_params=sparse_params(**fast), test_params=probe, seed=0)

    d5 = {r.object_id: r.covered_count for r in dense5}
    s5 = {r.object_id: r.covered_count for r in sparse5}
    pointwise = all(d5[k] >= s5[k] for k in d5)
    strict = sum(d5[k] > s5[k] for k in d5)
    total_d5 = sum(d5.values())
    total_s15 = sum(r.covered_count for r in sparse15)
    ok = pointwise and strict > 0 and total_d5 >= total_s15
    report(10, "coverage density", ok)


def test_criterion_11_dataset_roundtrip(tmp_path, scene_a, dataset_a, hand3, report):
    ok = True

    # CGR dataset file: write -> read -> write is byte-identical, and
    # invalid records come back as all-zero grids
    path = tmp_path / "ds.bin"
    write_dataset(dataset_a, path)
    back = read_dataset(path)
    write_dataset(back, tmp_path / "ds2.bin")
    ok &= path.read_bytes() == (tmp_path / "ds2.bin").read_bytes()
    ok &= any(not r.valid for r in back.records)
    ok &= all(np.all(r.cgr.grid == 0.0) for r in back.records if not r.valid)

    # trial file
    records = collect(CollectionConfig(target_size=20, seed=0),
                      [(scene_a, dataset_a)], hand3)
    tpath = tmp_path / "trials.bin"
    write_trials(records, ANN.grid, tpath)
    tback = read_trials(ANN.grid, tpath)
    write_trials(tback, ANN.grid, tmp_path / "trials2.bin")
    ok &= tpath.read_bytes() == (tmp_path / "trials2.bin").read_bytes()

    # model and bank files
    model = init_model(seed=0, input_dim=480, hidden=16)
    mpath = tmp_path / "model.bin"
    save_model(model, mpath)
    save_model(load_model(mpath), tmp_path / "model2.bin")
    ok &= mpath.read_bytes() == (tmp_path / "model2.bin").read_bytes()
    bank = DecisionBank({i: init_model(seed=i, input_dim=480, hidden=16) for i in range(2)})
    bpath = tmp_path / "bank.bin"
    save_bank(bank, bpath)
    save_bank(load_bank(bpath), tmp_path / "bank2.bin")
    ok &= bpath.read_bytes() == (tmp_path / "bank2.bin").read_bytes()

    report(11, "dataset round-trip", ok)


def test_criterion_12_type_frequency_accounting(scene_a, hand3, ann_cache, report):
    stats = evaluate("baseline", [scene_a], hand3, None,
                     annotation=ANN, cache=ann_cache, seed=0)
    freqs = stats.type_frequencies()
    ok = (
        stats.attempts > 0
        and len(freqs) > 0
        and abs(sum(freqs.values()) - 1.0) < 1e-9
        and all(0.0 <= f <= 1.0 for f in freqs.values())
    )
    report(12, "grasp-type frequency accounting", ok)
