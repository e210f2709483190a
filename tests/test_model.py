import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cgrkit.model import (
    BATCH_SIZE,
    DECAY_EPOCHS,
    DECAY_FACTOR,
    MODEL_MAGIC,
    SKIP_FROM,
    SKIP_TO,
    DecisionBank,
    ModelError,
    ModelParams,
    TrainConfig,
    _forward_full,
    forward,
    gradients,
    init_model,
    load_bank,
    load_model,
    loss,
    save_bank,
    save_model,
    train,
    write_training_log,
)


# ---------------------------------------------------------------------------
# Architecture


def test_init_model_shapes():
    m = init_model(seed=0, input_dim=480, hidden=1024)
    assert m.n_layers == 7
    assert m.weights[0].shape == (480, 1024)
    for w in m.weights[1:-1]:
        assert w.shape == (1024, 1024)
    assert m.weights[-1].shape == (1024, 1)
    assert len(m.bn_gamma) == 6
    assert all(g.shape == (1024,) for g in m.bn_gamma)


def test_skip_connection_indices():
    assert SKIP_FROM == 1  # output of layer 2
    assert SKIP_TO == 4  # input of layer 5


def test_skip_connection_changes_output():
    """Zeroing layers 3-4 must not sever the path from layer 2 to layer 5."""
    m = init_model(seed=1, input_dim=12, hidden=8)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 12))
    base = forward(m, x, training=True)
    for i in range(SKIP_FROM + 1, SKIP_TO):
        m.weights[i][:] = 0.0
        m.bn_gamma[i][:] = 0.0
    cut = forward(m, x, training=True)
    # with the skip connection the output still depends on the input
    assert np.std(cut) > 1e-9
    assert not np.allclose(base, cut)


def test_forward_outputs_probabilities():
    m = init_model(seed=3, input_dim=20, hidden=16)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 20))
    p = forward(m, x, training=True)
    assert p.shape == (30,)
    assert np.all((p > 0) & (p < 1))
    single = forward(m, x[0], training=True)
    assert isinstance(single, float)


def test_forward_rejects_non_finite():
    m = init_model(seed=5, input_dim=4, hidden=8)
    with pytest.raises(ModelError):
        forward(m, np.array([1.0, np.nan, 0.0, 0.0]))


def test_inference_uses_running_stats():
    m = init_model(seed=6, input_dim=6, hidden=8)
    x = np.random.default_rng(7).standard_normal((4, 6))
    a = forward(m, x, training=False)
    b = forward(m, x[:2], training=False)
    # inference-mode outputs are batch-independent
    assert np.allclose(a[:2], b, atol=1e-12)


# ---------------------------------------------------------------------------
# Loss


def test_bce_loss_oracle():
    p = np.array([0.9, 0.1, 0.5])
    y = np.array([1.0, 0.0, 1.0])
    want = -(np.log(0.9) + np.log(0.9) + np.log(0.5)) / 3
    assert abs(loss(p, y) - want) < 1e-12


def test_bce_loss_clamps():
    assert np.isfinite(loss(np.array([0.0, 1.0]), np.array([1.0, 0.0])))


# ---------------------------------------------------------------------------
# Gradient check


def _numeric_grad(model, x, y, arr, idx, h=1e-6, training=True):
    old = arr[idx]
    arr[idx] = old + h
    lp, _ = gradients(model, x, y, training=training)
    arr[idx] = old - h
    lm, _ = gradients(model, x, y, training=training)
    arr[idx] = old
    return (lp - lm) / (2 * h)


@pytest.mark.parametrize("training", [True, False])
def test_gradients_match_finite_differences(training):
    rng = np.random.default_rng(8)
    model = init_model(seed=9, input_dim=12, hidden=8)
    x = rng.standard_normal((16, 12))
    y = (rng.random(16) > 0.5).astype(float)
    _, grads = gradients(model, x, y, training=training)
    checked = 0
    for name, arr in model.flat_parameters():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        n_check = min(30, flat.size)
        for idx in rng.choice(flat.size, size=n_check, replace=False):
            num = _numeric_grad(model, x, y, flat, idx, training=training)
            ana = gflat[idx]
            if abs(num - ana) < 5e-9:
                # below central-difference roundoff noise (e.g. biases are
                # exactly cancelled by batch normalization)
                checked += 1
                continue
            denom = max(abs(num), abs(ana))
            assert abs(num - ana) / denom < 1e-4, f"{name}[{idx}]: {num} vs {ana}"
            checked += 1
    assert checked > 300


def _relu_masks(model, x, training):
    """The ReLU masks of a forward pass, as bytes."""
    cache = _forward_full(model, x, training)[1]
    return np.concatenate([lc["relu_mask"].ravel() for lc in cache["layers"]]).tobytes()


@st.composite
def _mlp_cases(draw):
    """A model of generated width with random biases, normalization
    parameters and running statistics, and an input scale of 0.1, 1 or 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_model(seed=int(rng.integers(1000)), input_dim=draw(st.integers(1, 20)),
                       hidden=draw(st.integers(2, 12)))
    for a in [*model.biases, *model.bn_gamma, *model.bn_beta, *model.running_mean]:
        a += rng.normal(0.0, 0.5, a.shape)
    for v in model.running_var:
        v *= rng.uniform(0.25, 4.0, v.shape)
    return model, rng, 10.0 ** draw(st.sampled_from([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("batch", [1, 2, 5])
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(case=_mlp_cases(), training=st.booleans())
def test_gradients_match_finite_differences_on_generated_shapes(batch, case, training):
    """gradients against central differences on generated widths and batch
    sizes. An entry whose step of 1e-6 moves a ReLU across its kink has no
    derivative there and is skipped. So is an input with a probability
    outside the loss's clamp: the clamped loss is flat there, while
    gradients passes the clamp through (test_gradients_pass_the_loss_clamp)."""
    model, rng, scale = case
    x = scale * rng.standard_normal((batch, model.input_dim))
    y = (rng.random(batch) > 0.5).astype(float)
    p = forward(model, x, training=training)
    assume(np.all((p > 1e-7) & (p < 1.0 - 1e-7)))
    _, grads = gradients(model, x, y, training=training)
    smooth = _relu_masks(model, x, training)
    checked = skipped = 0
    for name, arr in model.flat_parameters():
        flat, ana = arr.reshape(-1), grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            old, crossed = flat[idx], False
            for step in (1e-6, -1e-6):
                flat[idx] = old + step
                crossed |= _relu_masks(model, x, training) != smooth
            flat[idx] = old
            if crossed:
                skipped += 1
                continue
            num = _numeric_grad(model, x, y, flat, idx, training=training)
            assert abs(num - ana[idx]) < 5e-9 or abs(num - ana[idx]) / max(abs(num), abs(ana[idx])) < 1e-4, (
                f"{name}[{idx}]: {num} vs {ana[idx]}")
            checked += 1
    assert skipped <= checked // 10


def test_gradients_pass_the_loss_clamp():
    """A prediction outside the loss's probability clamp: the loss is flat
    in it, so central differences read 0, but gradients returns the
    derivative at the clamp times the sigmoid's slope, as if the clamp were
    absent."""
    model = init_model(seed=0, input_dim=1, hidden=2)
    model.biases[-1][0] = -20.0  # p = sigmoid(about -20) < 1e-7
    x, y = np.array([[0.3]]), np.array([1.0])
    p = forward(model, x, training=False)[0]
    assert p < 1e-7
    _, grads = gradients(model, x, y, training=False)
    b = model.biases[-1]
    assert _numeric_grad(model, x, y, b, 0, training=False) == 0.0
    assert grads["b6"][0] == pytest.approx(-1.0 / 1e-7 * p * (1.0 - p))


# ---------------------------------------------------------------------------
# Training


def _separable_data(rng, n=1000, dim=16, margin=0.4):
    """Linearly separable labels with a margin around the boundary."""
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    chunks = []
    while sum(len(c) for c in chunks) < n:
        x = rng.standard_normal((2 * n, dim))
        chunks.append(x[np.abs(x @ w) > margin])
    x = np.vstack(chunks)[:n]
    return x, (x @ w > 0).astype(float)


def test_training_learns_separable_data():
    rng = np.random.default_rng(10)
    x, y = _separable_data(rng)
    split = 800
    config = TrainConfig(epochs=20, hidden=64, seed=0, learning_rate=3e-3)
    model, logs = train(x[:split], y[:split], config, holdout=(x[split:], y[split:]))
    assert len(logs) == 20
    assert logs[-1].holdout_accuracy > 0.95
    assert logs[-1].mean_loss < logs[0].mean_loss


def test_training_deterministic_per_seed():
    rng = np.random.default_rng(11)
    x, y = _separable_data(rng, n=200, dim=8)
    config = TrainConfig(epochs=3, hidden=16, seed=5)
    m1, _ = train(x, y, config)
    m2, _ = train(x, y, config)
    for (n1, a1), (n2, a2) in zip(m1.flat_parameters(), m2.flat_parameters()):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_training_warns_on_single_class():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((50, 8))
    y = np.ones(50)
    warnings = []
    train(x, y, TrainConfig(epochs=1, hidden=8), warn=warnings.append)
    assert any("single class" in w for w in warnings)


def test_learning_rate_decay_applied():
    config = TrainConfig()
    assert DECAY_EPOCHS == (10, 15)
    assert DECAY_FACTOR == 0.5
    assert config.epochs == 20
    assert BATCH_SIZE == 128
    assert config.learning_rate == 1e-4


def test_write_training_log(tmp_path):
    from cgrkit.model import EpochLog

    path = tmp_path / "log.csv"
    write_training_log([EpochLog(1, 0.5, 0.8), EpochLog(2, 0.4, None)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,holdout_accuracy"
    assert lines[1].startswith("1,0.5")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Decision bank and serialization


def test_model_save_load_bitwise(tmp_path):
    m = init_model(seed=13, input_dim=10, hidden=8)
    path = tmp_path / "model.bin"
    save_model(m, path)
    back = load_model(path)
    save_model(back, tmp_path / "model2.bin")
    assert path.read_bytes() == (tmp_path / "model2.bin").read_bytes()
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, 10))
    # float32 storage: predictions agree to storage precision
    assert np.allclose(forward(back, x), forward(m, x), atol=1e-5)


def test_bank_save_load_and_decide(tmp_path):
    models = {i: init_model(seed=i, input_dim=6, hidden=8) for i in range(3)}
    bank = DecisionBank(models)
    path = tmp_path / "bank.bin"
    save_bank(bank, path)
    back = load_bank(path)
    assert sorted(back.models) == [0, 1, 2]
    save_bank(back, tmp_path / "bank2.bin")
    assert path.read_bytes() == (tmp_path / "bank2.bin").read_bytes()
    # each loaded sub-model decides like its original, to float32 storage precision
    x = np.random.default_rng(15).standard_normal((4, 6))
    for i in range(3):
        p = forward(back.models[i], x)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.allclose(p, forward(models[i], x), atol=1e-5)


def test_load_bank_truncated(tmp_path):
    save_bank(DecisionBank({i: init_model(seed=i, input_dim=6, hidden=8) for i in range(2)}), tmp_path / "b.bin")
    blob = (tmp_path / "b.bin").read_bytes()
    # inside the count, the first type id, the first model's weights, the last byte
    for cut in (10, 14, 60, len(blob) - 1):
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        with pytest.raises(ModelError, match="truncated file"):
            load_bank(tmp_path / "cut.bin")


def test_load_bank_rejects_too_few_widths(tmp_path):
    save_bank(DecisionBank({0: init_model(seed=0, input_dim=6, hidden=8)}), tmp_path / "b.bin")
    blob = bytearray((tmp_path / "b.bin").read_bytes())
    at = 8 + 4 + 4  # magic, model count, type id, then the width count
    for count in (0, 1):
        blob[at:at + 4] = np.uint32(count).tobytes()
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        with pytest.raises(ModelError, match="at least 2 layer widths"):
            load_bank(tmp_path / "bad.bin")


def test_load_bank_rejects_bytes_after_the_data(tmp_path):
    """One appended byte, or a model count lowered by one, leaves bytes
    after the last model."""
    save_bank(DecisionBank({i: init_model(seed=i, input_dim=6, hidden=8) for i in range(2)}), tmp_path / "b.bin")
    blob = (tmp_path / "b.bin").read_bytes()
    for bad in (blob + b"\0", blob[:8] + np.uint32(1).tobytes() + blob[12:]):
        (tmp_path / "bad.bin").write_bytes(bad)
        with pytest.raises(ModelError, match="bytes after the end of the data"):
            load_bank(tmp_path / "bad.bin")


def _one_model_bank(dims, floats=None):
    """A bank file holding one model (type id 0) of the given layer widths,
    followed by zero float32 values: by default as many as the reader takes
    for those widths (weights, biases, then four normalization arrays of
    width dims[1] per hidden layer)."""
    if floats is None:
        floats = sum(a * b + b for a, b in zip(dims, dims[1:])) + 4 * (len(dims) - 2) * dims[1]
    return MODEL_MAGIC + struct.pack(f"<III{len(dims)}I", 1, 0, len(dims), *dims) + b"\0" * (4 * floats)


@pytest.mark.parametrize("dims", [(2, 3, 4, 4, 1), (0, 3, 1), (2, 3, 2)],
                         ids=["unequal-hidden", "zero-input", "two-outputs"])
def test_load_bank_rejects_widths_the_writer_cannot_write(tmp_path, dims):
    """Widths that _write_model never writes raise instead of loading a model
    that forward cannot run or save_bank cannot reproduce."""
    (tmp_path / "b.bin").write_bytes(_one_model_bank(dims))
    with pytest.raises(ModelError, match="layer widths must be"):
        load_bank(tmp_path / "b.bin")


def test_load_bank_huge_widths_are_truncated_not_overflowed(tmp_path):
    """Widths whose product overflows int64 ask for more bytes than the file
    holds; the size is counted in Python ints, so it never goes negative."""
    (tmp_path / "b.bin").write_bytes(_one_model_bank((2**32 - 1, 2**32 - 1, 1), floats=64))
    with pytest.raises(ModelError, match="truncated file"):
        load_bank(tmp_path / "b.bin")


def test_load_model_rejects_bank(tmp_path):
    bank = DecisionBank({i: init_model(seed=i, input_dim=4, hidden=8) for i in range(2)})
    save_bank(bank, tmp_path / "b.bin")
    with pytest.raises(ModelError):
        load_model(tmp_path / "b.bin")


def test_load_bank_bad_magic(tmp_path):
    (tmp_path / "junk.bin").write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(ModelError):
        load_bank(tmp_path / "junk.bin")
