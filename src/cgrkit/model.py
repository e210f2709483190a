"""Grasp decision model: a seven-layer skip-connected classifier over
flattened CGRs (480 inputs), trained with binary cross-entropy and Adam.

Layers 1-6 are affine + per-feature normalization + ReLU; the output of
layer 2 is added to the input of layer 5; layer 7 is a single logistic
unit. Normalization uses batch statistics in training mode and running
statistics in inference mode. Everything is plain numpy with hand-written
backpropagation.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import _read_end, _read_exact

MODEL_MAGIC = b"CGRKNN1\0"

N_LAYERS = 7
SKIP_FROM = 1  # output of layer 2 (0-based index 1)
SKIP_TO = 4  # input of layer 5 (0-based index 4)

BATCH_SIZE = 128
# training multiplies the learning rate by DECAY_FACTOR at the start of each
# of the DECAY_EPOCHS (1-based)
DECAY_EPOCHS = (10, 15)
DECAY_FACTOR = 0.5

_P_CLAMP = 1e-7
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1  # weight of each batch in the running statistics


class ModelError(ValueError):
    pass


@dataclass
class ModelParams:
    weights: list  # per layer, (in, out)
    biases: list  # per layer, (out,)
    bn_gamma: list  # layers 0..n-2
    bn_beta: list
    running_mean: list
    running_var: list
    input_dim: int = 480
    hidden: int = 1024

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def flat_parameters(self) -> list:
        """(name, array) pairs for every trainable parameter."""
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        for i, (g, b) in enumerate(zip(self.bn_gamma, self.bn_beta)):
            out.append((f"gamma{i}", g))
            out.append((f"beta{i}", b))
        return out


def init_model(seed: int = 0, input_dim: int = 480, hidden: int = 1024) -> ModelParams:
    """Fan-in-scaled uniform weights, zero biases, identity normalization."""
    rng = np.random.default_rng(seed)
    dims = [input_dim] + [hidden] * (N_LAYERS - 1) + [1]
    weights, biases = [], []
    for i in range(N_LAYERS):
        fan_in = dims[i]
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])))
        biases.append(np.zeros(dims[i + 1]))
    n_bn = N_LAYERS - 1
    return ModelParams(
        weights,
        biases,
        [np.ones(hidden) for _ in range(n_bn)],
        [np.zeros(hidden) for _ in range(n_bn)],
        [np.zeros(hidden) for _ in range(n_bn)],
        [np.ones(hidden) for _ in range(n_bn)],
        input_dim,
        hidden,
    )


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(model: ModelParams, x: np.ndarray, training: bool = False) -> np.ndarray:
    """Success probabilities for a batch (or single vector) of inputs."""
    p, _ = _forward_full(model, np.atleast_2d(np.asarray(x, dtype=float)), training)
    if np.ndim(x) == 1:
        return float(p[0])
    return p


def _forward_full(model: ModelParams, x: np.ndarray, training: bool):
    """Forward pass keeping the intermediates needed for backprop."""
    if not np.all(np.isfinite(x)):
        raise ModelError("non-finite input")
    cache = {"x": x, "layers": []}
    h = x
    skip_out = None
    n = model.n_layers
    for i in range(n - 1):
        if i == SKIP_TO:
            h = h + skip_out
        z = h @ model.weights[i] + model.biases[i]
        if training:
            mean = z.mean(axis=0)
            var = z.var(axis=0)
        else:
            mean = model.running_mean[i]
            var = model.running_var[i]
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
        z_hat = (z - mean) * inv_std
        a = model.bn_gamma[i] * z_hat + model.bn_beta[i]
        r = np.maximum(a, 0.0)
        cache["layers"].append(
            {"h_in": h, "z_hat": z_hat, "inv_std": inv_std, "relu_mask": r > 0, "mean": mean, "var": var}
        )
        if i == SKIP_FROM:
            skip_out = r
        h = r
    logits = h @ model.weights[n - 1] + model.biases[n - 1]
    p = _sigmoid(logits[:, 0])
    cache["h_last"] = h
    cache["p"] = p
    return p, cache


def loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probability clamping."""
    p = np.clip(np.asarray(predictions, dtype=float), _P_CLAMP, 1.0 - _P_CLAMP)
    y = np.asarray(labels, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def gradients(model: ModelParams, x: np.ndarray, y: np.ndarray, training: bool = True):
    """Analytic gradients of the batch loss for every trainable parameter.

    Returns (loss_value, grads dict keyed like flat_parameters()). In
    training mode the dict also holds each normalized layer's batch mean and
    variance as mean{i} and var{i}, for `train`'s running statistics.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    B = len(x)
    p, cache = _forward_full(model, x, training)
    L = loss(p, y)
    grads = {}
    n = model.n_layers
    pc = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    # dL/dlogit for clamped BCE through sigmoid
    inside = (p > _P_CLAMP) & (p < 1.0 - _P_CLAMP)
    dlogit = np.where(inside, (pc - y) / B, (-y / pc + (1 - y) / (1 - pc)) * p * (1 - p) / B)
    dlogit = dlogit[:, None]
    grads[f"w{n-1}"] = cache["h_last"].T @ dlogit
    grads[f"b{n-1}"] = dlogit.sum(axis=0)
    dh = dlogit @ model.weights[n - 1].T
    d_skip = None
    for i in range(n - 2, -1, -1):
        lc = cache["layers"][i]
        dr = dh
        if i == SKIP_FROM and d_skip is not None:
            dr = dr + d_skip
        da = dr * lc["relu_mask"]
        grads[f"gamma{i}"] = (da * lc["z_hat"]).sum(axis=0)
        grads[f"beta{i}"] = da.sum(axis=0)
        dz_hat = da * model.bn_gamma[i]
        if training:
            grads[f"mean{i}"], grads[f"var{i}"] = lc["mean"], lc["var"]
            # standard batchnorm backward
            dz = (
                dz_hat
                - dz_hat.mean(axis=0)
                - lc["z_hat"] * (dz_hat * lc["z_hat"]).mean(axis=0)
            ) * lc["inv_std"]
        else:
            dz = dz_hat * lc["inv_std"]
        grads[f"w{i}"] = lc["h_in"].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ model.weights[i].T
        if i == SKIP_TO:
            d_skip = dh.copy()
    return L, grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-4
    seed: int = 0
    hidden: int = 1024

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ModelError("epochs, learning_rate must be positive")


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    holdout_accuracy: float | None = None


def train(
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig | None = None,
    holdout: tuple | None = None,
    warn=print,
) -> tuple[ModelParams, list[EpochLog]]:
    """Adam training loop over shuffled mini-batches; deterministic per seed."""
    config = config or TrainConfig()
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    classes = np.unique(labels)
    if len(classes) < 2:
        warn("warning: training data contains a single class")
    model = init_model(config.seed, input_dim=features.shape[1], hidden=config.hidden)
    rng = np.random.default_rng(config.seed)
    params = model.flat_parameters()
    m1 = {name: np.zeros_like(arr) for name, arr in params}
    m2 = {name: np.zeros_like(arr) for name, arr in params}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    lr = config.learning_rate
    logs = []
    n = len(features)
    for epoch in range(1, config.epochs + 1):
        if epoch in DECAY_EPOCHS:
            lr *= DECAY_FACTOR
        order = rng.permutation(n)
        epoch_losses = []
        for s in range(0, n, BATCH_SIZE):
            idx = order[s:s + BATCH_SIZE]
            if len(idx) < 2:
                continue  # batch statistics need at least 2 samples
            xb, yb = features[idx], labels[idx]
            L, grads = gradients(model, xb, yb, training=True)
            mom = _BN_MOMENTUM
            for i in range(model.n_layers - 1):
                model.running_mean[i] = (1 - mom) * model.running_mean[i] + mom * grads[f"mean{i}"]
                model.running_var[i] = (1 - mom) * model.running_var[i] + mom * grads[f"var{i}"]
            step += 1
            for name, arr in model.flat_parameters():
                g = grads[name]
                m1[name] = beta1 * m1[name] + (1 - beta1) * g
                m2[name] = beta2 * m2[name] + (1 - beta2) * g * g
                mh = m1[name] / (1 - beta1**step)
                vh = m2[name] / (1 - beta2**step)
                arr -= lr * mh / (np.sqrt(vh) + eps)
            epoch_losses.append(L)
        acc = None
        if holdout is not None:
            hx, hy = holdout
            pred = forward(model, np.asarray(hx, dtype=float), training=False)
            acc = float(np.mean((pred >= 0.5) == (np.asarray(hy) >= 0.5)))
        logs.append(EpochLog(epoch, float(np.mean(epoch_losses)) if epoch_losses else np.nan, acc))
    return model, logs


def write_training_log(logs: list[EpochLog], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_loss", "holdout_accuracy"])
        for log in logs:
            writer.writerow([log.epoch, f"{log.mean_loss:.6f}", "" if log.holdout_accuracy is None else f"{log.holdout_accuracy:.4f}"])


# ---------------------------------------------------------------------------
# Decision bank


@dataclass
class DecisionBank:
    """One sub-model per grasp type of a hand."""

    models: dict  # grasp_type_id -> ModelParams


# ---------------------------------------------------------------------------
# Serialization


def _write_model(f, model: ModelParams) -> None:
    dims = [model.input_dim] + [model.hidden] * (model.n_layers - 1) + [1]
    f.write(struct.pack("<I", len(dims)))
    f.write(struct.pack(f"<{len(dims)}I", *dims))
    for arrs in (model.weights, model.biases, model.bn_gamma, model.bn_beta, model.running_mean, model.running_var):
        for a in arrs:
            f.write(np.asarray(a, dtype="<f4").tobytes())


def _read_model(f) -> ModelParams:
    (nd,) = struct.unpack("<I", _read_exact(f, 4, ModelError))
    dims = struct.unpack(f"<{nd}I", _read_exact(f, 4 * nd, ModelError))
    if nd < 2:
        raise ModelError(f"a model needs at least 2 layer widths, got {nd}")
    if dims[0] < 1 or any(d != dims[1] for d in dims[2:-1]) or dims[-1] != 1:
        raise ModelError("layer widths must be an input width >= 1, equal hidden widths and an output width of 1")
    n_layers = nd - 1
    hidden = dims[1]

    def read_arr(shape):
        count = math.prod(shape)
        return np.frombuffer(_read_exact(f, 4 * count, ModelError), dtype="<f4").astype(float).reshape(shape)

    weights = [read_arr((dims[i], dims[i + 1])) for i in range(n_layers)]
    biases = [read_arr((dims[i + 1],)) for i in range(n_layers)]
    n_bn = n_layers - 1
    gamma = [read_arr((hidden,)) for _ in range(n_bn)]
    beta = [read_arr((hidden,)) for _ in range(n_bn)]
    rmean = [read_arr((hidden,)) for _ in range(n_bn)]
    rvar = [read_arr((hidden,)) for _ in range(n_bn)]
    return ModelParams(weights, biases, gamma, beta, rmean, rvar, dims[0], hidden)


def save_model(model: ModelParams, path) -> None:
    """Single-model file: stored as a one-entry bank under type id 0."""
    save_bank(DecisionBank({0: model}), path)


def save_bank(bank: DecisionBank, path) -> None:
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", len(bank.models)))
        for type_id in sorted(bank.models):
            f.write(struct.pack("<I", type_id))
            _write_model(f, bank.models[type_id])


def load_model(path) -> ModelParams:
    bank = load_bank(path)
    if len(bank.models) != 1:
        raise ModelError("file holds a bank, not a single model")
    return next(iter(bank.models.values()))


def load_bank(path) -> DecisionBank:
    with open(path, "rb") as f:
        if f.read(8) != MODEL_MAGIC:
            raise ModelError("bad magic")
        (count,) = struct.unpack("<I", _read_exact(f, 4, ModelError))
        models = {}
        for _ in range(count):
            (type_id,) = struct.unpack("<I", _read_exact(f, 4, ModelError))
            if type_id in models:
                raise ModelError(f"repeated grasp type id {type_id}")
            models[type_id] = _read_model(f)
        _read_end(f, ModelError)
        return DecisionBank(models)
