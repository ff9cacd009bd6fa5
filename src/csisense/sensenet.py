"""Shallow convolutional detector/locator with analytic backpropagation.

Shared trunk (two same-padded 3x3 convolutions, 2x2 max pooling, one dense
layer) feeding either a sigmoid detection neuron or a two-neuron linear
position head.  Everything is float64 numpy; gradients are exact derivatives
of the computed loss, which keeps them finite-difference checkable.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ConfigError, NonFiniteLoss, ShapeMismatch
from .frame import NormStats, normalize

PROB_CLAMP = 1e-7
# Samples per inference forward pass: keeps conv2's patch matrix (~5 MB at
# scenario1 shape) small instead of growing it with the batch.
INFER_CHUNK = 32

MAGIC = b"CSNN"
VERSION = 1


@dataclass(frozen=True)
class Architecture:
    input_shape: tuple[int, int, int]          # (rows, beams, 2)
    conv_filters: tuple[int, int] = (16, 32)
    kernel: int = 3
    dense_units: int = 64
    pool: int = 2

    @property
    def flat_units(self) -> int:
        h, w, _ = self.input_shape
        return (h // self.pool) * (w // self.pool) * self.conv_filters[1]

    def __post_init__(self):
        h, w, c = self.input_shape
        if c != 2:
            raise ConfigError(f"expected 2 input channels, got {c}")
        if h < self.pool or w < self.pool:
            raise ConfigError(f"input {h}x{w} too small for {self.pool}x{self.pool} pooling")


# Parameter fields in fixed serialization order.
PARAM_FIELDS = (
    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "dense_w", "dense_b", "detect_w", "detect_b",
    "locate_w", "locate_b",
)


@dataclass
class ModelParams:
    arch: Architecture
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    detect_w: np.ndarray
    detect_b: np.ndarray
    locate_w: np.ndarray
    locate_b: np.ndarray

    def items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, *[getattr(self, n).copy() for n in PARAM_FIELDS])


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(arch: Architecture, seed) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in fixed field order."""
    rng = np.random.default_rng(seed)
    k = arch.kernel
    c_in = arch.input_shape[2]
    f1, f2 = arch.conv_filters
    flat = arch.flat_units
    d = arch.dense_units
    return ModelParams(
        arch=arch,
        conv1_w=_glorot(rng, (k, k, c_in, f1), k * k * c_in, k * k * f1),
        conv1_b=np.zeros(f1),
        conv2_w=_glorot(rng, (k, k, f1, f2), k * k * f1, k * k * f2),
        conv2_b=np.zeros(f2),
        dense_w=_glorot(rng, (flat, d), flat, d),
        dense_b=np.zeros(d),
        detect_w=_glorot(rng, (d, 1), d, 1),
        detect_b=np.zeros(1),
        locate_w=_glorot(rng, (d, 2), d, 2),
        locate_b=np.zeros(2),
    )


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
           crop: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 convolution as one (N*H*W, k*k*C) @ (k*k*C, F) GEMM.

    `crop=(ho, wo)` computes only the output rows < ho and columns < wo.
    Returns the (N, ho, wo, F) output and the patch matrix for the backward pass.
    """
    k = w.shape[0]
    pad = (k - 1) // 2
    n, h, wid, c = x.shape
    ho, wo = crop or (h, wid)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    s = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(n, ho, wo, k, k, c), strides=(s[0], s[1], s[2], s[1], s[2], s[3]),
    ).reshape(n * ho * wo, k * k * c)
    out = cols @ w.reshape(-1, w.shape[3])
    out += b
    return out.reshape(n, ho, wo, w.shape[3]), cols


def conv2d_backward(
    dout: np.ndarray, cols: np.ndarray, x_shape: tuple, w: np.ndarray,
    need_dx: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of `conv2d` for an upstream `dout` over its (possibly cropped)
    output.  dx is the sum over kernel offsets (i, j) of dout @ w[i, j].T,
    each added into the zero-padded input at that offset."""
    k = w.shape[0]
    pad = (k - 1) // 2
    n, h, wid, c = x_shape
    ho, wo = dout.shape[1:3]
    dflat = dout.reshape(-1, w.shape[3])
    dw = (cols.T @ dflat).reshape(w.shape)
    db = dflat.sum(axis=0)
    if not need_dx:
        return None, dw, db
    dxp = np.zeros((n, h + 2 * pad, wid + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + ho, j:j + wo, :] += (dflat @ w[i, j].T).reshape(n, ho, wo, c)
    return dxp[:, pad:pad + h, pad:pad + wid, :], dw, db


def maxpool(x: np.ndarray, p: int, route: bool = True) -> tuple[np.ndarray, np.ndarray | None, tuple]:
    """p x p max pooling with stride p; trailing rows/cols that do not fill a
    window are dropped.  Returns output, the routing index of each window's
    first (row-major) maximum, or None when `route` is false, and the input shape."""
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    # window position q = (q // p, q % p) of every window, as a strided view
    taps = [x[:, q // p: ho * p: p, q % p: wo * p: p, :] for q in range(p * p)]
    out = functools.reduce(np.maximum, taps)
    if not route:
        return out, None, x.shape
    idx = np.zeros(out.shape, dtype=np.intp)
    for q in reversed(range(p * p)):
        idx = np.where(taps[q] == out, q, idx)
    return out, idx, x.shape


def maxpool_backward(dout: np.ndarray, idx: np.ndarray, x_shape: tuple, p: int) -> np.ndarray:
    n, h, w, c = x_shape
    ho, wo = h // p, w // p
    dx = np.zeros(x_shape)
    for q in range(p * p):
        dx[:, q // p: ho * p: p, q % p: wo * p: p, :] = np.where(idx == q, dout, 0.0)
    return dx


def _as_batch(params: ModelParams, tensor: np.ndarray) -> np.ndarray:
    x = np.asarray(tensor, dtype=float)
    if x.shape == params.arch.input_shape:
        x = x[None]
    if x.ndim != 4 or x.shape[1:] != params.arch.input_shape:
        raise ShapeMismatch(
            f"input {x.shape} incompatible with model input {params.arch.input_shape}"
        )
    return x


def _trunk_forward(params: ModelParams, x: np.ndarray, train: bool = True) -> tuple[np.ndarray, dict | None]:
    """Trunk features, plus the backward-pass cache when `train` is set.

    conv2 is computed only over the window pooling reads, and its ReLU runs
    after pooling (max commutes with ReLU) on the p*p times smaller map.  The
    backward pass takes each ReLU mask from its output (a > 0 iff z > 0), so
    conv1's and the dense layer's ReLUs overwrite their inputs.
    """
    p = params.arch.pool
    n, h, w, _ = x.shape
    z1, cols1 = conv2d(x, params.conv1_w, params.conv1_b)
    a1 = np.maximum(z1, 0.0, out=z1)
    z2, cols2 = conv2d(a1, params.conv2_w, params.conv2_b, crop=(h // p * p, w // p * p))
    pooled, pidx, pshape = maxpool(z2, p, route=train)
    flat = np.maximum(pooled.reshape(n, -1), 0.0)
    z3 = flat @ params.dense_w + params.dense_b
    a3 = np.maximum(z3, 0.0, out=z3)
    if not train:
        return a3, None
    return a3, dict(x=x, cols1=cols1, a1=a1, cols2=cols2, pidx=pidx, pshape=pshape,
                    flat=flat, a3=a3)


def _trunk_backward(params: ModelParams, cache: dict, da3: np.ndarray, grads: dict) -> None:
    dz3 = da3 * (cache["a3"] > 0)
    grads["dense_w"] = cache["flat"].T @ dz3
    grads["dense_b"] = dz3.sum(axis=0)
    dflat = (dz3 @ params.dense_w.T) * (cache["flat"] > 0)
    pidx = cache["pidx"]
    dz2 = maxpool_backward(dflat.reshape(pidx.shape), pidx, cache["pshape"], params.arch.pool)
    da1, grads["conv2_w"], grads["conv2_b"] = conv2d_backward(
        dz2, cache["cols2"], cache["a1"].shape, params.conv2_w
    )
    dz1 = da1 * (cache["a1"] > 0)
    _, grads["conv1_w"], grads["conv1_b"] = conv2d_backward(
        dz1, cache["cols1"], cache["x"].shape, params.conv1_w, need_dx=False
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))     # never overflows: exp(-z) for z >= 0, exp(z) below
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def detect_batch(params: ModelParams, tensors: np.ndarray) -> np.ndarray:
    feats, _ = _trunk_forward(params, _as_batch(params, tensors), train=False)
    z = feats @ params.detect_w + params.detect_b
    return _sigmoid(z)[:, 0]


def locate_batch(params: ModelParams, tensors: np.ndarray) -> np.ndarray:
    feats, _ = _trunk_forward(params, _as_batch(params, tensors), train=False)
    return feats @ params.locate_w + params.locate_b


def _head(params: ModelParams, feats: np.ndarray, y: np.ndarray, loss: str
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Per-sample loss and metric of one head on a batch, the derivative of the
    batch-mean loss with respect to the head output, and the head's name.

    'bce': binary cross-entropy on the detection head with probabilities
    clamped away from {0, 1}, metric 1 for a correct decision; 'mse': squared
    Euclidean position error, metric the error in meters.
    """
    n = feats.shape[0]
    if loss == "bce":
        y = np.asarray(y, dtype=float).reshape(n)
        p = _sigmoid(feats @ params.detect_w + params.detect_b)[:, 0]
        pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        losses = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
        dpc = -(y / pc - (1.0 - y) / (1.0 - pc)) / n
        dp = np.where((p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP), dpc, 0.0)
        return losses, (p >= 0.5) == (y >= 0.5), (dp * p * (1.0 - p))[:, None], "detect"
    if loss == "mse":
        diff = feats @ params.locate_w + params.locate_b - np.asarray(y, dtype=float).reshape(n, 2)
        return np.sum(diff * diff, axis=1), np.hypot(diff[:, 0], diff[:, 1]), 2.0 * diff / n, "locate"
    raise ConfigError(f"unknown loss kind {loss!r}")


def loss_and_grads(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    loss: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-mean loss (see `_head`) plus exact gradients for every parameter;
    the unused head's gradient is zero."""
    x_raw, y = batch
    x = _as_batch(params, x_raw)
    if x.shape[0] == 0:
        raise ShapeMismatch("empty batch")
    feats, cache = _trunk_forward(params, x)
    losses, _, dout, head = _head(params, feats, y, loss)
    grads = {f"{head}_w": feats.T @ dout, f"{head}_b": dout.sum(axis=0)}
    _trunk_backward(params, cache, dout @ getattr(params, f"{head}_w").T, grads)
    for name, arr in params.items():
        grads.setdefault(name, np.zeros_like(arr))
    return float(np.mean(losses)), grads


@dataclass
class TrainConfig:
    loss: str = "bce"                  # bce -> detection head, mse -> position head
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 40
    seed: int = 0
    patience: int = 0                  # 0 disables early stopping

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        for name, value, low in (("batch size", self.batch_size, 1), ("epochs", self.epochs, 1),
                                 ("patience", self.patience, 0)):
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if self.loss not in ("bce", "mse"):
            raise ConfigError(f"loss must be bce or mse, got {self.loss!r}")


@dataclass(frozen=True)
class LogEntry:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float


def _eval_loss(params: ModelParams, x: np.ndarray, y: np.ndarray, loss: str) -> tuple[float, float]:
    """(loss, metric) without gradients, as means over the samples (`_head`)."""
    total = 0.0
    metric_acc = 0.0
    for lo in range(0, x.shape[0], INFER_CHUNK):
        feats, _ = _trunk_forward(params, x[lo:lo + INFER_CHUNK], train=False)
        losses, metric, _, _ = _head(params, feats, y[lo:lo + INFER_CHUNK], loss)
        total += float(np.sum(losses))
        metric_acc += float(np.sum(metric))
    return total / x.shape[0], metric_acc / x.shape[0]


def _adam_step(arr: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
               config: TrainConfig, bc1: float, bc2: float) -> None:
    """One in-place Adam update, rounding exactly like
    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    arr -= lr * (m/bc1) / (sqrt(v/bc2) + eps)."""
    m *= config.beta1
    m += (1 - config.beta1) * g
    v *= config.beta2
    v += (1 - config.beta2) * (g * g)
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += config.epsilon
    step = m / bc1
    step *= config.learning_rate
    step /= denom
    arr -= step


def train(
    train_data: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
    arch: Architecture | None = None,
) -> tuple[ModelParams, list[LogEntry]]:
    """Mini-batch Adam training; returns the best-validation checkpoint.

    Inputs are pre-normalized tensors.  Single-threaded and fully seeded:
    identical (data, config) always yields identical parameters.
    """
    x, y = (np.asarray(a, dtype=float) for a in train_data)
    if arch is None:
        arch = Architecture(input_shape=tuple(x.shape[1:]))
    params = init_params(arch, config.seed)
    rng = np.random.default_rng(config.seed + 1)

    m = {name: np.zeros_like(a) for name, a in params.items()}
    v = {name: np.zeros_like(a) for name, a in params.items()}
    t = 0

    best = params.copy()
    best_val = math.inf
    stale = 0
    log: list[LogEntry] = []
    n = x.shape[0]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            sel = order[lo:lo + config.batch_size]
            value, grads = loss_and_grads(params, (x[sel], y[sel]), config.loss)
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"non-finite training loss {value} at epoch {epoch}, batch {lo // config.batch_size}"
                )
            epoch_loss += value * len(sel)
            t += 1
            bc1 = 1.0 - config.beta1 ** t
            bc2 = 1.0 - config.beta2 ** t
            for name, arr in params.items():
                _adam_step(arr, grads[name], m[name], v[name], config, bc1, bc2)
        train_loss = epoch_loss / n

        if validation is not None and len(validation[0]):
            val_loss, val_metric = _eval_loss(
                params, np.asarray(validation[0], dtype=float),
                np.asarray(validation[1], dtype=float), config.loss,
            )
            if not math.isfinite(val_loss):
                raise NonFiniteLoss(f"non-finite validation loss at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best = params.copy()
                stale = 0
            else:
                stale += 1
        else:
            val_loss, val_metric = math.nan, math.nan
            best = params.copy()
        log.append(LogEntry(epoch, train_loss, val_loss, val_metric))
        if config.patience and stale >= config.patience:
            break
    return best, log


def write_training_log(fp: IO[str], log: Iterable[LogEntry]) -> None:
    fp.write("epoch,train_loss,val_loss,val_metric\n")
    for e in log:
        fp.write(f"{e.epoch},{e.train_loss!r},{e.val_loss!r},{e.val_metric!r}\n")


@dataclass
class TrainedModel:
    """Parameters plus the frozen normalization stats they were trained with."""

    params: ModelParams
    stats: NormStats
    task: str                    # detect | locate
    threshold: float = 0.5

    def prob_batch(self, tensors: np.ndarray) -> np.ndarray:
        x = normalize(np.asarray(tensors, dtype=float), self.stats)
        return np.concatenate([detect_batch(self.params, x[lo:lo + INFER_CHUNK])
                               for lo in range(0, len(x), INFER_CHUNK)])

    def locate_batch(self, tensors: np.ndarray) -> np.ndarray:
        x = normalize(np.asarray(tensors, dtype=float), self.stats)
        return np.concatenate([locate_batch(self.params, x[lo:lo + INFER_CHUNK])
                               for lo in range(0, len(x), INFER_CHUNK)])


def save_model(path: str | Path, model: TrainedModel) -> None:
    """CSNN binary artifact: header, JSON descriptor, float64 LE parameters."""
    arch = model.params.arch
    desc = {
        "input_shape": list(arch.input_shape),
        "conv_filters": list(arch.conv_filters),
        "kernel": arch.kernel,
        "dense_units": arch.dense_units,
        "pool": arch.pool,
        "task": model.task,
        "threshold": model.threshold,
        "norm_mean": list(model.stats.mean),
        "norm_std": list(model.stats.std),
    }
    blob = json.dumps(desc, sort_keys=True).encode()
    with open(path, "wb") as fp:
        fp.write(MAGIC)
        fp.write(struct.pack("<HI", VERSION, len(blob)))
        fp.write(blob)
        for _, arr in model.params.items():
            fp.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path: str | Path) -> TrainedModel:
    with open(path, "rb") as fp:
        if fp.read(4) != MAGIC:
            raise ConfigError(f"{path}: not a model artifact")
        header = fp.read(6)
        if len(header) != 6:
            raise ConfigError(f"{path}: truncated model header")
        version, blob_len = struct.unpack("<HI", header)
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported model version {version}")
        try:
            desc = json.loads(fp.read(blob_len).decode())
            arch = Architecture(input_shape=tuple(int(v) for v in desc["input_shape"]),
                                conv_filters=tuple(int(v) for v in desc["conv_filters"]),
                                **{k: int(desc[k]) for k in ("kernel", "dense_units", "pool")})
            stats = NormStats(mean=tuple(float(v) for v in desc["norm_mean"]),
                              std=tuple(float(v) for v in desc["norm_std"]))
            task = desc["task"]
            threshold = float(desc.get("threshold", 0.5))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(
                f"{path}: malformed model descriptor: {type(exc).__name__}: {exc}") from exc
        if task not in ("detect", "locate"):
            raise ConfigError(f"{path}: malformed model descriptor: task {task!r}")
        ref = init_params(arch, 0)
        arrays = {}
        for name, arr in ref.items():
            raw = fp.read(arr.size * 8)
            if len(raw) != arr.size * 8:
                raise ConfigError(f"{path}: truncated parameter block {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape).copy()
    params = ModelParams(arch, *[arrays[n] for n in PARAM_FIELDS])
    return TrainedModel(params=params, stats=stats, task=task, threshold=threshold)
