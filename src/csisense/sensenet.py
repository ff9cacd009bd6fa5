"""Shallow convolutional detector/locator with analytic backpropagation.

Shared trunk (two same-padded 3x3 convolutions, 2x2 max pooling, one dense
layer) feeding either a sigmoid detection neuron or a two-neuron linear
position head.  Everything is float64 numpy; gradients are exact derivatives
of the computed loss, which keeps them finite-difference checkable.
"""

from __future__ import annotations

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
    def pooled_shape(self) -> tuple[int, int, int]:
        h, w, _ = self.input_shape
        return (h // self.pool, w // self.pool, self.conv_filters[1])

    @property
    def flat_units(self) -> int:
        ph, pw, pc = self.pooled_shape
        return ph * pw * pc

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


def _im2col(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(N,H,W,C) -> (N,H,W,k*k*C) patch matrix for stride-1 same convolution."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, h, w, k, k, c),
        strides=(s[0], s[1], s[2], s[1], s[2], s[3]),
    )
    return view.reshape(n, h, w, k * k * c)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded stride-1 convolution; returns output and the patch cache."""
    k = w.shape[0]
    cols = _im2col(x, k, pad=(k - 1) // 2)
    out = cols @ w.reshape(-1, w.shape[3]) + b
    return out, cols

def conv2d_backward(
    dout: np.ndarray, cols: np.ndarray, x_shape: tuple, w: np.ndarray,
    need_dx: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    k = w.shape[0]
    pad = (k - 1) // 2
    n, h, wid, c = x_shape
    wmat = w.reshape(-1, w.shape[3])
    dw = (cols.reshape(-1, wmat.shape[0]).T @ dout.reshape(-1, w.shape[3])).reshape(w.shape)
    db = dout.sum(axis=(0, 1, 2))
    if not need_dx:
        return None, dw, db
    dcols = (dout @ wmat.T).reshape(n, h, wid, k, k, c)
    dxp = np.zeros((n, h + 2 * pad, wid + 2 * pad, c))
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + h, j:j + wid, :] += dcols[:, :, :, i, j, :]
    dx = dxp[:, pad:pad + h, pad:pad + wid, :]
    return dx, dw, db


def maxpool(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """p x p max pooling with stride p; trailing rows/cols that do not fill a
    window are dropped.  Returns output, argmax indices, and the cache shape."""
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xc = x[:, : ho * p, : wo * p, :]
    xr = (
        xc.reshape(n, ho, p, wo, p, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, ho, wo, p * p, c)
    )
    idx = xr.argmax(axis=3)
    out = np.take_along_axis(xr, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, idx, (n, h, w, c)


def maxpool_backward(dout: np.ndarray, idx: np.ndarray, x_shape: tuple, p: int) -> np.ndarray:
    n, h, w, c = x_shape
    ho, wo = h // p, w // p
    dxr = np.zeros((n, ho, wo, p * p, c))
    np.put_along_axis(dxr, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dxc = (
        dxr.reshape(n, ho, wo, p, p, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(n, ho * p, wo * p, c)
    )
    dx = np.zeros(x_shape)
    dx[:, : ho * p, : wo * p, :] = dxc
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


def _trunk_forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    z1, cols1 = conv2d(x, params.conv1_w, params.conv1_b)
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = conv2d(a1, params.conv2_w, params.conv2_b)
    a2 = np.maximum(z2, 0.0)
    pooled, pidx, pshape = maxpool(a2, params.arch.pool)
    flat = pooled.reshape(x.shape[0], -1)
    z3 = flat @ params.dense_w + params.dense_b
    a3 = np.maximum(z3, 0.0)
    cache = dict(x=x, z1=z1, cols1=cols1, a1=a1, z2=z2, cols2=cols2,
                 pidx=pidx, pshape=pshape, flat=flat, z3=z3, a3=a3)
    return a3, cache


def _trunk_backward(params: ModelParams, cache: dict, da3: np.ndarray, grads: dict) -> None:
    dz3 = da3 * (cache["z3"] > 0)
    grads["dense_w"] = cache["flat"].T @ dz3
    grads["dense_b"] = dz3.sum(axis=0)
    dflat = dz3 @ params.dense_w.T
    ph, pw, pc = params.arch.pooled_shape
    dpooled = dflat.reshape(-1, ph, pw, pc)
    da2 = maxpool_backward(dpooled, cache["pidx"], cache["pshape"], params.arch.pool)
    dz2 = da2 * (cache["z2"] > 0)
    da1, grads["conv2_w"], grads["conv2_b"] = conv2d_backward(
        dz2, cache["cols2"], cache["a1"].shape, params.conv2_w
    )
    dz1 = da1 * (cache["z1"] > 0)
    _, grads["conv1_w"], grads["conv1_b"] = conv2d_backward(
        dz1, cache["cols1"], cache["x"].shape, params.conv1_w, need_dx=False
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def detect_batch(params: ModelParams, tensors: np.ndarray) -> np.ndarray:
    feats, _ = _trunk_forward(params, _as_batch(params, tensors))
    z = feats @ params.detect_w + params.detect_b
    return _sigmoid(z)[:, 0]


def locate_batch(params: ModelParams, tensors: np.ndarray) -> np.ndarray:
    feats, _ = _trunk_forward(params, _as_batch(params, tensors))
    return feats @ params.locate_w + params.locate_b


def loss_and_grads(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    loss: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus exact gradients for every parameter.

    'bce': binary cross-entropy on the detection head with probabilities
    clamped away from {0, 1}; 'mse': mean squared Euclidean position error.
    """
    x_raw, y = batch
    x = _as_batch(params, x_raw)
    n = x.shape[0]
    if n == 0:
        raise ShapeMismatch("empty batch")
    feats, cache = _trunk_forward(params, x)
    grads: dict[str, np.ndarray] = {}

    if loss == "bce":
        y = np.asarray(y, dtype=float).reshape(n)
        z = feats @ params.detect_w + params.detect_b
        p = _sigmoid(z)[:, 0]
        pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        value = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
        dpc = -(y / pc - (1.0 - y) / (1.0 - pc)) / n
        dp = np.where((p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP), dpc, 0.0)
        dz = (dp * p * (1.0 - p))[:, None]
        grads["detect_w"] = feats.T @ dz
        grads["detect_b"] = dz.sum(axis=0)
        dfeats = dz @ params.detect_w.T
        grads["locate_w"] = np.zeros_like(params.locate_w)
        grads["locate_b"] = np.zeros_like(params.locate_b)
    elif loss == "mse":
        y = np.asarray(y, dtype=float).reshape(n, 2)
        pred = feats @ params.locate_w + params.locate_b
        diff = pred - y
        value = float(np.mean(np.sum(diff * diff, axis=1)))
        dpred = 2.0 * diff / n
        grads["locate_w"] = feats.T @ dpred
        grads["locate_b"] = dpred.sum(axis=0)
        dfeats = dpred @ params.locate_w.T
        grads["detect_w"] = np.zeros_like(params.detect_w)
        grads["detect_b"] = np.zeros_like(params.detect_b)
    else:
        raise ConfigError(f"unknown loss kind {loss!r}")

    _trunk_backward(params, cache, dfeats, grads)
    return value, grads


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
        if self.learning_rate < 0:
            raise ConfigError("learning rate must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if self.loss not in ("bce", "mse"):
            raise ConfigError(f"loss must be bce or mse, got {self.loss!r}")


@dataclass(frozen=True)
class LogEntry:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float


def _eval_loss(params: ModelParams, x: np.ndarray, y: np.ndarray, loss: str,
               chunk: int = 512) -> tuple[float, float]:
    """(loss, metric) without gradients; metric is accuracy (bce) or mean
    position error in meters (mse)."""
    n = x.shape[0]
    total = 0.0
    metric_acc = 0.0
    for lo in range(0, n, chunk):
        xs, ys = x[lo:lo + chunk], y[lo:lo + chunk]
        feats, _ = _trunk_forward(params, xs)
        if loss == "bce":
            p = _sigmoid(feats @ params.detect_w + params.detect_b)[:, 0]
            pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
            yy = ys.reshape(-1)
            total += float(-np.sum(yy * np.log(pc) + (1 - yy) * np.log(1 - pc)))
            metric_acc += float(np.sum((p >= 0.5) == (yy >= 0.5)))
        else:
            pred = feats @ params.locate_w + params.locate_b
            diff = pred - ys.reshape(-1, 2)
            total += float(np.sum(diff * diff))
            metric_acc += float(np.sum(np.hypot(diff[:, 0], diff[:, 1])))
    return total / n, metric_acc / n


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
    x, y = train_data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
                g = grads[name]
                m[name] = config.beta1 * m[name] + (1 - config.beta1) * g
                v[name] = config.beta2 * v[name] + (1 - config.beta2) * (g * g)
                step = config.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + config.epsilon)
                arr -= step
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

    def prob_batch(self, tensors: np.ndarray, chunk: int = 512) -> np.ndarray:
        x = normalize(np.asarray(tensors, dtype=float), self.stats)
        return np.concatenate(
            [detect_batch(self.params, x[lo:lo + chunk]) for lo in range(0, len(x), chunk)]
        )

    def locate_batch(self, tensors: np.ndarray, chunk: int = 512) -> np.ndarray:
        x = normalize(np.asarray(tensors, dtype=float), self.stats)
        return np.concatenate(
            [locate_batch(self.params, x[lo:lo + chunk]) for lo in range(0, len(x), chunk)]
        )


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
