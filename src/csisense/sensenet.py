"""Shallow convolutional detector/locator with analytic backpropagation.

Shared trunk (two same-padded 3x3 convolutions, 2x2 max pooling, one dense
layer) feeding either a sigmoid detection neuron or a two-neuron linear
position head.  Training is float64 numpy; gradients are exact derivatives
of the computed loss, which keeps them finite-difference checkable.  The
forward kernels keep their input's dtype, and `TrainedModel.predict` runs
them in float32.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ConfigError, NonFiniteLoss, read_json
from .frame import NormStats, normalize

PROB_CLAMP = 1e-7
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8   # Adam moment decays and epsilon
# Samples per inference forward pass: keeps conv2's patch matrix (~2.6 MB in
# float32 at scenario1 shape) small instead of growing it with the batch.
INFER_CHUNK = 32

MAGIC = b"CSNN"
VERSION = 2

TASK_LOSS = {"detect": "bce", "locate": "mse"}     # the loss that trains each task's head
HEAD_UNITS = {"detect": 1, "locate": 2}
KERNEL = 3                   # both convolutions are KERNEL x KERNEL
POOL = 2                     # POOL x POOL max pooling with stride POOL


@dataclass(frozen=True)
class Architecture:
    input_shape: tuple[int, int, int]          # (rows, beams, 2)
    conv_filters: tuple[int, int] = (16, 32)
    dense_units: int = 64

    @property
    def flat_units(self) -> int:
        h, w, _ = self.input_shape
        return (h // POOL) * (w // POOL) * self.conv_filters[1]

    def __post_init__(self):
        h, w, c = self.input_shape
        if min(self.conv_filters + (self.dense_units,)) < 1:
            raise ConfigError(f"conv_filters and dense_units must be >= 1, got {self}")
        if c != 2:
            raise ConfigError(f"expected 2 input channels, got {c}")
        if h < POOL or w < POOL:
            raise ConfigError(f"input {h}x{w} too small for {POOL}x{POOL} pooling")


# Parameter fields in fixed serialization order: the trunk, then the head.
PARAM_FIELDS = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "dense_w", "dense_b",
                "head_w", "head_b")


def param_shapes(arch: Architecture, task: str) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter of a `task` model, in PARAM_FIELDS order."""
    k, c, (f1, f2), d = KERNEL, arch.input_shape[2], arch.conv_filters, arch.dense_units
    u = HEAD_UNITS[task]
    return dict(zip(PARAM_FIELDS, [(k, k, c, f1), (f1,), (k, k, f1, f2), (f2,),
                                   (arch.flat_units, d), (d,), (d, u), (u,)]))


@dataclass
class ModelParams:
    arch: Architecture
    task: str                    # detect | locate: what the head computes
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    def items(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, self.task, *[getattr(self, n).copy() for n in PARAM_FIELDS])


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform draw for an (in, out) matrix or a (k, k, in, out) kernel."""
    fan_in, fan_out = math.prod(shape[:-1]), math.prod(shape[:-2]) * shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(arch: Architecture, seed, task: str = "detect") -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn in field order.  A locate
    model first draws and drops a (dense, 1) detection head, as the two-head
    models did: without that draw every locate model would start, and so end,
    on other weights."""
    arrays = {}
    rng = np.random.default_rng(seed)
    for name, shape in param_shapes(arch, task).items():
        if name == "head_w" and task == "locate":
            _glorot(rng, (arch.dense_units, 1))
        arrays[name] = _glorot(rng, shape) if name.endswith("_w") else np.zeros(shape)
    return ModelParams(arch, task, **arrays)


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
    xp = np.zeros((n, h + 2 * pad, wid + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + wid, :] = x
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
    dw = (dflat.T @ cols).T.reshape(w.shape)     # faster than cols.T @ dflat with OpenBLAS
    db = dflat.sum(axis=0)
    if not need_dx:
        return None, dw, db
    dxp = np.zeros((n, h + 2 * pad, wid + 2 * pad, c), dtype=dout.dtype)
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
    # idx counts the taps before the first that holds the maximum
    found = taps[0] == out
    idx = np.zeros(out.shape, dtype=np.min_scalar_type(p * p - 1))
    for q in range(1, p * p):
        idx += ~found
        found |= taps[q] == out
    return out, idx, x.shape


def maxpool_backward(dout: np.ndarray, idx: np.ndarray, x_shape: tuple, p: int) -> np.ndarray:
    n, h, w, c = x_shape
    ho, wo = h // p, w // p
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for q in range(p * p):
        np.multiply(dout, idx == q, out=dx[:, q // p: ho * p: p, q % p: wo * p: p, :])
    dx += 0.0      # the -0.0 of a negative dout times False reads +0.0
    return dx


def _as_batch(params: ModelParams, tensor: np.ndarray) -> np.ndarray:
    x = np.asarray(tensor, dtype=params.conv1_w.dtype)
    if x.ndim != 4 or x.shape[1:] != params.arch.input_shape:
        raise ConfigError(f"input {x.shape} incompatible with model input "
                          f"{params.arch.input_shape}")
    return x


def _trunk_forward(params: ModelParams, x: np.ndarray, train: bool = True) -> tuple[np.ndarray, dict | None]:
    """Trunk features, plus the backward-pass cache when `train` is set.

    conv2 is computed only over the window pooling reads, and its ReLU runs
    after pooling (max commutes with ReLU) on the POOL*POOL times smaller map.  The
    backward pass takes each ReLU mask from its output (a > 0 iff z > 0), so
    conv1's and the dense layer's ReLUs overwrite their inputs.
    """
    n, h, w, _ = x.shape
    z1, cols1 = conv2d(x, params.conv1_w, params.conv1_b)
    a1 = np.maximum(z1, 0.0, out=z1)
    z2, cols2 = conv2d(a1, params.conv2_w, params.conv2_b, crop=(h - h % POOL, w - w % POOL))
    pooled, pidx, pshape = maxpool(z2, POOL, route=train)
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
    dz2 = maxpool_backward(dflat.reshape(pidx.shape), pidx, cache["pshape"], POOL)
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
    return _sigmoid(feats @ params.head_w + params.head_b)[:, 0]


def locate_batch(params: ModelParams, tensors: np.ndarray) -> np.ndarray:
    feats, _ = _trunk_forward(params, _as_batch(params, tensors), train=False)
    return feats @ params.head_w + params.head_b


def _head(params: ModelParams, feats: np.ndarray, y: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample loss and metric of the model's head on a batch, and the
    derivative of the batch-mean loss with respect to the head output.

    detect: binary cross-entropy ('bce') with probabilities clamped away from
    {0, 1}, metric 1 for a correct decision; locate: squared Euclidean
    position error ('mse'), metric the error in meters.
    """
    n = feats.shape[0]
    z = feats @ params.head_w + params.head_b
    if params.task == "detect":
        y = np.asarray(y, dtype=float).reshape(n)
        p = _sigmoid(z)[:, 0]
        pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        losses = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
        dpc = -(y / pc - (1.0 - y) / (1.0 - pc)) / n
        dp = np.where((p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP), dpc, 0.0)
        return losses, (p >= 0.5) == (y >= 0.5), (dp * p * (1.0 - p))[:, None]
    diff = z - np.asarray(y, dtype=float).reshape(n, 2)
    return np.sum(diff * diff, axis=1), np.hypot(diff[:, 0], diff[:, 1]), 2.0 * diff / n


def loss_and_grads(
    params: ModelParams,
    batch: tuple[np.ndarray, np.ndarray],
    loss: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-mean loss (see `_head`) plus exact gradients for every parameter;
    `loss` must be the one that trains the model's head (TASK_LOSS)."""
    if loss != TASK_LOSS[params.task]:
        raise ConfigError(f"loss {loss!r} does not train a {params.task} head")
    x_raw, y = batch
    x = _as_batch(params, x_raw)
    if x.shape[0] == 0:
        raise ConfigError("empty batch")
    feats, cache = _trunk_forward(params, x)
    losses, _, dout = _head(params, feats, y)
    dout = dout.astype(x.dtype, copy=False)     # _head's is float64, from the labels
    grads = {"head_w": feats.T @ dout, "head_b": dout.sum(axis=0)}
    _trunk_backward(params, cache, dout @ params.head_w.T, grads)
    return float(np.mean(losses)), grads


@dataclass
class TrainConfig:
    task: str = "detect"               # detect | locate, trained with TASK_LOSS[task]
    batch_size: int = 32
    learning_rate: float = 1e-3
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
        if self.task not in TASK_LOSS:
            raise ConfigError(f"task must be detect or locate, got {self.task!r}")


@dataclass(frozen=True)
class LogEntry:
    epoch: int
    train_loss: float
    val_loss: float
    val_metric: float


def _eval_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(loss, metric) without gradients, as means over the samples (`_head`)."""
    total = 0.0
    metric_acc = 0.0
    for lo in range(0, x.shape[0], INFER_CHUNK):
        feats, _ = _trunk_forward(params, _as_batch(params, x[lo:lo + INFER_CHUNK]), train=False)
        losses, metric, _ = _head(params, feats, y[lo:lo + INFER_CHUNK])
        total += float(np.sum(losses))
        metric_acc += float(np.sum(metric))
    return total / x.shape[0], metric_acc / x.shape[0]


def _adam_step(arr: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
               config: TrainConfig, bc1: float, bc2: float) -> None:
    """One in-place Adam update, rounding exactly like
    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    arr -= lr * (m/bc1) / (sqrt(v/bc2) + eps)."""
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * (g * g)
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
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
    params = init_params(arch, config.seed, config.task)
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
            value, grads = loss_and_grads(params, (x[sel], y[sel]), TASK_LOSS[config.task])
            if not math.isfinite(value):
                raise NonFiniteLoss(
                    f"non-finite training loss {value} at epoch {epoch}, batch {lo // config.batch_size}"
                )
            epoch_loss += value * len(sel)
            t += 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for name, arr in params.items():
                _adam_step(arr, grads[name], m[name], v[name], config, bc1, bc2)
        train_loss = epoch_loss / n

        if validation is not None and len(validation[0]):
            val_loss, val_metric = _eval_loss(params, *validation)
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
    threshold: float = 0.5

    def __post_init__(self):
        if self.task not in TASK_LOSS:
            raise ConfigError(f"task {self.task!r}")
        for name, values, ok in (("threshold", [self.threshold], 0.0 <= self.threshold <= 1.0),
                                 ("norm_mean", self.stats.mean, True),
                                 ("norm_std", self.stats.std, min(self.stats.std) >= 0)):
            if not (ok and all(map(math.isfinite, values))):
                raise ConfigError(f"{name} {list(values)}")

    @property
    def task(self) -> str:
        return self.params.task

    def predict(self, tensors: np.ndarray, start: int = 0) -> np.ndarray:
        """Raw frame tensors of drops start, start+1, ... to detection
        probabilities (N,) or positions (N, 2); a non-finite output raises
        ConfigError naming its drop.

        The trunk and head run in float32 (the parameters are cast on each
        call, each normalized chunk by `_as_batch`); the output is float64.
        """
        head = detect_batch if self.task == "detect" else locate_batch
        x = normalize(np.asarray(tensors, dtype=float), self.stats)
        with np.errstate(all="ignore"):    # overflow, the cast's too, shows as the check below
            params = ModelParams(self.params.arch, self.task,
                                 *[a.astype(np.float32) for _, a in self.params.items()])
            out = np.concatenate([head(params, x[lo:lo + INFER_CHUNK])
                                  for lo in range(0, len(x), INFER_CHUNK)]).astype(float)
        finite = np.isfinite(out.reshape(len(out), -1)).all(axis=1)
        if not finite.all():
            what = "probability" if self.task == "detect" else "estimate"
            raise ConfigError(f"csisensenet {what} of drop {start + np.argmin(finite)} "
                              f"is not finite")
        return out


def save_model(path: str | Path, model: TrainedModel) -> None:
    """CSNN v2 artifact: header, JSON descriptor, float64 LE PARAM_FIELDS blocks."""
    desc = {**asdict(model.params.arch), "kernel": KERNEL, "pool": POOL,
            "task": model.task, "threshold": model.threshold,
            "norm_mean": model.stats.mean, "norm_std": model.stats.std}
    blob = json.dumps(desc, sort_keys=True).encode()
    with open(path, "wb") as fp:
        fp.write(MAGIC)
        fp.write(struct.pack("<HI", VERSION, len(blob)))
        fp.write(blob)
        for _, arr in model.params.items():
            fp.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


# The JSON kind of each model descriptor key (errors.read_json).
DESCRIPTOR_KINDS = {
    "input_shape": [int, int, int], "conv_filters": [int, int], "kernel": int,
    "dense_units": int, "pool": int, "task": str, "threshold": float,
    "norm_mean": [float, float], "norm_std": [float, float],
}


def load_model(path: str | Path) -> TrainedModel:
    """Read a CSNN v2 artifact, as save_model writes it."""
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
        except ValueError as exc:    # not UTF-8, or not JSON
            raise ConfigError(f"{path}: malformed model descriptor: {exc}") from exc
        try:
            d = read_json(desc, DESCRIPTOR_KINDS, "model descriptor")
            for key, value in (("kernel", KERNEL), ("pool", POOL)):
                if d[key] != value:
                    raise ConfigError(f"{key} must be {value}, got {d[key]}")
            arch = Architecture(**{f.name: d[f.name] for f in fields(Architecture)})
            model = TrainedModel(ModelParams(arch, d["task"], *[None] * len(PARAM_FIELDS)),
                                 NormStats(d["norm_mean"], d["norm_std"]), d["threshold"])
        except ConfigError as exc:
            raise ConfigError(f"{path}: malformed model descriptor: {exc}") from exc
        arrays, left = {}, os.fstat(fp.fileno()).st_size - fp.tell()
        for name, shape in param_shapes(arch, model.task).items():
            size = math.prod(shape) * 8
            if size > left:    # checked before reading: a descriptor's sizes may exceed memory
                raise ConfigError(f"{path}: truncated parameter block {name}")
            left -= size
            arrays[name] = np.frombuffer(fp.read(size), dtype="<f8").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise ConfigError(f"{path}: non-finite value in parameter block {name}")
        if fp.read(1):
            raise ConfigError(f"{path}: trailing bytes after the last parameter block")
    return replace(model, params=ModelParams(arch, model.task, **arrays))
