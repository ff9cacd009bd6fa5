import math
import struct
from pathlib import Path

import numpy as np
import pytest

from csisense.errors import ConfigError, NonFiniteLoss
from csisense.frame import NormStats, compute_stats, normalize
from csisense.sensenet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    INFER_CHUNK,
    KERNEL,
    PARAM_FIELDS,
    POOL,
    Architecture,
    TrainConfig,
    TrainedModel,
    _adam_step,
    _eval_loss,
    conv2d,
    conv2d_backward,
    detect_batch,
    init_params,
    load_model,
    locate_batch,
    loss_and_grads,
    maxpool,
    maxpool_backward,
    save_model,
    train,
)

TINY = Architecture(input_shape=(4, 3, 2), conv_filters=(3, 4), dense_units=8)
TASK = {"bce": "detect", "mse": "locate"}
# TrainedModel.predict runs in float32 (eps 1.2e-7): its outputs stay within
# ~100 float32 roundings of the float64 trunk's
F32_RTOL, F32_ATOL = 1e-5, 1e-6


def float64_outputs(model, tensors):
    """`model.predict`'s outputs computed by the float64 trunk, in the same chunks."""
    head = detect_batch if model.task == "detect" else locate_batch
    x = normalize(tensors, model.stats)
    return np.concatenate([head(model.params, x[lo:lo + INFER_CHUNK])
                           for lo in range(0, len(x), INFER_CHUNK)])


def brute_force_conv(x, w, b):
    """Direct 4-loop same convolution, stride 1, zero padding."""
    n, h, wid, cin = x.shape
    k = w.shape[0]
    pad = (k - 1) // 2
    cout = w.shape[3]
    out = np.zeros((n, h, wid, cout))
    for s in range(n):
        for i in range(h):
            for j in range(wid):
                for f in range(cout):
                    acc = 0.0
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - pad, j + dj - pad
                            if 0 <= ii < h and 0 <= jj < wid:
                                acc += np.dot(x[s, ii, jj], w[di, dj, :, f])
                    out[s, i, j, f] = acc + b[f]
    return out


def numeric_grads(params, batch, loss, eps=1e-5):
    out = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grads(params, batch, loss)
            flat[i] = orig - eps
            down, _ = loss_and_grads(params, batch, loss)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        out[name] = g
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestConv:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, h, w, cin, cout = rng.integers(1, 4), rng.integers(2, 7), rng.integers(2, 7), rng.integers(1, 4), rng.integers(1, 5)
            x = rng.standard_normal((n, h, w, cin))
            wt = rng.standard_normal((3, 3, cin, cout))
            b = rng.standard_normal(cout)
            out, _ = conv2d(x, wt, b)
            assert np.max(np.abs(out - brute_force_conv(x, wt, b))) < 1e-12


def brute_force_conv_backward(x, w, dout):
    """Loop gradients of the same convolution for an upstream `dout` that covers
    output rows < dout.shape[1] and columns < dout.shape[2]."""
    n, h, wid, _ = x.shape
    k = w.shape[0]
    pad = (k - 1) // 2
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for s in range(n):
        for i in range(dout.shape[1]):
            for j in range(dout.shape[2]):
                for di in range(k):
                    for dj in range(k):
                        ii, jj = i + di - pad, j + dj - pad
                        if 0 <= ii < h and 0 <= jj < wid:
                            dw[di, dj] += np.outer(x[s, ii, jj], dout[s, i, j])
                            dx[s, ii, jj] += w[di, dj] @ dout[s, i, j]
    return dx, dw, dout.sum(axis=(0, 1, 2))


class TestConvBackward:
    @pytest.mark.parametrize("cropped", [False, True], ids=["full", "pooled-window"])
    def test_matches_bruteforce(self, cropped):
        rng = np.random.default_rng(14)
        for _ in range(12):
            n, cin, cout = (int(v) for v in rng.integers(1, 4, 3))
            h, wid = (int(v) for v in rng.choice([3, 5, 7], 2))
            crop = (h // 2 * 2, wid // 2 * 2) if cropped else (h, wid)
            x = rng.standard_normal((n, h, wid, cin))
            wt = rng.standard_normal((3, 3, cin, cout))
            b = rng.standard_normal(cout)
            out, cols = conv2d(x, wt, b, crop=crop if cropped else None)
            assert out.shape == (n,) + crop + (cout,)
            assert np.max(np.abs(out - brute_force_conv(x, wt, b)[:, :crop[0], :crop[1]])) < 1e-12
            dout = rng.standard_normal(out.shape)
            dx, dw, db = conv2d_backward(dout, cols, x.shape, wt)
            rx, rw, rb = brute_force_conv_backward(x, wt, dout)
            assert dx.shape == x.shape
            for got, ref in ((dx, rx), (dw, rw), (db, rb)):
                assert np.max(np.abs(got - ref)) < 1e-12
            none, dw2, db2 = conv2d_backward(dout, cols, x.shape, wt, need_dx=False)
            assert none is None and np.array_equal(dw2, dw) and np.array_equal(db2, db)


class TestPool:
    def test_ties_route_to_first_row_major_index(self):
        windows = np.array([
            [[0.0, 0.0], [0.0, 0.0]],    # all zero -> 0
            [[3.0, 3.0], [1.0, 3.0]],    # equal maxima at 0, 1, 3 -> 0
            [[1.0, 2.0], [2.0, 0.0]],    # equal maxima at 1, 2 -> 1
            [[1.0, 0.0], [5.0, 5.0]],    # equal maxima at 2, 3 -> 2
            [[0.0, 0.0], [0.0, 4.0]],    # single maximum at 3 -> 3
        ])
        # one sample, windows side by side along W, two identical channels
        x = np.repeat(windows.transpose(1, 0, 2).reshape(1, 2, 10, 1), 2, axis=3)
        out, idx, shape = maxpool(x, 2)
        assert idx[0, 0, :, 0].tolist() == [0, 0, 1, 2, 3]
        assert np.array_equal(idx[..., 0], idx[..., 1])
        assert out[0, 0, :, 0].tolist() == [0.0, 3.0, 2.0, 5.0, 4.0]
        dout = np.arange(1.0, 11.0).reshape(out.shape)
        dx = maxpool_backward(dout, idx, shape, 2)
        for w, q in enumerate([0, 0, 1, 2, 3]):
            expect = np.zeros((2, 2, 2))
            expect[q // 2, q % 2] = dout[0, 0, w]
            assert np.array_equal(dx[0, :, 2 * w:2 * w + 2], expect)

    def test_index_matches_argmax_oracle(self):
        rng = np.random.default_rng(15)
        # coarse values make ties common, ReLU makes all-zero windows common
        x = np.maximum(rng.integers(-2, 3, (3, 6, 7, 4)), 0).astype(float)
        out, idx, shape = maxpool(x, 2)
        xr = x[:, :6, :6].reshape(3, 3, 2, 3, 2, 4).transpose(0, 1, 3, 2, 4, 5).reshape(3, 3, 3, 4, 4)
        assert np.array_equal(idx, xr.argmax(axis=3))
        assert np.array_equal(out, xr.max(axis=3))
        _, none, _ = maxpool(x, 2, route=False)
        assert none is None

    def test_forward_takes_window_max(self):
        x = np.arange(2 * 4 * 4 * 1, dtype=float).reshape(2, 4, 4, 1)
        out, idx, shape = maxpool(x, 2)
        assert out.shape == (2, 2, 2, 1)
        assert out[0, 0, 0, 0] == 5.0  # max of rows 0-1, cols 0-1

    def test_odd_width_cropped(self):
        x = np.random.default_rng(1).standard_normal((1, 4, 7, 3))
        out, _, _ = maxpool(x, 2)
        assert out.shape == (1, 2, 3, 3)

    def test_backward_routes_to_argmax_only(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 6, 3))
        out, idx, shape = maxpool(x, 2)
        dout = rng.standard_normal(out.shape)
        dx = maxpool_backward(dout, idx, shape, 2)
        # non-selected positions get exactly zero gradient
        selected = dx != 0
        assert selected.sum() <= out.size
        # selected entries carry the unchanged upstream gradient
        assert np.allclose(np.sort(np.abs(dx[selected])), np.sort(np.abs(dout.ravel()))[
            np.sort(np.abs(dout.ravel())).size - selected.sum():], atol=0)

    def test_backward_writes_no_negative_zero(self):
        # a negative gradient times an unrouted tap is -0.0 before the backward adds 0.0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 7, 3))
        out, idx, shape = maxpool(x, 2)
        dout = -rng.uniform(0.5, 1.0, out.shape)
        dx = maxpool_backward(dout, idx, shape, 2)
        assert not np.signbit(dx[dx == 0]).any()
        assert np.array_equal(dx.view(np.uint64),
                              _old_maxpool_backward(dout, idx, shape, 2).view(np.uint64))


class TestForward:
    def test_sigmoid_output_range(self):
        params = init_params(TINY, 0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = detect_batch(params, rng.standard_normal((3,) + TINY.input_shape))
            assert p.shape == (3,) and np.all((0.0 < p) & (p < 1.0))

    def test_zero_params_give_half(self):
        params = init_params(TINY, 0)
        for name, arr in params.items():
            arr[...] = 0.0
        assert detect_batch(params, np.ones((1,) + TINY.input_shape))[0] == pytest.approx(0.5)

    def test_bias_only_position_head(self):
        params = init_params(TINY, 0, "locate")
        for name, arr in params.items():
            arr[...] = 0.0
        params.head_b[:] = (2.5, 2.5)
        est = locate_batch(params,
                           np.random.default_rng(4).standard_normal((1,) + TINY.input_shape))
        assert est.tolist() == [[2.5, 2.5]]

    def test_deterministic(self):
        params = init_params(TINY, 1)
        x = np.random.default_rng(5).standard_normal((1,) + TINY.input_shape)
        assert detect_batch(params, x)[0] == detect_batch(params, x)[0]

    def test_shape_mismatch(self):
        params = init_params(TINY, 0)
        with pytest.raises(ConfigError, match=r"input \(5, 3, 2\) incompatible"):
            detect_batch(params, np.zeros((5, 3, 2)))


class TestLoss:
    def test_bce_zero_when_correct(self):
        params = init_params(TINY, 2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4,) + TINY.input_shape)
        p = detect_batch(params, x)
        y = (p >= 0.5).astype(float)
        # saturate the head so predictions match labels closely
        params.head_w *= 50
        params.head_b *= 50
        value, _ = loss_and_grads(params, (x, (detect_batch(params, x) >= 0.5).astype(float)), "bce")
        assert value < 1e-2

    def test_mse_zero_when_exact(self):
        params = init_params(TINY, 2, "locate")
        for name, arr in params.items():
            arr[...] = 0.0
        params.head_b[:] = (1.0, 2.0)
        x = np.zeros((3,) + TINY.input_shape)
        y = np.tile([1.0, 2.0], (3, 1))
        value, _ = loss_and_grads(params, (x, y), "mse")
        assert value == 0.0

    def test_unknown_loss(self):
        params = init_params(TINY, 0)
        with pytest.raises(ConfigError):
            loss_and_grads(params, (np.zeros((1,) + TINY.input_shape), np.zeros(1)), "hinge")


class TestGradients:
    @pytest.mark.parametrize("loss", ["bce", "mse"])
    def test_matches_finite_differences(self, loss):
        rng = np.random.default_rng(7)
        params = init_params(TINY, 7, TASK[loss])
        x = rng.standard_normal((3,) + TINY.input_shape)
        y = rng.integers(0, 2, size=3).astype(float) if loss == "bce" else rng.uniform(0, 5, (3, 2))
        _, analytic = loss_and_grads(params, (x, y), loss)
        numeric = numeric_grads(params, (x, y), loss)
        assert max_rel_error(analytic, numeric) < 1e-4


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12,) + TINY.input_shape)
        y = rng.integers(0, 2, 12).astype(float)
        cfg = TrainConfig(task="detect", learning_rate=0.0, epochs=3, seed=4, batch_size=4)
        params, _ = train((x, y), cfg, arch=TINY)
        ref = init_params(TINY, 4)
        for (_, a), (_, b) in zip(params.items(), ref.items()):
            assert np.array_equal(a, b)

    def test_same_seed_identical_params(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16,) + TINY.input_shape)
        y = rng.integers(0, 2, 16).astype(float)
        cfg = TrainConfig(task="detect", epochs=4, seed=11, batch_size=4)
        a, _ = train((x, y), cfg, arch=TINY)
        b, _ = train((x, y), cfg, arch=TINY)
        for (_, pa), (_, pb) in zip(a.items(), b.items()):
            assert np.array_equal(pa, pb)

    def test_toy_separable_detection(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200,) + TINY.input_shape)
        y = (x[:, :, :, 0].mean(axis=(1, 2)) > 0).astype(float)
        x[:, :, :, 0] += (2 * y - 1)[:, None, None] * 0.8
        cfg = TrainConfig(task="detect", epochs=30, seed=0, batch_size=16,
                          learning_rate=3e-3)
        params, log = train((x, y), cfg, validation=(x, y), arch=TINY)
        losses = [e.train_loss for e in log[:5]]
        assert all(losses[i + 1] < losses[i] for i in range(4))
        acc = np.mean((detect_batch(params, x) >= 0.5) == (y >= 0.5))
        assert acc == 1.0

    def test_toy_position_regression(self):
        # frame entries broadcast the target coordinates; regression must
        # recover them almost exactly
        rng = np.random.default_rng(11)
        coords = rng.uniform(0.5, 4.5, size=(300, 2))
        x = np.zeros((300,) + TINY.input_shape)
        x[..., 0] = coords[:, 0, None, None]
        x[..., 1] = coords[:, 1, None, None]
        stats = compute_stats(x[:200])
        xn = normalize(x, stats)
        cfg = TrainConfig(task="locate", epochs=200, seed=1, batch_size=16,
                          learning_rate=5e-3)
        params, log = train((xn[:200], coords[:200]), cfg,
                            validation=(xn[200:], coords[200:]), arch=TINY)
        pred = locate_batch(params, xn[200:])
        err = np.hypot(*(pred - coords[200:]).T)
        assert err.mean() < 0.05

    def test_nonfinite_loss_aborts(self):
        x = np.full((8,) + TINY.input_shape, 1e200)
        cfg = TrainConfig(task="locate", epochs=1, seed=0, batch_size=4,
                          learning_rate=1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss):
                train((x, np.full((8, 2), 1e200)), cfg, arch=TINY)

    def test_early_stopping(self):
        # validation drawn from fresh noise is unlearnable, so the val loss
        # stops improving once the net starts memorizing the training batch
        rng = np.random.default_rng(12)
        x = rng.standard_normal((32,) + TINY.input_shape)
        y = rng.integers(0, 2, 32).astype(float)
        xv = rng.standard_normal((16,) + TINY.input_shape)
        yv = rng.integers(0, 2, 16).astype(float)
        cfg = TrainConfig(task="detect", epochs=500, seed=2, batch_size=8, patience=3)
        _, log = train((x, y), cfg, validation=(xv, yv), arch=TINY)
        assert len(log) < 500


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path):
        params = init_params(TINY, 3)
        stats = NormStats(mean=(0.1, -0.2), std=(1.5, 2.5))
        model = TrainedModel(params=params, stats=stats, threshold=0.4)
        path = tmp_path / "m.csnn"
        save_model(path, model)
        back = load_model(path)
        assert back.task == "detect" and back.threshold == 0.4
        assert path.read_bytes()[4:6] == struct.pack("<H", 2)
        assert back.stats == stats
        for (_, a), (_, b) in zip(params.items(), back.params.items()):
            assert np.array_equal(a, b)

    def test_rewrite_byte_identical(self, tmp_path):
        model = TrainedModel(params=init_params(TINY, 4, "locate"),
                             stats=NormStats((0.0, 0.0), (1.0, 1.0)))
        save_model(tmp_path / "a", model)
        save_model(tmp_path / "b", model)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ConfigError):
            load_model(tmp_path / "junk")


class TestInferencePrecision:
    ARCH = Architecture(input_shape=(24, 7, 2))

    def model(self, task):
        return TrainedModel(params=init_params(self.ARCH, 6, task),
                            stats=NormStats(mean=(0.1, -0.2), std=(1.5, 2.5)))

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_predict_within_float32_bound_of_float64_trunk(self, task):
        model = self.model(task)
        x = np.random.default_rng(18).standard_normal((2 * INFER_CHUNK + 5,) + self.ARCH.input_shape)
        out = model.predict(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, float64_outputs(model, x), rtol=F32_RTOL, atol=F32_ATOL)

    @pytest.mark.parametrize("loss", ["bce", "mse"])
    def test_training_passes_are_float64_for_float32_input(self, loss):
        rng = np.random.default_rng(19)
        params = init_params(self.ARCH, 7, TASK[loss])
        n = INFER_CHUNK + 3
        x = rng.standard_normal((n,) + self.ARCH.input_shape).astype(np.float32)
        y = (rng.integers(0, 2, n) if loss == "bce" else rng.uniform(0, 5, (n, 2))).astype(np.float32)
        value, grads = loss_and_grads(params, (x, y), loss)
        ref_value, ref_grads = loss_and_grads(params, (x.astype(float), y.astype(float)), loss)
        assert type(value) is float and value == ref_value
        for name, ref in ref_grads.items():
            assert grads[name].dtype == np.float64 and grads[name].tobytes() == ref.tobytes(), name
        got = _eval_loss(params, x, y)
        assert got == _eval_loss(params, x.astype(float), y.astype(float))
        assert all(type(v) is float for v in got)


class TestInit:
    def test_params_hold_one_head(self):
        for task, units in (("detect", 1), ("locate", 2)):
            params = init_params(TINY, 0, task)
            assert params.task == task and [n for n, _ in params.items()] == list(PARAM_FIELDS)
            assert params.head_w.shape == (TINY.dense_units, units)
            assert params.head_b.shape == (units,)

    def test_locate_model_keeps_v1_draws(self):
        # the two-head initialisation: each weight drawn in field order, the
        # detection head (d, 1) before the position head (d, 2)
        rng = np.random.default_rng(6)
        k, d, flat = KERNEL, TINY.dense_units, TINY.flat_units
        f1, f2 = TINY.conv_filters
        v1 = {}
        for name, shape, fan_in, fan_out in (
                ("conv1_w", (k, k, 2, f1), k * k * 2, k * k * f1),
                ("conv2_w", (k, k, f1, f2), k * k * f1, k * k * f2),
                ("dense_w", (flat, d), flat, d), ("detect_w", (d, 1), d, 1),
                ("locate_w", (d, 2), d, 2)):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            v1[name] = rng.uniform(-limit, limit, size=shape)
        for task in ("detect", "locate"):
            params = init_params(TINY, 6, task)
            for name in ("conv1_w", "conv2_w", "dense_w"):
                assert getattr(params, name).tobytes() == v1[name].tobytes()
            assert params.head_w.tobytes() == v1[f"{task}_w"].tobytes()
            assert not params.head_b.any()

    def test_loss_must_match_task(self):
        x = np.zeros((2,) + TINY.input_shape)
        with pytest.raises(ConfigError, match="does not train a locate head"):
            loss_and_grads(init_params(TINY, 0, "locate"), (x, np.zeros(2)), "bce")
        with pytest.raises(ConfigError, match="does not train a detect head"):
            loss_and_grads(init_params(TINY, 0), (x, np.zeros((2, 2))), "mse")

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_gradients_cover_the_live_arrays_only(self, task):
        params = init_params(TINY, 1, task)
        y = np.zeros(3) if task == "detect" else np.zeros((3, 2))
        _, grads = loss_and_grads(params, (np.ones((3,) + TINY.input_shape), y),
                                  "bce" if task == "detect" else "mse")
        assert sorted(grads) == sorted(PARAM_FIELDS)
        for name, arr in params.items():
            assert grads[name].shape == arr.shape


V1_DATA = Path(__file__).parent / "data"
V1_ARCH = Architecture(input_shape=(8, 3, 2), conv_filters=(3, 4), dense_units=8)


class TestV1Artifacts:
    """`tests/data/v1_{detect,locate}.csnn` were written by the two-head (CSNN
    v1) code: V1_ARCH models trained for 3 epochs on seeded random tensors, the
    detector with threshold 0.4.  `v1_outputs.npz` holds a fixed `input` batch
    (40 raw tensors, more than one inference chunk) and that code's outputs on
    it: `detect` (prob_batch) and `locate` (locate_batch)."""

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_predict_is_bitwise_equal(self, task):
        # bitwise on the float64 trunk; predict runs it in float32
        model = load_model(V1_DATA / f"v1_{task}.csnn")
        assert model.task == task and model.params.arch == V1_ARCH
        assert model.threshold == (0.4 if task == "detect" else 0.5)
        ref = np.load(V1_DATA / "v1_outputs.npz")
        out = float64_outputs(model, ref["input"])
        assert out.shape == ref[task].shape and out.tobytes() == ref[task].tobytes()
        np.testing.assert_allclose(model.predict(ref["input"]), ref[task],
                                   rtol=F32_RTOL, atol=F32_ATOL)

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_resave_is_v1_minus_the_unused_head(self, task, tmp_path):
        raw = (V1_DATA / f"v1_{task}.csnn").read_bytes()
        save_model(tmp_path / "m.csnn", load_model(V1_DATA / f"v1_{task}.csnn"))
        d = V1_ARCH.dense_units
        detect_bytes, locate_bytes = 8 * (d + 1), 8 * (2 * d + 2)
        tail = len(raw) - detect_bytes - locate_bytes
        head = (raw[tail:tail + detect_bytes] if task == "detect"
                else raw[tail + detect_bytes:])
        expected = raw[:4] + struct.pack("<H", 2) + raw[6:tail] + head
        assert (tmp_path / "m.csnn").read_bytes() == expected

    @pytest.mark.parametrize("version", [1, 2])
    def test_mislabelled_layout_is_rejected(self, version, tmp_path):
        # a v1 file read as v2 has bytes left over; a v2 file read as v1 runs short
        src = V1_DATA / "v1_detect.csnn"
        if version == 2:
            raw = bytearray(src.read_bytes())
            message = "trailing bytes after the last parameter block"
        else:
            save_model(tmp_path / "v2.csnn", load_model(src))
            raw = bytearray((tmp_path / "v2.csnn").read_bytes())
            message = "truncated parameter block"
        raw[4:6] = struct.pack("<H", version)
        (tmp_path / "bad.csnn").write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match=message):
            load_model(tmp_path / "bad.csnn")


class TestNormalizationInvariance:
    def test_uniform_scaling_cancels(self):
        # scaling the raw data by a positive constant rescales the frozen
        # stats identically, so the normalized pipeline output is unchanged
        rng = np.random.default_rng(13)
        xs = rng.standard_normal((20,) + TINY.input_shape) + 0.3
        params = init_params(TINY, 5)
        for scale in (3.0, 0.25):
            stats_raw = compute_stats(xs)
            stats_scaled = compute_stats(xs * scale)
            p_raw = detect_batch(params, normalize(xs, stats_raw))
            p_scaled = detect_batch(params, normalize(xs * scale, stats_scaled))
            assert np.max(np.abs(p_raw - p_scaled)) < 1e-9


# ------------------------------------------------------------------ golden oracle
# The trunk as first written: 4-D matmuls over the full conv2 output, a dcols
# tensor scattered back for dx, argmax pooling, ReLU before pooling and
# allocating Adam.  The current kernels must reproduce it.

def _old_im2col(x, k, pad):
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(n, h, w, k, k, c), strides=(s[0], s[1], s[2], s[1], s[2], s[3]))
    return view.reshape(n, h, w, k * k * c)


def _old_conv2d(x, w, b):
    cols = _old_im2col(x, w.shape[0], pad=(w.shape[0] - 1) // 2)
    return cols @ w.reshape(-1, w.shape[3]) + b, cols


def _old_conv2d_backward(dout, cols, x_shape, w, need_dx=True):
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
    return dxp[:, pad:pad + h, pad:pad + wid, :], dw, db


def _old_maxpool(x, p):
    n, h, w, c = x.shape
    ho, wo = h // p, w // p
    xr = (x[:, :ho * p, :wo * p, :].reshape(n, ho, p, wo, p, c)
          .transpose(0, 1, 3, 2, 4, 5).reshape(n, ho, wo, p * p, c))
    idx = xr.argmax(axis=3)
    return np.take_along_axis(xr, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :], idx


def _old_maxpool_backward(dout, idx, x_shape, p):
    n, h, w, c = x_shape
    ho, wo = h // p, w // p
    dxr = np.zeros((n, ho, wo, p * p, c))
    np.put_along_axis(dxr, idx[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    dx = np.zeros(x_shape)
    dx[:, :ho * p, :wo * p, :] = (dxr.reshape(n, ho, wo, p, p, c)
                                  .transpose(0, 1, 3, 2, 4, 5).reshape(n, ho * p, wo * p, c))
    return dx


def _old_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _old_loss_and_grads(params, x, y, loss):
    pool = POOL
    n = x.shape[0]
    z1, cols1 = _old_conv2d(x, params.conv1_w, params.conv1_b)
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = _old_conv2d(a1, params.conv2_w, params.conv2_b)
    a2 = np.maximum(z2, 0.0)
    pooled, pidx = _old_maxpool(a2, pool)
    flat = pooled.reshape(n, -1)
    z3 = flat @ params.dense_w + params.dense_b
    feats = np.maximum(z3, 0.0)
    grads = {name: np.zeros_like(arr) for name, arr in params.items()}
    if loss == "bce":
        p = _old_sigmoid(feats @ params.head_w + params.head_b)[:, 0]
        pc = np.clip(p, 1e-7, 1.0 - 1e-7)
        value = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
        dpc = -(y / pc - (1.0 - y) / (1.0 - pc)) / n
        dz = (np.where((p > 1e-7) & (p < 1.0 - 1e-7), dpc, 0.0) * p * (1.0 - p))[:, None]
        grads["head_w"], grads["head_b"] = feats.T @ dz, dz.sum(axis=0)
        dfeats = dz @ params.head_w.T
    else:
        diff = feats @ params.head_w + params.head_b - y
        value = float(np.mean(np.sum(diff * diff, axis=1)))
        dpred = 2.0 * diff / n
        grads["head_w"], grads["head_b"] = feats.T @ dpred, dpred.sum(axis=0)
        dfeats = dpred @ params.head_w.T
    dz3 = dfeats * (z3 > 0)
    grads["dense_w"], grads["dense_b"] = flat.T @ dz3, dz3.sum(axis=0)
    da2 = _old_maxpool_backward((dz3 @ params.dense_w.T).reshape(pooled.shape), pidx, a2.shape, pool)
    da1, grads["conv2_w"], grads["conv2_b"] = _old_conv2d_backward(
        da2 * (z2 > 0), cols2, a1.shape, params.conv2_w)
    _, grads["conv1_w"], grads["conv1_b"] = _old_conv2d_backward(
        da1 * (z1 > 0), cols1, x.shape, params.conv1_w, need_dx=False)
    return value, grads


class TestGoldenTrunk:
    ARCH = Architecture(input_shape=(24, 7, 2))

    @pytest.mark.parametrize("loss", ["bce", "mse"])
    def test_loss_and_grads_match_oracle(self, loss):
        rng = np.random.default_rng(16)
        params = init_params(self.ARCH, 3, TASK[loss])
        x = rng.standard_normal((32,) + self.ARCH.input_shape)
        y = rng.integers(0, 2, 32).astype(float) if loss == "bce" else rng.uniform(0, 5, (32, 2))
        value, grads = loss_and_grads(params, (x, y), loss)
        ref_value, ref_grads = _old_loss_and_grads(params, x, y, loss)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape
            assert np.max(np.abs(grads[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_adam_step_bitwise_equal(self):
        rng = np.random.default_rng(17)
        cfg = TrainConfig(learning_rate=3e-3)
        arr = rng.standard_normal((40, 8))
        m, v = np.zeros_like(arr), np.zeros_like(arr)
        ref_arr, ref_m, ref_v = arr.copy(), m.copy(), v.copy()
        for t in range(1, 6):
            g = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-6, 2)
            bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            _adam_step(arr, g, m, v, cfg, bc1, bc2)
            ref_m = ADAM_BETA1 * ref_m + (1 - ADAM_BETA1) * g
            ref_v = ADAM_BETA2 * ref_v + (1 - ADAM_BETA2) * (g * g)
            ref_arr -= cfg.learning_rate * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + ADAM_EPSILON)
            for got, ref in ((arr, ref_arr), (m, ref_m), (v, ref_v)):
                assert got.tobytes() == ref.tobytes()
