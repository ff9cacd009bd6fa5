import numpy as np
import pytest

from csisense.errors import ConfigError, NonFiniteLoss, ShapeMismatch
from csisense.frame import NormStats, compute_stats, normalize
from csisense.sensenet import (
    Architecture,
    TrainConfig,
    TrainedModel,
    conv2d,
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


class TestPool:
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
        assert detect_batch(params, np.ones(TINY.input_shape))[0] == pytest.approx(0.5)

    def test_bias_only_position_head(self):
        params = init_params(TINY, 0)
        for name, arr in params.items():
            arr[...] = 0.0
        params.locate_b[:] = (2.5, 2.5)
        est = locate_batch(params, np.random.default_rng(4).standard_normal(TINY.input_shape))
        assert est.tolist() == [[2.5, 2.5]]

    def test_deterministic(self):
        params = init_params(TINY, 1)
        x = np.random.default_rng(5).standard_normal(TINY.input_shape)
        assert detect_batch(params, x)[0] == detect_batch(params, x)[0]

    def test_shape_mismatch(self):
        params = init_params(TINY, 0)
        with pytest.raises(ShapeMismatch):
            detect_batch(params, np.zeros((5, 3, 2)))


class TestLoss:
    def test_bce_zero_when_correct(self):
        params = init_params(TINY, 2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4,) + TINY.input_shape)
        p = detect_batch(params, x)
        y = (p >= 0.5).astype(float)
        # saturate the head so predictions match labels closely
        params.detect_w *= 50
        params.detect_b *= 50
        value, _ = loss_and_grads(params, (x, (detect_batch(params, x) >= 0.5).astype(float)), "bce")
        assert value < 1e-2

    def test_mse_zero_when_exact(self):
        params = init_params(TINY, 2)
        for name, arr in params.items():
            arr[...] = 0.0
        params.locate_b[:] = (1.0, 2.0)
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
        params = init_params(TINY, 7)
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
        cfg = TrainConfig(loss="bce", learning_rate=0.0, epochs=3, seed=4, batch_size=4)
        params, _ = train((x, y), cfg, arch=TINY)
        ref = init_params(TINY, 4)
        for (_, a), (_, b) in zip(params.items(), ref.items()):
            assert np.array_equal(a, b)

    def test_same_seed_identical_params(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16,) + TINY.input_shape)
        y = rng.integers(0, 2, 16).astype(float)
        cfg = TrainConfig(loss="bce", epochs=4, seed=11, batch_size=4)
        a, _ = train((x, y), cfg, arch=TINY)
        b, _ = train((x, y), cfg, arch=TINY)
        for (_, pa), (_, pb) in zip(a.items(), b.items()):
            assert np.array_equal(pa, pb)

    def test_toy_separable_detection(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((200,) + TINY.input_shape)
        y = (x[:, :, :, 0].mean(axis=(1, 2)) > 0).astype(float)
        x[:, :, :, 0] += (2 * y - 1)[:, None, None] * 0.8
        cfg = TrainConfig(loss="bce", epochs=30, seed=0, batch_size=16,
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
        cfg = TrainConfig(loss="mse", epochs=200, seed=1, batch_size=16,
                          learning_rate=5e-3)
        params, log = train((xn[:200], coords[:200]), cfg,
                            validation=(xn[200:], coords[200:]), arch=TINY)
        pred = locate_batch(params, xn[200:])
        err = np.hypot(*(pred - coords[200:]).T)
        assert err.mean() < 0.05

    def test_nonfinite_loss_aborts(self):
        x = np.full((8,) + TINY.input_shape, 1e200)
        cfg = TrainConfig(loss="mse", epochs=1, seed=0, batch_size=4,
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
        cfg = TrainConfig(loss="bce", epochs=500, seed=2, batch_size=8, patience=3)
        _, log = train((x, y), cfg, validation=(xv, yv), arch=TINY)
        assert len(log) < 500


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path):
        params = init_params(TINY, 3)
        stats = NormStats(mean=(0.1, -0.2), std=(1.5, 2.5))
        model = TrainedModel(params=params, stats=stats, task="detect", threshold=0.4)
        path = tmp_path / "m.csnn"
        save_model(path, model)
        back = load_model(path)
        assert back.task == "detect" and back.threshold == 0.4
        assert back.stats == stats
        for (_, a), (_, b) in zip(params.items(), back.params.items()):
            assert np.array_equal(a, b)

    def test_rewrite_byte_identical(self, tmp_path):
        model = TrainedModel(params=init_params(TINY, 4),
                             stats=NormStats((0.0, 0.0), (1.0, 1.0)), task="locate")
        save_model(tmp_path / "a", model)
        save_model(tmp_path / "b", model)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ConfigError):
            load_model(tmp_path / "junk")


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
