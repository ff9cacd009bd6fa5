"""Acceptance suite: every gate criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The trained-model criteria use the shipped scenario presets
at desk scale and are deterministic end to end.  Every test here carries the
`acceptance` marker, so `pytest -m "not acceptance"` runs the fast suite.
"""

import math
import time

import numpy as np
import pytest

from csisense import baseline as baseline_mod
from csisense import metrics as metrics_mod
from csisense.channel import snap_to_grid
from csisense.cli import fit, load_scenario, main
from csisense.dataset import gen_binned_set, gen_resolution_set, load_dataset
from csisense.geometry import Point2D
from csisense.sensenet import (
    Architecture,
    conv2d,
    init_params,
    loss_and_grads,
)
from oracles import Target, distance, in_shadow, layer_cake_mean

pytestmark = pytest.mark.acceptance

SIGMAS = (0.2, 0.5, 0.8, 1.2)
TRAIN_DROPS = 200
TEST_DROPS = 50


def report(name: str, ok: bool, details: str) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {details}")
    assert ok, f"{name}: {details}"


# ---------------------------------------------------------------- criterion 1

def test_geometry_oracle_equivalence():
    """in_shadow vs an independent quadratic segment-disk oracle, 10k triples."""

    def quadratic_oracle(x, v, t):
        dx, dy = x.x - v.x, x.y - v.y
        seg = math.hypot(dx, dy)
        ux, uy = dx / seg, dy / seg
        cx, cy = t.center.x - v.x, t.center.y - v.y
        b = ux * cx + uy * cy
        c = cx * cx + cy * cy - t.radius**2
        disc = b * b - c
        if disc < 0:
            return False
        return (b + math.sqrt(disc)) >= 0 and (b - math.sqrt(disc)) <= seg

    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    while checked < 10000:
        v = Point2D(*rng.uniform(0, 5, 2))
        x = Point2D(*rng.uniform(0, 5, 2))
        t = Target(Point2D(*rng.uniform(0.3, 4.7, 2)), float(rng.uniform(0.05, 1.6)))
        if distance(v, t.center) <= t.radius + 1e-9 or distance(v, x) < 1e-12:
            continue
        checked += 1
        if in_shadow(x, v, t) != quadratic_oracle(x, v, t):
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        "geometry-oracle-equivalence",
        disagreements == 0 and elapsed < 1.0,
        f"{checked} triples, {disagreements} disagreements, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------- criterion 2

def test_quantization_matches_exhaustive_argmin():
    scenario = load_scenario("scenario1")
    tx = scenario.tx
    pitch, side = scenario.grid_pitch, scenario.room_side
    n = int(side / pitch)
    coords = (np.arange(n) + 0.5) * pitch
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    dist = np.hypot(gx - tx.x, gy - tx.y)
    ang = np.arctan2(gy - tx.y, gx - tx.x)

    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        raw = float(rng.uniform(-math.pi, math.pi))
        d_ang = np.abs((ang - raw + math.pi) % (2 * math.pi) - math.pi)
        order = np.lexsort((dist, d_ang))
        expected = (gx[order[0]], gy[order[0]])
        scatter = snap_to_grid((tx.x, tx.y), np.array(raw), pitch, side)
        if tuple(scatter.tolist()) != expected:
            mismatches += 1
    report("appendix-quantization-oracle", mismatches == 0,
           f"1000 random departures, {mismatches} mismatches")


# ---------------------------------------------------------------- criterion 3

def test_gradient_correctness_both_heads():
    arch = Architecture(input_shape=(4, 3, 2), conv_filters=(3, 4), dense_units=8)

    def numeric(params, batch, loss, eps=1e-5):
        out = {}
        for name, arr in params.items():
            g = np.zeros_like(arr)
            flat, gflat = arr.ravel(), g.ravel()
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

    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = 0.0
    for draw in range(20):
        loss = "bce" if draw % 2 == 0 else "mse"
        params = init_params(arch, 100 + draw, "detect" if loss == "bce" else "locate")
        x = rng.standard_normal((3,) + arch.input_shape)
        y = (rng.integers(0, 2, 3).astype(float) if loss == "bce"
             else rng.uniform(0, 5, (3, 2)))
        _, analytic = loss_and_grads(params, (x, y), loss)
        num = numeric(params, (x, y), loss)
        for name in analytic:
            a, b = analytic[name], num[name]
            denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    elapsed = time.perf_counter() - start
    report("gradient-correctness", worst < 1e-4 and elapsed < 30.0,
           f"max rel err {worst:.2e} over 20 draws, {elapsed:.1f} s")


# ---------------------------------------------------------------- criterion 4

def test_convolution_bruteforce_equivalence():
    def brute(x, w, b):
        n, h, wid, cin = x.shape
        k, cout = w.shape[0], w.shape[3]
        pad = (k - 1) // 2
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
                                    acc += float(np.dot(x[s, ii, jj], w[di, dj, :, f]))
                        out[s, i, j, f] = acc + b[f]
        return out

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        h = int(rng.integers(2, 6))
        wid = int(rng.integers(2, 6))
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 4))
        x = rng.standard_normal((n, h, wid, cin))
        w = rng.standard_normal((3, 3, cin, cout))
        b = rng.standard_normal(cout)
        out, _ = conv2d(x, w, b)
        worst = max(worst, float(np.max(np.abs(out - brute(x, w, b)))))
    report("convolution-bruteforce-equivalence", worst < 1e-12,
           f"100 random tensors, max abs dev {worst:.2e}")


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def detection_table(tmp_path_factory):
    start = time.perf_counter()
    table = {}
    for li, preset in ((1, "scenario3"), (2, "scenario2"), (3, "scenario1")):
        scenario = load_scenario(preset)
        for sigma in SIGMAS:
            seed = 1000 + 17 * li + int(sigma * 10)
            out = tmp_path_factory.mktemp("detect")
            gen_resolution_set(scenario, sigma, TRAIN_DROPS, seed, out)
            model, _ = fit(load_dataset(out), "detect", epochs=150, seed=3, patience=40)
            fa, miss = metrics_mod.detection_counts(
                model, scenario, sigma, TEST_DROPS, seed + 500000)
            table[(li, sigma)] = metrics_mod.accuracy_score(fa, miss, TEST_DROPS)
    return table, time.perf_counter() - start


def test_detection_orderings(detection_table):
    table, elapsed = detection_table
    lines = []
    for li in (1, 2, 3):
        row = "  ".join(f"P(s={s:g})={table[(li, s)]:.3f}" for s in SIGMAS)
        lines.append(f"L={li}: {row}")
    details = "; ".join(lines) + f"; runtime {elapsed:.0f} s"
    size_ordering = all(table[(li, 1.2)] > table[(li, 0.2)] for li in (1, 2, 3))
    link_ordering = table[(3, 0.8)] >= table[(1, 0.8)]
    accuracy_floor = table[(3, 0.8)] >= 0.80
    in_budget = elapsed < 900.0
    report(
        "detection-ordering",
        size_ordering and link_ordering and accuracy_floor and in_budget,
        details
        + f"; size-order {size_ordering}, link-order {link_ordering}, "
        + f"P(0.8,L=3)>=0.80 {accuracy_floor}, <15min {in_budget}",
    )


# ---------------------------------------------------------------- criterion 6

@pytest.fixture(scope="module")
def coverage_maps(tmp_path_factory):
    scenario = load_scenario("scenario1")
    maps = {}
    for sigma in (0.8, 0.5):
        out = tmp_path_factory.mktemp("coverage")
        gen_binned_set(scenario, sigma, 5, 0.25, 31, out, protocol="coverage")
        model, _ = fit(load_dataset(out), "detect", epochs=80, seed=5, patience=25)
        maps[sigma] = metrics_mod.coverage_map(model, scenario, sigma, 30, 0.5, 5151)
    return scenario, maps


def test_coverage_orderings(coverage_maps):
    scenario, maps = coverage_maps
    devices = scenario.device_positions()
    cmap = maps[0.8]
    n = cmap.score.shape[0]
    near, far = [], []
    for ix in range(n):
        for iy in range(n):
            if np.isnan(cmap.score[ix, iy]):
                continue
            c = Point2D((ix + 0.5) * cmap.pitch, (iy + 0.5) * cmap.pitch)
            dmin = min(distance(c, d) for d in devices)
            if dmin <= 1.0:
                near.append(cmap.score[ix, iy])
            if dmin >= 3.0:
                far.append(cmap.score[ix, iy])
    common = np.isfinite(maps[0.8].score) & np.isfinite(maps[0.5].score)
    mean_08 = float(maps[0.8].score[common].mean())
    mean_05 = float(maps[0.5].score[common].mean())
    near_mean, far_mean = float(np.mean(near)), float(np.mean(far))
    ok = (len(near) > 0 and len(far) > 0 and near_mean > far_mean
          and mean_08 > mean_05)
    report(
        "coverage-orderings",
        ok,
        f"near({len(near)} bins) {near_mean:.3f} > far({len(far)} bins) {far_mean:.3f}; "
        f"sigma 0.8 {mean_08:.3f} > sigma 0.5 {mean_05:.3f} over common bins",
    )


# ---------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def positioning_runs(tmp_path_factory):
    scenario = load_scenario("scenario1")
    out = tmp_path_factory.mktemp("positioning")
    gen_binned_set(scenario, 0.8, 10, 0.25, 21, out, protocol="positioning")
    model, _ = fit(load_dataset(out), "locate", epochs=40, seed=5, patience=10)
    drops_seed = 4242
    banks = (baseline_mod.swept_bank(scenario), baseline_mod.overlapped_bank())
    swept, overlapped, net = metrics_mod.drop_positions(
        scenario, 0.8, 500, drops_seed, banks, model)
    return net, swept, overlapped


def test_positioning_accuracy_and_ordering(positioning_runs):
    net, swept, overlapped = positioning_runs
    mu_net = net.summary().mean
    mu_swept = swept.summary().mean
    mu_over = overlapped.summary().mean
    identical_truths = bool(
        (net.truths == swept.truths).all() and (swept.truths == overlapped.truths).all())
    ordering = mu_net < mu_over < mu_swept
    in_range = 1.65 <= mu_swept <= 4.95 and 1.43 <= mu_over <= 4.29
    ok = identical_truths and mu_net < 1.5 and ordering and in_range
    report(
        "positioning",
        ok,
        f"mu_net={mu_net:.3f} m < 1.5; mu_overlapped={mu_over:.3f}; "
        f"mu_swept={mu_swept:.3f}; ordering {ordering}; paper-range {in_range}; "
        f"identical drops {identical_truths}",
    )


def test_overlapped_beats_swept_bootstrap(positioning_runs):
    _, swept, overlapped = positioning_runs
    err_s = metrics_mod.position_errors(swept.estimates, swept.truths)
    err_o = metrics_mod.position_errors(overlapped.estimates, overlapped.truths)
    rng = np.random.default_rng(8)
    n = len(err_s)
    wins = 0
    boots = 2000
    for _ in range(boots):
        idx = rng.integers(0, n, n)
        if err_o[idx].mean() <= err_s[idx].mean():
            wins += 1
    frac = wins / boots
    report("baseline-bootstrap-direction", frac >= 0.95,
           f"overlapped <= swept in {frac:.1%} of {boots} bootstrap resamples")


# ---------------------------------------------------------------- criterion 8

def test_cli_determinism_byte_identical(tmp_path):
    checked = []

    def run_twice(label, args, outputs):
        dirs = []
        for tag in ("a", "b"):
            base = tmp_path / f"{label}-{tag}"
            base.mkdir()
            rc = main([a.format(base=str(base)) for a in args])
            assert rc == 0, f"{label} run failed"
            dirs.append(base)
        for rel in outputs:
            fa = dirs[0] / rel
            fb = dirs[1] / rel
            same = fa.read_bytes() == fb.read_bytes()
            checked.append((f"{label}/{rel}", same))

    run_twice(
        "gen",
        ["gen", "--scenario", "scenario3", "--sigma", "0.8", "--n", "30",
         "--seed", "12", "--out", "{base}/ds"],
        ["ds/manifest.json", "ds/frames.bin", "ds/labels.csv"],
    )
    ds = tmp_path / "gen-a" / "ds"
    run_twice(
        "train",
        ["train", "--data", str(ds), "--task", "detect", "--epochs", "3",
         "--seed", "4", "--out", "{base}/m.csnn", "--log", "{base}/m.log.csv"],
        ["m.csnn", "m.log.csv"],
    )
    model = tmp_path / "train-a" / "m.csnn"
    run_twice(
        "eval",
        ["eval", "--model", str(model), "--scenario", "scenario3", "--sigma", "0.8",
         "--drops", "10", "--seed", "6", "--out", "{base}/eval.csv"],
        ["eval.csv"],
    )
    run_twice(
        "coverage",
        ["coverage", "--model", str(model), "--scenario", "scenario3",
         "--sigma", "0.8", "--pitch", "2.5", "--drops-per-bin", "2", "--seed", "7",
         "--out", "{base}/cov.csv", "--pgm", "{base}/cov.pgm"],
        ["cov.csv", "cov.pgm"],
    )
    run_twice(
        "baseline",
        ["baseline", "--scenario", "scenario3", "--sigma", "0.8", "--drops", "5",
         "--seed", "8", "--out", "{base}/base.csv"],
        ["base.csv"],
    )
    bad = [name for name, same in checked if not same]
    report("cli-determinism", not bad,
           f"{len(checked)} artifacts byte-compared across reruns"
           + (f"; mismatches: {bad}" if bad else ""))


# ---------------------------------------------------------------- criterion 9

def test_metric_self_consistency(positioning_runs):
    worst = 0.0
    for run in positioning_runs:
        s = run.summary()
        worst = max(worst, abs(layer_cake_mean(s) - s.mean))
    report("metric-self-consistency", worst < 1e-9,
           f"max |layer-cake - mean| = {worst:.2e} over {len(positioning_runs)} runs")
