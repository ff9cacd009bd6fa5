import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from csisense import dataset as dataset_mod
from csisense.channel import Scenario
from csisense.dataset import (
    HYP_NULL,
    HYP_TARGET,
    RecordSpec,
    _generate_block,
    draw,
    gen_binned_set,
    gen_resolution_set,
    load_dataset,
    record_seed,
    sample_target_center,
    save_dataset,
    in_blocks,
    split,
    synthesize,
    target_margin_ok,
    valid_bin_centers,
)
from csisense.errors import ConfigError, InvalidPitch, InvalidSize
from csisense.geometry import Point2D


def fast_scenario(**overrides) -> Scenario:
    cfg = dict(
        name="fast",
        tx=[0.0, 2.5],
        receivers=[{"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 4}],
        beam_angles=[-1.0, 0.0, 1.0],
    )
    cfg.update(overrides)
    return Scenario.from_dict(cfg)


def bin_center_oracle(scenario, sigma, pitch):
    """Independent enumeration of margin-valid bin centers."""
    n = int(math.floor(scenario.room_side / pitch + 1e-9))
    r = sigma / 2
    out = []
    for i in range(n):
        for j in range(n):
            x, y = (i + 0.5) * pitch, (j + 0.5) * pitch
            if not (r <= x <= scenario.room_side - r and r <= y <= scenario.room_side - r):
                continue
            if any(math.hypot(x - p.x, y - p.y) < r + 0.05
                   for p in scenario.device_positions()):
                continue
            out.append((x, y))
    return out


def positions(ds):
    """Target centers of a dataset's target rows, in row order."""
    return [Point2D(x, y) for x, y in ds.xy[ds.target].tolist()]


def assert_same_columns(a, b):
    for name in ("tensors", "target", "xy", "seed", "bin"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


class TestResolutionSet:
    def test_counts(self):
        ds = gen_resolution_set(fast_scenario(), 0.8, 10, 7)
        assert len(ds) == 20
        assert ds.tensors.shape == (20, 4, 3, 2)
        assert ds.target.sum() == 10 and (~ds.target).sum() == 10
        assert np.isnan(ds.xy[~ds.target]).all() and np.isfinite(ds.xy[ds.target]).all()
        assert (ds.bin == -1).all()
        assert ds.seed.tolist() == [record_seed(7, i) for i in range(20)]

    def test_deterministic(self):
        s = fast_scenario()
        a = gen_resolution_set(s, 0.8, 8, 99)
        b = gen_resolution_set(s, 0.8, 8, 99)
        assert_same_columns(a, b)

    def test_margin_rule(self):
        s = fast_scenario()
        ds = gen_resolution_set(s, 0.8, 40, 3)
        for p in positions(ds):
            assert target_margin_ok(s, 0.8, p)
            assert 0.4 <= p.x <= 4.6
            assert 0.4 <= p.y <= 4.6

    def test_invalid_sigma(self):
        for sigma in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InvalidSize, match="finite and > 0"):
                gen_resolution_set(fast_scenario(), sigma, 4, 0)
            with pytest.raises(InvalidSize, match="finite and > 0"):
                gen_binned_set(fast_scenario(), sigma, 2, 1.0, 0)

    def test_nonpositive_count_rejected(self):
        for n in (-3, 0):
            with pytest.raises(ConfigError, match="must be >= 1"):
                gen_resolution_set(fast_scenario(), 0.8, n, 0)
            with pytest.raises(ConfigError, match="must be >= 1"):
                gen_binned_set(fast_scenario(), 0.8, n, 1.0, 0)

    def test_nonfinite_pitch_rejected(self):
        for pitch in (math.nan, math.inf):
            with pytest.raises(InvalidPitch, match="finite and > 0"):
                gen_binned_set(fast_scenario(), 0.8, 1, pitch, 0)

    def test_record_level_determinism(self):
        # record i is a pure function of (master seed, i), independent of the
        # rest of the batch
        s = fast_scenario()
        ds = gen_resolution_set(s, 0.8, 6, 123)
        spec = RecordSpec(index=9, hyp=HYP_TARGET, sigma=0.8)
        tensors, centers, seeds = _generate_block(s, [spec], 123)
        assert np.array_equal(tensors[0], ds.tensors[9])
        assert np.array_equal(centers[0], ds.xy[9])
        assert seeds[0] == ds.seed[9] == record_seed(123, 9)


class TestBinnedSet:
    def test_bin_centers_match_oracle(self):
        s = fast_scenario()
        centers = valid_bin_centers(s, 0.8, 0.25)
        assert [(c.x, c.y) for c in centers] == bin_center_oracle(s, 0.8, 0.25)
        assert len(centers) <= 400

    def test_single_bin_room(self):
        s = fast_scenario(tx=[0.0, 0.0],
                          receivers=[{"position": [5.0, 5.0], "boresight": math.pi,
                                      "n_antennas": 4}],
                          beam_angles=[0.0])
        centers = valid_bin_centers(s, 0.8, 5.0)
        assert [(c.x, c.y) for c in centers] == [(2.5, 2.5)]

    def test_positions_are_exact_bin_centers(self):
        s = fast_scenario()
        ds = gen_binned_set(s, 0.8, 2, 1.0, 5)
        centers = valid_bin_centers(s, 0.8, 1.0)
        for (x, y), b in zip(ds.xy[ds.target].tolist(), ds.bin[ds.target]):
            assert (x, y) == (centers[b].x, centers[b].y)

    def test_jitter_stays_in_bin(self):
        s = fast_scenario()
        ds = gen_binned_set(s, 0.4, 3, 1.0, 5, bin_jitter=True)
        centers = valid_bin_centers(s, 0.4, 1.0)
        for p, b in zip(positions(ds), ds.bin[ds.target]):
            c = centers[b]
            assert abs(p.x - c.x) <= 0.5
            assert abs(p.y - c.y) <= 0.5
            assert target_margin_ok(s, 0.4, p)

    def test_class_balance(self):
        ds = gen_binned_set(fast_scenario(), 0.8, 2, 1.0, 5)
        assert ds.target.sum() == (~ds.target).sum()
        # per bin: n target rows, then n null rows
        assert ds.target.tolist() == [True, True, False, False] * (len(ds) // 4)
        assert ds.bin.tolist() == [b for b in range(len(ds) // 4) for _ in range(4)]

    def test_invalid_pitch(self):
        with pytest.raises(InvalidPitch):
            gen_binned_set(fast_scenario(), 0.8, 2, -0.5, 5)


def split_oracle(ds, fractions, seed):
    """The stratified split written out stratum by stratum, sorted by (hyp, bin)."""
    strata = {}
    for i in range(len(ds)):
        key = (HYP_TARGET if ds.target[i] else HYP_NULL, int(ds.bin[i]))
        strata.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    train, val = [], []
    for key in sorted(strata):
        idxs = np.array(strata[key])
        rng.shuffle(idxs)
        n_train = int(round(fractions[0] * len(idxs)))
        train += idxs[:n_train].tolist()
        val += idxs[n_train:].tolist()
    return sorted(train), sorted(val)


class TestSplit:
    def test_stratified_70_30(self):
        ds = gen_resolution_set(fast_scenario(), 0.8, 20, 1)
        train, val = split(ds, (0.7, 0.3), 42)
        assert len(train) == 28 and len(val) == 12
        for part, n in ((train, 14), (val, 6)):
            assert ds.target[part].sum() == n and (~ds.target[part]).sum() == n

    def test_degenerate_fraction(self):
        ds = gen_resolution_set(fast_scenario(), 0.8, 5, 1)
        train, val = split(ds, (1.0, 0.0), 0)
        assert len(train) == 10 and len(val) == 0

    def test_union_is_original(self):
        ds = gen_resolution_set(fast_scenario(), 0.8, 9, 1)
        train, val = split(ds, (0.7, 0.3), 7)
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(len(ds)))
        assert train.tolist() == sorted(train.tolist())
        assert val.tolist() == sorted(val.tolist())

    def test_binned_split_stratifies_bins(self):
        ds = gen_binned_set(fast_scenario(), 0.8, 4, 1.0, 5)
        train, val = split(ds, (0.5, 0.5), 3)
        for part in (train, val):
            per_bin = Counter(zip(ds.bin[part].tolist(), ds.target[part].tolist()))
            assert all(v == 2 for v in per_bin.values())

    @pytest.mark.parametrize("binned", [False, True])
    def test_matches_per_stratum_oracle(self, binned):
        s = fast_scenario()
        ds = gen_binned_set(s, 0.8, 3, 1.0, 5) if binned else gen_resolution_set(s, 0.8, 7, 5)
        train, val = split(ds, (0.7, 0.3), 11)
        assert (train.tolist(), val.tolist()) == split_oracle(ds, (0.7, 0.3), 11)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = gen_resolution_set(fast_scenario(), 0.8, 6, 11)
        save_dataset(tmp_path / "d", ds)
        back = load_dataset(tmp_path / "d")
        assert back.manifest.scenario == ds.manifest.scenario
        assert back.manifest.sigma == ds.manifest.sigma
        assert_same_columns(back, ds)

    def test_binned_round_trip_rebuilds_bins(self, tmp_path):
        ds = gen_binned_set(fast_scenario(), 0.8, 2, 1.0, 3)
        save_dataset(tmp_path / "d", ds)
        back = load_dataset(tmp_path / "d")
        assert back.bin.tolist() == ds.bin.tolist()
        assert (ds.bin >= 0).all()

    @pytest.mark.parametrize("protocol", ["resolution", "coverage", "positioning-jitter"])
    def test_rewrite_is_byte_identical(self, tmp_path, protocol):
        s = fast_scenario()
        if protocol == "resolution":
            ds = gen_resolution_set(s, 0.8, 4, 11)
        else:
            jitter = protocol == "positioning-jitter"
            ds = gen_binned_set(s, 0.8, 2, 1.0, 11, protocol=protocol.split("-")[0],
                                bin_jitter=jitter)
        save_dataset(tmp_path / "a", ds)
        save_dataset(tmp_path / "b", load_dataset(tmp_path / "a"))
        for name in ("manifest.json", "frames.bin", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_round_trip(self, tmp_path):
        # generation and manifests need n >= 1, so the empty set is a generated one
        # with every row dropped
        full = gen_resolution_set(fast_scenario(), 0.8, 1, 11)
        ds = dataclasses.replace(
            full, tensors=full.tensors[:0], target=full.target[:0], xy=full.xy[:0],
            seed=full.seed[:0], bin=full.bin[:0],
            manifest=dataclasses.replace(full.manifest, count_null=0, count_target=0))
        save_dataset(tmp_path / "d", ds)
        back = load_dataset(tmp_path / "d")
        assert len(back) == 0 and back.tensors.shape == (0, 4, 3, 2)


class TestWorkers:
    def test_worker_pool_matches_serial(self, monkeypatch):
        s = fast_scenario()
        serial = gen_resolution_set(s, 0.8, 16, 5)
        monkeypatch.setenv("CSISENSE_WORKERS", "2")
        monkeypatch.setattr(dataset_mod, "BLOCK", 5)        # seven pool tasks
        parallel = gen_resolution_set(s, 0.8, 16, 5)
        assert_same_columns(serial, parallel)


class TestBlocks:
    """Drops are drawn one at a time and synthesised in blocks of BLOCK: the
    block size must not change any drop."""

    @pytest.mark.parametrize("block", [1, 7])
    def test_datasets_independent_of_block_size(self, monkeypatch, block):
        s = fast_scenario(receivers=[
            {"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 4},
            {"position": [2.5, 0.0], "boresight": math.pi / 2, "n_antennas": 4},
        ])
        build = [lambda: gen_resolution_set(s, 0.8, 9, 3),
                 lambda: gen_binned_set(s, 0.8, 2, 1.25, 4, bin_jitter=True)]
        default = [b() for b in build]
        monkeypatch.setattr(dataset_mod, "BLOCK", block)
        for want, b in zip(default, build):
            assert_same_columns(want, b())

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("snr_db", [20.0, math.inf])
    def test_paired_drops_independent_of_block_size(self, monkeypatch, block, snr_db):
        s = fast_scenario(snr_db=snr_db)
        draws = [draw(s, record_seed(2, i), 0.6) for i in range(23)]
        want = synthesize(s, draws)
        monkeypatch.setattr(dataset_mod, "BLOCK", block)
        parts = [synthesize(s, b) for b in in_blocks(draws)]
        assert len(parts) == -(-23 // block)
        for w, got in zip(want, zip(*parts)):
            assert np.array_equal(w, np.concatenate(got))


class TestSampling:
    def test_rejects_oversize_target(self):
        with pytest.raises(InvalidSize):
            sample_target_center(fast_scenario(), 6.0, np.random.default_rng(0))

    def test_record_seed_stable(self):
        assert record_seed(5, 7) == record_seed(5, 7)
        assert record_seed(5, 7) != record_seed(5, 8)
