import json
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from csisense import dataset as dataset_mod
from csisense import frame as frame_mod
from csisense.channel import Scenario, grid_points
from csisense.cli import EXIT_CONFIG, EXIT_IO, PRESETS, load_scenario, main
from csisense.dataset import (
    DEVICE_CLEARANCE,
    HYP_NULL,
    HYP_TARGET,
    DatasetManifest,
    _generate_block,
    draw,
    gen_binned_set,
    gen_resolution_set,
    load_dataset,
    record_layout,
    record_seeds,
    save_dataset,
    streams,
    in_blocks,
    split,
    synthesize,
    target_margin_ok,
    valid_bin_centers,
)
from csisense.errors import ConfigError
from oracles import scalar_margin_ok


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
    """Independent enumeration of margin-valid bin centers, by the scalar rule."""
    n = int(math.floor(scenario.room_side / pitch + 1e-9))
    cells = [((i + 0.5) * pitch, (j + 0.5) * pitch) for i in range(n) for j in range(n)]
    return [(x, y) for x, y in cells if scalar_margin_ok(scenario, sigma, x, y)]


def positions(ds):
    """(x, y) target centers of a dataset's target rows, in row order."""
    return ds.xy[ds.target].tolist()


def on_disk(tmp_path, gen, *args, **kwargs):
    """A set that gen_resolution_set or gen_binned_set writes into a new
    directory under tmp_path, loaded back as train loads it."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    gen(*args, out=out, **kwargs)
    return load_dataset(out)


def assert_same_columns(a, b):
    for name in ("tensors", "target", "xy", "seed", "bin"):
        assert np.array_equal(getattr(a, name)[:], getattr(b, name)[:], equal_nan=True), name


def assert_same_files(a, b):
    for name in ("manifest.json", "frames.bin", "labels.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestResolutionSet:
    def test_counts(self, tmp_path):
        ds = on_disk(tmp_path, gen_resolution_set, fast_scenario(), 0.8, 10, 7)
        assert len(ds) == 20
        assert ds.tensors.shape == (20, 4, 3, 2)
        assert ds.target.sum() == 10 and (~ds.target).sum() == 10
        assert np.isnan(ds.xy[~ds.target]).all() and np.isfinite(ds.xy[ds.target]).all()
        assert (ds.bin == -1).all()
        assert ds.seed.tolist() == record_seeds(7, range(20)).tolist()

    def test_deterministic(self, tmp_path):
        s = fast_scenario()
        a = on_disk(tmp_path, gen_resolution_set, s, 0.8, 8, 99)
        b = on_disk(tmp_path, gen_resolution_set, s, 0.8, 8, 99)
        assert_same_columns(a, b)

    def test_margin_rule(self, tmp_path):
        s = fast_scenario()
        ds = on_disk(tmp_path, gen_resolution_set, s, 0.8, 40, 3)
        assert target_margin_ok(s, 0.8, ds.xy[ds.target]).all()
        for x, y in positions(ds):
            assert 0.4 <= x <= 4.6
            assert 0.4 <= y <= 4.6

    def test_invalid_sigma(self, tmp_path):
        out = tmp_path / "d"
        for sigma in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite and > 0"):
                gen_resolution_set(fast_scenario(), sigma, 4, 0, out)
            with pytest.raises(ConfigError, match="finite and > 0"):
                gen_binned_set(fast_scenario(), sigma, 2, 1.0, 0, out)
        assert not out.exists()

    def test_nonpositive_count_rejected(self, tmp_path):
        out = tmp_path / "d"
        for n in (-3, 0):
            with pytest.raises(ConfigError, match="must be >= 1"):
                gen_resolution_set(fast_scenario(), 0.8, n, 0, out)
            with pytest.raises(ConfigError, match="must be >= 1"):
                gen_binned_set(fast_scenario(), 0.8, n, 1.0, 0, out)
        assert not out.exists()

    def test_nonfinite_pitch_rejected(self, tmp_path):
        for pitch in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite and > 0"):
                gen_binned_set(fast_scenario(), 0.8, 1, pitch, 0, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_record_level_determinism(self, tmp_path):
        # record i is a pure function of (master seed, i), independent of the
        # rest of the batch
        s = fast_scenario()
        ds = on_disk(tmp_path, gen_resolution_set, s, 0.8, 6, 123)
        tensors, centers, seeds = _generate_block(ds.manifest, 9, np.array([True]),
                                                  np.full((1, 2), np.nan))
        assert np.array_equal(tensors[0], ds.tensors[[9]][0])
        assert np.array_equal(centers[0], ds.xy[9])
        assert seeds[0] == ds.seed[9] == record_seeds(123, [9])[0]


class TestBinnedSet:
    @pytest.mark.parametrize("pitch", [0.05, 0.125, 0.25, 0.3, 1.0])
    @pytest.mark.parametrize("sigma", [0.05, 0.4, 0.8, 1.3])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_bin_centers_match_oracle(self, preset, sigma, pitch):
        s = load_scenario(preset)
        want = bin_center_oracle(s, sigma, pitch)
        if not want:
            with pytest.raises(ConfigError, match=f"no margin-valid bin centers at pitch {pitch}"):
                valid_bin_centers(s, sigma, pitch)
            return
        centers = valid_bin_centers(s, sigma, pitch)
        assert centers.shape[1:] == (2,)
        assert [tuple(c) for c in centers.tolist()] == want

    @pytest.mark.parametrize("preset", PRESETS)
    def test_margin_rule_on_its_boundaries(self, preset):
        # Points on each device's clearance circle sit within an ulp or two of
        # the threshold, where np.hypot and math.hypot can disagree; points on
        # and next to the sigma/2 wall lines test the closed wall bounds.
        s = load_scenario(preset)
        rng = np.random.default_rng(11)
        for sigma in (0.05, 0.4, 0.8, 1.3):
            r = sigma / 2
            clear = r + DEVICE_CLEARANCE
            theta = rng.uniform(-math.pi, math.pi, 8000)
            circles = np.concatenate([
                np.column_stack([p.x + clear * np.cos(theta), p.y + clear * np.sin(theta)])
                for p in s.device_positions()])
            want = [scalar_margin_ok(s, sigma, x, y) for x, y in circles.tolist()]
            assert target_margin_ok(s, sigma, circles).tolist() == want

            side = s.room_side
            lines = [v for w in (r, side - r)
                     for v in (np.nextafter(w, -np.inf), w, np.nextafter(w, np.inf))]
            along = rng.uniform(0.0, side, len(lines))
            walls = np.array([p for v, u in zip(lines, along) for p in ((v, u), (u, v))]
                             + [(u, v) for u in lines for v in lines])
            want = [scalar_margin_ok(s, sigma, x, y) for x, y in walls.tolist()]
            assert target_margin_ok(s, sigma, walls).tolist() == want
            assert any(want) and not all(want)

    def test_single_bin_room(self):
        s = fast_scenario(tx=[0.0, 0.0],
                          receivers=[{"position": [5.0, 5.0], "boresight": math.pi,
                                      "n_antennas": 4}],
                          beam_angles=[0.0])
        centers = valid_bin_centers(s, 0.8, 5.0)
        assert centers.tolist() == [[2.5, 2.5]]

    def test_positions_are_exact_bin_centers(self, tmp_path):
        s = fast_scenario()
        ds = on_disk(tmp_path, gen_binned_set, s, 0.8, 2, 1.0, 5)
        centers = valid_bin_centers(s, 0.8, 1.0)
        for xy, b in zip(ds.xy[ds.target].tolist(), ds.bin[ds.target]):
            assert xy == centers[b].tolist()

    def test_jitter_stays_in_bin(self, tmp_path):
        s = fast_scenario()
        ds = on_disk(tmp_path, gen_binned_set, s, 0.4, 3, 1.0, 5, bin_jitter=True)
        centers = valid_bin_centers(s, 0.4, 1.0)
        for (x, y), b in zip(positions(ds), ds.bin[ds.target]):
            cx, cy = centers[b]
            assert abs(x - cx) <= 0.5
            assert abs(y - cy) <= 0.5
        assert target_margin_ok(s, 0.4, ds.xy[ds.target]).all()

    def test_class_balance(self, tmp_path):
        ds = on_disk(tmp_path, gen_binned_set, fast_scenario(), 0.8, 2, 1.0, 5)
        assert ds.target.sum() == (~ds.target).sum()
        # per bin: n target rows, then n null rows
        assert ds.target.tolist() == [True, True, False, False] * (len(ds) // 4)
        assert ds.bin.tolist() == [b for b in range(len(ds) // 4) for _ in range(4)]

    def test_layout_off_the_bins_rejected(self, tmp_path):
        s = fast_scenario()
        bins = len(valid_bin_centers(s, 0.8, 1.0))
        manifest = DatasetManifest(s, "coverage", 0.8, 2 * bins + 1, 0, grid_pitch=1.0)
        with pytest.raises(ConfigError, match=f"coverage layout: n_per_hyp {2 * bins + 1} is "
                                              f"not a multiple of the {bins} margin-valid bins"):
            save_dataset(tmp_path / "d", manifest)
        assert not (tmp_path / "d").exists()

    def test_invalid_pitch(self, tmp_path):
        with pytest.raises(ConfigError, match="pitch must be finite and > 0, got -0.5"):
            gen_binned_set(fast_scenario(), 0.8, 2, -0.5, 5, tmp_path / "d")


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
    def test_stratified_70_30(self, tmp_path):
        ds = on_disk(tmp_path, gen_resolution_set, fast_scenario(), 0.8, 20, 1)
        train, val = split(ds, (0.7, 0.3), 42)
        assert len(train) == 28 and len(val) == 12
        for part, n in ((train, 14), (val, 6)):
            assert ds.target[part].sum() == n and (~ds.target[part]).sum() == n

    def test_degenerate_fraction(self, tmp_path):
        ds = on_disk(tmp_path, gen_resolution_set, fast_scenario(), 0.8, 5, 1)
        train, val = split(ds, (1.0, 0.0), 0)
        assert len(train) == 10 and len(val) == 0

    def test_union_is_original(self, tmp_path):
        ds = on_disk(tmp_path, gen_resolution_set, fast_scenario(), 0.8, 9, 1)
        train, val = split(ds, (0.7, 0.3), 7)
        assert sorted(np.concatenate([train, val]).tolist()) == list(range(len(ds)))
        assert train.tolist() == sorted(train.tolist())
        assert val.tolist() == sorted(val.tolist())

    def test_binned_split_stratifies_bins(self, tmp_path):
        ds = on_disk(tmp_path, gen_binned_set, fast_scenario(), 0.8, 4, 1.0, 5)
        train, val = split(ds, (0.5, 0.5), 3)
        for part in (train, val):
            per_bin = Counter(zip(ds.bin[part].tolist(), ds.target[part].tolist()))
            assert all(v == 2 for v in per_bin.values())

    @pytest.mark.parametrize("binned", [False, True])
    def test_matches_per_stratum_oracle(self, tmp_path, binned):
        s = fast_scenario()
        ds = on_disk(tmp_path, gen_binned_set, s, 0.8, 3, 1.0, 5) if binned \
            else on_disk(tmp_path, gen_resolution_set, s, 0.8, 7, 5)
        train, val = split(ds, (0.7, 0.3), 11)
        assert (train.tolist(), val.tolist()) == split_oracle(ds, (0.7, 0.3), 11)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        manifest = gen_resolution_set(fast_scenario(), 0.8, 6, 11, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.manifest == manifest
        target, _, centers = record_layout(manifest)
        tensors, xy, seeds = _generate_block(manifest, 0, target, centers)
        for name, want in (("target", target), ("tensors", tensors), ("xy", xy), ("seed", seeds)):
            assert np.array_equal(getattr(back, name)[:], want, equal_nan=True), name

    def test_binned_round_trip_rebuilds_bins(self, tmp_path):
        manifest = gen_binned_set(fast_scenario(), 0.8, 2, 1.0, 3, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.bin.tolist() == record_layout(manifest)[1].tolist()
        assert (back.bin >= 0).all()

    @pytest.mark.parametrize("flags", [
        [], ["--protocol", "coverage", "--pitch", "1.0"],
        ["--protocol", "positioning", "--pitch", "1.0", "--bin-jitter"],
    ], ids=["resolution", "coverage", "positioning-jitter"])
    def test_gen_twice_is_byte_identical(self, tmp_path, capsys, flags):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(fast_scenario().to_dict()))
        for out in ("a", "b"):
            assert main(["gen", "--scenario", str(scenario), "--n", "2", "--seed", "11",
                         *flags, "--out", str(tmp_path / out)]) == 0
        assert_same_files(tmp_path / "a", tmp_path / "b")

    def test_manifest_json_keeps_the_derived_keys(self, tmp_path):
        gen_binned_set(fast_scenario(), 0.8, 2, 1.0, 3, tmp_path / "d")
        written = json.loads((tmp_path / "d" / "manifest.json").read_text())
        n = written["n_per_hyp"]
        assert (written["count_null"], written["count_target"]) == (n, n)
        assert written["split_fractions"] == [0.7, 0.3]
        for key in ("count_null", "count_target", "split_fractions"):
            assert DatasetManifest.from_dict({k: v for k, v in written.items() if k != key}) \
                == load_dataset(tmp_path / "d").manifest

    @pytest.mark.parametrize("key,value,shown", [
        ("count_null", 0, "count_null must be 6, got 0"),
        ("count_target", 7, "count_target must be 6, got 7"),
        ("split_fractions", [0.5, 0.5], "split_fractions must be [0.7, 0.3], got [0.5, 0.5]"),
    ])
    def test_derived_key_off_its_value_rejected(self, tmp_path, key, value, shown):
        # a manifest counting 0 null records once described an empty set
        manifest = gen_resolution_set(fast_scenario(), 0.8, 6, 11, tmp_path / "d")
        with pytest.raises(ConfigError, match=re.escape(f"malformed manifest: {shown}")):
            DatasetManifest.from_dict({**manifest.to_dict(), key: value})

    @pytest.mark.parametrize("fields,message", [
        (dict(protocol="resolution", bin_jitter=True), "bin_jitter with protocol 'resolution'"),
        (dict(protocol="coverage"), "grid_pitch None with protocol 'coverage'"),
        (dict(n_per_hyp=0), "n_per_hyp must be >= 1, got 0"),
        (dict(master_seed=-1), "master_seed must be >= 0, got -1"),
        (dict(sigma=math.inf), "sigma must be finite and > 0, got inf"),
    ])
    def test_manifest_checks_itself(self, fields, message):
        # the one check of generated and loaded manifests alike
        args = dict(scenario=fast_scenario(), protocol="resolution", sigma=0.8, n_per_hyp=2,
                    master_seed=0)
        with pytest.raises(ConfigError, match=re.escape(message)):
            DatasetManifest(**{**args, **fields})


class TestBlocks:
    """Drops are drawn one at a time and synthesised in blocks of BLOCK: the
    block size must not change any drop."""

    @pytest.mark.parametrize("block", [1, 7])
    def test_datasets_independent_of_block_size(self, tmp_path, monkeypatch, block):
        s = fast_scenario(receivers=[
            {"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 4},
            {"position": [2.5, 0.0], "boresight": math.pi / 2, "n_antennas": 4},
        ])
        build = [lambda: on_disk(tmp_path, gen_resolution_set, s, 0.8, 9, 3),
                 lambda: on_disk(tmp_path, gen_binned_set, s, 0.8, 2, 1.25, 4, bin_jitter=True)]
        default = [b() for b in build]
        monkeypatch.setattr(dataset_mod, "BLOCK", block)
        for want, b in zip(default, build):
            assert_same_columns(want, b())

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("snr_db", [20.0, math.inf])
    def test_paired_drops_independent_of_block_size(self, monkeypatch, block, snr_db):
        s = fast_scenario(snr_db=snr_db)
        draws = [draw(s, np.random.default_rng(seed), 0.6)
                 for seed in record_seeds(2, range(23)).tolist()]
        want = synthesize(s, draws)
        monkeypatch.setattr(dataset_mod, "BLOCK", block)
        parts = [synthesize(s, b) for b in in_blocks(draws)]
        assert len(parts) == -(-23 // block)
        for w, got in zip(want, zip(*parts)):
            assert np.array_equal(w, np.concatenate(got))


class TestSampling:
    def test_rejects_oversize_target(self):
        with pytest.raises(ConfigError, match=r"in \[3.0, 2.0\] x \[3.0, 2.0\]"):
            draw(fast_scenario(), np.random.default_rng(0), 6.0)

    def test_rejects_bin_without_valid_center(self):
        # every center of the bin around (0.125, 2.5) is within sigma/2 of the west wall
        with pytest.raises(ConfigError, match="no margin-valid center for a 0.8 m target"):
            draw(fast_scenario(), np.random.default_rng(0), 0.8, (0.125, 2.5),
                 jitter_pitch=0.25)

    def test_record_seed_stable(self):
        first = record_seeds(5, [7, 8]).tolist()
        assert record_seeds(5, [8, 7]).tolist() == first[::-1]
        assert first[0] != first[1]


MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96 + 5]
INDICES = [0, 1, 63, 64, 2**32 - 1, 2**32]


def numpy_record_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1, np.uint64)[0])


class TestSeedDerivation:
    """record_seeds and streams against numpy's SeedSequence and default_rng,
    across word-count boundaries: a numpy release that changed either algorithm
    fails here instead of quietly changing every dataset and metric."""

    @pytest.mark.parametrize("master", MASTERS)
    def test_record_seeds_match_seed_sequence(self, master):
        assert record_seeds(master, INDICES).tolist() == [
            numpy_record_seed(master, i) for i in INDICES]

    def test_mixed_word_counts_in_one_block(self):
        # one call with per-row masters hashes 2- to 6-word entropy, shuffled
        pairs = [(m, i) for m in MASTERS for i in INDICES]
        pairs = [pairs[j] for j in np.random.default_rng(3).permutation(len(pairs))]
        assert {sum(max(1, -(-v.bit_length() // 32)) for v in p) for p in pairs} == {2, 3, 4, 5, 6}
        got = record_seeds([m for m, _ in pairs], [i for _, i in pairs])
        assert got.tolist() == [numpy_record_seed(m, i) for m, i in pairs]

    def test_streams_start_where_default_rng_does(self):
        seeds = np.concatenate([np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], np.uint64),
                                record_seeds(9, range(100))])
        taken = 0
        for seed, rng in zip(seeds.tolist(), streams(seeds)):
            ref = np.random.default_rng(seed)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.standard_normal(3).tolist() == ref.standard_normal(3).tolist()
            taken += 1
        assert taken == len(seeds)

    @pytest.mark.parametrize("master,indices", [(-1, [0]), (0, [1, -1]), ([0, -2], [0, 1])])
    def test_negative_values_raise_value_error(self, master, indices):
        # numpy's error, never a seed of the value wrapped through uint64
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence([0, -1])
        with pytest.raises(ValueError, match="expected non-negative integer"):
            record_seeds(master, indices)


class TestMemory:
    """gen and train hold a bounded part of a dataset's frames (tracemalloc
    counts every numpy allocation; the mapped rows of a training split it does not)."""

    @staticmethod
    def traced_peak(argv) -> int:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gen_holds_a_few_blocks(self, tmp_path, capsys):
        gen = ["gen", "--scenario", "scenario1", "--n", "1100", "--out", str(tmp_path / "ds")]
        assert main(gen[:4] + ["1"] + gen[5:]) == 0           # link geometry and imports
        peak = self.traced_peak(gen)
        record = 12 + 24 * 7 * 2 * 8                           # a scenario1 frame record
        assert (tmp_path / "ds" / "frames.bin").stat().st_size == 2200 * record
        # the 2,200 records are 34 blocks; one block's synthesis takes about 12
        assert peak < 16 * dataset_mod.BLOCK * record

    def test_train_never_holds_the_whole_frames_file(self, tmp_path, monkeypatch, capsys):
        # random frames in a valid positioning layout: loading checks them, and
        # training reads only its rows, in chunks smaller than the file
        monkeypatch.setattr(frame_mod, "CHUNK_BYTES", 64 << 10)
        s = fast_scenario()
        n = 300 * len(valid_bin_centers(s, 0.8, 1.0))
        manifest = DatasetManifest(s, "positioning", 0.8, n, 3, grid_pitch=1.0)

        def random_block(manifest, start, target, centers):
            tensors = np.random.default_rng(start).standard_normal((len(target), 4, 3, 2))
            return tensors, centers, record_seeds(manifest.master_seed,
                                                  range(start, start + len(target)))

        monkeypatch.setattr(dataset_mod, "_generate_block", random_block)
        save_dataset(tmp_path / "ds", manifest)
        frames = (tmp_path / "ds" / "frames.bin").stat().st_size
        assert frames > 2 << 20
        train = ["train", "--data", str(tmp_path / "ds"), "--task", "locate", "--epochs", "1",
                 "--out", str(tmp_path / "m.csnn")]
        # an untraced run first: the interpreter's interned-string table grows once,
        # 1.9 MB at 2^17 slots, at whatever line fills it, which earlier tests decide
        assert main(train) == 0
        assert self.traced_peak(train) < frames

    def test_bin_centers_test_the_tiling_in_chunks(self):
        # every cell tested at once peaked at 42 MB on the 512 x 512 tiling
        s = load_scenario("scenario1")
        pitch = s.room_side / 512
        grid_points(s.room_side, pitch)          # cached, so not part of the peak
        tracemalloc.start()
        try:
            centers = valid_bin_centers(s, 0.8, pitch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * centers.nbytes

    def test_interrupted_gen_leaves_no_dataset(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "ds"
        gen = ["gen", "--scenario", "scenario1", "--n", "100", "--out", str(out)]
        assert main(gen) == 0        # a complete dataset, then an interrupted rewrite of it
        made = []

        def failing_block(*args):
            if made:
                raise OSError("No space left on device")
            made.append(args[1])
            return real_block(*args)

        real_block = dataset_mod._generate_block
        monkeypatch.setattr(dataset_mod, "_generate_block", failing_block)
        assert main(gen) == EXIT_IO
        assert made == [0]
        assert sorted(p.name for p in out.iterdir()) == ["frames.bin", "labels.csv"]
        capsys.readouterr()
        assert main(["train", "--data", str(out), "--epochs", "1",
                     "--out", str(tmp_path / "m.csnn")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {out}: no manifest.json: not a dataset, or its writing did " \
                      f"not finish\n"
