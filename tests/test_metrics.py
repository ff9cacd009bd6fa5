import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csisense import dataset as dataset_mod
from csisense import metrics as metrics_mod
from csisense.baseline import overlapped_bank, swept_bank
from csisense.channel import Scenario
from csisense.errors import ConfigError
from csisense.frame import NormStats
from csisense.metrics import (
    CoverageMap,
    _paired_blocks,
    accuracy_score,
    coverage_map,
    detection_counts,
    drop_positions,
    error_summary,
    resolution_curve,
    write_coverage_csv,
    write_coverage_pgm,
    write_positioning_csv,
    write_resolution_csv,
)
from csisense.sensenet import Architecture, TrainedModel, init_params
from oracles import four_count_accuracy, layer_cake_mean


def tiny_scenario() -> Scenario:
    return Scenario.from_dict(dict(
        name="tiny",
        tx=[0.0, 0.5],
        room_side=2.0,
        receivers=[{"position": [2.0, 1.0], "boresight": math.pi, "n_antennas": 4}],
        beam_angles=[-0.8, 0.0, 0.8],
        grid_pitch=0.5,
    ))


def untrained_model(scenario) -> TrainedModel:
    arch = Architecture(
        input_shape=(scenario.n_links * scenario.n_antennas, scenario.n_beams, 2),
        conv_filters=(3, 4), dense_units=8,
    )
    return TrainedModel(params=init_params(arch, 0), stats=NormStats((0.0, 0.0), (1.0, 1.0)))


class TestAccuracyScore:
    def test_perfect_detector(self):
        assert accuracy_score(0, 0, 50) == 1.0

    def test_constant_null_detector(self):
        assert accuracy_score(0, 50, 50) == 0.5

    def test_hand_computed_example(self):
        assert accuracy_score(10, 20, 100) == pytest.approx(0.85, abs=1e-12)

    @given(st.integers(1, 10**6).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.integers(0, n), st.just(n))))
    def test_paired_drops_score_like_four_counts(self, counts):
        # n paired drops hold n frames of each hypothesis: both priors are n / 2n
        fa, miss, n = counts
        assert accuracy_score(fa, miss, n) == four_count_accuracy(n - fa, fa, miss, n - miss)

    def test_array_counts_score_like_scalars(self):
        # coverage_map scores every bin in one call: each score has its scalar's bits
        n = 40
        fa, miss = np.random.default_rng(8).integers(0, n + 1, (2, 200))
        got = accuracy_score(fa, miss, n)
        assert got.tolist() == [accuracy_score(f, m, n)
                                for f, m in zip(fa.tolist(), miss.tolist())]
        assert got.tolist() == four_count_accuracy(n - fa, fa, miss, n - miss).tolist()


class TestErrorSummary:
    def test_exact_estimates(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = error_summary(pts, pts)
        assert s.mean == 0.0 and s.p90 == 0.0

    def test_percentile_convention(self):
        truths = np.zeros((10, 2))
        ests = np.array([[float(i + 1), 0.0] for i in range(10)])
        s = error_summary(ests, truths)
        assert s.p90 == pytest.approx(9.1, abs=1e-12)
        assert s.mean == pytest.approx(5.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match="1 estimates vs 0 truths"):
            error_summary(np.zeros((1, 2)), np.zeros((0, 2)))

    def test_layer_cake_equals_mean(self):
        rng = np.random.default_rng(0)
        ests = np.array([rng.uniform(0, 5, 2) for _ in range(257)])
        trus = np.array([rng.uniform(0, 5, 2) for _ in range(257)])
        s = error_summary(ests, trus)
        assert abs(layer_cake_mean(s) - s.mean) < 1e-9

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=60))
    def test_layer_cake_property(self, errs):
        truths = np.zeros((len(errs), 2))
        ests = np.array([[e, 0.0] for e in errs])
        s = error_summary(ests, truths)
        assert abs(layer_cake_mean(s) - s.mean) < 1e-9
        assert np.all(np.diff(s.errors) >= 0)


class TestDrops:
    def test_paired_drop_deterministic(self):
        # a drop is a function of its (master seed, index), wherever it sits in a block
        s = tiny_scenario()
        alone = next(_paired_blocks(s, 0.4, [(5, 0, None)]))
        again = next(_paired_blocks(s, 0.4, [(2**64, 3, None), (5, 0, None)]))
        assert alone[0] == again[0] == 0     # each block's first drop index
        for x, y in zip(alone[1:], again[1:]):
            assert np.array_equal(x[0], y[1])

    @pytest.mark.parametrize("block", [1, 7])
    def test_positions_independent_of_block_size(self, monkeypatch, block):
        s = Scenario.from_dict({**tiny_scenario().to_dict(), "receivers": [
            {"position": [2.0, 1.0], "boresight": math.pi, "n_antennas": 4},
            {"position": [1.0, 0.0], "boresight": math.pi / 2, "n_antennas": 4}]})
        banks = (swept_bank(s), overlapped_bank())
        want = drop_positions(s, 0.4, 20, 3, banks)
        monkeypatch.setattr(dataset_mod, "BLOCK", block)
        for w, got in zip(want, drop_positions(s, 0.4, 20, 3, banks), strict=True):
            for name in ("truths", "estimates", "degraded"):
                assert np.array_equal(getattr(got, name), getattr(w, name)), name

    def test_detection_counts_totals(self):
        s = tiny_scenario()
        model = untrained_model(s)
        fa, miss = detection_counts(model, s, 0.4, 6, 3)
        assert type(fa) is int and type(miss) is int and 0 <= fa <= 6 and 0 <= miss <= 6


class TestResolutionCurve:
    def test_gamma_edges(self):
        s = tiny_scenario()
        model = untrained_model(s)
        curve, crossing = resolution_curve(model, s, [0.3, 0.5], 4, 0.0, 9)
        assert [c[0] for c in curve] == [0.3, 0.5]
        assert crossing == 0.3  # any score beats gamma = 0
        _, none_crossing = resolution_curve(model, s, [0.3, 0.5], 4, 1.0 + 1e-9, 9)
        assert none_crossing is None

    def test_requires_sorted_sigmas(self):
        s = tiny_scenario()
        with pytest.raises(ValueError):
            resolution_curve(untrained_model(s), s, [0.5, 0.3], 2, 0.5, 0)


class TestCoverageMap:
    def test_single_bin_room(self):
        s = tiny_scenario()
        model = untrained_model(s)
        cmap = coverage_map(model, s, 0.4, 4, 2.0, 11)
        assert cmap.score.shape == (1, 1)
        assert cmap.drops == 4
        assert 0.0 <= cmap.score[0, 0] <= 1.0

    def test_margin_excluded_bins_undefined(self):
        s = tiny_scenario()
        model = untrained_model(s)
        cmap = coverage_map(model, s, 0.6, 2, 0.5, 11)
        assert np.isnan(cmap.score[0, 0])        # corner bin violates margin
        assert np.isfinite(cmap.score[1, 1])

    def test_deterministic(self):
        s = tiny_scenario()
        model = untrained_model(s)
        a = coverage_map(model, s, 0.4, 3, 1.0, 7)
        b = coverage_map(model, s, 0.4, 3, 1.0, 7)
        assert np.array_equal(a.score, b.score, equal_nan=True)

    def test_drop_keys_made_a_block_of_bins_at_a_time(self, monkeypatch):
        # every bin's key was once made up front: 66 MB on the 512 x 512 tiling
        s = tiny_scenario()
        pitch = s.room_side / 256
        centers = dataset_mod.valid_bin_centers(s, 0.05, pitch)    # caches the tiling
        held = []

        def decisions(model, scenario, sigma, keys):
            tracemalloc.reset_peak()
            n = sum(1 for _ in keys)
            held.append(tracemalloc.get_traced_memory()[1])
            return np.zeros(n, bool), np.arange(n) % 2 == 0

        monkeypatch.setattr(metrics_mod, "_decisions", decisions)
        tracemalloc.start()
        try:
            cmap = coverage_map(None, s, 0.05, 2, pitch, 0)
        finally:
            tracemalloc.stop()
        assert cmap.defined_scores().size == len(centers)
        assert np.all(cmap.defined_scores() == 0.75)
        assert held[0] < 2 * centers.nbytes      # the centers and a block of keys


class TestWriters:
    def test_resolution_csv(self):
        buf = io.StringIO()
        write_resolution_csv(buf, [(0.2, 0.5), (0.8, 0.9)], 50)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sigma,P,n"
        assert lines[1].startswith("0.2,") and lines[1].endswith(",50")

    def test_coverage_csv_and_pgm(self):
        score = np.array([[0.5, np.nan], [1.0, 0.0]])
        cmap = CoverageMap(pitch=1.0, score=score, drops=3)
        buf = io.StringIO()
        write_coverage_csv(buf, cmap)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_x,bin_y,P,n"
        assert len(lines) == 4  # three defined bins
        assert lines[1] == "0.5,0.5,0.5,3"  # plain floats, no numpy reprs
        pgm = io.StringIO()
        write_coverage_pgm(pgm, cmap)
        rows = pgm.getvalue().strip().splitlines()
        assert rows[:3] == ["P2", "2 2", "255"]
        # top raster row is max y: bins (0,1)=nan->0 and (1,1)=0.0->0
        assert rows[3].split() == ["0", "0"]
        assert rows[4].split() == ["128", "255"]

    def test_positioning_csv(self):
        s = error_summary(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        buf = io.StringIO()
        write_positioning_csv(buf, s)
        assert buf.getvalue().splitlines() == ["drop,err", "0,1.0"]
