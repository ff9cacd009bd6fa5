import math

import numpy as np
import pytest

from csisense.baseline import (
    attenuation_profile,
    bearing_segment_midpoint,
    estimate_position,
    overlapped_bank,
    swept_bank,
)
from csisense.channel import Scenario, array_response
from csisense.errors import DegenerateGeometry, SingleLink
from csisense.frame import CsiFrame, link_frame
from csisense.geometry import BearingLine, Point2D


def two_link_scenario() -> Scenario:
    return Scenario.from_dict(dict(
        name="b",
        tx=[0.0, 2.5],
        receivers=[
            {"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 8},
            {"position": [2.5, 0.0], "boresight": math.pi / 2, "n_antennas": 8},
        ],
        snr_db=float("inf"),
    ))


def frame_from_blocks(blocks, n_beams=7):
    return link_frame(np.stack(blocks)[:, :, :n_beams])


def direct_attenuation(bank, block_null, block_alt):
    """Independent recomputation of the attenuation definition."""
    out = []
    for theta in bank.angles:
        a = np.exp(1j * np.pi * np.arange(8) * math.sin(theta))
        num = np.linalg.norm(a.conj() @ block_null)
        den = np.linalg.norm(a.conj() @ block_alt)
        out.append(20 * math.log10(max(num, 1e-12) / max(den, 1e-12)))
    return np.array(out)


class TestAttenuationProfile:
    def test_identical_frames_zero_profile(self):
        s = two_link_scenario()
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
                  for _ in range(2)]
        f = frame_from_blocks(blocks)
        bank = swept_bank(s)
        for l in range(2):
            assert np.allclose(attenuation_profile(f, f, l, bank), 0.0, atol=1e-12)

    def test_profile_length_matches_bank(self):
        s = two_link_scenario()
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((8, 7)) + 0j for _ in range(2)]
        f = frame_from_blocks(blocks)
        assert attenuation_profile(f, f, 0, swept_bank(s)).shape == (7,)
        assert attenuation_profile(f, f, 0, overlapped_bank()).shape == (180,)

    def test_scaled_column_peaks_at_that_beam(self):
        # null columns are the bank steering vectors themselves; halving one
        # column must put ~6.02 dB at that beam and much less elsewhere
        s = two_link_scenario()
        bank = swept_bank(s)
        cols = np.column_stack([array_response(a, 8) for a in bank.angles])
        scaled = cols.copy()
        j = 3
        scaled[:, j] *= 0.5
        null = frame_from_blocks([cols, cols])
        alt = frame_from_blocks([scaled, cols])
        profile = attenuation_profile(null, alt, 0, bank)
        expected = direct_attenuation(bank, cols, scaled)
        assert np.allclose(profile, expected, atol=1e-9)
        assert np.argmax(profile) == j
        assert profile[j] == pytest.approx(6.02, abs=0.8)
        others = np.delete(profile, j)
        assert np.max(np.abs(others)) < profile[j] - 2.0

    def test_argmax_invariant_to_positive_scaling(self):
        s = two_link_scenario()
        rng = np.random.default_rng(2)
        bank = swept_bank(s)
        blocks_n = [rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
                    for _ in range(2)]
        blocks_a = [b * rng.uniform(0.3, 0.9, size=(1, 7)) for b in blocks_n]
        f_n, f_a = frame_from_blocks(blocks_n), frame_from_blocks(blocks_a)
        base = estimate_position(f_n, f_a, s, bank)
        for scale in (0.1, 7.3):
            f_n2 = CsiFrame(matrix=f_n.matrix * scale, meta=f_n.meta)
            f_a2 = CsiFrame(matrix=f_a.matrix * scale, meta=f_a.meta)
            est = estimate_position(f_n2, f_a2, s, bank)
            assert est == base


class TestEstimatePosition:
    def test_noiseless_synthetic_recovers_point(self):
        # attenuation peaked exactly at the beam whose bearing runs through p
        s = two_link_scenario()
        bank = swept_bank(s)
        p = Point2D(2.5, 2.5)
        blocks_null, blocks_alt = [], []
        for rx in s.receivers:
            u = rx.local_angle(rx.position.bearing_to(p))      # source direction
            theta_star = -u                                     # beam that lights up
            idx = int(np.argmin([abs(a - theta_star) for a in bank.angles]))
            assert abs(bank.angles[idx] - theta_star) < 1e-9
            phi = rx.local_angle(p.bearing_to(rx.position))     # propagation dir
            cols = np.column_stack([array_response(a, 8) for a in bank.angles])
            sig = np.outer(array_response(phi, 8), np.ones(7))
            null_blk = cols + sig
            alt_blk = cols + 0.25 * sig
            blocks_null.append(null_blk)
            blocks_alt.append(alt_blk)
        est = estimate_position(frame_from_blocks(blocks_null),
                                frame_from_blocks(blocks_alt), s, bank)
        assert math.hypot(est.x - p.x, est.y - p.y) < 1e-9

    def test_single_link_raises(self):
        s = Scenario.from_dict(dict(
            name="one", tx=[0.0, 2.5],
            receivers=[{"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 8}],
        ))
        rng = np.random.default_rng(3)
        blk = [rng.standard_normal((8, 7)) + 0j]
        f = frame_from_blocks(blk)
        with pytest.raises(SingleLink):
            estimate_position(f, f, s, swept_bank(s))

    def test_estimate_clamped_to_room(self):
        # parallel bearing draws legitimately raise DegenerateGeometry; every
        # produced estimate must lie inside the room
        s = two_link_scenario()
        bank = swept_bank(s)
        rng = np.random.default_rng(4)
        produced = 0
        for trial in range(20):
            blocks_n = [rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
                        for _ in range(2)]
            blocks_a = [b * rng.uniform(0.2, 1.0, size=(8, 7)) for b in blocks_n]
            try:
                est = estimate_position(frame_from_blocks(blocks_n),
                                        frame_from_blocks(blocks_a), s, bank)
            except DegenerateGeometry:
                continue
            produced += 1
            assert 0 <= est.x <= 5 and 0 <= est.y <= 5
        assert produced >= 10


class TestBanks:
    def test_overlapped_bank_layout(self):
        bank = overlapped_bank()
        assert len(bank.angles) == 180
        degs = np.rad2deg(bank.angles)
        assert degs[0] == pytest.approx(-89.5)
        assert degs[-1] == pytest.approx(89.5)
        assert np.allclose(np.diff(degs), 1.0)

    def test_swept_bank_uses_scenario_beams(self):
        s = two_link_scenario()
        assert swept_bank(s).angles == s.beam_angles


class TestFallback:
    def test_bearing_segment_midpoint(self):
        s = two_link_scenario()
        line = BearingLine(Point2D(5.0, 2.5), math.pi)
        mid = bearing_segment_midpoint(s, line)
        assert mid.x == pytest.approx(2.5, abs=1e-12)
        assert mid.y == pytest.approx(2.5, abs=1e-12)

    def test_midpoint_diagonal(self):
        s = two_link_scenario()
        line = BearingLine(Point2D(0.0, 0.0), math.pi / 4)
        mid = bearing_segment_midpoint(s, line)
        assert mid.x == pytest.approx(2.5) and mid.y == pytest.approx(2.5)
