import math

import numpy as np
import pytest

from csisense.baseline import (
    attenuation_profiles,
    bearing_segment_midpoint,
    estimate_positions,
    overlapped_bank,
    swept_bank,
)
from csisense.channel import Scenario, array_response
from csisense.frame import to_tensor
from csisense.geometry import Point2D, wrap_angle


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
    """A block of one frame tensor from per-receiver (N_r, beams) captures."""
    return to_tensor(np.stack(blocks)[None, :, :, :n_beams])


def direct_attenuation(bank, block_null, block_alt):
    """Independent recomputation of the attenuation definition."""
    out = []
    for theta in bank.angles:
        a = np.exp(1j * np.pi * np.arange(8) * math.sin(theta))
        num = np.linalg.norm(a.conj() @ block_null)
        den = np.linalg.norm(a.conj() @ block_alt)
        out.append(20 * math.log10(max(num, 1e-12) / max(den, 1e-12)))
    return np.array(out)


def oracle_estimate(null, alt, scenario, bank):
    """Loop reference for one drop: per receiver the argmax-attenuation beam
    (ties toward broadside), then the least-squares bearing fix, clamped;
    all-parallel bearings or one receiver fall back to receiver 0's midpoint."""
    lines = []   # (origin, angle) of each receiver's bearing
    for l, rx in enumerate(scenario.receivers):
        rows = slice(l * rx.n_antennas, (l + 1) * rx.n_antennas)
        profile = direct_attenuation(bank, null[rows, :, 0] + 1j * null[rows, :, 1],
                                     alt[rows, :, 0] + 1j * alt[rows, :, 1])
        tied = np.flatnonzero(profile == profile.max())
        beam = min(tied, key=lambda i: (abs(bank.angles[i]), bank.angles[i]))
        lines.append(((rx.position.x, rx.position.y),
                      wrap_angle(rx.boresight - bank.angles[beam])))
    ref = lines[0][1]
    diffs = [(angle - ref + math.pi / 2) % math.pi - math.pi / 2 for _, angle in lines[1:]]
    if all(abs(d) <= 1e-9 for d in diffs):
        return bearing_segment_midpoint(scenario, *lines[0]), True
    A, b = np.zeros((2, 2)), np.zeros(2)
    for origin, angle in lines:
        n = np.array([-math.sin(angle), math.cos(angle)])
        A += np.outer(n, n)
        b += np.outer(n, n) @ origin
    p = np.clip(np.linalg.solve(A, b), 0.0, scenario.room_side)
    return (p[0], p[1]), False


class TestAttenuationProfile:
    def test_identical_frames_zero_profile(self):
        s = two_link_scenario()
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((8, 7)) + 1j * rng.standard_normal((8, 7))
                  for _ in range(2)]
        f = frame_from_blocks(blocks)
        profiles = attenuation_profiles(f, f, s, swept_bank(s))
        assert np.allclose(profiles, 0.0, atol=1e-12)

    def test_profile_length_matches_bank(self):
        s = two_link_scenario()
        rng = np.random.default_rng(1)
        blocks = [rng.standard_normal((8, 7)) + 0j for _ in range(2)]
        f = frame_from_blocks(blocks)
        assert attenuation_profiles(f, f, s, swept_bank(s)).shape == (1, 2, 7)
        assert attenuation_profiles(f, f, s, overlapped_bank()).shape == (1, 2, 180)

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
        profile = attenuation_profiles(null, alt, s, bank)[0, 0]
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
        base = estimate_positions(f_n, f_a, s, bank)
        for scale in (0.1, 7.3):
            est = estimate_positions(f_n * scale, f_a * scale, s, bank)
            assert np.array_equal(est[0], base[0]) and np.array_equal(est[1], base[1])


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
        est, degraded = estimate_positions(frame_from_blocks(blocks_null),
                                           frame_from_blocks(blocks_alt), s, bank)
        assert not degraded[0]
        assert math.hypot(est[0, 0] - p.x, est[0, 1] - p.y) < 1e-9

    def test_single_link_degrades(self):
        # one receiver cannot triangulate: the estimate is its bearing's
        # in-room midpoint, marked degraded
        s = Scenario.from_dict(dict(
            name="one", tx=[0.0, 2.5],
            receivers=[{"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 8}],
        ))
        rng = np.random.default_rng(3)
        blk = [rng.standard_normal((8, 7)) + 0j]
        f = frame_from_blocks(blk)
        est, degraded = estimate_positions(f, f, s, swept_bank(s))
        assert degraded.tolist() == [True]
        # identical frames: every beam ties at 0 dB, so broadside (bearing pi) wins
        assert est[0] == pytest.approx([2.5, 2.5], abs=1e-12)

    def test_estimate_clamped_to_room(self):
        # parallel bearing draws are degraded; every estimate lies in the room
        s = two_link_scenario()
        bank = swept_bank(s)
        rng = np.random.default_rng(4)
        blocks_n = rng.standard_normal((20, 2, 8, 7)) + 1j * rng.standard_normal((20, 2, 8, 7))
        blocks_a = blocks_n * rng.uniform(0.2, 1.0, size=(20, 2, 8, 7))
        est, degraded = estimate_positions(to_tensor(blocks_n), to_tensor(blocks_a), s, bank)
        assert np.all((0 <= est) & (est <= 5))
        assert np.count_nonzero(~degraded) >= 10

    def test_matches_loop_oracle(self):
        # random drops, plus drop 0 with identical frames (every beam ties, so
        # broadside wins), drop 1 whose bearings are parallel (degraded
        # midpoint) and drop 2 with real frames, whose profiles are symmetric
        # in the beam angle (+-theta ties, resolved toward the smaller angle)
        s = two_link_scenario()
        bank = swept_bank(s)
        rng = np.random.default_rng(5)
        null = rng.standard_normal((40, 2, 8, 7)) + 1j * rng.standard_normal((40, 2, 8, 7))
        alt = null * rng.uniform(0.2, 1.0, size=(40, 2, 1, 7))
        alt[0] = null[0]
        cols = np.column_stack([array_response(a, 8) for a in bank.angles])
        null[1] = cols
        alt[1] = cols
        alt[1, 0, :, 3] *= 0.5          # receiver 0 peaks at beam 0 rad: bearing pi
        alt[1, 1, :, 0] *= 0.5          # receiver 1 peaks at beam -pi/2: bearing pi
        null[2], alt[2] = null[2].real, alt[2].real
        null, alt = to_tensor(null), to_tensor(alt)
        for b in (bank, overlapped_bank()):
            est, degraded = estimate_positions(null, alt, s, b)
            for d in range(40):
                want, want_degraded = oracle_estimate(null[d], alt[d], s, b)
                assert degraded[d] == want_degraded, d
                assert np.max(np.abs(est[d] - want)) <= 1e-12, d
        est, degraded = estimate_positions(null[:3], alt[:3], s, bank)
        assert degraded.tolist() == [False, True, False]
        assert est[0] == pytest.approx([2.5, 2.5], abs=1e-12)
        profiles = attenuation_profiles(null[2:3], alt[2:3], s, bank)[0]
        assert np.array_equal(profiles, profiles[:, ::-1])


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
        x, y = bearing_segment_midpoint(s, (5.0, 2.5), math.pi)
        assert x == pytest.approx(2.5, abs=1e-12)
        assert y == pytest.approx(2.5, abs=1e-12)

    def test_midpoint_diagonal(self):
        s = two_link_scenario()
        x, y = bearing_segment_midpoint(s, (0.0, 0.0), math.pi / 4)
        assert x == pytest.approx(2.5) and y == pytest.approx(2.5)
