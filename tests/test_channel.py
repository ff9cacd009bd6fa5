import math
from dataclasses import replace

import numpy as np
import pytest

from csisense.channel import (
    Scenario,
    array_response,
    beam_gain,
    blocked_rays,
    capture,
    link_geometry,
    ray_gains,
    room_angular_span,
    snap_to_grid,
    target_echo,
    tiles_per_side,
)
from csisense.dataset import draw
from csisense.frame import to_tensor
from csisense.errors import ConfigError
from csisense.geometry import Point2D
from oracles import Target, bearing, distance, in_shadow, wrap_angle


def small_scenario(**overrides) -> Scenario:
    cfg = dict(
        name="test",
        tx=[0.0, 2.5],
        receivers=[
            {"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 8},
            {"position": [2.5, 0.0], "boresight": math.pi / 2, "n_antennas": 8},
        ],
        snr_db=float("inf"),
    )
    cfg.update(overrides)
    return Scenario.from_dict(cfg)


def brute_force_quantize(tx, raw_aod, pitch, room_side):
    """Exhaustive argmin over all grid points from tx = (x, y), ties toward the nearer point."""
    n = int(room_side / pitch)
    best = None
    for i in range(n):
        for j in range(n):
            gx, gy = (i + 0.5) * pitch, (j + 0.5) * pitch
            dist = math.hypot(gx - tx[0], gy - tx[1])
            if dist <= 1e-12:
                continue
            ang = math.atan2(gy - tx[1], gx - tx[0])
            d = abs((ang - raw_aod + math.pi) % (2 * math.pi) - math.pi)
            key = (d, dist)
            if best is None or key < best[0]:
                best = (key, (gx, gy))
    return best[1]


class TestArrayResponse:
    def test_broadside_all_ones(self):
        assert np.allclose(array_response(0.0, 8), np.ones(8), atol=0)

    def test_endfire_alternates(self):
        assert np.allclose(array_response(math.pi / 2, 4), [1, -1, 1, -1], atol=1e-12)

    def test_unit_modulus(self):
        for theta in np.linspace(-math.pi, math.pi, 17):
            assert np.max(np.abs(np.abs(array_response(theta, 8)) - 1.0)) < 1e-12


class TestBeamGain:
    def test_bounds_and_peak(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            phi = rng.uniform(-math.pi, math.pi)
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            g = beam_gain(phi, theta, 8)
            assert -1e-12 <= g <= 1.0 + 1e-12
        assert beam_gain(0.3, 0.3, 8) == pytest.approx(1.0, abs=1e-12)
        # same sine, different angle: still full gain
        assert beam_gain(math.pi - 0.3, 0.3, 8) == pytest.approx(1.0, abs=1e-12)
        assert beam_gain(0.31, 0.3, 8) < 1.0


class TestRoomSpan:
    def test_interior_tx_full_circle(self):
        start, width = room_angular_span((2.0, 2.0), 5.0)
        assert width == pytest.approx(2 * math.pi)

    def test_wall_tx_half_plane(self):
        start, width = room_angular_span((0.0, 2.5), 5.0)
        assert width == pytest.approx(math.pi, abs=1e-12)
        assert start == pytest.approx(-math.pi / 2, abs=1e-12)


def gains_of(s: Scenario, seed: int) -> np.ndarray:
    """(L, R+1) ray gains of the realization drawn from `seed`."""
    return ray_gains(link_geometry(s), draw(s, np.random.default_rng(seed)).z[None])[0]


def blocked(s: Scenario, target: Target) -> np.ndarray:
    """(L, R+1) mask of the rays one target blocks."""
    c = target.center
    return blocked_rays(link_geometry(s), np.array([[c.x, c.y]]), np.array([target.radius]))[0]


def echo_of(s: Scenario, target: Target, phases: np.ndarray) -> np.ndarray:
    """(L, N_r, B) echo of one target with (L, n_scatter) phases."""
    c = target.center
    return target_echo(link_geometry(s), np.array([[c.x, c.y]]), np.array([target.radius]),
                       phases[None])[0]


def captures(s: Scenario, gains: np.ndarray, echo=None) -> np.ndarray:
    """(L, N_r, B) noiseless capture of one gain vector."""
    return capture(link_geometry(s), gains[None], None if echo is None else echo[None])[0]


def phases_of(s: Scenario, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (s.n_links, s.n_scatter))


def one_hot(s: Scenario, link: int, ray: int) -> np.ndarray:
    g = np.zeros((s.n_links, s.n_clusters * s.n_rays + 1), dtype=complex)
    g[link, ray] = 1.0
    return g


class TestDrawNullRays:
    def test_deterministic(self):
        s = small_scenario()
        assert np.array_equal(gains_of(s, 42), gains_of(s, 42))

    def test_ray_counts_table_config(self):
        s = small_scenario()
        geo = link_geometry(s)
        gains = gains_of(s, 0)
        # N_cl*N_rays bounce rays plus the direct path, last
        assert geo.scatter.shape == (2, 3 * 5, 2)
        assert gains.shape == (2, 3 * 5 + 1)
        assert np.all(np.count_nonzero(gains, axis=1) == 16)
        for l, rx in enumerate(s.receivers):
            assert gains[l, -1] == complex(s.los_gain / distance(s.tx, rx.position), 0.0)
        gains = gains_of(small_scenario(include_los=False), 0)
        assert np.all(np.count_nonzero(gains, axis=1) == 15)
        assert np.all(gains[:, -1] == 0)

    def test_mean_path_power_normalized(self):
        # Monte-Carlo check of the unit-power convention on the stochastic rays.
        s = small_scenario(receivers=[{"position": [5.0, 2.5], "boresight": math.pi}],
                           include_los=False)
        total = 0.0
        n = 10000
        for i in range(n):
            total += np.sum(np.abs(gains_of(s, i)[0]) ** 2)
        assert total / n == pytest.approx(1.0, rel=0.02)

    def test_geometry_fixed_across_seeds(self):
        s = small_scenario()
        assert link_geometry(s) is small_scenario().geometry
        a = gains_of(s, 1)
        b = gains_of(s, 2)
        assert np.all(a[:, :-1] != b[:, :-1])
        assert np.array_equal(a[:, -1], b[:, -1])

    def test_nested_scenarios_share_link_environment(self):
        s2 = small_scenario()
        s1 = small_scenario(receivers=[{"position": [5.0, 2.5], "boresight": math.pi}],
                            name="sub")
        assert np.array_equal(link_geometry(s2).scatter[0], link_geometry(s1).scatter[0])
        assert np.array_equal(link_geometry(s2).aoa[0], link_geometry(s1).aoa[0])

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="no grid point distinct from the transmitter"):
            gains_of(small_scenario(grid_pitch=10.0), 0)


WALL_TX = (0.0, 2.5)


def snap_one(raw: float) -> tuple[float, float]:
    """The grid point one departure from WALL_TX snaps to, in a 5 m room at pitch 0.25."""
    return tuple(snap_to_grid(WALL_TX, np.array(raw), 0.25, 5.0).tolist())


class TestQuantizeRay:
    def test_on_grid_ray_is_fixed_point(self):
        raw = bearing(Point2D(*WALL_TX), Point2D(2.625, 2.625))
        assert snap_one(raw) == (2.625, 2.625)

    def test_tie_breaks_toward_nearer_point(self):
        # (0.625, 2.625) and (1.25, 2.75) are exactly collinear from the tx;
        # an exact-angle tie must resolve to the nearer one.
        tx = Point2D(*WALL_TX)
        assert bearing(tx, Point2D(0.625, 2.625)) == bearing(tx, Point2D(1.25, 2.75))
        assert snap_one(bearing(tx, Point2D(1.25, 2.75))) == (0.625, 2.625)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        raws = rng.uniform(-math.pi / 2, math.pi / 2, size=(20, 15))
        points = snap_to_grid(WALL_TX, raws, 0.25, 5.0)         # all 300 at once
        assert points.shape == (20, 15, 2)
        for raw, point in zip(raws.ravel(), points.reshape(-1, 2).tolist()):
            assert tuple(point) == brute_force_quantize(WALL_TX, raw, 0.25, 5.0)

    def test_transmitter_cell_is_skipped(self):
        # the cell under the tx has no bearing; with no other cell the grid is empty
        point = snap_to_grid((0.375, 0.125), np.array([0.0]), 0.25, 5.0)
        assert point.tolist() == [[0.625, 0.125]]
        with pytest.raises(ConfigError, match="no grid point distinct from the transmitter"):
            snap_to_grid((0.5, 0.5), np.array([0.0]), 1.0, 1.0)

    def test_aoa_definition(self):
        # a ray arrives along the bearing from its bounce point (the tx for the
        # direct path, last) to the receiver, in the receiver's frame
        s = small_scenario()
        geo = link_geometry(s)
        for l, rx in enumerate(s.receivers):
            sources = [Point2D(x, y) for x, y in geo.scatter[l].tolist()] + [s.tx]
            for i, source in enumerate(sources):
                expected = wrap_angle(bearing(source, rx.position) - rx.boresight)
                assert geo.aoa[l, i] == expected


class TestApplyTarget:
    def test_no_occlusion_keeps_gains(self):
        s = small_scenario()
        # a tiny target in a corner far from every segment
        target = Target(Point2D(4.6, 4.6), 0.05)
        assert not blocked(s, target).any()
        d = draw(s, np.random.default_rng(1), target.diameter, target.center)
        assert echo_of(s, target, d.phases).shape == (s.n_links, s.n_antennas, s.n_beams)
        # after the gains, n_scatter phases per link, and no noise (noiseless
        # scenario), come from the stream
        ref = np.random.default_rng(1)
        assert np.array_equal(d.z, ref.standard_normal(d.z.shape))
        assert np.array_equal(d.phases, ref.uniform(0.0, 2 * math.pi, (s.n_links, s.n_scatter)))
        assert d.noise is None

    def test_blocks_ray_through_center(self):
        s = small_scenario()
        geo = link_geometry(s)
        sx, sy = geo.scatter[0, 0]
        mid = Point2D((s.tx.x + sx) / 2, (s.tx.y + sy) / 2)
        assert blocked(s, Target(mid, 0.3))[0, 0]

    def test_zeroed_set_matches_shadow_oracle(self):
        s = small_scenario()
        geo = link_geometry(s)
        rng = np.random.default_rng(17)
        centers = rng.uniform(0.8, 4.2, size=(20, 2))
        diameters = rng.uniform(0.3, 1.2, size=20)
        masks = blocked_rays(geo, centers, diameters / 2)       # all 20 targets at once
        for (cx, cy), sigma, mask in zip(centers, diameters, masks):
            target = Target(Point2D(cx, cy), sigma)
            for l, rx in enumerate(s.receivers):
                for i, (x, y) in enumerate(geo.scatter[l]):
                    sp = Point2D(float(x), float(y))
                    expected = in_shadow(sp, s.tx, target) or in_shadow(
                        sp, rx.position, target)
                    assert mask[l, i] == expected
                assert mask[l, -1] == in_shadow(rx.position, s.tx, target)

    def test_zeroing_monotone_in_sigma(self):
        s = small_scenario()
        geo = link_geometry(s)
        center = Point2D(2.3, 2.1)
        zeroed_prev = np.zeros(geo.aoa.shape, dtype=bool)
        for sigma in (0.2, 0.5, 0.8, 1.2):
            zeroed = blocked(s, Target(center, sigma))
            assert np.all(zeroed_prev <= zeroed)
            zeroed_prev = zeroed

    def test_scatter_ray_geometry_and_gain(self):
        s = small_scenario(scatter_coeff=2.0)
        center = Point2D(2.0, 3.0)
        target = Target(center, 0.8)
        phases = np.random.default_rng(4).uniform(0.0, 2 * math.pi, size=s.n_links)
        echo = echo_of(s, target, phases[:, None])
        for l, rx in enumerate(s.receivers):
            aoa = wrap_angle(bearing(center, rx.position) - rx.boresight)
            d1 = distance(s.tx, center)
            d2 = distance(center, rx.position)
            gain = 2.0 * 0.4 / (d1 * d2) * np.exp(1j * phases[l])
            # one path from the target center, seen through every beam
            for b, beam in enumerate(s.beam_angles):
                expected = gain * beam_gain(aoa, beam, 8) * array_response(aoa, 8)
                assert np.allclose(echo[l, :, b], expected, rtol=0, atol=1e-14)
            assert np.max(np.abs(echo[l])) == pytest.approx(abs(gain) * max(
                beam_gain(aoa, beam, 8) for beam in s.beam_angles), rel=1e-12)


class TestBeamCsi:
    def test_aligned_single_ray(self):
        # arrival angles are propagation directions, near +-pi for these links;
        # the beam with the same sine is aligned with the ray
        aoa = link_geometry(small_scenario()).aoa[0, 0]
        s = small_scenario(beam_angles=[math.asin(math.sin(aoa))])
        h = captures(s, one_hot(s, 0, 0))
        assert np.allclose(h[0, :, 0], array_response(aoa, 8), atol=1e-12)

    def test_first_null_separation(self):
        # sin separation of 2/N zeroes the conjugate beamformer dot product
        phi = link_geometry(small_scenario()).aoa[0, 0]
        theta = math.asin(math.sin(phi) - 2.0 / 8.0)
        s = small_scenario(beam_angles=[theta])
        h = captures(s, one_hot(s, 0, 0))
        assert np.linalg.norm(h[0, :, 0]) < 1e-12

    def test_empty_noiseless_is_zero(self):
        s = small_scenario()
        assert np.all(captures(s, 0.0 * one_hot(s, 0, 0)) == 0)

    def test_energy_ordering_occlusion_only(self):
        # Occlusion removes rays, so every beam loses energy in expectation
        # and in the incoherent (sum of powers) sense.  The coherent per-beam
        # norm of a single realization can grow when a destructively
        # interfering ray is removed, so the ordering is asserted on the
        # Monte-Carlo mean.
        s = small_scenario(scatter_coeff=0.0)
        target = Target(Point2D(2.2, 2.9), 1.0)
        mask = blocked(s, target)
        acc_null = np.zeros((s.n_links, s.n_beams))
        acc_alt = np.zeros((s.n_links, s.n_beams))
        n = 300
        for seed in range(n):
            gains = gains_of(s, seed)
            echo = echo_of(s, target, phases_of(s, seed))
            acc_null += np.sum(np.abs(captures(s, gains)) ** 2, axis=1)
            acc_alt += np.sum(np.abs(captures(s, np.where(mask, 0, gains), echo)) ** 2,
                              axis=1)
        assert np.all(acc_alt <= acc_null + 1e-9)

    def test_incoherent_power_never_increases(self):
        s = small_scenario(scatter_coeff=0.0)
        rng = np.random.default_rng(5)
        for trial in range(10):
            gains = gains_of(s, trial)
            center = Point2D(rng.uniform(1, 4), rng.uniform(1, 4))
            kept = np.where(blocked(s, Target(center, 1.0)), 0, gains)
            p_null = np.sum(np.abs(gains) ** 2, axis=1)
            p_alt = np.sum(np.abs(kept) ** 2, axis=1)
            assert np.all(p_alt <= p_null + 1e-15)

    def test_null_recovered_for_vanishing_target(self):
        s = small_scenario(scatter_coeff=0.0)
        target = Target(Point2D(4.7, 4.7), 1e-9)
        assert not blocked(s, target).any()
        gains = gains_of(s, 8)
        echo = echo_of(s, target, phases_of(s, 8))
        assert np.allclose(captures(s, gains, echo), captures(s, gains), atol=1e-12)

    def test_capture_matches_per_ray_sum(self):
        # Frame layout on synthesised frames: row l*N_r + n, one column per
        # beam, each entry the sum over rays of gain * B(aoa; beam) * a_n(aoa).
        s = small_scenario()
        geo = link_geometry(s)
        gains = gains_of(s, 3)
        frame = to_tensor(capture(geo, gains[None]))[0]
        assert frame.shape == (s.n_links * 8, s.n_beams, 2)
        for l in range(s.n_links):
            for b, beam in enumerate(s.beam_angles):
                expected = sum(g * beam_gain(a, beam, 8) * array_response(a, 8)
                               for g, a in zip(gains[l], geo.aoa[l]))
                rows = frame[l * 8:(l + 1) * 8, b]
                assert np.allclose(rows[:, 0] + 1j * rows[:, 1], expected, rtol=0, atol=1e-12)

    def test_link_permutation_permutes_row_blocks(self):
        s = small_scenario()
        geo = link_geometry(s)
        gains = gains_of(s, 6)
        base = to_tensor(capture(geo, gains[None]))[0]
        swapped = replace(geo, response=geo.response[[1, 0]])
        perm = to_tensor(capture(swapped, gains[None, [1, 0]]))[0]
        assert np.array_equal(perm[0:8], base[8:16])
        assert np.array_equal(perm[8:16], base[0:8])

    def test_noise_is_one_draw_per_capture(self):
        # a paired drop draws one (L, B, 2, N_r) array per capture, null
        # capture first, after the gains and the echo phases
        s = small_scenario(snr_db=10.0)
        geo = link_geometry(s)
        d = draw(s, np.random.default_rng(11), 0.5, Point2D(2.5, 2.5))
        ref = np.random.default_rng(11)
        ref.standard_normal(d.z.shape)
        ref.uniform(size=d.phases.shape)
        shape = (s.n_links, s.n_beams, 2, 8)
        assert d.noise.shape == (2,) + shape
        assert np.array_equal(d.noise[0], ref.standard_normal(shape))
        assert np.array_equal(d.noise[1], ref.standard_normal(shape))
        gains = ray_gains(geo, d.z[None])
        noisy = capture(geo, gains, None, d.noise[None, 0])[0]
        z = d.noise[0]
        noise = math.sqrt(0.1 / 2) * (z[:, :, 0] + 1j * z[:, :, 1])
        expected = captures(small_scenario(), gains[0]) + noise.transpose(0, 2, 1)
        assert np.allclose(noisy, expected, rtol=0, atol=1e-14)


class TestScenarioConfig:
    def test_round_trip(self):
        s = small_scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_unknown_keys_rejected(self):
        cfg = small_scenario().to_dict()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError):
            Scenario.from_dict(cfg)

    def test_unsorted_beams_rejected(self):
        with pytest.raises(ConfigError):
            small_scenario(beam_angles=[0.5, -0.5])

    def test_mixed_antenna_counts_rejected(self):
        with pytest.raises(ConfigError):
            small_scenario(receivers=[
                {"position": [5.0, 2.5], "boresight": math.pi, "n_antennas": 8},
                {"position": [2.5, 0.0], "boresight": math.pi / 2, "n_antennas": 4},
            ])

    @pytest.mark.parametrize("key", ["room_side", "grid_pitch", "cluster_spread_deg",
                                     "los_gain", "scatter_coeff", "snr_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, key, value):
        if key == "snr_db" and value == math.inf:
            assert small_scenario(snr_db=value).noise_level == 0.0   # noiseless
            return
        with pytest.raises(ConfigError):
            small_scenario(**{key: value})

    def test_non_finite_beam_and_device_floats_rejected(self):
        with pytest.raises(ConfigError):
            small_scenario(beam_angles=[-0.5, math.nan])
        with pytest.raises(ConfigError):
            small_scenario(tx=[0.0, math.nan])
        with pytest.raises(ConfigError):
            small_scenario(receivers=[{"position": [5.0, 2.5], "boresight": math.nan}])

    def test_device_outside_room_rejected(self):
        with pytest.raises(ConfigError):
            small_scenario(tx=[-1.0, 2.5])

    @pytest.mark.parametrize("include_los", [True, False])
    def test_receiver_on_transmitter_rejected(self, include_los):
        # its direct path has no length: a 1/0 amplitude and degenerate legs
        with pytest.raises(ConfigError, match="coincides with the transmitter"):
            small_scenario(include_los=include_los,
                           receivers=[{"position": [0.0, 2.5], "boresight": 0.0}])

    def test_tiling_bound(self):
        assert tiles_per_side(5.0, 0.25) == 20
        assert tiles_per_side(5.0, 6.0) == 0
        assert tiles_per_side(5.0, 5.0 / 512) == 512
        for pitch in (5.0 / 513, 1e-300, 5e-324, 0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite and > 0|into more than 512 x 512"):
                tiles_per_side(5.0, pitch)
        with pytest.raises(ConfigError, match="into more than 512 x 512 cells"):
            small_scenario(grid_pitch=1e-300)
