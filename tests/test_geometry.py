import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csisense.errors import ConfigError
from csisense.geometry import (
    Point2D,
    intersect_bearings,
    segments_blocked,
    wrap_angles,
)
from oracles import Target, distance, in_shadow, segment_blocked, wrap_angle


def ray_circle_shadow_oracle(x: Point2D, v: Point2D, t: Target) -> bool:
    """Independent shadow test: quadratic ray-circle intersection.

    x is shadowed iff the ray v->x meets the circle no farther than x, i.e.
    the segment has a point at distance <= r from the center.
    """
    dx, dy = x.x - v.x, x.y - v.y
    seg = math.hypot(dx, dy)
    ux, uy = dx / seg, dy / seg
    cx, cy = t.center.x - v.x, t.center.y - v.y
    b = ux * cx + uy * cy
    c = cx * cx + cy * cy - t.radius**2
    disc = b * b - c
    if disc < 0:
        return False
    t_near = b - math.sqrt(disc)
    t_far = b + math.sqrt(disc)
    return t_far >= 0 and t_near <= seg


points = st.builds(
    Point2D,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


def probe(v: Point2D, angle: float, length: float = 50.0) -> Point2D:
    return Point2D(v.x + length * math.cos(angle), v.y + length * math.sin(angle))


class TestOcclusionInterval:
    """The disk of radius r at distance d shadows, from a viewpoint, the
    directions within asin(r/d) of the bearing to its center."""

    def test_reference_geometry(self):
        v, t = Point2D(0, 0), Target(Point2D(2, 0), 0.8)
        half = math.asin(0.2)
        for sign in (1, -1):
            assert in_shadow(probe(v, sign * half * (1 - 1e-9)), v, t)
            assert not in_shadow(probe(v, sign * half * (1 + 1e-9)), v, t)

    def test_reference_geometry_against_dense_sampling(self):
        # The interval boundary must match where long probe segments start
        # hitting the disk.
        v = Point2D(0, 0)
        t = Target(Point2D(2, 0), 0.8)
        half = math.asin(t.radius / 2.0)
        for ang in np.linspace(-math.pi / 2, math.pi / 2, 4001):
            if abs(abs(ang) - half) < 1e-6:
                continue  # numerically on the cone boundary
            assert in_shadow(probe(v, ang), v, t) == (abs(ang) <= half)

    def test_point_target_limit(self):
        v, t = Point2D(0, 0), Target(Point2D(0, 3), 1e-12)
        assert in_shadow(probe(v, math.pi / 2), v, t)
        assert not in_shadow(probe(v, math.pi / 2 + 1e-9), v, t)

    def test_viewpoint_inside_target(self):
        with pytest.raises(ConfigError, match="viewpoint on or inside the target disk"):
            in_shadow(Point2D(4, 0), Point2D(0, 0), Target(Point2D(0.1, 0), 0.8))

    @given(
        sigma=st.floats(0.1, 1.0),
        scale=st.floats(1.1, 5.0),
        dist=st.floats(1.0, 8.0),
    )
    def test_half_width_monotone(self, sigma, scale, dist):
        # a larger disk shadows every direction the smaller one does; seen
        # from twice the distance, the cone narrows to asin(r / 2d)
        v, c = Point2D(0, 0), Point2D(dist, 0)
        small = Target(c, sigma)
        large = Target(c, min(sigma * scale, 1.9 * dist))
        half = math.asin(small.radius / dist)
        for ang in (0.999 * half, -0.999 * half):
            assert in_shadow(probe(v, ang), v, small)
            assert in_shadow(probe(v, ang), v, large)
        far = Point2D(-dist, 0)
        far_half = math.asin(small.radius / (2 * dist))
        assert far_half <= half
        assert in_shadow(probe(far, 0.999 * far_half), far, small)
        assert not in_shadow(probe(far, 1.001 * far_half), far, small)


class TestSegmentBlocked:
    def test_through_center(self):
        assert segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 0), 0.8))

    def test_clear_segment(self):
        assert not segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 1), 0.8))

    def test_tangent_counts_as_blocked(self):
        assert segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 0.4), 0.8))

    def test_degenerate_segment(self):
        with pytest.raises(ConfigError, match=r"segment endpoints coincide at \(1, 1\)"):
            segment_blocked(Point2D(1, 1), Point2D(1, 1), Target(Point2D(2, 0), 0.8))

    @given(a=points, b=points, c=points, sigma=st.floats(0.05, 2.0))
    def test_symmetry(self, a, b, c, sigma):
        if distance(a, b) < 1e-12:
            return
        t = Target(c, sigma)
        assert segment_blocked(a, b, t) == segment_blocked(b, a, t)


class TestSegmentsBlocked:
    def test_matches_scalar_segment_blocked(self):
        # The scalar function is the reference; the arrays mix random segments
        # with tangent and end-point-touching ones, which sit exactly on the
        # boundary of the closed disk (dyadic coordinates keep them exact).
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = Target(Point2D(*(rng.integers(4, 36, size=2) / 8.0)),
                       float(rng.integers(1, 16)) / 8.0)
            a = rng.uniform(0, 5, size=(3, 40, 2))
            b = rng.uniform(0, 5, size=(3, 40, 2))
            c, r = t.center, t.radius
            a[0, :4] = [[c.x - 1, c.y + r], [c.x + r, c.y - 1], [c.x - 2, c.y], [c.x, c.y - r]]
            b[0, :4] = [[c.x + 1, c.y + r], [c.x + r, c.y + 1], [c.x - r, c.y], [c.x, c.y - 3]]
            got = segments_blocked(a, b, np.array([c.x, c.y]), r)
            assert got.shape == (3, 40)
            for idx in np.ndindex(got.shape):
                want = segment_blocked(Point2D(*a[idx]), Point2D(*b[idx]), t)
                assert got[idx] == want
            assert got[0, :4].all()

    def test_radius_at_a_last_bit_hypot_difference(self):
        # np.hypot and math.hypot differ in the last bit for these offsets; with
        # the radius equal to math.hypot's distance (tangency, blocked) or to
        # np.hypot's (one ulp past math's when it is the smaller), the mask
        # must still follow segment_blocked.  The segment points away from
        # the center, so its closest point is `a` and the offset is exact.
        offsets = [(1.212664907359462, 1.246387191446326),     # np.hypot is larger
                   (1.300472059149059, 1.381326852995591)]     # np.hypot is smaller
        for ex, ey in offsets:
            assert np.hypot(ex, ey) != math.hypot(ex, ey)
            for r in (math.hypot(ex, ey), float(np.hypot(ex, ey))):
                t = Target(Point2D(ex, ey), 2 * r)
                want = segment_blocked(Point2D(0.0, 0.0), Point2D(-1.0, 0.0), t)
                got = segments_blocked(np.zeros((1, 2)), np.array([[-1.0, 0.0]]),
                                       np.array([ex, ey]), r)
                assert got.tolist() == [want]

    def test_degenerate_segment(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ConfigError, match="segment endpoints coincide"):
            segments_blocked(a, np.array([[4.0, 0.0], [1.0, 1.0]]), np.array([2.0, 0.0]), 0.4)


class TestInShadow:
    def test_behind_disk(self):
        assert in_shadow(Point2D(4, 0), Point2D(0, 0), Target(Point2D(2, 0), 0.8))

    def test_in_front_of_disk(self):
        assert not in_shadow(Point2D(1, 0), Point2D(0, 0), Target(Point2D(2, 0), 0.8))

    def test_viewpoint_inside_raises(self):
        with pytest.raises(ConfigError, match="viewpoint on or inside the target disk"):
            in_shadow(Point2D(4, 0), Point2D(2.1, 0), Target(Point2D(2, 0), 0.8))

    def test_matches_segment_formulation_randomized(self):
        rng = np.random.default_rng(7)
        t = Target(Point2D(2.5, 2.5), 0.8)
        v = Point2D(0.2, 0.3)
        for _ in range(2000):
            x = Point2D(*rng.uniform(0, 5, size=2))
            assert in_shadow(x, v, t) == segment_blocked(v, x, t)

    def test_matches_cone_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            v = Point2D(*rng.uniform(0, 5, size=2))
            c = Point2D(*rng.uniform(0.5, 4.5, size=2))
            sigma = rng.uniform(0.1, 1.5)
            t = Target(c, sigma)
            if distance(v, c) <= t.radius + 1e-9:
                continue
            x = Point2D(*rng.uniform(0, 5, size=2))
            if distance(x, v) < 1e-9:
                continue
            assert in_shadow(x, v, t) == ray_circle_shadow_oracle(x, v, t)


class TestIntersectBearings:
    def test_exact_crossing(self):
        origins = np.array([[0.0, 0.0], [4.0, 0.0]])
        p, degenerate = intersect_bearings(origins, np.radians([[45.0, 135.0]]))
        assert not degenerate[0]
        assert p[0] == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_identical_lines_degenerate(self):
        p, degenerate = intersect_bearings(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                           np.array([[0.3, 0.3]]))
        assert degenerate.tolist() == [True]
        assert np.isnan(p).all()

    def test_antiparallel_lines_degenerate(self):
        origins = np.array([[0.0, 0.0], [1.0, 0.0]])
        _, degenerate = intersect_bearings(origins, np.array([[0.4, 0.4 - math.pi],
                                                              [0.4, 0.4 - math.pi + 1e-6]]))
        assert degenerate.tolist() == [True, False]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_noiseless_lines_recover_point(self, k):
        p = Point2D(1.5, 2.5)
        angles = np.array([-math.pi + (i + 0.3) * (1.7 * math.pi / k) for i in range(k)])
        origins = np.column_stack([p.x - 3 * np.cos(angles), p.y - 3 * np.sin(angles)])
        # the same lines twice, the second set in a batch with a degenerate one
        sets = np.stack([angles, angles, np.full(k, angles[0])])
        est, degenerate = intersect_bearings(origins, sets)
        assert degenerate.tolist() == [False, False, True]
        for e in est[:2]:
            assert math.hypot(e[0] - p.x, e[1] - p.y) < 1e-9


class TestAngularInterval:
    def test_wraps_across_pi(self):
        # a shadow cone centered just below +pi covers bearings just above -pi
        v = Point2D(0, 0)
        center = probe(v, math.pi - 0.05, length=2.0)
        t = Target(center, 2 * 2.0 * math.sin(0.2))       # half-width 0.2 rad
        assert in_shadow(probe(v, -math.pi + 0.05), v, t)
        assert not in_shadow(probe(v, 0.0), v, t)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_wrap_angle_range(self, a):
        w = wrap_angle(a)
        assert wrap_angles(np.array([a]))[0] == w
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
