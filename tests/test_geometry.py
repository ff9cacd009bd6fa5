import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csisense.errors import DegenerateGeometry, DegenerateSegment, ViewpointInsideTarget
from csisense.geometry import (
    AngularInterval,
    BearingLine,
    Point2D,
    Target,
    in_shadow,
    intersect_bearings,
    occlusion_interval,
    segment_blocked,
    segments_blocked,
    wrap_angle,
)


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


class TestOcclusionInterval:
    def test_reference_geometry(self):
        iv = occlusion_interval(Point2D(0, 0), Target(Point2D(2, 0), 0.8))
        assert iv.center == pytest.approx(0.0, abs=1e-15)
        assert iv.half_width == pytest.approx(math.asin(0.2), abs=1e-12)

    def test_reference_geometry_against_dense_sampling(self):
        # The interval boundary must match where long probe segments start
        # hitting the disk.
        v = Point2D(0, 0)
        t = Target(Point2D(2, 0), 0.8)
        iv = occlusion_interval(v, t)
        for ang in np.linspace(-math.pi / 2, math.pi / 2, 4001):
            if abs(abs(ang - iv.center) - iv.half_width) < 1e-6:
                continue  # numerically on the cone boundary
            probe = Point2D(v.x + 50 * math.cos(ang), v.y + 50 * math.sin(ang))
            assert segment_blocked(v, probe, t) == iv.contains(ang)

    def test_point_target_limit(self):
        iv = occlusion_interval(Point2D(0, 0), Target(Point2D(0, 3), 1e-12))
        assert iv.center == pytest.approx(math.pi / 2)
        assert iv.half_width < 1e-12

    def test_viewpoint_inside_target(self):
        with pytest.raises(ViewpointInsideTarget):
            occlusion_interval(Point2D(0, 0), Target(Point2D(0.1, 0), 0.8))

    @given(
        sigma=st.floats(0.1, 1.0),
        scale=st.floats(1.1, 5.0),
        dist=st.floats(1.0, 8.0),
    )
    def test_half_width_monotone(self, sigma, scale, dist):
        v = Point2D(0, 0)
        c = Point2D(dist, 0)
        base = occlusion_interval(v, Target(c, sigma)).half_width
        assert occlusion_interval(v, Target(c, min(sigma * scale, 1.9 * dist))).half_width >= base
        assert occlusion_interval(Point2D(-dist, 0), Target(c, sigma)).half_width <= base


class TestSegmentBlocked:
    def test_through_center(self):
        assert segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 0), 0.8))

    def test_clear_segment(self):
        assert not segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 1), 0.8))

    def test_tangent_counts_as_blocked(self):
        assert segment_blocked(Point2D(0, 0), Point2D(4, 0), Target(Point2D(2, 0.4), 0.8))

    def test_degenerate_segment(self):
        with pytest.raises(DegenerateSegment):
            segment_blocked(Point2D(1, 1), Point2D(1, 1), Target(Point2D(2, 0), 0.8))

    @given(a=points, b=points, c=points, sigma=st.floats(0.05, 2.0))
    def test_symmetry(self, a, b, c, sigma):
        if a.distance_to(b) < 1e-12:
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
            got = segments_blocked(a, b, t)
            assert got.shape == (3, 40)
            for idx in np.ndindex(got.shape):
                want = segment_blocked(Point2D(*a[idx]), Point2D(*b[idx]), t)
                assert got[idx] == want
            assert got[0, :4].all()

    def test_degenerate_segment(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateSegment):
            segments_blocked(a, np.array([[4.0, 0.0], [1.0, 1.0]]), Target(Point2D(2, 0), 0.8))


class TestInShadow:
    def test_behind_disk(self):
        assert in_shadow(Point2D(4, 0), Point2D(0, 0), Target(Point2D(2, 0), 0.8))

    def test_in_front_of_disk(self):
        assert not in_shadow(Point2D(1, 0), Point2D(0, 0), Target(Point2D(2, 0), 0.8))

    def test_viewpoint_inside_raises(self):
        with pytest.raises(ViewpointInsideTarget):
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
            if v.distance_to(c) <= t.radius + 1e-9:
                continue
            x = Point2D(*rng.uniform(0, 5, size=2))
            if x.distance_to(v) < 1e-9:
                continue
            assert in_shadow(x, v, t) == ray_circle_shadow_oracle(x, v, t)


class TestIntersectBearings:
    def test_exact_crossing(self):
        lines = [
            BearingLine(Point2D(0, 0), math.radians(45)),
            BearingLine(Point2D(4, 0), math.radians(135)),
        ]
        p = intersect_bearings(lines)
        assert p.x == pytest.approx(2.0, abs=1e-12)
        assert p.y == pytest.approx(2.0, abs=1e-12)

    def test_identical_lines_degenerate(self):
        line = BearingLine(Point2D(1, 1), 0.3)
        with pytest.raises(DegenerateGeometry):
            intersect_bearings([line, line])

    def test_antiparallel_lines_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            intersect_bearings([
                BearingLine(Point2D(0, 0), 0.4),
                BearingLine(Point2D(1, 0), 0.4 - math.pi),
            ])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_noiseless_lines_recover_point(self, k):
        p = Point2D(1.5, 2.5)
        rng = np.random.default_rng(k)
        lines = []
        for i in range(k):
            ang = -math.pi + (i + 0.3) * (1.7 * math.pi / k)
            origin = Point2D(p.x - 3 * math.cos(ang) + 0 * rng.uniform(),
                             p.y - 3 * math.sin(ang))
            lines.append(BearingLine(origin, ang))
        est = intersect_bearings(lines)
        assert math.hypot(est.x - p.x, est.y - p.y) < 1e-9


class TestAngularInterval:
    def test_wraps_across_pi(self):
        iv = AngularInterval(center=math.pi - 0.05, half_width=0.2)
        assert iv.contains(-math.pi + 0.05)
        assert not iv.contains(0.0)

    @given(st.floats(-50, 50, allow_nan=False))
    def test_wrap_angle_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
