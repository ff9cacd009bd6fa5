"""Pure 2-D occlusion geometry.

Conventions: global frame has +x right, +y up, angles in radians measured
counterclockwise from +x and normalized to (-pi, pi].  The target is a closed
disk; rays grazing the boundary count as blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateSegment,
    InvalidSize,
    ViewpointInsideTarget,
)

TWO_PI = 2.0 * math.pi

PARALLEL_TOL = 1e-9  # rad; bearing directions closer than this count as parallel


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def distance_to(self, other: "Point2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def bearing_to(self, other: "Point2D") -> float:
        """Angle of the vector self -> other in the global frame."""
        return math.atan2(other.y - self.y, other.x - self.x)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Target:
    """Disk-shaped passive object: center plus diameter in meters."""

    center: Point2D
    diameter: float

    def __post_init__(self):
        if not (self.diameter > 0.0 and math.isfinite(self.diameter)):
            raise InvalidSize(f"target diameter must be > 0, got {self.diameter}")

    @property
    def radius(self) -> float:
        return 0.5 * self.diameter

    def contains(self, p: Point2D) -> bool:
        """Closed-disk membership."""
        return p.distance_to(self.center) <= self.radius


@dataclass(frozen=True)
class AngularInterval:
    """Angular interval given by center angle and half-width, wrap-aware."""

    center: float
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "center", wrap_angle(self.center))
        if not 0.0 <= self.half_width < math.pi / 2:
            raise ValueError(f"half-width must be in [0, pi/2), got {self.half_width}")

    def contains(self, angle: float) -> bool:
        delta = wrap_angle(angle - self.center)
        return abs(delta) <= self.half_width


@dataclass(frozen=True)
class BearingLine:
    """Infinite line through `origin` with the given direction angle."""

    origin: Point2D
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(self.angle))


def occlusion_interval(viewpoint: Point2D, target: Target) -> AngularInterval:
    """Angular interval subtended by the target disk as seen from `viewpoint`.

    The disk of radius r at distance d subtends half-width asin(r/d) around
    the bearing to its center.  Requires the viewpoint strictly outside the
    disk (d > r).
    """
    d = viewpoint.distance_to(target.center)
    if d <= target.radius:
        raise ViewpointInsideTarget(
            f"viewpoint at distance {d:.6g} m, target radius {target.radius:.6g} m"
        )
    return AngularInterval(
        center=viewpoint.bearing_to(target.center),
        half_width=math.asin(target.radius / d),
    )


def segment_blocked(a: Point2D, b: Point2D, target: Target) -> bool:
    """True iff the closed segment a->b intersects the closed target disk.

    Tangency counts as blocked.  Implemented as point-to-segment distance
    against the disk radius.
    """
    ax, ay = a.x, a.y
    dx, dy = b.x - a.x, b.y - a.y
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        raise DegenerateSegment(f"segment endpoints coincide at ({ax}, {ay})")
    cx, cy = target.center.x - ax, target.center.y - ay
    # Projection parameter of the center onto the segment, clamped to [0, 1].
    t = (cx * dx + cy * dy) / seg_len2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    ex, ey = cx - t * dx, cy - t * dy
    return math.hypot(ex, ey) <= target.radius


def segments_blocked(a: np.ndarray, b: np.ndarray, target: Target) -> np.ndarray:
    """segment_blocked over arrays of segments a[..., :] -> b[..., :] (last axis x, y).

    Performs segment_blocked's arithmetic element by element, so it returns
    the same booleans; the distance uses math.hypot because np.hypot differs
    from it in the last bit for some inputs.
    """
    d = b - a
    seg_len2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    if np.any(seg_len2 == 0.0):
        raise DegenerateSegment("segment endpoints coincide")
    cx = target.center.x - a[..., 0]
    cy = target.center.y - a[..., 1]
    t = np.clip((cx * d[..., 0] + cy * d[..., 1]) / seg_len2, 0.0, 1.0)
    ex = (cx - t * d[..., 0]).ravel().tolist()
    ey = (cy - t * d[..., 1]).ravel().tolist()
    dist = np.fromiter(map(math.hypot, ex, ey), dtype=float, count=len(ex))
    return (dist <= target.radius).reshape(seg_len2.shape)


def in_shadow(x: Point2D, viewpoint: Point2D, target: Target) -> bool:
    """True iff `x` lies in the shadow region cast by the target from `viewpoint`.

    Equivalent to the segment viewpoint->x intersecting the disk: a point is
    shadowed exactly when the disk sits between it and the viewpoint (or it is
    inside the disk itself).
    """
    if target.contains(viewpoint):
        raise ViewpointInsideTarget("viewpoint on or inside the target disk")
    return segment_blocked(viewpoint, x, target)


def intersect_bearings(lines: Sequence[BearingLine]) -> Point2D:
    """Least-squares intersection of bearing lines.

    Minimizes the sum of squared perpendicular distances to all lines.  With
    n_i the unit normal of line i and o_i its origin, the normal equations are
    (sum n_i n_i^T) p = sum n_i n_i^T o_i.
    """
    if len(lines) < 2:
        raise DegenerateGeometry("need at least two bearing lines")
    ref = lines[0].angle
    all_parallel = True
    for ln in lines[1:]:
        # Direction difference modulo pi, folded into [-pi/2, pi/2).
        diff = math.fmod(ln.angle - ref, math.pi)
        if diff >= math.pi / 2:
            diff -= math.pi
        elif diff < -math.pi / 2:
            diff += math.pi
        if abs(diff) > PARALLEL_TOL:
            all_parallel = False
            break
    if all_parallel:
        raise DegenerateGeometry("all bearing lines parallel within tolerance")

    A = np.zeros((2, 2))
    b = np.zeros(2)
    for ln in lines:
        n = np.array([-math.sin(ln.angle), math.cos(ln.angle)])
        nnt = np.outer(n, n)
        A += nnt
        b += nnt @ ln.origin.as_array()
    p = np.linalg.solve(A, b)
    return Point2D(float(p[0]), float(p[1]))
