"""Pure 2-D occlusion geometry.

Conventions: global frame has +x right, +y up, angles in radians measured
counterclockwise from +x and normalized to (-pi, pi].  The target is a closed
disk; rays grazing the boundary count as blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment, InvalidSize, ViewpointInsideTarget

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


def elementwise(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn(x, y) over broadcast arrays, for math.hypot and math.atan2, whose
    numpy counterparts differ from them in the last bit for some inputs."""
    x, y = np.broadcast_arrays(x, y)
    return np.fromiter(map(fn, x.ravel().tolist(), y.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def segments_blocked(a: np.ndarray, b: np.ndarray, center: np.ndarray,
                     radius: np.ndarray | float) -> np.ndarray:
    """segment_blocked over arrays: segments a[..., :] -> b[..., :] against disks
    of centers center[..., :] (last axis x, y) and radii `radius`, all broadcast.

    Performs segment_blocked's arithmetic element by element, so it returns
    the same booleans.  np.hypot may differ from math.hypot in the last bit,
    which can only change the comparison of a distance within a few ulps of
    the radius; distances within 1e-9 (relative) of it are recomputed with
    math.hypot.
    """
    d = b - a
    seg_len2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    if np.any(seg_len2 == 0.0):
        raise DegenerateSegment("segment endpoints coincide")
    cx = center[..., 0] - a[..., 0]
    cy = center[..., 1] - a[..., 1]
    t = np.clip((cx * d[..., 0] + cy * d[..., 1]) / seg_len2, 0.0, 1.0)
    ex, ey = cx - t * d[..., 0], cy - t * d[..., 1]
    dist = np.hypot(ex, ey)
    near = np.abs(dist - radius) <= 1e-9 * radius
    dist[near] = elementwise(math.hypot, ex[near], ey[near])
    return dist <= radius


def in_shadow(x: Point2D, viewpoint: Point2D, target: Target) -> bool:
    """True iff `x` lies in the shadow region cast by the target from `viewpoint`.

    Equivalent to the segment viewpoint->x intersecting the disk: a point is
    shadowed exactly when the disk sits between it and the viewpoint (or it is
    inside the disk itself).
    """
    if target.contains(viewpoint):
        raise ViewpointInsideTarget("viewpoint on or inside the target disk")
    return segment_blocked(viewpoint, x, target)


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """wrap_angle element by element, with the same arithmetic and so the same values."""
    a = np.fmod(angles, TWO_PI)
    return np.where(a > math.pi, a - TWO_PI, np.where(a <= -math.pi, a + TWO_PI, a))


def intersect_bearings(origins: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares intersections of sets of bearing lines.

    Line l of every set passes through origins[l] (an (L, 2) array) with
    direction angles[..., l].  A set's point minimizes the sum of squared
    perpendicular distances to its lines: with n_l the unit normal of line l,
    the normal equations are (sum n_l n_l^T) p = sum n_l n_l^T o_l, summed in
    line order.  Returns the (..., 2) points and the (...) mask of degenerate
    sets, whose lines are all parallel within PARALLEL_TOL (or number fewer
    than two); their points are NaN.
    """
    # Direction difference to the first line modulo pi, folded into [-pi/2, pi/2).
    diff = np.fmod(angles[..., 1:] - angles[..., :1], math.pi)
    diff = np.where(diff >= math.pi / 2, diff - math.pi,
                    np.where(diff < -math.pi / 2, diff + math.pi, diff))
    degenerate = np.all(np.abs(diff) <= PARALLEL_TOL, axis=-1)
    n = np.stack([-np.sin(angles), np.cos(angles)], axis=-1)
    nnt = n[..., :, None] * n[..., None, :]                 # (..., L, 2, 2)
    A = np.zeros(angles.shape[:-1] + (2, 2))
    b = np.zeros(angles.shape[:-1] + (2,))
    for l in range(angles.shape[-1]):
        A += nnt[..., l, :, :]
        b += nnt[..., l, :, :] @ origins[l]
    A[degenerate] = np.eye(2)
    p = np.linalg.solve(A, b[..., None])[..., 0]
    p[degenerate] = np.nan
    return p, degenerate
