"""Scalar reference rules that the tests check the array code of csisense against.

Each is the per-object form of a rule that the package applies to whole
arrays: wrap_angle for geometry.wrap_angles, distance and bearing for the
math.hypot and math.atan2 that the array code applies through
geometry.elementwise, segment_blocked and in_shadow for
geometry.segments_blocked, scalar_margin_ok for dataset.target_margin_ok,
layer_cake_mean for the mean of metrics.error_summary, four_count_accuracy for
metrics.accuracy_score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from csisense.dataset import DEVICE_CLEARANCE
from csisense.errors import ConfigError
from csisense.geometry import TWO_PI, Point2D


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(angle, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a


def distance(a: Point2D, b: Point2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def bearing(a: Point2D, b: Point2D) -> float:
    """Angle of the vector a -> b in the global frame."""
    return math.atan2(b.y - a.y, b.x - a.x)


@dataclass(frozen=True)
class Target:
    """Disk-shaped passive object: center plus diameter in meters."""

    center: Point2D
    diameter: float

    def __post_init__(self):
        if not (self.diameter > 0.0 and math.isfinite(self.diameter)):
            raise ConfigError(f"target diameter must be > 0, got {self.diameter}")

    @property
    def radius(self) -> float:
        return 0.5 * self.diameter

    def contains(self, p: Point2D) -> bool:
        """Closed-disk membership."""
        return distance(p, self.center) <= self.radius


def segment_blocked(a: Point2D, b: Point2D, target: Target) -> bool:
    """True iff the closed segment a->b intersects the closed target disk.

    Tangency counts as blocked.  Implemented as point-to-segment distance
    against the disk radius.
    """
    ax, ay = a.x, a.y
    dx, dy = b.x - a.x, b.y - a.y
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        raise ConfigError(f"segment endpoints coincide at ({ax}, {ay})")
    cx, cy = target.center.x - ax, target.center.y - ay
    # Projection parameter of the center onto the segment, clamped to [0, 1].
    t = (cx * dx + cy * dy) / seg_len2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    ex, ey = cx - t * dx, cy - t * dy
    return math.hypot(ex, ey) <= target.radius


def in_shadow(x: Point2D, viewpoint: Point2D, target: Target) -> bool:
    """True iff `x` lies in the shadow region cast by the target from `viewpoint`.

    Equivalent to the segment viewpoint->x intersecting the disk: a point is
    shadowed exactly when the disk sits between it and the viewpoint (or it is
    inside the disk itself).
    """
    if target.contains(viewpoint):
        raise ConfigError("viewpoint on or inside the target disk")
    return segment_blocked(viewpoint, x, target)


def scalar_margin_ok(scenario, sigma: float, x: float, y: float) -> bool:
    """Margin rule at center (x, y): sigma/2 clearance from walls, sigma/2 + 0.05 m from devices."""
    r = sigma / 2.0
    s = scenario.room_side
    if not (r <= x <= s - r and r <= y <= s - r):
        return False
    clear = r + DEVICE_CLEARANCE
    return all(math.hypot(x - p.x, y - p.y) >= clear for p in scenario.device_positions())


def four_count_accuracy(null_as_null, null_as_target, target_as_null, target_as_target):
    """P = 1 - (p(target|null) p(null) + p(null|target) p(target)), the priors and
    the conditional error rates estimated from the four confusion counts."""
    n_null = null_as_null + null_as_target
    n_target = target_as_null + target_as_target
    total = n_null + n_target
    p_fa = null_as_target / n_null
    p_miss = target_as_null / n_target
    return 1.0 - (p_fa * (n_null / total) + p_miss * (n_target / total))


def layer_cake_mean(summary) -> float:
    """Integral of (1 - CDF) over [0, max error] of an ErrorSummary; equals the mean exactly."""
    errors = summary.errors
    n = len(errors)
    edges = np.concatenate([[0.0], errors])
    survive = (n - np.arange(n)) / n
    return float(np.sum(np.diff(edges) * survive))
