"""Pure 2-D geometry over arrays: angle wrapping, occlusion, bearing fixes.

Conventions: global frame has +x right, +y up, angles in radians measured
counterclockwise from +x and normalized to (-pi, pi].  The target is a closed
disk; rays grazing the boundary count as blocked.  Point2D is the validated
position of a device; everything else takes coordinate arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

PARALLEL_TOL = 1e-9  # rad; bearing directions closer than this count as parallel


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConfigError(f"non-finite point ({self.x}, {self.y})")


def segments_blocked(a: np.ndarray, b: np.ndarray, center: np.ndarray,
                     radius: np.ndarray | float) -> np.ndarray:
    """Whether the closed segments a[..., :] -> b[..., :] meet the closed disks
    of centers center[..., :] (last axis x, y) and radii `radius`, all broadcast.

    A segment meets a disk when the distance from the disk's center to its
    nearest point on the segment (the center's projection, clamped to the
    segment's ends) is at most the radius; tangency counts as blocked.
    Coinciding endpoints raise ConfigError.
    """
    d = b - a
    seg_len2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    if np.any(seg_len2 == 0.0):
        raise ConfigError("segment endpoints coincide")
    cx = center[..., 0] - a[..., 0]
    cy = center[..., 1] - a[..., 1]
    t = np.clip((cx * d[..., 0] + cy * d[..., 1]) / seg_len2, 0.0, 1.0)
    return np.hypot(cx - t * d[..., 0], cy - t * d[..., 1]) <= radius


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Angles normalized to (-pi, pi] element by element: fmod by 2 pi, then one
    shift by 2 pi when that leaves them above pi or at or below -pi."""
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
