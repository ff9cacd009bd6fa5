"""Angle-based position estimator used as the model-free reference.

Each receiver scans a bank of conjugate beamformers over a stored null-state
frame and the perturbed frame of the same channel realization; the beam with
maximum attenuation gives a bearing, and the bearings are intersected in the
least-squares sense (Stansfield 1947).  Every step runs on a block of drops
at once.

Bearing convention: arrival angles are propagation directions, so a beam at
local angle theta listens to sources at local angle -theta; the global
bearing of the selected beam is boresight - theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Scenario, array_response
from .errors import ConfigError
from .geometry import intersect_bearings, wrap_angles

ENERGY_FLOOR = 1e-12

SWEPT = "swept-7"
OVERLAPPED = "overlapped-180"


@dataclass(frozen=True)
class BeamBank:
    angles: tuple[float, ...]          # receiver-local steering angles
    variant: str


def swept_bank(scenario: Scenario) -> BeamBank:
    """The scenario's own beam sweep (7 beams for the reference setup)."""
    return BeamBank(angles=tuple(scenario.beam_angles), variant=SWEPT)


def overlapped_bank() -> BeamBank:
    """180 overlapped beams: 30-degree beams at one-degree stride over (-90, 90)."""
    degs = np.arange(-89.5, 90.0, 1.0)
    return BeamBank(angles=tuple(np.deg2rad(degs)), variant=OVERLAPPED)


@lru_cache(maxsize=8)
def _bank_weights(angles: tuple[float, ...], n_antennas: int) -> np.ndarray:
    """(bank, N_r) conjugate steering matrix a(theta)^H of a beam bank."""
    weights = np.array([array_response(a, n_antennas) for a in angles]).conj()
    weights.setflags(write=False)    # cached and shared between callers
    return weights


def attenuation_profiles(
    null: np.ndarray,
    alt: np.ndarray,
    scenario: Scenario,
    bank: BeamBank,
) -> np.ndarray:
    """(D, L, bank) attenuation in dB per receiver and bank angle, from D drops'
    null and perturbed frame tensors (D, rows, beams, 2).

    Attenuation at steering angle theta is 20*log10 of the ratio of
    beamformed energies |a(theta)^H H| between the null and perturbed frame,
    H a receiver's (N_r, beams) block, with both energies floored for
    numerical safety.
    """
    if null.shape != alt.shape:
        raise ConfigError(f"frame shapes differ: {null.shape} vs {alt.shape}")
    weights = _bank_weights(bank.angles, scenario.n_antennas)
    shape = (len(null), scenario.n_links, scenario.n_antennas, null.shape[2])

    def energy(tensors: np.ndarray) -> np.ndarray:
        h = np.ascontiguousarray(tensors).view(complex).reshape(shape)
        # One receiver at a time keeps the (D, bank, beams) beamformer outputs small.
        norms = [np.linalg.norm(weights @ h[:, l], axis=-1) for l in range(shape[1])]
        return np.maximum(np.stack(norms, axis=1), ENERGY_FLOOR)

    return 20.0 * np.log10(energy(null) / energy(alt))


def estimate_positions(
    null: np.ndarray,
    alt: np.ndarray,
    scenario: Scenario,
    bank: BeamBank,
) -> tuple[np.ndarray, np.ndarray]:
    """(D, 2) triangulated target positions of D drops, clamped to the room,
    and the (D,) mask of degraded ones.

    Each receiver takes the bearing of its maximum-attenuation beam, ties
    resolved toward broadside (smaller |angle|); a drop's bearings are
    intersected in the least-squares sense.  A single-receiver scenario, or a
    drop whose bearings are all parallel, falls back to bearing_segment_midpoint
    of receiver 0's bearing and is marked degraded.
    """
    profiles = attenuation_profiles(null, alt, scenario, bank)
    tied = profiles == profiles.max(axis=-1, keepdims=True)
    angles = np.asarray(bank.angles)
    rank = np.argsort(np.lexsort((angles, np.abs(angles))))   # tie-break order of each beam
    beam = np.argmin(np.where(tied, rank, len(angles)), axis=-1)
    geo = scenario.geometry
    bearings = wrap_angles(geo.boresight - angles[beam])      # (D, L)
    points, degraded = intersect_bearings(geo.rx_xy, bearings)
    side = scenario.room_side
    points = np.minimum(np.maximum(points, 0.0), side)
    origin = tuple(geo.rx_xy[0].tolist())
    for d in np.flatnonzero(degraded):
        points[d] = bearing_segment_midpoint(scenario, origin, float(bearings[d, 0]))
    return points, degraded


def bearing_segment_midpoint(scenario: Scenario, origin: tuple[float, float],
                             angle: float) -> tuple[float, float]:
    """Midpoint of the in-room segment of the bearing from `origin` (x, y) at
    global direction `angle`; degraded fallback estimate."""
    side = scenario.room_side
    ox, oy = origin
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    ts = []
    for bound, o, d in ((0.0, ox, cos_a), (side, ox, cos_a), (0.0, oy, sin_a), (side, oy, sin_a)):
        if abs(d) > 1e-15:
            t = (bound - o) / d
            if t > 1e-12:
                x = ox + t * cos_a
                y = oy + t * sin_a
                if -1e-9 <= x <= side + 1e-9 and -1e-9 <= y <= side + 1e-9:
                    ts.append(t)
    t_end = min(ts) if ts else 0.0
    x, y = ox + 0.5 * t_end * cos_a, oy + 0.5 * t_end * sin_a
    return min(max(x, 0.0), side), min(max(y, 0.0), side)
