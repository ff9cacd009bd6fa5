"""Angle-based position estimator used as the model-free reference.

Each receiver scans a bank of conjugate beamformers over a stored null-state
frame and the perturbed frame of the same channel realization; the beam with
maximum attenuation gives a bearing, and the bearings are intersected in the
least-squares sense.

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
from .errors import ShapeMismatch, SingleLink
from .frame import CsiFrame
from .geometry import BearingLine, Point2D, intersect_bearings, wrap_angle

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


def _receiver_block(frame: CsiFrame, receiver_index: int) -> np.ndarray:
    n_r = frame.meta.n_antennas
    if not 0 <= receiver_index < frame.meta.n_links:
        raise ShapeMismatch(f"receiver index {receiver_index} out of range")
    return frame.matrix[receiver_index * n_r:(receiver_index + 1) * n_r, :]


@lru_cache(maxsize=8)
def _bank_weights(angles: tuple[float, ...], n_antennas: int) -> np.ndarray:
    """(bank, N_r) conjugate steering matrix a(theta)^H of a beam bank."""
    weights = np.array([array_response(a, n_antennas) for a in angles]).conj()
    weights.setflags(write=False)    # cached and shared between callers
    return weights


def attenuation_profile(
    null_frame: CsiFrame,
    alt_frame: CsiFrame,
    receiver_index: int,
    bank: BeamBank,
) -> np.ndarray:
    """Per-bank-angle attenuation in dB for one receiver.

    Attenuation at steering angle theta is 20*log10 of the ratio of
    beamformed energies |a(theta)^H H| between the null and perturbed frame,
    with both energies floored for numerical safety.
    """
    if null_frame.matrix.shape != alt_frame.matrix.shape:
        raise ShapeMismatch(
            f"frame shapes differ: {null_frame.matrix.shape} vs {alt_frame.matrix.shape}"
        )
    weights = _bank_weights(bank.angles, null_frame.meta.n_antennas)
    num = np.linalg.norm(weights @ _receiver_block(null_frame, receiver_index), axis=1)
    den = np.linalg.norm(weights @ _receiver_block(alt_frame, receiver_index), axis=1)
    num = np.maximum(num, ENERGY_FLOOR)
    den = np.maximum(den, ENERGY_FLOOR)
    return 20.0 * np.log10(num / den)


def _select_beam(profile: np.ndarray, bank: BeamBank) -> int:
    """Argmax attenuation; ties resolved toward broadside (smaller |angle|)."""
    tied = np.flatnonzero(profile == profile.max())
    if len(tied) == 1:
        return int(tied[0])
    return int(min(tied, key=lambda i: (abs(bank.angles[i]), bank.angles[i])))


def receiver_bearing(
    null_frame: CsiFrame,
    alt_frame: CsiFrame,
    scenario: Scenario,
    receiver_index: int,
    bank: BeamBank,
) -> BearingLine:
    """Bearing line from one receiver toward its max-attenuation direction."""
    profile = attenuation_profile(null_frame, alt_frame, receiver_index, bank)
    theta = bank.angles[_select_beam(profile, bank)]
    rx = scenario.receivers[receiver_index]
    return BearingLine(origin=rx.position, angle=wrap_angle(rx.boresight - theta))


def _clamp(p: Point2D, side: float) -> Point2D:
    return Point2D(min(max(p.x, 0.0), side), min(max(p.y, 0.0), side))


def estimate_position(
    null_frame: CsiFrame,
    alt_frame: CsiFrame,
    scenario: Scenario,
    bank: BeamBank,
) -> Point2D:
    """Triangulated target position, clamped to the room bounds.

    Raises SingleLink for L = 1 (no triangulation); DegenerateGeometry
    propagates when every bearing is parallel, and callers may fall back to
    bearing_segment_midpoint in either case.
    """
    if scenario.n_links < 2:
        raise SingleLink("triangulation needs at least two receivers")
    lines = [
        receiver_bearing(null_frame, alt_frame, scenario, l, bank)
        for l in range(scenario.n_links)
    ]
    return _clamp(intersect_bearings(lines), scenario.room_side)


def bearing_segment_midpoint(scenario: Scenario, line: BearingLine) -> Point2D:
    """Midpoint of the in-room segment of a bearing; degraded fallback estimate."""
    side = scenario.room_side
    cos_a, sin_a = math.cos(line.angle), math.sin(line.angle)
    ts = []
    for bound, comp, d in ((0.0, line.origin.x, cos_a), (side, line.origin.x, cos_a),
                           (0.0, line.origin.y, sin_a), (side, line.origin.y, sin_a)):
        if abs(d) > 1e-15:
            t = (bound - comp) / d
            if t > 1e-12:
                x = line.origin.x + t * cos_a
                y = line.origin.y + t * sin_a
                if -1e-9 <= x <= side + 1e-9 and -1e-9 <= y <= side + 1e-9:
                    ts.append(t)
    t_end = min(ts) if ts else 0.0
    mid = Point2D(line.origin.x + 0.5 * t_end * cos_a, line.origin.y + 0.5 * t_end * sin_a)
    return _clamp(mid, side)
