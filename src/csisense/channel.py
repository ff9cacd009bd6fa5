"""Clustered geometric channel synthesis for multistatic indoor links.

Single-bounce stochastic channel: cluster-center departure angles drawn over
the angular span the room subtends from the transmitter, per-ray Laplacian
offsets, every departure snapped to the scatter grid so each non-LOS ray
bounces exactly once at a grid point.  A passive disk target perturbs the
ray population by zeroing every ray whose tx->scatter or scatter->rx segment
crosses the disk, and adds target-scattered rays.

Everything is array code over the whole ray population: link_geometry snaps
all of a deployment's departures at once.

Angle conventions: transmitter local frame equals the global frame (omni tx).
A receiver-local angle is the global bearing minus the receiver boresight.
Arrival angles are the direction of propagation, i.e. the global bearing of
(receiver - source point) rotated into the receiver frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ConfigError, read_json
from .geometry import TWO_PI, Point2D, segments_blocked, wrap_angles

# Table-style 7-beam sweep spanning [-pi/2, pi/2].
DEFAULT_BEAM_ANGLES = (
    -math.pi / 2,
    -math.pi / 3,
    -math.pi / 6,
    0.0,
    math.pi / 6,
    math.pi / 3,
    math.pi / 2,
)

# Bounds on what one drop synthesizes.  The beam responses of a deployment hold
# n_links * n_antennas * n_beams * (n_clusters * n_rays + 1) complex values.  At
# that bound the ray-heaviest deployment (one link, one antenna, one beam and
# 65,535 rays) peaks at 363 MB (tracemalloc) generating a 64-record block;
# 10**9 rays in scenario1 asked for 134 GiB.
MAX_RESPONSE_SIZE = 2**16
# Each drop draws n_links * n_scatter target-scattered paths; at the bound a
# 64-record block peaks at 97 MB, where 10**9 of them asked for 22.4 GiB.
MAX_SCATTER_PATHS = 2**16


@dataclass(frozen=True)
class Receiver:
    """Wall-mounted uniform linear array."""

    position: Point2D
    boresight: float

    def __post_init__(self):
        if not math.isfinite(self.boresight):
            raise ConfigError(f"receiver boresight must be finite, got {self.boresight}")
        object.__setattr__(self, "boresight", float(wrap_angles(self.boresight)))


@dataclass(frozen=True)
class Scenario:
    """Room, device placement and channel-model constants for one deployment."""

    name: str
    tx: Point2D
    receivers: tuple[Receiver, ...]
    n_antennas: int = 8    # elements of every receiver's array
    room_side: float = 5.0
    beam_angles: tuple[float, ...] = DEFAULT_BEAM_ANGLES
    n_clusters: int = 3
    n_rays: int = 5
    n_scatter: int = 1
    cluster_spread_deg: float = 5.0
    grid_pitch: float = 0.25
    los_gain: float = 1.0
    scatter_coeff: float = 1.0
    snr_db: float = 20.0
    env_seed: int = 0

    def __post_init__(self):
        for name in ("room_side", "grid_pitch", "cluster_spread_deg", "los_gain", "scatter_coeff"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beam_angles:
            raise ConfigError("beam_angles must name at least one beam")
        if self.cluster_spread_deg < 0:
            raise ConfigError(f"cluster_spread_deg must be >= 0, got {self.cluster_spread_deg}")
        if not self.snr_db >= -3082.0:     # NaN fails; the noise level 10 ** 308.2 is a float
            raise ConfigError(f"snr_db must be >= -3082 or inf (noiseless), got {self.snr_db}")
        if self.env_seed < 0:
            raise ConfigError(f"env_seed must be >= 0, got {self.env_seed}")
        if self.room_side <= 0:
            raise ConfigError(f"room side must be > 0, got {self.room_side}")
        if not self.receivers:
            raise ConfigError("scenario needs at least one receiver")
        tiles_per_side(self.room_side, self.grid_pitch)     # a bounded tiling of the room
        if self.n_antennas < 1 or self.n_clusters < 1 or self.n_rays < 1 or self.n_scatter < 0:
            raise ConfigError("need n_antennas >= 1, n_clusters >= 1, n_rays >= 1, "
                              "n_scatter >= 0")
        size = self.n_links * self.n_antennas * self.n_beams * (self.n_clusters * self.n_rays + 1)
        if size > MAX_RESPONSE_SIZE:
            raise ConfigError(f"{size} beam response values (receivers x n_antennas x beam_angles"
                              f" x (n_clusters x n_rays + 1)): a scenario holds at most "
                              f"{MAX_RESPONSE_SIZE}")
        if self.n_links * self.n_scatter > MAX_SCATTER_PATHS:
            raise ConfigError(f"{self.n_links * self.n_scatter} target-scattered paths (receivers"
                              f" x n_scatter): a scenario holds at most {MAX_SCATTER_PATHS}")
        if list(self.beam_angles) != sorted(self.beam_angles):
            raise ConfigError("beam angles must be sorted ascending")
        lim = math.pi / 2 + 1e-12
        if not all(abs(b) <= lim for b in self.beam_angles):     # NaN fails too
            raise ConfigError("beam angles must lie in [-pi/2, pi/2]")
        for p in [self.tx] + [rx.position for rx in self.receivers]:
            if not (0 <= p.x <= self.room_side and 0 <= p.y <= self.room_side):
                raise ConfigError(f"device at ({p.x}, {p.y}) outside room")
        if any(rx.position == self.tx for rx in self.receivers):
            raise ConfigError(f"a receiver coincides with the transmitter at "
                              f"({self.tx.x}, {self.tx.y})")

    @property
    def n_links(self) -> int:
        return len(self.receivers)

    @property
    def n_beams(self) -> int:
        return len(self.beam_angles)

    @property
    def noise_level(self) -> float:
        """Per-element complex noise variance relative to unit mean path power."""
        if math.isinf(self.snr_db):
            return 0.0
        return 10.0 ** (-self.snr_db / 10.0)

    def device_positions(self) -> list[Point2D]:
        return [self.tx] + [rx.position for rx in self.receivers]

    def to_dict(self) -> dict:
        """One key per field; tx, receivers and beam_angles in their JSON forms."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["tx"] = [self.tx.x, self.tx.y]
        d["receivers"] = [{"position": [rx.position.x, rx.position.y], "boresight": rx.boresight}
                          for rx in self.receivers]
        d["beam_angles"] = list(self.beam_angles)
        return d

    @staticmethod
    def from_dict(cfg) -> "Scenario":
        """The scenario of a JSON object whose keys have the kinds of SCENARIO_KINDS."""
        v = read_json(cfg, SCENARIO_KINDS, "scenario")
        return Scenario(**{**v, "tx": Point2D(*v["tx"]), "receivers": tuple(
            Receiver(**{**r, "position": Point2D(*r["position"])}) for r in v["receivers"])})


# The JSON kind of each scenario key (errors.read_json); one left out takes its default.
RECEIVER_KINDS = {"position": [float, float], "boresight": float}
SCENARIO_KINDS = {
    "name": str, "tx": [float, float], "receivers": [RECEIVER_KINDS, ...], "n_antennas?": int,
    "room_side?": float, "beam_angles?": [float, ...], "n_clusters?": int, "n_rays?": int,
    "n_scatter?": int, "cluster_spread_deg?": float, "grid_pitch?": float, "los_gain?": float,
    "scatter_coeff?": float, "snr_db?": float, "env_seed?": int,
}


def steering(angles, n_antennas: int) -> np.ndarray:
    """ULA responses at half-wavelength spacing, shape angles.shape + (n_antennas,):
    element k of a(theta) is exp(j*pi*k*sin(theta))."""
    return np.exp(1j * np.pi * (np.arange(n_antennas) * np.sin(angles)[..., None]))


def beam_response(aoa: np.ndarray, beam_conj: np.ndarray) -> np.ndarray:
    """(..., N_r, B) captures of unit paths arriving at angles aoa through the
    beams whose (B, N_r) conjugated steering vectors are beam_conj: a(aoa)
    times the conjugate-beamformer amplitude gain |a(beam)^H a(aoa)| / N_r."""
    n_r = beam_conj.shape[1]
    steer = steering(aoa, n_r)
    gain = np.abs(steer @ beam_conj.T) / n_r
    return steer[..., :, None] * gain[..., None, :]


# The finest tiling of a room: 512 x 512 = 262,144 cells (a 1 cm pitch tiles a
# 5 m room into 500 x 500).  Its cell centers take 4 MB as float64 pairs; at
# that size, in scenario1, filtering the margin-valid bin centers peaks at
# 4.7 MB (tracemalloc), where a pitch of 1e-300 asked for more memory than any
# machine has.
MAX_TILES_PER_SIDE = 512


def tiles_per_side(room_side: float, pitch: float) -> int:
    """Whole pitch x pitch cells along a side of the room, up to a rounding of
    1e-9: the one tiling of the scatter grid, dataset bins and coverage maps."""
    if not (math.isfinite(pitch) and pitch > 0):
        raise ConfigError(f"pitch must be finite and > 0, got {pitch}")
    n = room_side / pitch + 1e-9
    if not n < MAX_TILES_PER_SIDE + 1:
        raise ConfigError(f"pitch {pitch} tiles the {room_side} m room into more than "
                          f"{MAX_TILES_PER_SIDE} x {MAX_TILES_PER_SIDE} cells")
    return math.floor(n)


@lru_cache(maxsize=32)
def grid_points(room_side: float, pitch: float) -> np.ndarray:
    """Cell centers of the pitch x pitch tiling as an (n*n, 2) array, x-major."""
    coords = (np.arange(tiles_per_side(room_side, pitch)) + 0.5) * pitch
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pts.setflags(write=False)  # cached and shared between callers
    return pts


def room_angular_span(tx: tuple[float, float], room_side: float) -> tuple[float, float]:
    """(start, width) of the direction set from the transmitter at tx = (x, y)
    into the room.

    Full circle for an interior transmitter; for a wall-mounted one, the
    minimal arc covering the bearings to the room corners.
    """
    eps = 1e-12
    x, y = tx
    if eps < x < room_side - eps and eps < y < room_side - eps:
        return (-math.pi, TWO_PI)
    corners = [(0.0, 0.0), (room_side, 0.0), (room_side, room_side), (0.0, room_side)]
    bearings = sorted(math.atan2(cy - y, cx - x) for cx, cy in corners
                      if math.hypot(x - cx, y - cy) > eps)
    gaps = [(bearings[(i + 1) % len(bearings)] - bearings[i]) % TWO_PI
            for i in range(len(bearings))]
    widest = int(np.argmax(gaps))
    start = bearings[(widest + 1) % len(bearings)]
    return (start, TWO_PI - gaps[widest])


def snap_to_grid(tx: tuple[float, float], raw_aod: np.ndarray, grid_pitch: float,
                 room_side: float) -> np.ndarray:
    """The scatter-grid points, shape raw_aod.shape + (2,), that departure
    angles raw_aod from the transmitter at tx = (x, y) snap to.

    Each angle takes the grid point farther than 1e-12 from the transmitter
    whose bearing is closest to it on the circle, ties toward the nearer point
    and then the first in grid order.  One angle at a time, so memory stays
    O(grid) at the finest tiling.
    """
    pts = grid_points(room_side, grid_pitch)
    dx, dy = pts[:, 0] - tx[0], pts[:, 1] - tx[1]
    dist = np.hypot(dx, dy)
    usable = np.flatnonzero(dist > 1e-12)
    if not len(usable):
        raise ConfigError("no grid point distinct from the transmitter")
    bearings, dist = np.arctan2(dy[usable], dx[usable]), dist[usable]
    chosen = np.empty(raw_aod.size, dtype=np.intp)
    for i, raw in enumerate(raw_aod.ravel().tolist()):
        off = np.abs((bearings - raw + math.pi) % TWO_PI - math.pi)
        tied = np.flatnonzero(off == off.min())
        chosen[i] = usable[tied[np.argmin(dist[tied])]]
    return pts[chosen].reshape(raw_aod.shape + (2,))


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """Fixed arrays of a deployment's links, built once per scenario by link_geometry.

    Each link has R = n_clusters * n_rays bounce rays, cluster-major, and the
    direct path as ray R (amplitude 0 when los_gain is 0).  Since
    only the gains change between realizations, a capture is one product of
    `response` with the (L, R+1) gain vector, plus the target echo and noise.
    """

    scenario: Scenario
    aoa: np.ndarray          # (L, R+1) receiver-local arrival angles
    scatter: np.ndarray      # (L, R, 2) bounce points
    los_amp: np.ndarray      # (L,) direct-path amplitude los_gain / distance
    ray_sd: np.ndarray       # (R,) standard deviation of each bounce gain's real and imag part
    response: np.ndarray     # (L, N_r, B, R+1) beam_response of aoa, path axis last
    beam_conj: np.ndarray    # (B, N_r) conjugated beam steering vectors a(beam)^*
    leg_start: np.ndarray    # (2, L, R+1, 2) tx->bounce and bounce->rx legs of each ray;
    leg_end: np.ndarray      # the direct path has tx->rx for both
    rx_xy: np.ndarray        # (L, 2) receiver positions
    boresight: np.ndarray    # (L,) receiver boresights


@lru_cache(maxsize=64)
def link_geometry(scenario: Scenario) -> LinkGeometry:
    """Fixed single-bounce geometry of every link and its beam responses.

    Cluster centers and per-ray offsets describe the deployment's reflective
    environment, so they derive from the scenario's env_seed (one independent
    stream per link index: a scenario that drops receivers keeps the same
    environment on the remaining links).  Per-realization randomness lives in
    the ray gains drawn per drop (ray_gains).
    """
    s = scenario
    tx = (s.tx.x, s.tx.y)
    span_start, span_width = room_angular_span(tx, s.room_side)
    spread = math.radians(s.cluster_spread_deg)
    n_cl, n_ray = s.n_clusters, s.n_rays
    n_links, n_bounce = s.n_links, n_cl * n_ray
    raw = np.empty((n_links, n_bounce))
    for l in range(n_links):
        rng = np.random.default_rng(np.random.SeedSequence([s.env_seed, l]))
        centers = span_start + rng.uniform(0.0, span_width, size=n_cl)
        offsets = rng.laplace(0.0, spread, size=(n_cl, n_ray))
        raw[l] = (centers[:, None] + offsets).ravel()
    scatter = snap_to_grid(tx, wrap_angles(raw), s.grid_pitch, s.room_side)

    # Every ray arrives from its source point: the bounce points, then tx for the direct path.
    tx_xy = np.broadcast_to(tx, (n_links, 1, 2))
    rx_xy = np.array([[[rx.position.x, rx.position.y]] for rx in s.receivers])
    source = np.concatenate([scatter, tx_xy], axis=1)
    to_rx = rx_xy - source
    # A ray without an arrival angle: only a bounce point can be, Scenario keeps tx off rx.
    on_rx = np.argwhere((to_rx == 0.0).all(axis=-1))
    if len(on_rx):
        l, r = on_rx[0]
        x, y = scatter[l, r].tolist()
        raise ConfigError(f"link {l}: bounce point ({x}, {y}) lands on its receiver")
    boresight = np.array([rx.boresight for rx in s.receivers])
    aoa = wrap_angles(np.arctan2(to_rx[..., 1], to_rx[..., 0]) - boresight[:, None])
    los_amp = s.los_gain / np.hypot(tx[0] - rx_xy[:, 0, 0], tx[1] - rx_xy[:, 0, 1])

    weights = np.exp(-np.arange(1, n_cl + 1, dtype=float))
    ray_sd = np.repeat(np.sqrt(weights / (n_ray * weights.sum()) / 2.0), n_ray)
    beam_conj = steering(s.beam_angles, s.n_antennas).conj()
    response = np.moveaxis(beam_response(aoa, beam_conj), 1, -1)

    geo = LinkGeometry(
        scenario=s, aoa=aoa, scatter=scatter, los_amp=los_amp, ray_sd=ray_sd,
        response=np.ascontiguousarray(response), beam_conj=beam_conj,
        leg_start=np.stack([np.broadcast_to(tx_xy, (n_links, n_bounce + 1, 2)), source]),
        leg_end=np.stack([np.concatenate([scatter, rx_xy], axis=1),
                          np.broadcast_to(rx_xy, (n_links, n_bounce + 1, 2))]),
        rx_xy=rx_xy[:, 0], boresight=boresight,
    )
    for arr in (aoa, scatter, los_amp, ray_sd, geo.response, beam_conj, geo.leg_start,
                geo.leg_end, geo.rx_xy, geo.boresight):
        arr.setflags(write=False)    # cached and shared between callers
    return geo


def ray_gains(geo: LinkGeometry, z: np.ndarray) -> np.ndarray:
    """Complex (D, L, R+1) ray gains of D realizations, direct path last, from
    their (D, L, clusters, rays, 2) standard normal draws.

    Bounce gains are circularly-symmetric complex Gaussian with one-based
    exponential inter-cluster decay exp(-v), normalized so the total mean
    path power per link is one.  The direct path has amplitude
    los_gain/distance and zero phase.
    """
    n_links, n_bounce = geo.scatter.shape[:2]
    bounce = (z.reshape(len(z), n_links, n_bounce, 2) * geo.ray_sd[:, None]).view(complex)
    los = np.broadcast_to(geo.los_amp[:, None], (len(z), n_links, 1))
    return np.concatenate([bounce[..., 0], los], axis=-1)


def blocked_rays(geo: LinkGeometry, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(D, L, R+1) masks of the rays that D disk targets, centers (D, 2) and
    radii (D,), occlude.

    A bounce ray is blocked when its tx->scatter or scatter->rx leg meets the
    closed disk, the direct path when its tx->rx segment does.
    """
    legs = segments_blocked(geo.leg_start, geo.leg_end, centers[:, None, None, None, :],
                            radii[:, None, None, None])
    return legs.any(axis=1)


def target_echo(geo: LinkGeometry, centers: np.ndarray, radii: np.ndarray,
                phases: np.ndarray) -> np.ndarray:
    """(D, L, N_r, B) captures of the target-scattered paths of D realizations.

    Each link receives n_scatter paths from the target center with amplitude
    scatter_coeff * radius / (d_tx * d_rx) and the drawn (D, L, n_scatter)
    phases.  They share one arrival angle, so together they are the rank-1
    term beam_response(aoa, beam_conj) times the sum of their gains.
    """
    s = geo.scenario
    cx, cy = centers[:, :1], centers[:, 1:]
    d_tx = np.hypot(s.tx.x - cx, s.tx.y - cy)                           # (D, 1)
    dx, dy = geo.rx_xy[:, 0] - cx, geo.rx_xy[:, 1] - cy                  # (D, L)
    d_rx = np.hypot(dx, dy)
    valid = (np.all((0.0 < centers) & (centers < s.room_side), axis=1)
             & np.all(np.concatenate([d_tx, d_rx], axis=1) > radii[:, None], axis=1))
    if not valid.all():
        x, y = centers[np.argmin(valid)]
        raise ConfigError(f"target at ({x}, {y}) is not strictly inside the room "
                          f"or covers a device")
    aoa = wrap_angles(np.arctan2(dy, dx) - geo.boresight)
    amp = s.scatter_coeff * radii[:, None] / (d_tx * d_rx)
    weight = amp * np.exp(1j * phases).sum(axis=-1)
    return weight[..., None, None] * beam_response(aoa, geo.beam_conj)


def capture(
    geo: LinkGeometry,
    gains: np.ndarray,
    echo: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """(D, L, N_r, B) coherent captures of D realizations across all links and beams.

    Each ray contributes its gain times its beam_response, for the (D, L, R+1)
    `gains`; the (D, L, N_r, B) `echo` is added when given, then the noise of
    a (D, L, B, 2, N_r) standard normal draw (link-major, then beam, then
    real/imaginary part) scaled to per-element variance noise_level.
    """
    n_links, n_r, n_beams, n_paths = geo.response.shape
    h = geo.response.reshape(n_links, n_r * n_beams, n_paths) @ gains[..., None]
    h = h.reshape(len(gains), n_links, n_r, n_beams)
    if echo is not None:
        h = h + echo
    if noise is not None:
        z = noise[..., 0, :] + 1j * noise[..., 1, :]
        h = h + math.sqrt(geo.scenario.noise_level / 2.0) * z.transpose(0, 1, 3, 2)
    return h
