"""Clustered geometric channel synthesis for multistatic indoor links.

Single-bounce stochastic channel: cluster-center departure angles drawn over
the angular span the room subtends from the transmitter, per-ray Laplacian
offsets, every departure snapped to the scatter grid so each non-LOS ray
bounces exactly once at a grid point.  A passive disk target perturbs the
ray population by zeroing every ray whose tx->scatter or scatter->rx segment
crosses the disk, and adds target-scattered rays.

Angle conventions: transmitter local frame equals the global frame (omni tx).
A receiver-local angle is the global bearing minus the receiver boresight.
Arrival angles are the direction of propagation, i.e. the global bearing of
(receiver - source point) rotated into the receiver frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, EmptyGrid, InvalidPitch, ViewpointInsideTarget
from .geometry import Point2D, elementwise, segments_blocked, wrap_angle, wrap_angles

# Config keys that may only be true: omni transmitter, narrowband captures.
FIXED_TRUE_KEYS = ("tx_omni", "narrowband")

# Config keys whose JSON type is checked: a float or a bool would be truncated
# or taken for its truth value.
TYPED_KEYS = {"n_clusters": int, "n_rays": int, "n_scatter": int, "env_seed": int,
              "include_los": bool}

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


@dataclass(frozen=True)
class Receiver:
    """Wall-mounted uniform linear array."""

    position: Point2D
    boresight: float
    n_antennas: int = 8

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ConfigError(f"receiver needs >= 1 antenna, got {self.n_antennas}")
        if not math.isfinite(self.boresight):
            raise ConfigError(f"receiver boresight must be finite, got {self.boresight}")
        object.__setattr__(self, "boresight", wrap_angle(self.boresight))

    def local_angle(self, global_bearing: float) -> float:
        return wrap_angle(global_bearing - self.boresight)


@dataclass(frozen=True)
class Scenario:
    """Room, device placement and channel-model constants for one deployment."""

    name: str
    tx: Point2D
    receivers: tuple[Receiver, ...]
    room_side: float = 5.0
    beam_angles: tuple[float, ...] = DEFAULT_BEAM_ANGLES
    n_clusters: int = 3
    n_rays: int = 5
    n_scatter: int = 1
    cluster_spread_deg: float = 5.0
    grid_pitch: float = 0.25
    include_los: bool = True
    los_gain: float = 1.0
    scatter_coeff: float = 1.0
    snr_db: float = 20.0
    env_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "receivers", tuple(self.receivers))
        object.__setattr__(self, "beam_angles", tuple(float(b) for b in self.beam_angles))
        for name in ("room_side", "grid_pitch", "cluster_spread_deg", "los_gain", "scatter_coeff"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(b) for b in self.beam_angles):
            raise ConfigError(f"beam angles must be finite, got {list(self.beam_angles)}")
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ConfigError(f"snr_db must be finite or inf (noiseless), got {self.snr_db}")
        if self.room_side <= 0:
            raise ConfigError(f"room side must be > 0, got {self.room_side}")
        if not self.receivers:
            raise ConfigError("scenario needs at least one receiver")
        counts = {rx.n_antennas for rx in self.receivers}
        if len(counts) != 1:
            raise ConfigError(f"receivers must share an antenna count, got {sorted(counts)}")
        tiles_per_side(self.room_side, self.grid_pitch)     # a bounded tiling of the room
        if self.n_clusters < 1 or self.n_rays < 1 or self.n_scatter < 0:
            raise ConfigError("need n_clusters >= 1, n_rays >= 1, n_scatter >= 0")
        if list(self.beam_angles) != sorted(self.beam_angles):
            raise ConfigError("beam angles must be sorted ascending")
        lim = math.pi / 2 + 1e-12
        if any(abs(b) > lim for b in self.beam_angles):
            raise ConfigError("beam angles must lie in [-pi/2, pi/2]")
        for p in [self.tx] + [rx.position for rx in self.receivers]:
            if not (0 <= p.x <= self.room_side and 0 <= p.y <= self.room_side):
                raise ConfigError(f"device at ({p.x}, {p.y}) outside room")

    @property
    def n_links(self) -> int:
        return len(self.receivers)

    @property
    def n_antennas(self) -> int:
        return self.receivers[0].n_antennas

    @property
    def n_beams(self) -> int:
        return len(self.beam_angles)

    @cached_property
    def geometry(self) -> "LinkGeometry":
        """The deployment's fixed link arrays, fetched from link_geometry once per object."""
        return link_geometry(self)

    def __getstate__(self) -> dict:
        """Pickled without the cached geometry (~50 KB); link_geometry gives it again."""
        return {k: v for k, v in self.__dict__.items() if k != "geometry"}

    @property
    def noise_level(self) -> float:
        """Per-element complex noise variance relative to unit mean path power."""
        if math.isinf(self.snr_db):
            return 0.0
        return 10.0 ** (-self.snr_db / 10.0)

    def device_positions(self) -> list[Point2D]:
        return [self.tx] + [rx.position for rx in self.receivers]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "room_side": self.room_side,
            "tx": [self.tx.x, self.tx.y],
            "receivers": [
                {
                    "position": [rx.position.x, rx.position.y],
                    "boresight": rx.boresight,
                    "n_antennas": rx.n_antennas,
                }
                for rx in self.receivers
            ],
            "beam_angles": list(self.beam_angles),
            "n_clusters": self.n_clusters,
            "n_rays": self.n_rays,
            "n_scatter": self.n_scatter,
            "cluster_spread_deg": self.cluster_spread_deg,
            "grid_pitch": self.grid_pitch,
            "include_los": self.include_los,
            "los_gain": self.los_gain,
            "scatter_coeff": self.scatter_coeff,
            "snr_db": self.snr_db,
            "env_seed": self.env_seed,
        }

    @staticmethod
    def from_dict(cfg: dict) -> "Scenario":
        if not isinstance(cfg, dict):
            raise ConfigError(f"scenario config must be a JSON object, got {type(cfg).__name__}")
        known = {
            "name", "room_side", "tx", "receivers", "beam_angles", "n_clusters",
            "n_rays", "n_scatter", "cluster_spread_deg", "grid_pitch", "include_los",
            "los_gain", "scatter_coeff", "snr_db", "env_seed",
        }
        for key in FIXED_TRUE_KEYS:
            if cfg.get(key, True) is not True:
                raise ConfigError(f"{key} must be true (the only modelled case), "
                                  f"got {cfg[key]!r}")
        unknown = set(cfg) - known - set(FIXED_TRUE_KEYS)
        if unknown:
            raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {"name", "tx", "receivers"} - set(cfg)
        if missing:
            raise ConfigError(f"scenario config missing keys: {sorted(missing)}")
        for key, kind in TYPED_KEYS.items():
            if key in cfg:
                check_json_type(key, cfg[key], kind)
        try:
            receivers = tuple(
                Receiver(
                    position=Point2D(*[float(v) for v in r["position"]]),
                    boresight=float(r["boresight"]),
                    n_antennas=check_json_type("n_antennas", r.get("n_antennas", 8), int),
                )
                for r in cfg["receivers"]
            )
            kwargs = {
                k: cfg[k]
                for k in known - {"name", "tx", "receivers", "beam_angles"}
                if k in cfg
            }
            if "beam_angles" in cfg:
                kwargs["beam_angles"] = tuple(float(b) for b in cfg["beam_angles"])
            return Scenario(
                name=str(cfg["name"]),
                tx=Point2D(*[float(v) for v in cfg["tx"]]),
                receivers=receivers,
                **kwargs,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario config: {exc}") from exc


def check_json_type(name: str, value, kind: type):
    """`value` when its type is exactly `kind`: a JSON boolean is no integer here."""
    if type(value) is not kind:
        raise ConfigError(f"{name} must be a JSON {'boolean' if kind is bool else 'integer'}, "
                          f"got {value!r}")
    return value


def array_response(theta: float, n_antennas: int) -> np.ndarray:
    """ULA response at half-wavelength spacing: element k is exp(j*pi*k*sin(theta))."""
    if n_antennas < 1:
        raise ConfigError(f"need >= 1 antenna, got {n_antennas}")
    k = np.arange(n_antennas)
    return np.exp(1j * np.pi * k * math.sin(theta))


def beam_gain(aoa: float | np.ndarray, beam_angle: float, n_antennas: int) -> float | np.ndarray:
    """Conjugate-beamformer amplitude gain |a(beam)^H a(aoa)| / N, in [0, 1]."""
    a_beam = array_response(beam_angle, n_antennas)
    sin_aoa = np.sin(np.asarray(aoa, dtype=float))
    phases = np.pi * np.outer(np.arange(n_antennas), sin_aoa)
    dots = a_beam.conj() @ np.exp(1j * phases)
    g = np.abs(dots) / n_antennas
    return float(g[0]) if np.isscalar(aoa) else g


# The finest tiling of a room: 512 x 512 = 262,144 cells (a 1 cm pitch tiles a
# 5 m room into 500 x 500).  Its cell centers take 4 MB as float64 pairs; at
# that size, in scenario1, filtering the margin-valid bin centers peaks at
# 40 MB and a coverage map's per-bin keys add 66 MB (tracemalloc), where a
# pitch of 1e-300 asked for more memory than any machine has.
MAX_TILES_PER_SIDE = 512


def tiles_per_side(room_side: float, pitch: float) -> int:
    """Whole pitch x pitch cells along a side of the room, up to a rounding of
    1e-9: the one tiling of the scatter grid, dataset bins and coverage maps."""
    if not (math.isfinite(pitch) and pitch > 0):
        raise InvalidPitch(f"pitch must be finite and > 0, got {pitch}")
    n = room_side / pitch + 1e-9
    if not n < MAX_TILES_PER_SIDE + 1:
        raise InvalidPitch(f"pitch {pitch} tiles the {room_side} m room into more than "
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


def room_angular_span(tx: Point2D, room_side: float) -> tuple[float, float]:
    """(start, width) of the direction set from tx into the room.

    Full circle for an interior transmitter; for a wall-mounted one, the
    minimal arc covering the bearings to the room corners.
    """
    eps = 1e-12
    if eps < tx.x < room_side - eps and eps < tx.y < room_side - eps:
        return (-math.pi, 2.0 * math.pi)
    corners = [
        Point2D(0.0, 0.0),
        Point2D(room_side, 0.0),
        Point2D(room_side, room_side),
        Point2D(0.0, room_side),
    ]
    bearings = sorted(
        tx.bearing_to(c) for c in corners if tx.distance_to(c) > eps
    )
    gaps = [
        (bearings[(i + 1) % len(bearings)] - bearings[i]) % (2.0 * math.pi)
        for i in range(len(bearings))
    ]
    widest = int(np.argmax(gaps))
    start = bearings[(widest + 1) % len(bearings)]
    return (start, 2.0 * math.pi - gaps[widest])


def _angle_in_span(angle: float, span: tuple[float, float]) -> bool:
    start, width = span
    return (angle - start) % (2.0 * math.pi) <= width + 1e-12


def quantize_ray(
    tx: Point2D,
    raw_aod: float,
    rx: Receiver,
    grid_pitch: float,
    room_side: float,
) -> tuple[float, float, Point2D]:
    """Snap a raw departure angle to the scatter grid.

    Picks the in-room grid point whose bearing from the transmitter is
    closest to `raw_aod` (ties toward the nearer point), then returns the
    exact departure angle, the receiver-local arrival angle of the bounce,
    and the scatter point itself.
    """
    pts = grid_points(room_side, grid_pitch)
    dx = pts[:, 0] - tx.x
    dy = pts[:, 1] - tx.y
    dist = np.hypot(dx, dy)
    usable = dist > 1e-12
    if not np.any(usable):
        raise EmptyGrid("no grid point distinct from the transmitter")
    angles = np.arctan2(dy[usable], dx[usable])
    ang_d = np.abs((angles - raw_aod + math.pi) % (2.0 * math.pi) - math.pi)
    best = ang_d.min()
    tied = np.flatnonzero(ang_d == best)
    choice = tied[np.argmin(dist[usable][tied])]
    idx = np.flatnonzero(usable)[choice]
    scatter = Point2D(float(pts[idx, 0]), float(pts[idx, 1]))
    aod = tx.bearing_to(scatter)
    aoa = rx.local_angle(scatter.bearing_to(rx.position))
    return aod, aoa, scatter


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """Fixed arrays of a deployment's links, built once per scenario by link_geometry.

    Each link has R = n_clusters * n_rays bounce rays, cluster-major, and the
    direct path as ray R (amplitude 0 when the scenario has no LOS).  Since
    only the gains change between realizations, a capture is one product of
    `response` with the (L, R+1) gain vector, plus the target echo and noise.
    """

    scenario: Scenario
    aoa: np.ndarray          # (L, R+1) receiver-local arrival angles
    scatter: np.ndarray      # (L, R, 2) bounce points
    los_amp: np.ndarray      # (L,) direct-path amplitude los_gain / distance, or 0
    ray_sd: np.ndarray       # (R,) standard deviation of each bounce gain's real and imag part
    response: np.ndarray     # (L, N_r, B, R+1) steer(aoa) * B(aoa; beam)
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
    the ray gains drawn by draw_gains.
    """
    tx = scenario.tx
    span = room_angular_span(tx, scenario.room_side)
    pts = grid_points(scenario.room_side, scenario.grid_pitch)
    bearings = np.arctan2(pts[:, 1] - tx.y, pts[:, 0] - tx.x)
    if not any(_angle_in_span(float(b), span) for b in bearings):
        raise EmptyGrid("no grid point inside the transmitter's angular span")
    spread = math.radians(scenario.cluster_spread_deg)
    n_cl, n_ray, n_r = scenario.n_clusters, scenario.n_rays, scenario.n_antennas
    n_links, n_bounce = scenario.n_links, n_cl * n_ray
    aoa = np.empty((n_links, n_bounce + 1))
    scatter = np.empty((n_links, n_bounce, 2))
    los_amp = np.zeros(n_links)
    for l, rx in enumerate(scenario.receivers):
        rng = np.random.default_rng(np.random.SeedSequence([scenario.env_seed, l]))
        centers = span[0] + rng.uniform(0.0, span[1], size=n_cl)
        offsets = rng.laplace(0.0, spread, size=(n_cl, n_ray))
        for i, raw in enumerate((centers[:, None] + offsets).ravel()):
            _, aoa[l, i], point = quantize_ray(tx, wrap_angle(float(raw)), rx,
                                               scenario.grid_pitch, scenario.room_side)
            scatter[l, i] = (point.x, point.y)
        aoa[l, n_bounce] = rx.local_angle(tx.bearing_to(rx.position))
        if scenario.include_los:
            los_amp[l] = scenario.los_gain / tx.distance_to(rx.position)

    weights = np.exp(-np.arange(1, n_cl + 1, dtype=float))
    ray_sd = np.repeat(np.sqrt(weights / (n_ray * weights.sum()) / 2.0), n_ray)
    steer = np.exp(1j * np.pi * (np.arange(n_r)[:, None] * np.sin(aoa)[:, None, :]))
    gain = np.stack([beam_gain(aoa.ravel(), b, n_r).reshape(aoa.shape)
                     for b in scenario.beam_angles], axis=1)
    beam_conj = np.array([array_response(b, n_r) for b in scenario.beam_angles]).conj()

    tx_xy = np.broadcast_to([tx.x, tx.y], (n_links, 1, 2))
    rx_xy = np.array([[[rx.position.x, rx.position.y]] for rx in scenario.receivers])
    geo = LinkGeometry(
        scenario=scenario, aoa=aoa, scatter=scatter, los_amp=los_amp, ray_sd=ray_sd,
        response=steer[:, :, None, :] * gain[:, None, :, :], beam_conj=beam_conj,
        leg_start=np.stack([np.broadcast_to(tx_xy, (n_links, n_bounce + 1, 2)),
                            np.concatenate([scatter, tx_xy], axis=1)]),
        leg_end=np.stack([np.concatenate([scatter, rx_xy], axis=1),
                          np.broadcast_to(rx_xy, (n_links, n_bounce + 1, 2))]),
        rx_xy=rx_xy[:, 0], boresight=np.array([rx.boresight for rx in scenario.receivers]),
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
    term steer(aoa) B(aoa; beam) times the sum of their gains.  Distances and
    bearings are math.hypot and math.atan2, as in Point2D.
    """
    s = geo.scenario
    cx, cy = centers[:, :1], centers[:, 1:]
    d_tx = elementwise(math.hypot, s.tx.x - cx, s.tx.y - cy)            # (D, 1)
    dx, dy = geo.rx_xy[:, 0] - cx, geo.rx_xy[:, 1] - cy                  # (D, L)
    d_rx = elementwise(math.hypot, dx, dy)
    valid = (np.all((0.0 < centers) & (centers < s.room_side), axis=1)
             & np.all(np.concatenate([d_tx, d_rx], axis=1) > radii[:, None], axis=1))
    if not valid.all():
        x, y = centers[np.argmin(valid)]
        raise ViewpointInsideTarget(f"target at ({x}, {y}) is not strictly inside the room "
                                    f"or covers a device")
    aoa = wrap_angles(elementwise(math.atan2, dy, dx) - geo.boresight)
    n_r = s.n_antennas
    steer = np.exp(1j * np.pi * (np.arange(n_r) * np.sin(aoa)[..., None]))  # (D, L, N_r)
    gain = np.abs(steer @ geo.beam_conj.T) / n_r                            # (D, L, B)
    amp = s.scatter_coeff * radii[:, None] / (d_tx * d_rx)
    weight = amp * np.exp(1j * phases).sum(axis=-1)
    return weight[..., None, None] * steer[..., :, None] * gain[..., None, :]


def capture(
    geo: LinkGeometry,
    gains: np.ndarray,
    echo: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """(D, L, N_r, B) coherent captures of D realizations across all links and beams.

    Each ray contributes gain * B(aoa; beam) * a(aoa), B the conjugate-
    beamformer amplitude gain, for the (D, L, R+1) `gains`; the (D, L, N_r, B)
    `echo` is added when given, then the noise of a (D, L, B, 2, N_r) standard
    normal draw (link-major, then beam, then real/imaginary part) scaled to
    per-element variance noise_level.
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
