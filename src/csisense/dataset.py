"""Dataset generation, labeling, persistence and splitting.

Every record is a pure function of (master seed, record index): the record's
own u64 seed is derived from that pair, so generation order and worker count
never change the output.  In memory a dataset is columnar, one array per
field with the record index as the row number; on disk it is a
manifest.json, a frames.bin (fixed-size binary frame records) and a
labels.csv.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import Scenario, blocked_rays, capture, ray_gains, target_echo
from .errors import ConfigError, InvalidPitch, InvalidSize
from .frame import FrameMeta, read_frames, to_tensor, write_frames
from .geometry import Point2D, Target

HYP_NULL = "null"
HYP_TARGET = "target"
LABEL_COLUMNS = ["index", "hyp", "x", "y", "sigma", "seed"]
PROTOCOLS = ("resolution", "coverage", "positioning")

DEVICE_CLEARANCE = 0.05  # extra clearance beyond sigma/2 around tx/rx positions

DESK_SCALE_N = 200          # resolution records per hypothesis
DESK_SCALE_N_PER_BIN = 20
PAPER_SCALE_N = 2000
PAPER_SCALE_N_PER_BIN = 2000

# Drops synthesised together: bounds the memory of generation and evaluation.
# A multiple of sensenet.INFER_CHUNK, so model outputs do not depend on it.
BLOCK = 64


@dataclass
class DatasetManifest:
    scenario: Scenario
    protocol: str  # one of PROTOCOLS
    sigma: float
    n_per_hyp: int
    master_seed: int
    grid_pitch: float | None = None
    split_fractions: tuple[float, float] = (0.7, 0.3)
    bin_jitter: bool = False
    count_null: int = 0
    count_target: int = 0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "protocol": self.protocol,
            "sigma": self.sigma,
            "n_per_hyp": self.n_per_hyp,
            "master_seed": self.master_seed,
            "grid_pitch": self.grid_pitch,
            "split_fractions": list(self.split_fractions),
            "bin_jitter": self.bin_jitter,
            "count_null": self.count_null,
            "count_target": self.count_target,
        }

    @staticmethod
    def from_dict(d: dict, source: str = "manifest") -> "DatasetManifest":
        """A missing key or a wrong value raises "<source>: malformed manifest: …"."""
        try:
            m = DatasetManifest(
                scenario=Scenario.from_dict(d["scenario"]),
                protocol=d["protocol"],
                sigma=float(d["sigma"]),
                n_per_hyp=int(d["n_per_hyp"]),
                master_seed=int(d["master_seed"]),
                grid_pitch=None if d.get("grid_pitch") is None else float(d["grid_pitch"]),
                split_fractions=tuple(float(v) for v in d.get("split_fractions", (0.7, 0.3))),
                bin_jitter=bool(d.get("bin_jitter", False)),
                count_null=int(d.get("count_null", 0)),
                count_target=int(d.get("count_target", 0)),
            )
            check_sigma(m.sigma)
            if m.protocol not in PROTOCOLS:
                raise ValueError(f"unknown protocol {m.protocol!r}")
            if m.n_per_hyp < 1:
                raise ValueError(f"n_per_hyp must be >= 1, got {m.n_per_hyp}")
            if len(m.split_fractions) != 2:
                raise ValueError(f"split_fractions must be two numbers, got {d['split_fractions']}")
        except (KeyError, TypeError, ValueError, AttributeError, InvalidSize) as exc:
            raise ConfigError(
                f"{source}: malformed manifest: {type(exc).__name__}: {exc}") from exc
        return m


@dataclass
class Dataset:
    """One array per field; row i is record i.  Every target has manifest.sigma."""

    manifest: DatasetManifest
    tensors: np.ndarray    # (N, rows, beams, 2) float64 frame tensors
    target: np.ndarray     # (N,) bool, True for target records
    xy: np.ndarray         # (N, 2) target centers, NaN on null rows
    seed: np.ndarray       # (N,) uint64 record stream seeds
    bin: np.ndarray        # (N,) int bin index, -1 when unbinned

    def __len__(self) -> int:
        return len(self.target)


def check_sigma(sigma: float, name: str = "sigma") -> None:
    """Target diameters must be finite and positive."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidSize(f"{name} must be finite and > 0, got {sigma}")


def record_seed(master_seed: int, index: int) -> int:
    """Stable u64 stream seed for one record."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def target_margin_ok(scenario: Scenario, sigma: float, center: Point2D) -> bool:
    """Margin rule: sigma/2 clearance from walls, sigma/2 + 0.05 m from devices."""
    r = sigma / 2.0
    s = scenario.room_side
    if not (r <= center.x <= s - r and r <= center.y <= s - r):
        return False
    clear = r + DEVICE_CLEARANCE
    return all(center.distance_to(p) >= clear for p in scenario.device_positions())


def sample_target_center(
    scenario: Scenario, sigma: float, rng: np.random.Generator
) -> Point2D:
    """Uniform draw over the margin-valid room interior (rejection sampling)."""
    r = sigma / 2.0
    lo, hi = r, scenario.room_side - r
    if lo >= hi:
        raise InvalidSize(f"target diameter {sigma} m leaves no valid placement")
    for _ in range(10000):
        c = Point2D(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi)))
        if target_margin_ok(scenario, sigma, c):
            return c
    raise InvalidSize(f"could not place a {sigma} m target under the margin rule")


@dataclass(frozen=True)
class RecordSpec:
    index: int
    hyp: str
    sigma: float
    center: Point2D | None = None     # None for null or to-be-sampled centers
    bin_index: int | None = None
    bin_jitter_pitch: float | None = None


class Draws(NamedTuple):
    """The random draws of one drop, in the order its own Generator made them."""

    z: np.ndarray               # (L, clusters, rays, 2) normals of the ray gains
    target: Target | None
    phases: np.ndarray | None   # (L, n_scatter) echo phases, with a target
    null: bool                  # a null frame is captured (always without a target)
    noise: np.ndarray | None    # (captures, L, B, 2, N_r) normals, null first; None if noiseless


def draw(
    scenario: Scenario,
    seed: int,
    sigma: float | None = None,
    center: Point2D | None = None,
    jitter_pitch: float | None = None,
    null: bool = True,
) -> Draws:
    """The draws of one channel realization from its stream seed.

    Without a target (sigma None) only a null frame is captured.  With one,
    its center is drawn under the margin rule, or jittered within a
    jitter_pitch bin around `center`, or taken as given, and a target frame
    is captured after the null frame (when `null`).  Draws, in order: ray
    gains, target center, echo phases, one noise array per capture.
    """
    rng = np.random.default_rng(seed)
    s = scenario
    z = rng.standard_normal(size=(s.n_links, s.n_clusters, s.n_rays, 2))
    target = phases = None
    if sigma is not None:
        if center is None:
            center = sample_target_center(s, sigma, rng)
        elif jitter_pitch is not None:
            center = _jitter_in_bin(s, sigma, center, jitter_pitch, rng)
        target = Target(center=center, diameter=sigma)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(s.n_links, s.n_scatter))
    null = null or target is None
    noise = None
    if s.noise_level > 0.0:
        captures = int(null) + (target is not None)
        noise = rng.standard_normal(size=(captures, s.n_links, s.n_beams, 2, s.n_antennas))
    return Draws(z, target, phases, null, noise)


def synthesize(scenario: Scenario, draws: Sequence[Draws]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame tensors of a block of drops whose draws capture equally many frames.

    Returns (null, target, centers): the null frames of the drops that
    captured one and the target frames of the drops with a target, each
    (n, rows, beams, 2) in draw order, and the (D, 2) target centers, NaN
    without a target.  A target frame keeps its drop's ray gains but the ones
    the target blocks, and adds the target's echo.
    """
    geo = scenario.geometry
    gains = ray_gains(geo, np.stack([d.z for d in draws]))
    noise = None if draws[0].noise is None else np.stack([d.noise for d in draws])
    nulls = np.flatnonzero([d.null for d in draws])
    alts = np.flatnonzero([d.target is not None for d in draws])
    centers = np.full((len(draws), 2), np.nan)
    kept, echo = gains[alts], None
    if len(alts):
        targets = [draws[i].target for i in alts]
        centers[alts] = [(t.center.x, t.center.y) for t in targets]
        radii = np.array([t.radius for t in targets])
        kept = np.where(blocked_rays(geo, centers[alts], radii), 0j, kept)
        echo = target_echo(geo, centers[alts], radii, np.stack([draws[i].phases for i in alts]))
    null_h = capture(geo, gains[nulls], None, None if noise is None else noise[nulls, 0])
    alt_h = capture(geo, kept, echo, None if noise is None else noise[alts, -1])
    return to_tensor(null_h), to_tensor(alt_h), centers


def in_blocks(items: Iterable) -> Iterator[list]:
    """Consecutive lists of BLOCK items (the last may be shorter)."""
    it = iter(items)
    while block := list(islice(it, BLOCK)):
        yield block


def _generate_block(
    scenario: Scenario, specs: list[RecordSpec], master_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frame tensors, target centers, stream seeds) of a block of records;
    centers are NaN on null rows."""
    seeds = [record_seed(master_seed, s.index) for s in specs]
    draws = [draw(scenario, seed) if s.hyp == HYP_NULL
             else draw(scenario, seed, s.sigma, s.center, s.bin_jitter_pitch, null=False)
             for s, seed in zip(specs, seeds)]
    null, alt, centers = synthesize(scenario, draws)
    is_target = ~np.isnan(centers[:, 0])
    tensors = np.empty((len(specs),) + null.shape[1:])
    tensors[~is_target] = null
    tensors[is_target] = alt
    return tensors, centers, np.array(seeds, dtype=np.uint64)


def _jitter_in_bin(
    scenario: Scenario, sigma: float, center: Point2D, pitch: float,
    rng: np.random.Generator,
) -> Point2D:
    half = pitch / 2.0
    for _ in range(10000):
        c = Point2D(float(rng.uniform(center.x - half, center.x + half)),
                    float(rng.uniform(center.y - half, center.y + half)))
        if target_margin_ok(scenario, sigma, c):
            return c
    raise InvalidSize(f"bin at ({center.x}, {center.y}) has no margin-valid interior")


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("CSISENSE_WORKERS", "1")))
    except ValueError:
        return 1


def _run_blocks(
    scenario: Scenario, specs: list[RecordSpec], master_seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of records in spec order, yielded as they arrive so the caller can
    store each; with CSISENSE_WORKERS > 1 each block is one pool task."""
    blocks = list(in_blocks(specs))
    workers = _worker_count()
    if workers == 1 or len(blocks) < 2:
        yield from (_generate_block(scenario, b, master_seed) for b in blocks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_generate_block, repeat(scenario), blocks, repeat(master_seed))


def _build(manifest: DatasetManifest, specs: list[RecordSpec]) -> Dataset:
    """Generate every spec (row i is specs[i], whose index is i) into columns."""
    sc = manifest.scenario
    n = len(specs)
    tensors = np.empty((n, sc.n_links * sc.n_antennas, sc.n_beams, 2))
    xy = np.empty((n, 2))
    seed = np.empty(n, dtype=np.uint64)
    lo = 0
    for block in _run_blocks(sc, specs, manifest.master_seed):
        rows = slice(lo, lo + len(block[0]))
        tensors[rows], xy[rows], seed[rows] = block
        lo = rows.stop
    return Dataset(
        manifest=manifest,
        tensors=tensors,
        target=np.array([s.hyp == HYP_TARGET for s in specs], dtype=bool),
        xy=xy,
        seed=seed,
        bin=np.array([-1 if s.bin_index is None else s.bin_index for s in specs], dtype=int),
    )


def gen_resolution_set(
    scenario: Scenario, sigma: float, n_per_hyp: int, master_seed: int
) -> Dataset:
    """n null + n target records, target centers uniform under the margin rule."""
    check_sigma(sigma)
    if n_per_hyp < 1:
        raise ConfigError(f"n_per_hyp must be >= 1, got {n_per_hyp}")
    specs = [RecordSpec(index=i, hyp=HYP_NULL, sigma=sigma) for i in range(n_per_hyp)]
    specs += [
        RecordSpec(index=n_per_hyp + i, hyp=HYP_TARGET, sigma=sigma)
        for i in range(n_per_hyp)
    ]
    manifest = DatasetManifest(
        scenario=scenario, protocol="resolution", sigma=sigma, n_per_hyp=n_per_hyp,
        master_seed=master_seed, count_null=n_per_hyp, count_target=n_per_hyp,
    )
    return _build(manifest, specs)


def valid_bin_centers(scenario: Scenario, sigma: float, pitch: float) -> list[Point2D]:
    """Margin-valid bin centers of the pitch x pitch tiling, row-major in (x, y)."""
    if not (math.isfinite(pitch) and pitch > 0):
        raise InvalidPitch(f"pitch must be finite and > 0, got {pitch}")
    n = int(math.floor(scenario.room_side / pitch + 1e-9))
    coords = [(k + 0.5) * pitch for k in range(n)]
    centers = [Point2D(x, y) for x in coords for y in coords]
    return [c for c in centers if target_margin_ok(scenario, sigma, c)]


def gen_binned_set(
    scenario: Scenario,
    sigma: float,
    n_per_bin: int,
    pitch: float,
    master_seed: int,
    protocol: str = "coverage",
    bin_jitter: bool = False,
) -> Dataset:
    """Per margin-valid bin: n target records at the bin center plus n null records."""
    check_sigma(sigma)
    if n_per_bin < 1:
        raise ConfigError(f"n_per_bin must be >= 1, got {n_per_bin}")
    centers = valid_bin_centers(scenario, sigma, pitch)
    if not centers:
        raise InvalidPitch(f"no margin-valid bin centers at pitch {pitch}")
    specs: list[RecordSpec] = []
    idx = 0
    jitter_pitch = pitch if bin_jitter else None
    for b, c in enumerate(centers):
        for _ in range(n_per_bin):
            specs.append(RecordSpec(index=idx, hyp=HYP_TARGET, sigma=sigma, center=c,
                                    bin_index=b, bin_jitter_pitch=jitter_pitch))
            idx += 1
        for _ in range(n_per_bin):
            specs.append(RecordSpec(index=idx, hyp=HYP_NULL, sigma=sigma, bin_index=b))
            idx += 1
    n_bins = len(centers)
    manifest = DatasetManifest(
        scenario=scenario, protocol=protocol, sigma=sigma, n_per_hyp=n_per_bin * n_bins,
        master_seed=master_seed, grid_pitch=pitch, bin_jitter=bin_jitter,
        count_null=n_per_bin * n_bins, count_target=n_per_bin * n_bins,
    )
    return _build(manifest, specs)


def split(
    dataset: Dataset, fractions: tuple[float, float], seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/validation split as sorted (train, val) row indices;
    disjoint and exhaustive.

    Strata are the hypothesis, refined by bin for binned protocols, taken in
    (null before target, ascending bin) order with one shuffle each.
    """
    f_train, f_val = fractions
    if not (f_train >= 0 and f_val >= 0 and abs(f_train + f_val - 1.0) <= 1e-9):
        raise ConfigError(f"split fractions must be >= 0 and sum to 1, got {fractions}")
    key = dataset.target * (int(dataset.bin.max(initial=-1)) + 2) + dataset.bin + 1
    order = np.argsort(key, kind="stable")
    rng = np.random.default_rng(seed)
    train_parts, val_parts = [], []
    for idxs in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        rng.shuffle(idxs)
        n_train = int(round(f_train * len(idxs)))
        train_parts.append(idxs[:n_train])
        val_parts.append(idxs[n_train:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(val_parts))


def _frame_meta(scenario: Scenario) -> FrameMeta:
    return FrameMeta(scenario.n_links, scenario.n_antennas, scenario.n_beams)


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write manifest.json, frames.bin and labels.csv into `path`."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    m = dataset.manifest
    with open(out / "manifest.json", "w") as fp:
        json.dump(m.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    write_frames(out / "frames.bin", dataset.tensors, _frame_meta(m.scenario))
    sigma = repr(float(m.sigma))
    with open(out / "labels.csv", "w", newline="") as fc:
        w = csv.writer(fc)
        w.writerow(LABEL_COLUMNS)
        for i, (is_target, (x, y), seed) in enumerate(
                zip(dataset.target, dataset.xy.tolist(), dataset.seed.tolist())):
            if is_target:
                w.writerow([i, HYP_TARGET, repr(x), repr(y), sigma, seed])
            else:
                w.writerow([i, HYP_NULL, "", "", "", seed])


def _read_labels(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, xy, seed) columns of a labels.csv whose index is the row number."""
    target, xy, seed = [], [], []
    with open(path, newline="") as fc:
        rows = csv.reader(fc)
        if next(rows, None) != LABEL_COLUMNS:
            raise ConfigError(f"{path}: header is not {','.join(LABEL_COLUMNS)}")
        for i, row in enumerate(rows):
            try:
                index, hyp, x, y, _, s = row
                if index != str(i):
                    raise ValueError(f"index {index!r} is not the row number")
                if hyp not in (HYP_NULL, HYP_TARGET):
                    raise ValueError(f"hyp {hyp!r}")
                target.append(hyp == HYP_TARGET)
                xy.append(Point2D(float(x), float(y)) if target[-1] else None)
                seed.append(np.uint64(int(s)))
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: row {i}: {exc}") from exc
    return (np.array(target, dtype=bool),
            np.array([(p.x, p.y) if p else (math.nan, math.nan) for p in xy]).reshape(-1, 2),
            np.array(seed, dtype=np.uint64))


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset directory; bin indices are rebuilt from the manifest layout."""
    src = Path(path)
    with open(src / "manifest.json") as fp:
        manifest = DatasetManifest.from_dict(json.load(fp), str(src / "manifest.json"))
    target, xy, seed = _read_labels(src / "labels.csv")
    tensors = read_frames(src / "frames.bin", _frame_meta(manifest.scenario))
    if len(tensors) != len(target):
        raise ConfigError(f"{src}: frames.bin holds {len(tensors)} records, "
                          f"labels.csv {len(target)}")
    per_bin = 0
    if manifest.grid_pitch is not None:
        n_bins = len(valid_bin_centers(manifest.scenario, manifest.sigma, manifest.grid_pitch))
        per_bin = manifest.n_per_hyp // n_bins if n_bins else 0
    return Dataset(manifest=manifest, tensors=tensors, target=target, xy=xy, seed=seed,
                   bin=np.arange(len(target)) // (2 * per_bin) if per_bin
                   else np.full(len(target), -1))
