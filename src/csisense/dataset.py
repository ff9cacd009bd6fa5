"""Dataset generation, labeling, persistence and splitting.

Every record is a pure function of (master seed, record index): the record's
own u64 seed is derived from that pair, so generation order and worker count
never change the output.  A dataset is columnar, one array per field with
the record index as the row number; on disk it is a manifest.json, a
frames.bin (fixed-size binary frame records) and a labels.csv.  Generation
writes the records to disk a block at a time, and a loaded dataset's frames
stay on disk until rows of them are read.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import Scenario, blocked_rays, capture, grid_points, ray_gains, target_echo
from .errors import ConfigError, InvalidPitch, InvalidSize
from .frame import FrameFile, FrameMeta, to_tensor, write_frames

HYP_NULL = "null"
HYP_TARGET = "target"
LABEL_COLUMNS = ["index", "hyp", "x", "y", "sigma", "seed"]
PROTOCOLS = ("resolution", "coverage", "positioning")

DEVICE_CLEARANCE = 0.05  # extra clearance beyond sigma/2 around tx/rx positions

DESK_SCALE_N = 200          # resolution records per hypothesis
DESK_SCALE_N_PER_BIN = 20
BIN_PITCH = 0.25            # default bin pitch of the binned protocols
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
            if (m.grid_pitch is None) != (m.protocol == "resolution"):
                raise ValueError(f"grid_pitch {m.grid_pitch} with protocol {m.protocol!r}: "
                                 f"only the binned protocols have one")
            if len(m.split_fractions) != 2:
                raise ValueError(f"split_fractions must be two numbers, got {d['split_fractions']}")
        except (KeyError, TypeError, ValueError, AttributeError, InvalidSize) as exc:
            raise ConfigError(
                f"{source}: malformed manifest: {type(exc).__name__}: {exc}") from exc
        return m


class Block(NamedTuple):
    """Consecutive records of a dataset, one array per field."""

    target: np.ndarray     # (n,) bool, True for target records
    tensors: np.ndarray    # (n, rows, beams, 2) float64 frame tensors
    xy: np.ndarray         # (n, 2) target centers, NaN on null rows
    seed: np.ndarray       # (n,) uint64 record stream seeds


@dataclass
class Dataset:
    """A dataset directory opened by load_dataset: one array per field, row i
    is record i, and every target has manifest.sigma.  The frames stay on disk
    in `tensors`, indexed like an array: fit reads only its rows from it."""

    manifest: DatasetManifest
    tensors: FrameFile     # (N, rows, beams, 2) float64 frame tensors
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


def target_margin_ok(scenario: Scenario, sigma: float, x: float, y: float) -> bool:
    """Margin rule at center (x, y): sigma/2 clearance from walls, sigma/2 + 0.05 m from devices."""
    r = sigma / 2.0
    s = scenario.room_side
    if not (r <= x <= s - r and r <= y <= s - r):
        return False
    clear = r + DEVICE_CLEARANCE
    return all(math.hypot(x - p.x, y - p.y) >= clear for p in scenario.device_positions())


def sample_target_center(
    scenario: Scenario, sigma: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Uniform (x, y) draw over the margin-valid room interior (rejection sampling)."""
    r = sigma / 2.0
    lo, hi = r, scenario.room_side - r
    if lo >= hi:
        raise InvalidSize(f"target diameter {sigma} m leaves no valid placement")
    for _ in range(10000):
        x, y = float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))
        if target_margin_ok(scenario, sigma, x, y):
            return x, y
    raise InvalidSize(f"could not place a {sigma} m target under the margin rule")


class Draws(NamedTuple):
    """The random draws of one drop, in the order its own Generator made them."""

    z: np.ndarray               # (L, clusters, rays, 2) normals of the ray gains
    center: tuple[float, float] | None   # target center (x, y), None without a target
    radius: float               # target radius sigma / 2, 0 without a target
    phases: np.ndarray | None   # (L, n_scatter) echo phases, with a target
    null: bool                  # a null frame is captured (always without a target)
    noise: np.ndarray | None    # (captures, L, B, 2, N_r) normals, null first; None if noiseless


def draw(
    scenario: Scenario,
    seed: int,
    sigma: float | None = None,
    center: tuple[float, float] | None = None,
    jitter_pitch: float | None = None,
    null: bool = True,
) -> Draws:
    """The draws of one channel realization from its stream seed.

    Without a target (sigma None) only a null frame is captured.  With one,
    its center is drawn under the margin rule, or jittered within a
    jitter_pitch bin around `center` (x, y), or taken as given, and a target frame
    is captured after the null frame (when `null`).  Draws, in order: ray
    gains, target center, echo phases, one noise array per capture.
    """
    rng = np.random.default_rng(seed)
    s = scenario
    z = rng.standard_normal(size=(s.n_links, s.n_clusters, s.n_rays, 2))
    if sigma is None:
        center = phases = None
    else:
        check_sigma(sigma)
        if center is None:
            center = sample_target_center(s, sigma, rng)
        elif jitter_pitch is not None:
            center = _jitter_in_bin(s, sigma, center, jitter_pitch, rng)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(s.n_links, s.n_scatter))
    null = null or center is None
    noise = None
    if s.noise_level > 0.0:
        captures = int(null) + (center is not None)
        noise = rng.standard_normal(size=(captures, s.n_links, s.n_beams, 2, s.n_antennas))
    return Draws(z, center, 0.0 if sigma is None else 0.5 * sigma, phases, null, noise)


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
    alts = np.flatnonzero([d.center is not None for d in draws])
    centers = np.full((len(draws), 2), np.nan)
    kept, echo = gains[alts], None
    if len(alts):
        centers[alts] = [draws[i].center for i in alts]
        radii = np.array([draws[i].radius for i in alts])
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


def record_layout(manifest: DatasetManifest) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (target, bin, centers) label columns of a manifest's records, the one
    layout that generation writes and load_dataset checks.

    Resolution: count_null null rows, then count_target target rows, bin -1.
    Binned: per margin-valid bin, in valid_bin_centers order, n target rows
    then n null rows, n = n_per_hyp / bins; a target row's center (N, 2) is
    its bin's center, NaN elsewhere.
    """
    m = manifest
    if m.protocol == "resolution":
        target = np.repeat([False, True], [m.count_null, m.count_target])
        return target, np.full(len(target), -1), np.full((len(target), 2), np.nan)
    bin_centers = valid_bin_centers(m.scenario, m.sigma, m.grid_pitch)
    n, rest = divmod(m.n_per_hyp, max(len(bin_centers), 1))
    if not len(bin_centers) or rest or not m.count_null == m.count_target == m.n_per_hyp:
        raise ConfigError(
            f"{m.protocol} layout: n_per_hyp {m.n_per_hyp}, count_null {m.count_null} and "
            f"count_target {m.count_target} must be equal and a multiple of the "
            f"{len(bin_centers)} margin-valid bins at pitch {m.grid_pitch}")
    target = np.tile(np.repeat([True, False], n), len(bin_centers))
    bins = np.repeat(np.arange(len(bin_centers)), 2 * n)
    return target, bins, np.where(target[:, None], bin_centers[bins], np.nan)


def _generate_block(manifest: DatasetManifest, start: int, target: np.ndarray,
                    centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frame tensors, target centers, stream seeds) of records start, start+1, ...
    whose target and centers columns are given; centers are NaN on null rows."""
    sc, sigma = manifest.scenario, manifest.sigma
    jitter = manifest.grid_pitch if manifest.bin_jitter else None
    seeds = [record_seed(manifest.master_seed, start + i) for i in range(len(target))]
    draws = [draw(sc, seed, sigma, None if math.isnan(x) else (x, y), jitter, null=False)
             if is_target else draw(sc, seed)
             for seed, is_target, (x, y) in zip(seeds, target.tolist(), centers.tolist())]
    null, alt, xy = synthesize(sc, draws)
    tensors = np.empty((len(draws),) + null.shape[1:])
    tensors[~target] = null
    tensors[target] = alt
    return tensors, xy, np.array(seeds, dtype=np.uint64)


def _jitter_in_bin(
    scenario: Scenario, sigma: float, center: tuple[float, float], pitch: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    half = pitch / 2.0
    for _ in range(10000):
        x, y = (float(rng.uniform(c - half, c + half)) for c in center)
        if target_margin_ok(scenario, sigma, x, y):
            return x, y
    raise InvalidSize(f"bin at {center} has no margin-valid interior")


def _worker_count() -> int:
    value = os.environ.get("CSISENSE_WORKERS", "1")
    if not (value.isdecimal() and int(value) >= 1):
        raise ConfigError(f"CSISENSE_WORKERS must be an integer >= 1, got {value!r}")
    return int(value)


def generate(manifest: DatasetManifest) -> Iterator[Block]:
    """The records of the manifest's layout as blocks in row order, each made
    when the previous one has been taken.  With CSISENSE_WORKERS > 1 each block
    is one pool task and at most two tasks per worker are in flight.  The
    layout and the worker count are checked before this returns."""
    target, _, centers = record_layout(manifest)
    tasks = [(manifest, lo, target[lo:lo + BLOCK], centers[lo:lo + BLOCK])
             for lo in range(0, len(target), BLOCK)]
    workers = _worker_count()
    made = (_generate_block(*task) for task in tasks) if workers == 1 or len(tasks) < 2 \
        else _pool_blocks(tasks, workers)
    return (Block(task[2], *block) for task, block in zip(tasks, made))


def _pool_blocks(tasks: list[tuple], workers: int) -> Iterator[tuple]:
    """_generate_block of each task in task order, at most 2 * workers in flight;
    the tasks not yet started are cancelled when the caller stops early."""
    pool = ProcessPoolExecutor(max_workers=workers)
    pending = deque()
    try:
        for task in tasks:
            pending.append(pool.submit(_generate_block, *task))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def gen_resolution_set(
    scenario: Scenario, sigma: float, n_per_hyp: int, master_seed: int, out: str | Path,
) -> DatasetManifest:
    """Write n null + n target records, target centers uniform under the margin
    rule, into the directory `out`; returns the manifest written."""
    check_sigma(sigma)
    if n_per_hyp < 1:
        raise ConfigError(f"n_per_hyp must be >= 1, got {n_per_hyp}")
    manifest = DatasetManifest(
        scenario=scenario, protocol="resolution", sigma=sigma, n_per_hyp=n_per_hyp,
        master_seed=master_seed, count_null=n_per_hyp, count_target=n_per_hyp,
    )
    save_dataset(out, manifest)
    return manifest


def valid_bin_centers(scenario: Scenario, sigma: float, pitch: float) -> np.ndarray:
    """(n, 2) margin-valid bin centers of the pitch x pitch tiling, row-major in (x, y)."""
    pts = grid_points(scenario.room_side, pitch)
    return pts[[target_margin_ok(scenario, sigma, x, y) for x, y in pts.tolist()]]


def gen_binned_set(
    scenario: Scenario,
    sigma: float,
    n_per_bin: int,
    pitch: float,
    master_seed: int,
    out: str | Path,
    protocol: str = "coverage",
    bin_jitter: bool = False,
) -> DatasetManifest:
    """Write, per margin-valid bin, n target records at the bin center plus n
    null records into the directory `out`; returns the manifest written."""
    check_sigma(sigma)
    if n_per_bin < 1:
        raise ConfigError(f"n_per_bin must be >= 1, got {n_per_bin}")
    n_bins = len(valid_bin_centers(scenario, sigma, pitch))
    if not n_bins:
        raise InvalidPitch(f"no margin-valid bin centers at pitch {pitch}")
    n = n_per_bin * n_bins
    manifest = DatasetManifest(
        scenario=scenario, protocol=protocol, sigma=sigma, n_per_hyp=n,
        master_seed=master_seed, grid_pitch=pitch, bin_jitter=bin_jitter,
        count_null=n, count_target=n,
    )
    save_dataset(out, manifest)
    return manifest


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


def save_dataset(path: str | Path, manifest: DatasetManifest) -> None:
    """Generate the records of the manifest's layout into the directory `path`.

    frames.bin and labels.csv are written a block at a time as the blocks are
    made and manifest.json last, each through a `.part` file renamed into
    place; an old manifest.json is removed first, so a write that stops early
    leaves nothing loadable.
    """
    blocks = generate(manifest)    # checks the layout and the worker count first
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    part = {name: out / f"{name}.part" for name in ("frames.bin", "labels.csv", "manifest.json")}
    meta, sigma, i = _frame_meta(manifest.scenario), repr(float(manifest.sigma)), 0
    try:
        with open(part["frames.bin"], "wb") as ff, \
                open(part["labels.csv"], "w", newline="") as fc:
            w = csv.writer(fc)
            w.writerow(LABEL_COLUMNS)
            for block in blocks:
                write_frames(ff, block.tensors, meta)
                for is_target, (x, y), seed in zip(block.target.tolist(), block.xy.tolist(),
                                                   block.seed.tolist()):
                    w.writerow([i, HYP_TARGET, repr(x), repr(y), sigma, seed] if is_target
                               else [i, HYP_NULL, "", "", "", seed])
                    i += 1
        with open(part["manifest.json"], "w") as fp:
            json.dump(manifest.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    except BaseException:
        for temp in part.values():
            temp.unlink(missing_ok=True)
        raise
    for name, temp in part.items():
        os.replace(temp, out / name)


def _read_labels(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(target, xy, sigma, seed) columns of a labels.csv whose index is the row
    number; xy and sigma are NaN on null rows."""
    target, values, seed = bytearray(), array("d"), array("Q")
    with open(path, newline="") as fc:
        rows = csv.reader(fc)
        if next(rows, None) != LABEL_COLUMNS:
            raise ConfigError(f"{path}: header is not {','.join(LABEL_COLUMNS)}")
        for i, row in enumerate(rows):
            try:
                index, hyp, x, y, sigma, s = row
                if index != str(i):
                    raise ValueError(f"index {index!r} is not the row number")
                if hyp not in (HYP_NULL, HYP_TARGET):
                    raise ValueError(f"hyp {hyp!r}")
                target.append(hyp == HYP_TARGET)
                point = (float(x), float(y), float(sigma)) if target[-1] else (math.nan,) * 3
                if target[-1] and not all(map(math.isfinite, point)):
                    raise ValueError(f"non-finite point or sigma {point}")
                values.extend(point)
                seed.append(int(s))
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{path}: row {i}: {exc}") from exc
    values = np.frombuffer(values, dtype=float).reshape(-1, 3)
    return (np.frombuffer(target, dtype=bool), values[:, :2], values[:, 2],
            np.frombuffer(seed, dtype=np.uint64))


def _check_targets(path: Path, manifest: DatasetManifest, target: np.ndarray,
                   xy: np.ndarray, sigma: np.ndarray, centers: np.ndarray) -> None:
    """Target rows carry the manifest's sigma, and a binned set's targets sit
    at their bin's center, or inside the bin when jittered."""
    rows = np.flatnonzero(target)
    if manifest.protocol != "resolution":
        off = np.abs(xy[rows] - centers[rows])
        if manifest.bin_jitter:    # 1e-9: the rounding of a uniform draw at the bin's edge
            bad, where = np.any(off > manifest.grid_pitch / 2.0 * (1 + 1e-9), axis=1), "outside"
        else:
            bad, where = np.any(off != 0.0, axis=1), "off"
        if bad.any():
            i = rows[np.argmax(bad)]
            raise ConfigError(f"{path}: row {i}: target at {tuple(xy[i].tolist())} is "
                              f"{where} the bin centred at {tuple(centers[i].tolist())}")
    bad = sigma[rows] != manifest.sigma
    if bad.any():
        i = rows[np.argmax(bad)]
        raise ConfigError(f"{path}: row {i}: sigma {float(sigma[i])!r}, manifest.json has "
                          f"{manifest.sigma!r}")


def load_dataset(path: str | Path) -> Dataset:
    """Open a dataset directory: read its manifest and labels, and check its
    frames.bin in chunks without holding it; the frames are read when rows of
    `tensors` are.  The labels must follow the record layout of the manifest,
    from which the bin indices are rebuilt."""
    src = Path(path)
    try:
        with open(src / "manifest.json") as fp:
            manifest = DatasetManifest.from_dict(json.load(fp), str(src / "manifest.json"))
    except FileNotFoundError:
        if not src.is_dir():
            raise
        raise ConfigError(f"{src}: no manifest.json: not a dataset, or its writing "
                          f"did not finish") from None
    target, xy, sigma, seed = _read_labels(src / "labels.csv")
    frames = FrameFile(src / "frames.bin", _frame_meta(manifest.scenario))
    if len(frames) != len(target):
        raise ConfigError(f"{src}: frames.bin holds {len(frames)} records, "
                          f"labels.csv {len(target)}")
    try:
        layout, bins, centers = record_layout(manifest)
    except (ConfigError, InvalidPitch) as exc:
        raise ConfigError(f"{src / 'manifest.json'}: {exc}") from exc
    if len(target) != len(layout):
        raise ConfigError(f"{src / 'labels.csv'}: {len(target)} rows, the {manifest.protocol} "
                          f"layout of manifest.json has {len(layout)}")
    wrong = np.flatnonzero(target != layout)
    if len(wrong):
        i = wrong[0]
        raise ConfigError(f"{src / 'labels.csv'}: row {i} is "
                          f"{HYP_TARGET if target[i] else HYP_NULL}, the {manifest.protocol} "
                          f"layout of manifest.json has {HYP_TARGET if layout[i] else HYP_NULL} "
                          f"there")
    _check_targets(src / "labels.csv", manifest, target, xy, sigma, centers)
    return Dataset(manifest=manifest, tensors=frames, target=target, xy=xy, seed=seed,
                   bin=bins)
