"""Dataset generation, labeling, persistence and splitting.

Every record is a pure function of (master seed, record index): the record's
own u64 seed is derived from that pair, and its draws come from the Generator
that seed gives, so neither generation order nor block size changes the
output.  A dataset is columnar, one array per field with the record index
as the row number; on disk it is a manifest.json, a frames.bin (fixed-size
binary frame records) and a labels.csv.  Generation makes the records in
the calling process and writes them to disk a block at a time, and a loaded
dataset's frames stay on disk until rows of them are read.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
from array import array
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import (SCENARIO_KINDS, Scenario, blocked_rays, capture, grid_points,
                      link_geometry, ray_gains, target_echo)
from .errors import ConfigError, read_json
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
# Records a dataset may hold: record_layout builds O(N) label columns, and this
# is 16x the 1,024,000 records of a paper-scale binned set.
MAX_RECORDS = 2**24

# Drops synthesised together: bounds the memory of generation and evaluation.
# A multiple of sensenet.INFER_CHUNK, so model outputs do not depend on it.
BLOCK = 64
# Rows load_dataset checks, and cells valid_bin_centers tests, at once: bounds their memory.
CHECK_ROWS = 1024


VAL_FRACTION = 0.3    # train --val-frac's default validation share


@dataclass
class DatasetManifest:
    """What a dataset's records are a function of.  A set holds n_per_hyp
    null and n_per_hyp target records; the values are checked when a manifest
    is made, by gen or from a manifest.json alike."""

    scenario: Scenario
    protocol: str  # one of PROTOCOLS
    sigma: float
    n_per_hyp: int
    master_seed: int
    grid_pitch: float | None = None    # the bin pitch, binned protocols only
    bin_jitter: bool = False

    def __post_init__(self):
        check_sigma(self.sigma)
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.n_per_hyp < 1:
            raise ConfigError(f"n_per_hyp must be >= 1, got {self.n_per_hyp}")
        if (self.grid_pitch is None) != (self.protocol == "resolution"):
            raise ConfigError(f"grid_pitch {self.grid_pitch} with protocol {self.protocol!r}: "
                              f"only the binned protocols have one")
        if self.bin_jitter and self.grid_pitch is None:
            raise ConfigError(f"bin_jitter with protocol {self.protocol!r}: only the binned "
                              f"protocols jitter")

    def to_dict(self) -> dict:
        """One key per field, the scenario in its JSON form, and the counts
        DERIVED_KEYS names, both n_per_hyp in every set."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "scenario": self.scenario.to_dict(), "count_null": self.n_per_hyp,
                "count_target": self.n_per_hyp}

    @staticmethod
    def from_dict(d, source: str = "manifest") -> "DatasetManifest":
        """The manifest of a JSON object whose keys have the kinds of
        MANIFEST_KINDS, which name a wrong scenario key by its manifest path
        (scenario.tx[0]), and whose DERIVED_KEYS, if given, are to_dict's;
        anything else raises "<source>: malformed manifest: …"."""
        try:
            v = read_json(d, MANIFEST_KINDS, "manifest")
            m = DatasetManifest(**{k: x for k, x in v.items() if k not in DERIVED_KEYS}
                                | {"scenario": Scenario.from_dict(d["scenario"])})
            written = m.to_dict()
            for key, why in DERIVED_KEYS.items():
                if d.get(key, written[key]) != written[key]:
                    raise ConfigError(f"{key} must be {written[key]!r}, got {d[key]!r}: {why}")
        except ConfigError as exc:
            raise ConfigError(f"{source}: malformed manifest: {exc}") from exc
        return m


# The JSON kind of each manifest key (errors.read_json); one left out takes its default.
MANIFEST_KINDS = {
    "scenario": SCENARIO_KINDS, "protocol": str, "sigma": float, "n_per_hyp": int,
    "master_seed": int, "grid_pitch?": float | None, "bin_jitter?": bool,
    "count_null?": int, "count_target?": int,
}
# manifest.json keys that are not fields: each has one value per set, given with why
DERIVED_KEYS = {"count_null": "a set holds n_per_hyp null records",
                "count_target": "a set holds n_per_hyp target records"}


@dataclass
class Dataset:
    """A dataset directory opened by load_dataset: one array per field, row i
    is record i, and every target has manifest.sigma.  The frames stay on disk
    in `tensors`, indexed like an array: fit reads only its rows from it."""

    manifest: DatasetManifest
    tensors: FrameFile     # (N, rows, beams, 2) float64 frame tensors
    target: np.ndarray     # (N,) bool, True for target records
    xy: np.ndarray         # (N, 2) target centers, NaN on null rows
    bin: np.ndarray        # (N,) int bin index, -1 when unbinned

    def __len__(self) -> int:
        return len(self.target)


def check_sigma(sigma: float, name: str = "sigma") -> None:
    """Target diameters must be finite and positive."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {sigma}")


# numpy's SeedSequence (NEP 19, after O'Neill's seed_seq) and PCG64 seeding
# (O'Neill 2014), run here on whole blocks of seeds with the same uint32 and
# 128-bit arithmetic; tests/test_dataset.py pins them to numpy's own.
_POOL = 4                                  # SeedSequence's pool, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # state generation hash
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants a hash walks through in `calls` calls: init * mult**k mod 2**32."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column of value (..., k) with the k + 1 consts."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(e).generate_state(n_words) of each row e of an (n, E) uint32
    entropy array, as (n, n_words) uint32 words.  Every row takes the same
    steps, so they run on all rows at once."""
    size = entropy.shape[1]
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * max(size, _POOL))
    pool = np.zeros((len(entropy), _POOL), np.uint32)    # missing words hash as 0
    pool[:, :size] = entropy[:, :_POOL]
    pool = _hashmix(pool, a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):           # each pool word into every other, in order
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, size):     # then each further entropy word into every one
        pool = _mix(pool, _hashmix(entropy[:, src, None], a[k:k + _POOL + 1]))
        k += _POOL
    return _hashmix(pool[:, np.arange(n_words) % _POOL],
                    _hash_consts(_INIT_B, _MULT_B, n_words))


def _entropy_words(values: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative integers split as SeedSequence splits an int entropy value:
    (n, W) uint32 words, least significant first and zero-padded, and the (n,)
    count of each value's words (0 has one)."""
    ints = [operator.index(v) for v in values]
    if min(ints, default=0) < 0:
        raise ValueError("expected non-negative integer")
    width = -(-max(ints, default=0).bit_length() // 32)
    if width <= 2:
        v = np.array(ints, dtype=np.uint64)
        words = np.stack([v & 0xFFFFFFFF, v >> 32], axis=1).astype(np.uint32)
    else:
        words = np.array([[i >> s & 0xFFFFFFFF for s in range(0, 32 * width, 32)]
                          for i in ints], dtype=np.uint32)
    used = words != 0
    return words, np.where(used.any(axis=1), words.shape[1] - used[:, ::-1].argmax(axis=1), 1)


def _seed_states(parts: Sequence[tuple[np.ndarray, np.ndarray]], n_words: int) -> np.ndarray:
    """generate_state(n_words) of each row's SeedSequence, whose entropy is the
    words of each (words, counts) part of _entropy_words in turn; rows with the
    same word counts are hashed together."""
    counts = np.stack([c for _, c in parts], axis=1)
    out = np.empty((len(counts), n_words), np.uint32)
    for key in set(map(tuple, counts.tolist())):
        rows = np.flatnonzero((counts == key).all(axis=1))
        entropy = np.concatenate([w[rows, :k] for (w, _), k in zip(parts, key)], axis=1)
        out[rows] = _generate_state(entropy, n_words)
    return out


def record_seeds(master_seed: int | Sequence[int], indices: Sequence[int]) -> np.ndarray:
    """The u64 stream seed of each record index, that of
    SeedSequence([master_seed, index]).generate_state(1, np.uint64); master_seed
    is one int for all indices or one per index.  A negative value raises
    ValueError, as numpy does."""
    if np.ndim(master_seed) == 0:
        master_seed = [master_seed] * len(indices)
    words = _seed_states([_entropy_words(master_seed), _entropy_words(indices)], 2)
    return words[:, 0].astype(np.uint64) | words[:, 1].astype(np.uint64) << 32


def streams(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """For each u64 stream seed in turn, one reused Generator in the state that
    np.random.default_rng(seed) starts in: the seed's SeedSequence gives PCG64
    a 128-bit state and increment, and seeding takes two LCG steps.  Take a
    drop's draws before the next Generator: it is the same object, reseeded."""
    rng = np.random.Generator(np.random.PCG64(0))
    words = _seed_states([_entropy_words(seeds)], 8).astype(np.uint64)
    for s_hi, s_lo, i_hi, i_lo in (words[:, 0::2] | words[:, 1::2] << 32).tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def target_margin_ok(scenario: Scenario, sigma: float, xy: np.ndarray) -> np.ndarray:
    """The margin rule at target centers xy[..., :] (last axis x, y): sigma/2
    clearance from the walls and sigma/2 + DEVICE_CLEARANCE from every device."""
    r = sigma / 2.0
    xy = np.asarray(xy, dtype=float)
    inside = ((r <= xy) & (xy <= scenario.room_side - r)).all(axis=-1)
    d = xy[..., None, :] - [(p.x, p.y) for p in scenario.device_positions()]
    clear = r + DEVICE_CLEARANCE
    return inside & (np.hypot(d[..., 0], d[..., 1]) >= clear).all(axis=-1)


def sample_target_center(
    scenario: Scenario, sigma: float, lo: tuple[float, float], hi: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Uniform (x, y) draw over the margin-valid part of the box from corner lo
    to corner hi, by rejection sampling: up to 10,000 tries, each an x draw
    then a y draw, none when the box is empty."""
    if lo[0] < hi[0] and lo[1] < hi[1]:
        for _ in range(10000):
            x, y = float(rng.uniform(lo[0], hi[0])), float(rng.uniform(lo[1], hi[1]))
            if target_margin_ok(scenario, sigma, (x, y)):
                return x, y
    raise ConfigError(f"no margin-valid center for a {sigma} m target in "
                      f"[{lo[0]}, {hi[0]}] x [{lo[1]}, {hi[1]}]")


class Draws(NamedTuple):
    """The random draws of one drop, in the order its stream's Generator made them."""

    z: np.ndarray               # (L, clusters, rays, 2) normals of the ray gains
    center: tuple[float, float] | None   # target center (x, y), None without a target
    radius: float               # target radius sigma / 2, 0 without a target
    phases: np.ndarray | None   # (L, n_scatter) echo phases, with a target
    null: bool                  # a null frame is captured (always without a target)
    noise: np.ndarray | None    # (captures, L, B, 2, N_r) normals, null first; None if noiseless


def draw(
    scenario: Scenario,
    rng: np.random.Generator,
    sigma: float | None = None,
    center: tuple[float, float] | None = None,
    jitter_pitch: float | None = None,
    null: bool = True,
) -> Draws:
    """The draws of one channel realization from its stream's Generator (streams).

    Without a target (sigma None) only a null frame is captured.  With one,
    its center is drawn under the margin rule, or jittered within a
    jitter_pitch bin around `center` (x, y), or taken as given, and a target frame
    is captured after the null frame (when `null`).  Draws, in order: ray
    gains, target center, echo phases, one noise array per capture.
    """
    s = scenario
    z = rng.standard_normal(size=(s.n_links, s.n_clusters, s.n_rays, 2))
    if sigma is None:
        center = phases = None
    else:
        check_sigma(sigma)
        if center is None:
            r = sigma / 2.0
            center = sample_target_center(s, sigma, (r, r), (s.room_side - r,) * 2, rng)
        elif jitter_pitch is not None:
            half = jitter_pitch / 2.0
            center = sample_target_center(s, sigma, tuple(c - half for c in center),
                                          tuple(c + half for c in center), rng)
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
    geo = link_geometry(scenario)
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

    Resolution: n_per_hyp null rows, then n_per_hyp target rows, bin -1.
    Binned: per margin-valid bin, in valid_bin_centers order, n target rows
    then n null rows, n = n_per_hyp / bins; a target row's center (N, 2) is
    its bin's center, NaN elsewhere.  More than MAX_RECORDS records raise
    ConfigError before any column is built.
    """
    m = manifest
    if 2 * m.n_per_hyp > MAX_RECORDS:
        raise ConfigError(f"{2 * m.n_per_hyp} records: a dataset holds at most {MAX_RECORDS}")
    if m.protocol == "resolution":
        target = np.repeat([False, True], m.n_per_hyp)
        return target, np.full(len(target), -1), np.full((len(target), 2), np.nan)
    bin_centers = valid_bin_centers(m.scenario, m.sigma, m.grid_pitch)
    n, rest = divmod(m.n_per_hyp, len(bin_centers))
    if rest:
        raise ConfigError(f"{m.protocol} layout: n_per_hyp {m.n_per_hyp} is not a multiple of "
                          f"the {len(bin_centers)} margin-valid bins at pitch {m.grid_pitch}")
    target = np.tile(np.repeat([True, False], n), len(bin_centers))
    bins = np.repeat(np.arange(len(bin_centers)), 2 * n)
    return target, bins, np.where(target[:, None], bin_centers[bins], np.nan)


def _generate_block(manifest: DatasetManifest, start: int, target: np.ndarray,
                    centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frame tensors, target centers, stream seeds) of records start, start+1, ...
    whose target and centers columns are given; centers are NaN on null rows."""
    sc, sigma = manifest.scenario, manifest.sigma
    jitter = manifest.grid_pitch if manifest.bin_jitter else None
    seeds = record_seeds(manifest.master_seed, range(start, start + len(target)))
    draws = [draw(sc, rng, sigma, None if math.isnan(x) else (x, y), jitter, null=False)
             if is_target else draw(sc, rng)
             for rng, is_target, (x, y) in zip(streams(seeds), target.tolist(), centers.tolist())]
    null, alt, xy = synthesize(sc, draws)
    tensors = np.empty((len(draws),) + null.shape[1:])
    tensors[~target] = null
    tensors[target] = alt
    return tensors, xy, seeds


def gen_resolution_set(
    scenario: Scenario, sigma: float, n_per_hyp: int, master_seed: int, out: str | Path,
) -> DatasetManifest:
    """Write n null + n target records, target centers uniform under the margin
    rule, into the directory `out`; returns the manifest written."""
    manifest = DatasetManifest(scenario, "resolution", sigma, n_per_hyp, master_seed)
    save_dataset(out, manifest)
    return manifest


def valid_bin_centers(scenario: Scenario, sigma: float, pitch: float) -> np.ndarray:
    """(n, 2) margin-valid bin centers of the pitch x pitch tiling, row-major in
    (x, y); a tiling without one raises ConfigError.  The cells are tested
    CHECK_ROWS at a time, which bounds the memory of the test."""
    pts = grid_points(scenario.room_side, pitch)
    centers = pts[np.concatenate([target_margin_ok(scenario, sigma, pts[lo:lo + CHECK_ROWS])
                                  for lo in range(0, len(pts), CHECK_ROWS)])]
    if not len(centers):
        raise ConfigError(f"no margin-valid bin centers at pitch {pitch}")
    return centers


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
    # checked as one bin's records, then counted over the bins
    manifest = DatasetManifest(scenario, protocol, sigma, n_per_bin, master_seed, pitch, bin_jitter)
    manifest.n_per_hyp *= len(valid_bin_centers(scenario, sigma, pitch))
    save_dataset(out, manifest)
    return manifest


def split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/validation split as sorted (train, val) row indices;
    disjoint and exhaustive, about `val_fraction` of each stratum validating.

    Strata are the hypothesis, refined by bin for binned protocols, taken in
    (null before target, ascending bin) order with one shuffle each.
    """
    if not 0.0 <= val_fraction <= 1.0:
        raise ConfigError(f"validation fraction must be in [0, 1], got {val_fraction}")
    f_train = 1.0 - val_fraction
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
    leaves nothing loadable, and a directory made here is removed again.
    """
    # target, centers and the link geometry, checked before anything is made; bin is not kept
    target, centers = record_layout(manifest)[::2]
    link_geometry(manifest.scenario)
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]    # innermost first
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    part = {name: out / f"{name}.part" for name in ("frames.bin", "labels.csv", "manifest.json")}
    meta, sigma = _frame_meta(manifest.scenario), repr(float(manifest.sigma))
    try:
        with open(part["frames.bin"], "wb") as ff, \
                open(part["labels.csv"], "w", newline="") as fc:
            w = csv.writer(fc)
            w.writerow(LABEL_COLUMNS)
            for lo in range(0, len(target), BLOCK):
                t = target[lo:lo + BLOCK]
                tensors, xy, seeds = _generate_block(manifest, lo, t, centers[lo:lo + BLOCK])
                write_frames(ff, tensors, meta)
                for i, (is_target, (x, y), seed) in enumerate(
                        zip(t.tolist(), xy.tolist(), seeds.tolist()), lo):
                    w.writerow([i, HYP_TARGET, repr(x), repr(y), sigma, seed] if is_target
                               else [i, HYP_NULL, "", "", "", seed])
        with open(part["manifest.json"], "w") as fp:
            json.dump(manifest.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
    except BaseException:
        for temp in part.values():
            temp.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise
    for name, temp in part.items():
        os.replace(temp, out / name)


def _read_labels(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(target, xy, sigma, seed) columns of a labels.csv whose index is the row
    number; xy and sigma are NaN on null rows, and _check_targets checks them."""
    target, values, seed = bytearray(), array("d"), array("Q")
    with open(path, newline="") as fc:
        rows = csv.reader(fc)
        try:
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
                    values.extend(point)
                    seed.append(int(s))
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"{path}: row {i}: {exc}") from exc
        except UnicodeDecodeError as exc:    # raised as the csv reader reads the file
            raise ConfigError(f"{path}: {exc}") from exc
    values = np.frombuffer(values, dtype=float).reshape(-1, 3)
    return (np.frombuffer(target, dtype=bool), values[:, :2], values[:, 2],
            np.frombuffer(seed, dtype=np.uint64))


def _check_targets(path: Path, manifest: DatasetManifest, target: np.ndarray,
                   xy: np.ndarray, sigma: np.ndarray, centers: np.ndarray) -> None:
    """Target rows carry the manifest's sigma, a binned set's targets sit at
    their bin's center, or inside the bin when jittered, and every target keeps
    the margin rule its center was drawn under."""
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
    for lo in range(0, len(rows), CHECK_ROWS):
        chunk = rows[lo:lo + CHECK_ROWS]
        bad = ~target_margin_ok(manifest.scenario, manifest.sigma, xy[chunk])
        if bad.any():
            i = chunk[np.argmax(bad)]
            raise ConfigError(f"{path}: row {i}: target at {tuple(xy[i].tolist())} breaks the "
                              f"margin rule of a {manifest.sigma} m target")


def load_dataset(path: str | Path) -> Dataset:
    """Open a dataset directory: read its manifest and labels, and check its
    frames.bin in chunks without holding it; the frames are read when rows of
    `tensors` are.  The labels must follow the record layout of the manifest,
    from which the bin indices are rebuilt."""
    src = Path(path)
    try:
        with open(src / "manifest.json") as fp:
            document = json.load(fp)
    except FileNotFoundError:
        if not src.is_dir():
            raise
        raise ConfigError(f"{src}: no manifest.json: not a dataset, or its writing "
                          f"did not finish") from None
    except ValueError as exc:     # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"{src / 'manifest.json'}: malformed manifest: {exc}") from exc
    manifest = DatasetManifest.from_dict(document, str(src / "manifest.json"))
    target, xy, sigma, seed = _read_labels(src / "labels.csv")
    frames = FrameFile(src / "frames.bin", _frame_meta(manifest.scenario))
    if len(frames) != len(target):
        raise ConfigError(f"{src}: frames.bin holds {len(frames)} records, "
                          f"labels.csv {len(target)}")
    # the layout's length, checked before record_layout builds its columns
    n_records = 2 * manifest.n_per_hyp
    if len(target) != n_records:
        raise ConfigError(f"{src / 'labels.csv'}: {len(target)} rows, the {manifest.protocol} "
                          f"layout of manifest.json has {n_records}")
    try:
        layout, bins, centers = record_layout(manifest)
    except ConfigError as exc:
        raise ConfigError(f"{src / 'manifest.json'}: {exc}") from exc
    wrong = np.flatnonzero(target != layout)
    if len(wrong):
        i = wrong[0]
        raise ConfigError(f"{src / 'labels.csv'}: row {i} is "
                          f"{HYP_TARGET if target[i] else HYP_NULL}, the {manifest.protocol} "
                          f"layout of manifest.json has {HYP_TARGET if layout[i] else HYP_NULL} "
                          f"there")
    _check_targets(src / "labels.csv", manifest, target, xy, sigma, centers)
    for lo in range(0, len(seed), CHECK_ROWS):
        rows = range(lo, min(lo + CHECK_ROWS, len(seed)))
        wrong = np.flatnonzero(seed[lo:rows.stop] != record_seeds(manifest.master_seed, rows))
        if len(wrong):
            i = lo + wrong[0]
            raise ConfigError(f"{src / 'labels.csv'}: row {i}: seed {seed[i]} is not the "
                              f"record seed of master_seed {manifest.master_seed}")
    return Dataset(manifest=manifest, tensors=frames, target=target, xy=xy, bin=bins)
