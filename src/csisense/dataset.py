"""Dataset generation, labeling, persistence and splitting.

Every record is a pure function of (master seed, record index): the record's
own u64 seed is derived from that pair, so generation order and worker count
never change the output.  On disk a dataset is a manifest.json, a frames.bin
(concatenated binary frames) and a labels.csv.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frame as frame_mod
from .channel import Scenario, blocked_rays, capture, draw_gains, target_echo
from .errors import ConfigError, InvalidPitch, InvalidSize
from .frame import CsiFrame, FrameMeta, to_tensor
from .geometry import Point2D, Target

HYP_NULL = "null"
HYP_TARGET = "target"

DEVICE_CLEARANCE = 0.05  # extra clearance beyond sigma/2 around tx/rx positions

DESK_SCALE_N = 200          # resolution records per hypothesis
DESK_SCALE_N_PER_BIN = 20
PAPER_SCALE_N = 2000
PAPER_SCALE_N_PER_BIN = 2000


@dataclass(frozen=True)
class SampleRecord:
    tensor: np.ndarray
    hyp: str
    position: Point2D | None = None
    sigma: float | None = None
    seed: int = 0
    index: int = 0
    bin_index: int | None = None

    def __post_init__(self):
        has_target = self.hyp == HYP_TARGET
        if has_target != (self.position is not None and self.sigma is not None):
            raise ConfigError("target records need position+sigma, null records neither")


@dataclass
class DatasetManifest:
    scenario: Scenario
    protocol: str  # resolution | coverage | positioning
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
    def from_dict(d: dict) -> "DatasetManifest":
        return DatasetManifest(
            scenario=Scenario.from_dict(d["scenario"]),
            protocol=d["protocol"],
            sigma=float(d["sigma"]),
            n_per_hyp=int(d["n_per_hyp"]),
            master_seed=int(d["master_seed"]),
            grid_pitch=None if d.get("grid_pitch") is None else float(d["grid_pitch"]),
            split_fractions=tuple(d.get("split_fractions", (0.7, 0.3))),
            bin_jitter=bool(d.get("bin_jitter", False)),
            count_null=int(d.get("count_null", 0)),
            count_target=int(d.get("count_target", 0)),
        )


@dataclass
class Dataset:
    manifest: DatasetManifest
    records: list[SampleRecord]

    def __len__(self) -> int:
        return len(self.records)


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


def drop(
    scenario: Scenario,
    seed: int,
    sigma: float | None = None,
    center: Point2D | None = None,
    jitter_pitch: float | None = None,
    null: bool = True,
) -> tuple[Point2D | None, CsiFrame | None, CsiFrame | None]:
    """One channel realization from its stream seed: (center, null frame, target frame).

    Without a target (sigma None) only the null frame is captured.  With one,
    its center is drawn under the margin rule, or jittered within a
    jitter_pitch bin around `center`, or taken as given; the target frame
    shares the null frame's ray gains.  Draws, in order: ray gains, target
    center, echo phases, null-capture noise (when `null`), target-capture
    noise.
    """
    geo = scenario.geometry
    rng = np.random.default_rng(seed)
    gains = draw_gains(geo, rng)
    if sigma is None:
        return None, capture(geo, gains, None, rng), None
    if center is None:
        center = sample_target_center(scenario, sigma, rng)
    elif jitter_pitch is not None:
        center = _jitter_in_bin(scenario, sigma, center, jitter_pitch, rng)
    target = Target(center=center, diameter=sigma)
    echo = target_echo(geo, target, rng)
    null_frame = capture(geo, gains, None, rng) if null else None
    alt_frame = capture(geo, np.where(blocked_rays(geo, target), 0j, gains), echo, rng)
    return center, null_frame, alt_frame


def _generate_record(scenario: Scenario, spec: RecordSpec, master_seed: int) -> SampleRecord:
    seed = record_seed(master_seed, spec.index)
    if spec.hyp == HYP_NULL:
        _, fr, _ = drop(scenario, seed)
        return SampleRecord(tensor=to_tensor(fr), hyp=HYP_NULL, seed=seed,
                            index=spec.index, bin_index=spec.bin_index)
    center, _, fr = drop(scenario, seed, spec.sigma, spec.center, spec.bin_jitter_pitch,
                         null=False)
    return SampleRecord(tensor=to_tensor(fr), hyp=HYP_TARGET, position=center,
                        sigma=spec.sigma, seed=seed, index=spec.index,
                        bin_index=spec.bin_index)


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


def _gen_one(args) -> SampleRecord:
    scenario, spec, master_seed = args
    return _generate_record(scenario, spec, master_seed)


def _run_specs(scenario: Scenario, specs: list[RecordSpec], master_seed: int) -> list[SampleRecord]:
    workers = _worker_count()
    if workers == 1 or len(specs) < 4 * workers:
        return [_generate_record(scenario, s, master_seed) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        args = [(scenario, s, master_seed) for s in specs]
        return list(pool.map(_gen_one, args, chunksize=max(1, len(specs) // (4 * workers))))


def gen_resolution_set(
    scenario: Scenario, sigma: float, n_per_hyp: int, master_seed: int
) -> Dataset:
    """n null + n target records, target centers uniform under the margin rule."""
    if sigma <= 0:
        raise InvalidSize(f"sigma must be > 0, got {sigma}")
    specs = [RecordSpec(index=i, hyp=HYP_NULL, sigma=sigma) for i in range(n_per_hyp)]
    specs += [
        RecordSpec(index=n_per_hyp + i, hyp=HYP_TARGET, sigma=sigma)
        for i in range(n_per_hyp)
    ]
    records = _run_specs(scenario, specs, master_seed)
    manifest = DatasetManifest(
        scenario=scenario, protocol="resolution", sigma=sigma, n_per_hyp=n_per_hyp,
        master_seed=master_seed, count_null=n_per_hyp, count_target=n_per_hyp,
    )
    return Dataset(manifest=manifest, records=records)


def valid_bin_centers(scenario: Scenario, sigma: float, pitch: float) -> list[Point2D]:
    """Margin-valid bin centers of the pitch x pitch tiling, row-major in (x, y)."""
    if pitch <= 0:
        raise InvalidPitch(f"pitch must be > 0, got {pitch}")
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
    if sigma <= 0:
        raise InvalidSize(f"sigma must be > 0, got {sigma}")
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
    records = _run_specs(scenario, specs, master_seed)
    n_bins = len(centers)
    manifest = DatasetManifest(
        scenario=scenario, protocol=protocol, sigma=sigma, n_per_hyp=n_per_bin * n_bins,
        master_seed=master_seed, grid_pitch=pitch, bin_jitter=bin_jitter,
        count_null=n_per_bin * n_bins, count_target=n_per_bin * n_bins,
    )
    return Dataset(manifest=manifest, records=records)


def split(
    dataset: Dataset, fractions: tuple[float, float], seed: int
) -> tuple[Dataset, Dataset]:
    """Stratified train/validation split; disjoint and exhaustive.

    Strata are the hypothesis, refined by bin for binned protocols.
    """
    f_train, f_val = fractions
    if f_train < 0 or f_val < 0 or abs(f_train + f_val - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must be >= 0 and sum to 1, got {fractions}")
    strata: dict[tuple, list[int]] = {}
    for i, rec in enumerate(dataset.records):
        key = (rec.hyp, rec.bin_index if rec.bin_index is not None else -1)
        strata.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for key in sorted(strata):
        idxs = np.array(strata[key])
        rng.shuffle(idxs)
        n_train = int(round(f_train * len(idxs)))
        train_idx.extend(idxs[:n_train].tolist())
        val_idx.extend(idxs[n_train:].tolist())
    train_idx.sort()
    val_idx.sort()
    mk = lambda idxs: Dataset(
        manifest=dataset.manifest, records=[dataset.records[i] for i in idxs]
    )
    return mk(train_idx), mk(val_idx)


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write manifest.json, frames.bin and labels.csv into `path`."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w") as fp:
        json.dump(dataset.manifest.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    sc = dataset.manifest.scenario
    meta = FrameMeta(sc.n_links, sc.n_antennas, sc.n_beams)
    with open(out / "frames.bin", "wb") as fb:
        for rec in dataset.records:
            frame_mod.write_frame(fb, frame_mod.from_tensor(rec.tensor, meta))
    with open(out / "labels.csv", "w", newline="") as fc:
        w = csv.writer(fc)
        w.writerow(["index", "hyp", "x", "y", "sigma", "seed"])
        for rec in dataset.records:
            if rec.hyp == HYP_TARGET:
                w.writerow([rec.index, rec.hyp, repr(rec.position.x),
                            repr(rec.position.y), repr(rec.sigma), rec.seed])
            else:
                w.writerow([rec.index, rec.hyp, "", "", "", rec.seed])


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset directory; bin indices are rebuilt from the manifest layout."""
    src = Path(path)
    with open(src / "manifest.json") as fp:
        manifest = DatasetManifest.from_dict(json.load(fp))
    binned = manifest.grid_pitch is not None
    n_bins = (
        len(valid_bin_centers(manifest.scenario, manifest.sigma, manifest.grid_pitch))
        if binned else 0
    )
    per_bin = manifest.n_per_hyp // n_bins if binned and n_bins else 0
    records: list[SampleRecord] = []
    with open(src / "labels.csv", newline="") as fc, open(src / "frames.bin", "rb") as fb:
        for row in csv.DictReader(fc):
            fr = frame_mod.read_frame(fb)
            if fr is None:
                raise ConfigError("frames.bin shorter than labels.csv")
            idx = int(row["index"])
            bin_index = idx // (2 * per_bin) if binned and per_bin else None
            if row["hyp"] == HYP_TARGET:
                rec = SampleRecord(
                    tensor=to_tensor(fr), hyp=HYP_TARGET,
                    position=Point2D(float(row["x"]), float(row["y"])),
                    sigma=float(row["sigma"]), seed=int(row["seed"]),
                    index=idx, bin_index=bin_index,
                )
            else:
                rec = SampleRecord(tensor=to_tensor(fr), hyp=HYP_NULL,
                                   seed=int(row["seed"]), index=idx, bin_index=bin_index)
            records.append(rec)
        if frame_mod.read_frame(fb) is not None:
            raise ConfigError("frames.bin longer than labels.csv")
    return Dataset(manifest=manifest, records=records)
