"""Evaluation statistics: accuracy score, resolution, coverage, error CDF.

The accuracy score is one minus the prior-weighted misclassification
probability over paired drops, each with one null and one target frame, so
the two priors are 1/2.  All evaluation drops are derived from (master seed,
drop index) so every metric run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .baseline import BeamBank, estimate_positions
from .channel import Scenario, tiles_per_side
from .dataset import (BLOCK, Draws, draw, in_blocks, record_seeds, streams, synthesize,
                      valid_bin_centers)
from .errors import ConfigError
from .geometry import Point2D
from .sensenet import TrainedModel


def accuracy_score(false_alarms: int | np.ndarray, misses: int | np.ndarray,
                   n: int) -> float | np.ndarray:
    """P = 1 - (p(target|null) p(null) + p(null|target) p(target)) over n paired
    drops, whose priors are 1/2.  Counts that are arrays give an array of
    scores, each with the bits of its scalar one.
    """
    return 1.0 - 0.5 * (false_alarms / n + misses / n)


def paired_drop(
    scenario: Scenario,
    sigma: float,
    master_seed: int,
    index: int,
    center: Point2D | None,
    rng: np.random.Generator,
) -> Draws:
    """The draws of evaluation drop (master_seed, index) from rng, the Generator
    of its stream: its null frame and perturbed frame share the channel
    realization; noise is drawn independently per capture."""
    return draw(scenario, rng, sigma, None if center is None else (center.x, center.y))


def _score_drops(
    scenario: Scenario, sigma: float, keys: Iterable[tuple[int, int, Point2D | None]],
    score: Callable[[int, np.ndarray, np.ndarray, np.ndarray], Sequence[np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """Each of score's per-drop outputs over the paired drops named by (master
    seed, index, center) keys, concatenated in key order.  The drops are
    synthesised one block at a time and score(first drop index, null tensors,
    target tensors, centers) is called once per block; a block's tensors are
    dropped when its call returns."""
    outputs, lo = [], 0
    for block in in_blocks(keys):
        rngs = streams(record_seeds([k[0] for k in block], [k[1] for k in block]))
        outputs.append(score(lo, *synthesize(scenario, [paired_drop(scenario, sigma, *key, rng)
                                                        for key, rng in zip(block, rngs)])))
        lo += len(block)
    return tuple(np.concatenate(column) for column in zip(*outputs))


def _decisions(
    model: TrainedModel, scenario: Scenario, sigma: float,
    keys: Iterable[tuple[int, int, Point2D | None]],
) -> tuple[np.ndarray, np.ndarray]:
    """The false alarms and the misses of the detector at its threshold, one
    flag of each per paired drop."""
    return _score_drops(scenario, sigma, keys, lambda lo, null, alt, _: (
        model.predict(null, lo) >= model.threshold, model.predict(alt, lo) < model.threshold))


def detection_counts(
    model: TrainedModel,
    scenario: Scenario,
    sigma: float,
    n_drops: int,
    master_seed: int,
) -> tuple[int, int]:
    """(false alarms, misses) of fresh paired drops pushed through the detector
    at its threshold, the target drawn per drop."""
    keys = ((master_seed, i, None) for i in range(n_drops))
    false_alarms, misses = _decisions(model, scenario, sigma, keys)
    return int(false_alarms.sum()), int(misses.sum())


def resolution_curve(
    model: TrainedModel,
    scenario: Scenario,
    sigmas: Sequence[float],
    drops_per_sigma: int,
    gamma: float,
    master_seed: int,
) -> tuple[list[tuple[float, float]], float | None]:
    """Accuracy versus target size, plus the smallest size exceeding gamma."""
    if list(sigmas) != sorted(sigmas):
        raise ValueError("sigma list must be sorted ascending")
    curve = []
    for sigma, seed in zip(sigmas, record_seeds(master_seed, range(len(sigmas))).tolist()):
        fa, miss = detection_counts(model, scenario, sigma, drops_per_sigma, seed)
        curve.append((float(sigma), accuracy_score(fa, miss, drops_per_sigma)))
    crossing = next((s for s, p in curve if p > gamma), None)
    return curve, crossing


@dataclass
class CoverageMap:
    pitch: float
    score: np.ndarray      # (n, n), NaN where no samples; index [ix, iy]
    drops: int             # evaluation drops per scored bin

    def defined_scores(self) -> np.ndarray:
        return self.score[np.isfinite(self.score)]


def coverage_map(
    model: TrainedModel,
    scenario: Scenario,
    sigma: float,
    drops_per_bin: int,
    pitch: float,
    master_seed: int,
) -> CoverageMap:
    """Per-bin accuracy score from paired drops at each margin-valid bin center,
    the drops of all bins synthesised and scored in one pass; the drop keys
    are made a block of bins at a time."""
    centers = valid_bin_centers(scenario, sigma, pitch)
    n, d = tiles_per_side(scenario.room_side, pitch), drops_per_bin
    fa, miss = (h.reshape(len(centers), d).sum(axis=1) for h in _decisions(
        model, scenario, sigma, _bin_keys(master_seed, centers, d)))
    ix, iy = (centers / pitch).astype(int).T
    score = np.full((n, n), np.nan)
    score[ix, iy] = accuracy_score(fa, miss, d)
    return CoverageMap(pitch=pitch, score=score, drops=d)


def _bin_keys(master_seed: int, centers: np.ndarray, drops: int) -> Iterator[tuple]:
    """The (seed, index, center) keys of `drops` drops at each of the (B, 2)
    centers, bin b's seed that of record (master_seed, b), a block at a time."""
    for lo in range(0, len(centers), BLOCK):
        block = centers[lo:lo + BLOCK].tolist()
        for seed, (x, y) in zip(record_seeds(master_seed, range(lo, lo + len(block))).tolist(),
                                block):
            center = Point2D(x, y)
            yield from ((seed, i, center) for i in range(drops))


@dataclass
class ErrorSummary:
    mean: float
    p90: float
    errors: np.ndarray     # sorted ascending


def position_errors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """(D,) Euclidean distances between (D, 2) estimates and truths."""
    d = estimates - truths
    return np.hypot(d[:, 0], d[:, 1])


def error_summary(estimates: np.ndarray, truths: np.ndarray) -> ErrorSummary:
    """Euclidean position errors of (D, 2) estimates and truths: mean, linearly
    interpolated 90th percentile, and the sorted error list backing the empirical CDF."""
    if len(estimates) != len(truths):
        raise ConfigError(f"{len(estimates)} estimates vs {len(truths)} truths")
    if not len(estimates):
        raise ConfigError("need at least one estimate")
    errs = np.sort(position_errors(estimates, truths))
    return ErrorSummary(
        mean=float(errs.mean()),
        p90=float(np.percentile(errs, 90.0, method="linear")),
        errors=errs,
    )


@dataclass
class PositioningResult:
    truths: np.ndarray       # (D, 2) target centers
    estimates: np.ndarray    # (D, 2) estimated positions
    variant: str
    degraded: np.ndarray     # (D,) bool, the estimate fell back to a single bearing

    def summary(self) -> ErrorSummary:
        return error_summary(self.estimates, self.truths)


def drop_positions(
    scenario: Scenario,
    sigma: float,
    n_drops: int,
    master_seed: int,
    banks: Sequence[BeamBank] = (),
    model: TrainedModel | None = None,
) -> list[PositioningResult]:
    """Walk the paired drops once: the angle-based estimate per beam bank, then
    the model's estimate, all on identical drops (one result each, in that order).

    Single-receiver scenarios and all-parallel bearing draws fall back to the
    midpoint of receiver 0's bearing segment inside the room, marked degraded.
    CNN estimates are clamped to the room (a non-finite one raises ConfigError
    in TrainedModel.predict, before the clamp) and never degraded.
    Drops are made, scored and triangulated one block at a time.
    """
    def score(lo, null, alt, centers):
        out = [centers]
        for bank in banks:
            out += estimate_positions(null, alt, scenario, bank, lo)
        if model is not None:
            out += (np.minimum(np.maximum(model.predict(alt, lo), 0.0), scenario.room_side),
                    np.zeros(len(alt), dtype=bool))
        return out

    keys = ((master_seed, i, None) for i in range(n_drops))
    truths, *columns = _score_drops(scenario, sigma, keys, score)
    variants = [bank.variant for bank in banks] + ["csisensenet"] * (model is not None)
    return [PositioningResult(truths, xy, variant, degraded)
            for variant, xy, degraded in zip(variants, columns[0::2], columns[1::2])]


def write_resolution_csv(fp: IO[str], curve: Sequence[tuple[float, float]], n: int) -> None:
    fp.write("sigma,P,n\n")
    for sigma, p in curve:
        fp.write(f"{sigma!r},{p!r},{n}\n")


def write_coverage_csv(fp: IO[str], cmap: CoverageMap) -> None:
    fp.write("bin_x,bin_y,P,n\n")
    n = cmap.score.shape[0]
    for ix in range(n):
        for iy in range(n):
            if np.isfinite(cmap.score[ix, iy]):
                x = (ix + 0.5) * cmap.pitch
                y = (iy + 0.5) * cmap.pitch
                fp.write(f"{x!r},{y!r},{float(cmap.score[ix, iy])!r},{cmap.drops}\n")


def write_coverage_pgm(fp: IO[str], cmap: CoverageMap) -> None:
    """P2 grayscale map, accuracy scaled to 0..255; undefined bins are 0.
    Raster rows run top (max y) to bottom."""
    n = cmap.score.shape[0]
    fp.write(f"P2\n{n} {n}\n255\n")
    for iy in range(n - 1, -1, -1):
        row = []
        for ix in range(n):
            v = cmap.score[ix, iy]
            row.append(str(int(round(v * 255)) if np.isfinite(v) else 0))
        fp.write(" ".join(row) + "\n")


def write_positioning_csv(fp: IO[str], summary: ErrorSummary) -> None:
    fp.write("drop,err\n")
    for i, e in enumerate(summary.errors):
        fp.write(f"{i},{float(e)!r}\n")


def write_baseline_csv(fp: IO[str], results: Sequence[PositioningResult]) -> None:
    fp.write("drop,true_x,true_y,est_x,est_y,error_m,variant\n")
    for res in results:
        errors = position_errors(res.estimates, res.truths)
        for i, ((tx, ty), (ex, ey), err, d) in enumerate(zip(
                res.truths.tolist(), res.estimates.tolist(), errors.tolist(), res.degraded)):
            variant = res.variant + ("-degraded" if d else "")
            fp.write(f"{i},{tx!r},{ty!r},{ex!r},{ey!r},{err!r},{variant}\n")
