"""Evaluation statistics: accuracy score, resolution, coverage, error CDF.

The accuracy score is one minus the prior-weighted misclassification
probability, estimated empirically.  All evaluation drops are derived from
(master seed, drop index) so every metric run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .baseline import BeamBank, estimate_positions
from .channel import Scenario, tiles_per_side
from .dataset import (Draws, draw, in_blocks, record_seeds, streams, synthesize,
                      valid_bin_centers)
from .errors import ConfigError
from .geometry import Point2D, elementwise
from .sensenet import TrainedModel


@dataclass(frozen=True)
class ConfusionCounts:
    null_as_null: int
    null_as_target: int
    target_as_null: int
    target_as_target: int

    @property
    def total(self) -> int:
        return (self.null_as_null + self.null_as_target
                + self.target_as_null + self.target_as_target)


def accuracy_score(counts: ConfusionCounts, priors: tuple[float, float] | None = None) -> float:
    """P = 1 - (p(target|null) p(null) + p(null|target) p(target)).

    Priors default to the empirical class fractions; conditional error rates
    are always estimated from the counts.
    """
    n_null = counts.null_as_null + counts.null_as_target
    n_target = counts.target_as_null + counts.target_as_target
    if n_null == 0 or n_target == 0:
        raise ConfigError(f"need samples of both hypotheses, got {n_null} null / {n_target} target")
    p_fa = counts.null_as_target / n_null
    p_miss = counts.target_as_null / n_target
    if priors is None:
        p_null = n_null / counts.total
        p_target = n_target / counts.total
    else:
        p_null, p_target = priors
    return 1.0 - (p_fa * p_null + p_miss * p_target)


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


def _paired_blocks(
    scenario: Scenario, sigma: float, keys: Iterable[tuple[int, int, Point2D | None]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(null tensors, target tensors, centers) of the paired drops named by
    (master seed, index, center) keys, one block of drops at a time."""
    for block in in_blocks(keys):
        rngs = streams(record_seeds([k[0] for k in block], [k[1] for k in block]))
        yield synthesize(scenario, [paired_drop(scenario, sigma, *key, rng)
                                    for key, rng in zip(block, rngs)])


def _decisions(
    model: TrainedModel, scenario: Scenario, sigma: float,
    keys: Iterable[tuple[int, int, Point2D | None]],
) -> tuple[np.ndarray, np.ndarray]:
    """The detector's target decisions on the null and target frames of paired drops."""
    null_hits, alt_hits, lo = [], [], 0
    for null, alt, _ in _paired_blocks(scenario, sigma, keys):
        null_hits.append(model.predict(null, lo) >= model.threshold)
        alt_hits.append(model.predict(alt, lo) >= model.threshold)
        lo += len(alt)
    return np.concatenate(null_hits), np.concatenate(alt_hits)


def _confusion(null_hits: np.ndarray, alt_hits: np.ndarray) -> ConfusionCounts:
    fa, det = int(np.sum(null_hits)), int(np.sum(alt_hits))
    return ConfusionCounts(null_as_null=len(null_hits) - fa, null_as_target=fa,
                           target_as_null=len(alt_hits) - det, target_as_target=det)


def detection_counts(
    model: TrainedModel,
    scenario: Scenario,
    sigma: float,
    n_drops: int,
    master_seed: int,
) -> ConfusionCounts:
    """Fresh paired drops pushed through the detector at its threshold, the
    target drawn per drop."""
    keys = ((master_seed, i, None) for i in range(n_drops))
    return _confusion(*_decisions(model, scenario, sigma, keys))


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
        counts = detection_counts(model, scenario, sigma, drops_per_sigma, seed)
        curve.append((float(sigma), accuracy_score(counts)))
    crossing = next((s for s, p in curve if p > gamma), None)
    return curve, crossing


@dataclass
class CoverageMap:
    pitch: float
    score: np.ndarray      # (n, n), NaN where no samples; index [ix, iy]
    counts: np.ndarray     # evaluation drops per bin (per hypothesis)

    def defined_scores(self) -> np.ndarray:
        return self.score[self.counts > 0]


def coverage_map(
    model: TrainedModel,
    scenario: Scenario,
    sigma: float,
    drops_per_bin: int,
    pitch: float,
    master_seed: int,
) -> CoverageMap:
    """Per-bin accuracy score from paired drops at each margin-valid bin center,
    the drops of all bins synthesised and scored in one pass."""
    centers = valid_bin_centers(scenario, sigma, pitch).tolist()
    n = tiles_per_side(scenario.room_side, pitch)
    score = np.full((n, n), np.nan)
    counts = np.zeros((n, n), dtype=int)
    bin_keys = [(seed, Point2D(x, y)) for seed, (x, y) in
                zip(record_seeds(master_seed, range(len(centers))).tolist(), centers)]
    keys = ((seed, i, c) for seed, c in bin_keys for i in range(drops_per_bin))
    null_hits, alt_hits = (h.reshape(len(centers), drops_per_bin)
                           for h in _decisions(model, scenario, sigma, keys))
    for b, (x, y) in enumerate(centers):
        ix = int(x / pitch)
        iy = int(y / pitch)
        score[ix, iy] = accuracy_score(_confusion(null_hits[b], alt_hits[b]))
        counts[ix, iy] = drops_per_bin
    return CoverageMap(pitch=pitch, score=score, counts=counts)


@dataclass
class ErrorSummary:
    mean: float
    p90: float
    errors: np.ndarray     # sorted ascending


def position_errors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """(D,) Euclidean distances between (D, 2) estimates and truths, by math.hypot."""
    d = estimates - truths
    return elementwise(math.hypot, d[:, 0], d[:, 1])


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
    in TrainedModel.predict, before the clamp).
    Drops are made, scored and triangulated one block at a time.
    """
    truths, net = [], []
    per_bank = [([], []) for _ in banks]
    keys = ((master_seed, i, None) for i in range(n_drops))
    lo = 0
    for null, alt, centers in _paired_blocks(scenario, sigma, keys):
        truths.append(centers)
        for bank, (estimates, degraded) in zip(banks, per_bank):
            xy, flags = estimate_positions(null, alt, scenario, bank)
            estimates.append(xy)
            degraded.append(flags)
        if model is not None:
            net.append(np.minimum(np.maximum(model.predict(alt, lo), 0.0), scenario.room_side))
        lo += len(alt)

    truths = np.concatenate(truths)
    results = [PositioningResult(truths, np.concatenate(estimates), bank.variant,
                                 np.concatenate(degraded))
               for bank, (estimates, degraded) in zip(banks, per_bank)]
    if model is not None:
        results.append(PositioningResult(truths, np.concatenate(net), "csisensenet",
                                         np.zeros(n_drops, dtype=bool)))
    return results


def write_resolution_csv(fp: IO[str], curve: Sequence[tuple[float, float]], n: int) -> None:
    fp.write("sigma,P,n\n")
    for sigma, p in curve:
        fp.write(f"{sigma!r},{p!r},{n}\n")


def write_coverage_csv(fp: IO[str], cmap: CoverageMap) -> None:
    fp.write("bin_x,bin_y,P,n\n")
    n = cmap.score.shape[0]
    for ix in range(n):
        for iy in range(n):
            if cmap.counts[ix, iy] > 0:
                x = (ix + 0.5) * cmap.pitch
                y = (iy + 0.5) * cmap.pitch
                fp.write(f"{x!r},{y!r},{float(cmap.score[ix, iy])!r},{int(cmap.counts[ix, iy])}\n")


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
