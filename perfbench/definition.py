"""The benchmark's definition: its workloads, why each was chosen, and its metrics.

Every workload is closed-loop with one client: the commands of one iteration
run in order, each starting when the previous one has finished, and
iterations repeat until the run's time is up.  All run on scenario1 with a
0.8 m target at the README's desk-scale sizes.  The workload seed given to the
benchmark is never passed to csisense; each command gets its own `--seed`
derived from (workload, workload seed, command tag), so every iteration of a
run repeats the same work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from tracer import SPAN_NAMES

DEFAULT_SEED = 0          # the workload seed whose outputs are compared with reference.json
TRAIN_FRACTION = 0.7      # csisense's default stratified split


def derive_seed(workload: str, seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def train_count(per_stratum: int, strata: int) -> int:
    """Training-split size of `strata` equal strata under csisense's stratified split."""
    return strata * int(round(TRAIN_FRACTION * per_stratum))


@dataclass(frozen=True)
class Step:
    """One csisense command.

    `argv` is formatted with `d` (this iteration's directory), `setup` (the
    set-up directory) and `seed` (the derived seed).  `stage` says which
    stage rate the step counts towards; `expect` holds the sizes its output
    check requires.
    """

    tag: str
    stage: str                    # gen | train | eval
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int                  # CSISENSE_WORKERS for the workload process
    steps: tuple[Step, ...]       # timed
    setup: tuple[Step, ...] = ()  # untimed preparation, part of setup_s
    # setup_s is the median of this many set-ups, each in a process of its own.  A bare
    # set-up (imports and warm-up, about 0.2 s) varies by some 15% from one process to
    # the next, so it is repeated more often than one that trains models for seconds.
    setup_repeats: int = 9


SCENARIO = ("--scenario", "scenario1", "--sigma", "0.8")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="detect-train",
            why="README detection steps 1-3 at a fixed 60 epochs: training is most of the "
                "wall time, so it shows sensenet changes and barely touches channel",
            workers=1,
            steps=(
                Step("gen", "gen", ("gen", *SCENARIO, "--protocol", "resolution", "--n", "200",
                                    "--seed", "{seed}", "--out", "{d}/det-ds"),
                     {"records": 400}),
                Step("train", "train", ("train", "--data", "{d}/det-ds", "--task", "detect",
                                        "--epochs", "60", "--patience", "0", "--seed", "{seed}",
                                        "--out", "{d}/detector.csnn"),
                     {"epochs": 60, "samples": train_count(200, 2)}),
                Step("eval", "eval", ("eval", "--model", "{d}/detector.csnn", *SCENARIO,
                                      "--drops", "700", "--seed", "{seed}",
                                      "--out", "{d}/det-eval.csv"),
                     {"drops": 700}),
            ),
        ),
        Workload(
            name="drop-eval",
            why="coverage and baseline on pre-trained small models: channel, frame and metrics "
                "synthesis plus the 180-beam estimator, with no backward pass timed",
            workers=1,
            setup_repeats=3,
            setup=(
                Step("gen-det", "gen", ("gen", *SCENARIO, "--protocol", "resolution", "--n", "100",
                                        "--seed", "{seed}", "--out", "{setup}/det-ds"),
                     {"records": 200}),
                Step("train-det", "train", ("train", "--data", "{setup}/det-ds", "--task", "detect",
                                            "--epochs", "10", "--patience", "0",
                                            "--seed", "{seed}", "--out", "{setup}/detector.csnn"),
                     {"epochs": 10, "samples": train_count(100, 2)}),
                Step("gen-loc", "gen", ("gen", *SCENARIO, "--protocol", "positioning",
                                        "--pitch", "0.5", "--n", "4", "--seed", "{seed}",
                                        "--out", "{setup}/loc-ds"),
                     {"records": 512, "bins": 64}),
                Step("train-loc", "train", ("train", "--data", "{setup}/loc-ds", "--task", "locate",
                                            "--epochs", "10", "--patience", "0",
                                            "--seed", "{seed}", "--out", "{setup}/locator.csnn"),
                     {"epochs": 10, "samples": train_count(4, 64)}),
            ),
            steps=(
                Step("coverage", "eval", ("coverage", "--model", "{setup}/detector.csnn", *SCENARIO,
                                          "--pitch", "0.5", "--drops-per-bin", "30",
                                          "--seed", "{seed}", "--out", "{d}/coverage.csv",
                                          "--pgm", "{d}/coverage.pgm"),
                     {"bins": 64, "drops_per_bin": 30, "drops": 64 * 30}),
                Step("baseline", "eval", ("baseline", *SCENARIO, "--variant", "both",
                                          "--model", "{setup}/locator.csnn", "--drops", "500",
                                          "--seed", "{seed}", "--out", "{d}/baseline.csv"),
                     {"drops": 500}),
            ),
        ),
        Workload(
            name="positioning-volume",
            why="binned positioning set (5,120 records) through a 2-worker pool, a 14 MB "
                "frames.bin write and read, a 256-stratum split, 3 locate epochs, 1,000-drop eval",
            workers=2,
            steps=(
                Step("gen", "gen", ("gen", *SCENARIO, "--protocol", "positioning", "--pitch", "0.25",
                                    "--n", "10", "--seed", "{seed}", "--out", "{d}/pos-ds"),
                     {"records": 5120, "bins": 256}),
                Step("train", "train", ("train", "--data", "{d}/pos-ds", "--task", "locate",
                                        "--epochs", "3", "--patience", "0", "--seed", "{seed}",
                                        "--out", "{d}/locator.csnn"),
                     {"epochs": 3, "samples": train_count(10, 256)}),
                Step("eval", "eval", ("eval", "--model", "{d}/locator.csnn", *SCENARIO,
                                      "--drops", "1000", "--seed", "{seed}",
                                      "--out", "{d}/pos-eval.csv"),
                     {"drops": 1000, "max_mean_error": 1.5}),
            ),
        ),
    )
}


def command(step: Step, workload: str, seed: int, d: str, setup: str) -> list[str]:
    return [a.format(d=d, setup=setup, seed=derive_seed(workload, seed, step.tag))
            for a in step.argv]


RUN_SECONDS = 20

# (name, unit, better, bound): what a user of the CLI sees, from untraced runs.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_TOTAL_MS = ("cli.", "metrics.", "sensenet.train")

# Commands that call metrics.paired_drop; each reports its own unique_ratio, and
# `baseline --variant both --model` synthesises every drop three times (ratio 1/3).
DROP_COMMANDS = ("eval", "coverage", "baseline")

# (name, unit, better): single stages and layers, from a separate traced run.  The
# stage rates are not end-to-end metrics: a stage timed for a few seconds or less
# (detect-train's gen and eval, drop-eval's set-up gen and train) spread by up to a
# third between runs on a shared 2-core machine, more than any usable bound.
PER_LAYER = (
    ("gen_frames_per_s", "1/s", "higher"),
    ("train_samples_per_s", "1/s", "higher"),
    ("eval_drops_per_s", "1/s", "higher"),
) + tuple(
    metric
    for span in SPAN_NAMES
    for metric in (
        (f"{span}.calls", "count", "lower"),
        (f"{span}.self_ms", "ms", "lower"),
        *([(f"{span}.total_ms", "ms", "lower")] if span.startswith(_TOTAL_MS) else []),
    )
) + (
    ("sensenet.loss_and_grads.p50_ms", "ms", "lower"),
    ("sensenet.loss_and_grads.p90_ms", "ms", "lower"),
    ("sensenet.loss_and_grads.p50_ms.blas_nproc", "ms", "lower"),
    ("metrics.paired_drop.p50_us", "us", "lower"),
    ("metrics.paired_drop.p99_us", "us", "lower"),
    ("metrics.paired_drop.distinct", "count", "higher"),
    ("metrics.paired_drop.unique_ratio", "ratio", "higher"),
) + tuple(
    (f"metrics.paired_drop.unique_ratio.{tag}", "ratio", "higher") for tag in DROP_COMMANDS
) + (
    ("dataset.bytes_written", "bytes", "lower"),
    ("dataset.bytes_read", "bytes", "lower"),
    ("frames_generated", "count", "higher"),
    ("drops_evaluated", "count", "higher"),
    ("train_steps", "count", "higher"),
    ("tracing_overhead_s", "s", "lower"),
    ("unattributed_ms", "ms", "lower"),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
