"""Command-line surface: dataset generation, training, evaluation, baselines.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric failure.
All randomness flows from --seed; repeating a command with the same seed
rewrites byte-identical artifacts.  Argv, the files it names and the
packaged presets are the only inputs: no environment variable is read.

No command holds a dataset's frames all at once: `gen` writes each block of
records as it is made and manifest.json last, `train` reads only its split's
rows from frames.bin, and the evaluation commands score each block of drops
as it is made.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from . import dataset as dataset_mod
from . import metrics as metrics_mod
from . import sensenet as nn
from .channel import Scenario
from .errors import ConfigError, NonFiniteLoss
from .frame import compute_stats, normalize

PRESETS = ("scenario1", "scenario2", "scenario3")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def load_scenario(spec: str) -> Scenario:
    """Preset name (scenario1..3) or a path to a scenario JSON file."""
    if spec in PRESETS:
        text = resources.files("csisense.presets").joinpath(f"{spec}.json").read_text()
    else:
        text = Path(spec).read_text()
    try:
        return Scenario.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{spec}: invalid JSON: {exc}") from exc


def _scenario_with(args, scenario: Scenario) -> Scenario:
    """Apply variant flags (LOS, SNR, scattering coefficient) on top of a config."""
    kwargs = {}
    if args.no_los:
        kwargs["include_los"] = False
    if args.snr_db is not None:
        kwargs["snr_db"] = args.snr_db
    if args.scatter_coeff is not None:
        kwargs["scatter_coeff"] = args.scatter_coeff
    return dataclasses.replace(scenario, **kwargs) if kwargs else scenario


def _add_variant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-los", action="store_true", help="disable the direct path")
    p.add_argument("--snr-db", type=float, default=None, help="measurement SNR in dB")
    p.add_argument("--scatter-coeff", type=float, default=None,
                   help="target scattering coefficient")


def _check_count(flag: str, count: int | None) -> None:
    if count is not None and count < 1:
        raise ConfigError(f"{flag} must be >= 1, got {count}")


def _check_float(flag: str, value: float | None, low: float = -math.inf,
                 high: float = math.inf) -> None:
    """A float flag must be finite and in [low, high]; NaN fails every comparison.
    The message names only the finite bounds."""
    if value is not None and not (math.isfinite(value) and low <= value <= high):
        bounds = (f" in [{low:g}, {high:g}]" if math.isfinite(high)
                  else f" >= {low:g}" if math.isfinite(low) else "")
        raise ConfigError(f"{flag} must be a finite number{bounds}, got {value}")


def _load_model(path: str, task: str | None = None, use: str = "") -> nn.TrainedModel:
    """Load a model artifact; `use` needs a `task` model when `task` is given."""
    model = nn.load_model(path)
    if task is not None and model.task != task:
        raise ConfigError(f"{use} needs a {task} model, {path} is a {model.task} model")
    return model


def cmd_gen(args) -> int:
    dataset_mod.check_sigma(args.sigma, "--sigma")
    _check_count("--n", args.n)
    _check_float("--pitch", args.pitch)
    scenario = _scenario_with(args, load_scenario(args.scenario))
    if args.protocol == "resolution":
        for flag, given in (("--pitch", args.pitch is not None), ("--bin-jitter", args.bin_jitter)):
            if given:
                raise ConfigError(f"{flag} applies to the binned protocols, not resolution")
        n = args.n if args.n is not None else (
            dataset_mod.PAPER_SCALE_N if args.paper_scale else dataset_mod.DESK_SCALE_N)
        manifest = dataset_mod.gen_resolution_set(scenario, args.sigma, n, args.seed,
                                                  out=args.out)
    else:
        n = args.n if args.n is not None else (
            dataset_mod.PAPER_SCALE_N_PER_BIN if args.paper_scale
            else dataset_mod.DESK_SCALE_N_PER_BIN)
        manifest = dataset_mod.gen_binned_set(
            scenario, args.sigma, n,
            dataset_mod.BIN_PITCH if args.pitch is None else args.pitch, args.seed,
            protocol=args.protocol, bin_jitter=args.bin_jitter, out=args.out,
        )
    n = manifest.n_per_hyp
    print(f"wrote {2 * n} records ({n} null, {n} target) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    _check_float("--lr", args.lr, low=0.0)
    _check_float("--val-frac", args.val_frac, low=0.0, high=1.0)
    ds = dataset_mod.load_dataset(args.data)
    train_model, log = fit(
        ds,
        task=args.task,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        patience=args.patience,
        val_fraction=args.val_frac,
    )
    nn.save_model(args.out, train_model)
    log_path = args.log if args.log else str(args.out) + ".log.csv"
    with open(log_path, "w") as fp:
        nn.write_training_log(fp, log)
    last = log[-1]
    print(f"trained {args.task} model: {len(log)} epochs, "
          f"val_loss={last.val_loss:.6g}, val_metric={last.val_metric:.6g}")
    print(f"model -> {args.out}")
    return EXIT_OK


def fit(
    ds: dataset_mod.Dataset,
    task: str,
    epochs: int = 40,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
    patience: int = 0,
    val_fraction: float = dataset_mod.VAL_FRACTION,
) -> tuple[nn.TrainedModel, list[nn.LogEntry]]:
    """Split, normalize on the training side only, and train one head."""
    config = nn.TrainConfig(
        task=task, batch_size=batch_size, learning_rate=learning_rate,
        epochs=epochs, seed=seed, patience=patience,
    )
    train_idx, val_idx = dataset_mod.split(ds, (1.0 - val_fraction, val_fraction), seed)
    if task == "locate":
        train_idx, val_idx = train_idx[ds.target[train_idx]], val_idx[ds.target[val_idx]]
    if not len(train_idx):
        raise ConfigError(f"no usable records for task {task!r}")

    def arrays(idx: np.ndarray):
        y = ds.target[idx].astype(float) if task == "detect" else ds.xy[idx]
        return ds.tensors[idx], y

    # only the split's rows are read, each into one array normalized in place
    x_train, y_train = arrays(train_idx)
    stats = compute_stats(x_train)
    normalize(x_train, stats, out=x_train)
    validation = None
    if len(val_idx):
        x_val, y_val = arrays(val_idx)
        validation = (normalize(x_val, stats, out=x_val), y_val)
    params, log = nn.train((x_train, y_train), config, validation)
    return nn.TrainedModel(params=params, stats=stats), log


def cmd_eval(args) -> int:
    try:
        sigmas = sorted(float(s) for s in args.sigmas.split(",")) if args.sigmas else []
    except ValueError:
        raise ConfigError(f"--sigmas must be comma-separated numbers, "
                          f"got {args.sigmas!r}") from None
    if sigmas and args.sigma is not None:
        raise ConfigError("--sigma does not apply to a --sigmas sweep")
    if not sigmas and args.gamma is not None:
        raise ConfigError("--gamma applies only to a --sigmas sweep")
    sigma = 0.8 if args.sigma is None else args.sigma
    gamma = 0.9 if args.gamma is None else args.gamma
    dataset_mod.check_sigma(sigma, "--sigma")
    for s in sigmas:
        dataset_mod.check_sigma(s, "--sigmas")
    _check_count("--drops", args.drops)
    _check_float("--threshold", args.threshold, 0.0, 1.0)
    _check_float("--gamma", gamma, 0.0, 1.0)
    # --sigmas and --threshold score detections, so they need a detect model
    flag = "--sigmas" if sigmas else "--threshold" if args.threshold is not None else None
    model = _load_model(args.model, "detect" if flag else None, flag or "")
    if args.threshold is not None:
        model.threshold = args.threshold
    scenario = _scenario_with(args, load_scenario(args.scenario))
    drops = args.drops if args.drops is not None else (700 if model.task == "detect" else 1000)
    if model.task == "detect":
        if sigmas:
            curve, crossing = metrics_mod.resolution_curve(
                model, scenario, sigmas, drops, gamma, args.seed)
            with open(args.out, "w") as fp:
                metrics_mod.write_resolution_csv(fp, curve, drops)
            for sigma, p in curve:
                print(f"sigma={sigma:g}  P={p:.4f}")
            print(f"resolution at gamma={gamma:g}: "
                  f"{crossing if crossing is not None else 'not reached'}")
        else:
            fa, miss = metrics_mod.detection_counts(model, scenario, sigma, drops, args.seed)
            p = metrics_mod.accuracy_score(fa, miss, drops)
            with open(args.out, "w") as fp:
                metrics_mod.write_resolution_csv(fp, [(sigma, p)], drops)
            print(f"accuracy score P={p:.4f} over {drops} drops/hypothesis "
                  f"(fa={fa}, miss={miss})")
    else:
        result = metrics_mod.drop_positions(scenario, sigma, drops, args.seed,
                                            model=model)[0]
        summary = result.summary()
        with open(args.out, "w") as fp:
            metrics_mod.write_positioning_csv(fp, summary)
        print(f"mean error = {summary.mean:.4f} m, p90 = {summary.p90:.4f} m "
              f"over {drops} drops")
    return EXIT_OK


def cmd_coverage(args) -> int:
    dataset_mod.check_sigma(args.sigma, "--sigma")
    _check_count("--drops-per-bin", args.drops_per_bin)
    _check_float("--threshold", args.threshold, 0.0, 1.0)
    _check_float("--pitch", args.pitch)
    model = _load_model(args.model, "detect", "coverage")
    if args.threshold is not None:
        model.threshold = args.threshold
    scenario = _scenario_with(args, load_scenario(args.scenario))
    drops = args.drops_per_bin if args.drops_per_bin is not None else (
        700 if args.paper_scale else 30)
    cmap = metrics_mod.coverage_map(model, scenario, args.sigma, drops, args.pitch, args.seed)
    with open(args.out, "w") as fp:
        metrics_mod.write_coverage_csv(fp, cmap)
    if args.pgm:
        with open(args.pgm, "w") as fp:
            metrics_mod.write_coverage_pgm(fp, cmap)
    defined = cmap.defined_scores()
    print(f"coverage over {defined.size} bins: mean P = {defined.mean():.4f}, "
          f"min P = {defined.min():.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    dataset_mod.check_sigma(args.sigma, "--sigma")
    _check_count("--drops", args.drops)
    scenario = _scenario_with(args, load_scenario(args.scenario))
    banks = []
    if args.variant in ("swept7", "both"):
        banks.append(baseline_mod.swept_bank(scenario))
    if args.variant in ("overlapped180", "both"):
        banks.append(baseline_mod.overlapped_bank())
    model = _load_model(args.model, "locate", "baseline --model") if args.model else None
    results = metrics_mod.drop_positions(scenario, args.sigma, args.drops, args.seed,
                                         banks, model)
    with open(args.out, "w") as fp:
        metrics_mod.write_baseline_csv(fp, results)
    for res in results:
        s = res.summary()
        print(f"{res.variant}: mean error = {s.mean:.4f} m, p90 = {s.p90:.4f} m")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="csisense",
                                description="Multistatic passive-sensing simulator")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a dataset")
    g.add_argument("--scenario", default="scenario1")
    g.add_argument("--protocol", choices=dataset_mod.PROTOCOLS, default="resolution")
    g.add_argument("--sigma", type=float, default=0.8)
    g.add_argument("--n", type=int, default=None,
                   help="records per hypothesis (resolution) or per bin (binned)")
    g.add_argument("--pitch", type=float, default=None,
                   help=f"bin pitch of the binned protocols (default {dataset_mod.BIN_PITCH})")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--paper-scale", action="store_true")
    g.add_argument("--bin-jitter", action="store_true",
                   help="jitter binned target positions uniformly within each bin")
    _add_variant_flags(g)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="train a detection or positioning model")
    t.add_argument("--data", required=True)
    t.add_argument("--task", choices=("detect", "locate"), default="detect")
    t.add_argument("--out", required=True)
    t.add_argument("--log", default=None)
    t.add_argument("--epochs", type=int, default=40)
    t.add_argument("--batch", type=int, default=32)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--patience", type=int, default=0)
    t.add_argument("--val-frac", type=float, default=dataset_mod.VAL_FRACTION,
                   help=f"validation share of the split (default {dataset_mod.VAL_FRACTION})")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a trained model on fresh drops")
    e.add_argument("--model", required=True)
    e.add_argument("--scenario", default="scenario1")
    e.add_argument("--sigma", type=float, default=None,
                   help="target size without --sigmas (default 0.8)")
    e.add_argument("--sigmas", default=None,
                   help="comma-separated sizes for a resolution sweep")
    e.add_argument("--gamma", type=float, default=None,
                   help="accuracy the --sigmas sweep must exceed (default 0.9)")
    e.add_argument("--drops", type=int, default=None,
                   help="default 700 for detection, 1000 for positioning")
    e.add_argument("--threshold", type=float, default=None,
                   help="detection threshold override (default 0.5)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    _add_variant_flags(e)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("coverage", help="spatial accuracy map")
    c.add_argument("--model", required=True)
    c.add_argument("--scenario", default="scenario1")
    c.add_argument("--sigma", type=float, default=0.8)
    c.add_argument("--pitch", type=float, default=dataset_mod.BIN_PITCH)
    c.add_argument("--drops-per-bin", type=int, default=None)
    c.add_argument("--threshold", type=float, default=None,
                   help="detection threshold override (default 0.5)")
    c.add_argument("--paper-scale", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--pgm", default=None)
    _add_variant_flags(c)
    c.set_defaults(func=cmd_coverage)

    b = sub.add_parser("baseline", help="angle-based positioning baseline")
    b.add_argument("--scenario", default="scenario1")
    b.add_argument("--sigma", type=float, default=0.8)
    b.add_argument("--drops", type=int, default=500)
    b.add_argument("--variant", choices=("swept7", "overlapped180", "both"),
                   default="both")
    b.add_argument("--model", default=None,
                   help="optional positioning model compared on identical drops")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    _add_variant_flags(b)
    b.set_defaults(func=cmd_baseline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ConfigError, NonFiniteLoss, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonFiniteLoss):
            return EXIT_NUMERIC
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
