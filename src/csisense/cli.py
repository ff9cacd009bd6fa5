"""Command-line surface: dataset generation, training, evaluation, baselines.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numeric failure.
A flag's value is checked as it is parsed, by the `type=` converter it is
declared with; the commands check only rules between flags and the model's task.
All randomness flows from --seed; repeating a command with the same seed
rewrites byte-identical artifacts.  Argv, the files it names and the
packaged presets are the only inputs: no environment variable is read.
The training defaults live in `sensenet.TrainConfig`, whose fields the
`train` flags default to; `fit` takes one.

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
    path = (resources.files("csisense.presets").joinpath(f"{spec}.json") if spec in PRESETS
            else Path(spec))
    try:
        document = json.loads(path.read_text())
    except ValueError as exc:     # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"{spec}: invalid JSON: {exc}") from exc
    return Scenario.from_dict(document)


def _scenario(args) -> Scenario:
    """--scenario with the variant flags applied; --no-los sets los_gain to 0."""
    scenario = load_scenario(args.scenario)
    kwargs = {}
    if args.no_los:
        kwargs["los_gain"] = 0.0
    if args.snr_db is not None:
        kwargs["snr_db"] = args.snr_db
    if args.scatter_coeff is not None:
        kwargs["scatter_coeff"] = args.scatter_coeff
    return dataclasses.replace(scenario, **kwargs) if kwargs else scenario


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", default="scenario1")
    p.add_argument("--no-los", action="store_true", help="disable the direct path (los_gain 0)")
    # Scenario checks these two and names the key they override
    p.add_argument("--snr-db", type=float, default=None, help="measurement SNR in dB")
    p.add_argument("--scatter-coeff", type=float, default=None,
                   help="target scattering coefficient")


def number(flag: str, parse=float, low: float = -math.inf, high: float = math.inf):
    """An argparse type holding `flag`'s value to [low, high], and a float to
    finite values (NaN fails every comparison); the message names only the finite
    bounds.  Text `parse` cannot read keeps argparse's "invalid int value" error."""
    def convert(text: str):
        value = parse(text)
        if not (low <= value <= high) or abs(value) == math.inf:
            bounds = (f" in [{low:g}, {high:g}]" if math.isfinite(high)
                      else f" >= {low:g}" if math.isfinite(low) else "")
            kind = "" if parse is int else " a finite number"
            raise ConfigError(f"{flag} must be{kind}{bounds}, got {value}")
        return value
    convert.__name__ = parse.__name__
    return convert


def size(text: str) -> float:
    """--sigma, a target diameter: finite and > 0."""
    value = float(text)
    dataset_mod.check_sigma(value, "--sigma")
    return value


size.__name__ = "float"  # argparse's "invalid float value" names the type


def sizes(text: str) -> list[float]:
    """--sigmas: comma-separated target diameters, sorted.  It raises
    ConfigError, as argparse would turn a ValueError into its own message."""
    try:
        values = sorted(float(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"--sigmas must be comma-separated numbers, got {text!r}") from None
    for value in values:
        dataset_mod.check_sigma(value, "--sigmas")
    return values


def _load_model(path: str, task: str | None, use: str, threshold: float | None) -> nn.TrainedModel:
    """Load a model artifact; `use` needs a `task` model when `task` is given,
    and a given `threshold` replaces the model's."""
    model = nn.load_model(path)
    if task is not None and model.task != task:
        raise ConfigError(f"{use} needs a {task} model, {path} is a {model.task} model")
    if threshold is not None:
        model.threshold = threshold
    return model


def _distinct_from_out(args, flag: str, path: str | None) -> None:
    """A second output file must not be --out's, or one write would replace the other."""
    if path is not None and Path(path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"{flag} and --out name the same file {path}")


def cmd_gen(args) -> int:
    if args.paper_scale and args.n is not None:
        raise ConfigError("--paper-scale sets --n; give one of them")
    scenario = _scenario(args)
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
    _distinct_from_out(args, "--log", args.log)
    config = nn.TrainConfig(task=args.task, batch_size=args.batch, learning_rate=args.lr,
                            epochs=args.epochs, seed=args.seed, patience=args.patience)
    train_model, log = fit(dataset_mod.load_dataset(args.data), config, args.val_frac)
    # the log first: a failed write must not leave a model the other commands read
    with open(args.log or f"{args.out}.log.csv", "w") as fp:
        nn.write_training_log(fp, log)
    nn.save_model(args.out, train_model)
    last = log[-1]
    print(f"trained {config.task} model: {len(log)} epochs, "
          f"val_loss={last.val_loss:.6g}, val_metric={last.val_metric:.6g}")
    print(f"model -> {args.out}")
    return EXIT_OK


def fit(ds: dataset_mod.Dataset, config: nn.TrainConfig,
        val_fraction: float = dataset_mod.VAL_FRACTION
        ) -> tuple[nn.TrainedModel, list[nn.LogEntry]]:
    """Split, normalize on the training side only, and train one head."""
    train_idx, val_idx = dataset_mod.split(ds, val_fraction, config.seed)
    if config.task == "locate":
        train_idx, val_idx = train_idx[ds.target[train_idx]], val_idx[ds.target[val_idx]]
    if not len(train_idx):
        raise ConfigError(f"no usable records for task {config.task!r}")

    def arrays(idx: np.ndarray):
        y = ds.target[idx].astype(float) if config.task == "detect" else ds.xy[idx]
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
    sigmas = args.sigmas  # sorted, or None
    if sigmas and args.sigma is not None:
        raise ConfigError("--sigma does not apply to a --sigmas sweep")
    if not sigmas and args.gamma is not None:
        raise ConfigError("--gamma applies only to a --sigmas sweep")
    sigma = 0.8 if args.sigma is None else args.sigma
    gamma = 0.9 if args.gamma is None else args.gamma
    # --sigmas and --threshold score detections, so they need a detect model
    flag = "--sigmas" if sigmas else "--threshold" if args.threshold is not None else None
    model = _load_model(args.model, "detect" if flag else None, flag or "", args.threshold)
    scenario = _scenario(args)
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
    _distinct_from_out(args, "--pgm", args.pgm)
    if args.paper_scale and args.drops_per_bin is not None:
        raise ConfigError("--paper-scale sets --drops-per-bin; give one of them")
    model = _load_model(args.model, "detect", "coverage", args.threshold)
    scenario = _scenario(args)
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
    scenario = _scenario(args)
    banks = []
    if args.variant in ("swept7", "both"):
        banks.append(baseline_mod.swept_bank(scenario))
    if args.variant in ("overlapped180", "both"):
        banks.append(baseline_mod.overlapped_bank())
    model = _load_model(args.model, "locate", "baseline --model", None) if args.model else None
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=number("--seed", int, 0), default=0)
    common.add_argument("--out", required=True)

    g = sub.add_parser("gen", parents=[common], help="generate a dataset")
    g.add_argument("--protocol", choices=dataset_mod.PROTOCOLS, default="resolution")
    g.add_argument("--sigma", type=size, default=0.8)
    g.add_argument("--n", type=number("--n", int, 1), default=None,
                   help="records per hypothesis (resolution) or per bin (binned)")
    g.add_argument("--pitch", type=number("--pitch"), default=None,
                   help=f"bin pitch of the binned protocols (default {dataset_mod.BIN_PITCH})")
    g.add_argument("--paper-scale", action="store_true")
    g.add_argument("--bin-jitter", action="store_true",
                   help="jitter binned target positions uniformly within each bin")
    _add_scenario_flags(g)
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", parents=[common],
                       help="train a detection or positioning model")
    t.add_argument("--data", required=True)
    t.add_argument("--task", choices=tuple(nn.TASK_LOSS), default=nn.TrainConfig.task)
    t.add_argument("--log", default=None)
    t.add_argument("--epochs", type=number("--epochs", int, 1), default=nn.TrainConfig.epochs)
    t.add_argument("--batch", type=number("--batch", int, 1),
                   default=nn.TrainConfig.batch_size)
    t.add_argument("--lr", type=number("--lr", low=0.0), default=nn.TrainConfig.learning_rate)
    t.add_argument("--patience", type=number("--patience", int, 0),
                   default=nn.TrainConfig.patience)
    t.add_argument("--val-frac", type=number("--val-frac", low=0.0, high=1.0),
                   default=dataset_mod.VAL_FRACTION,
                   help=f"validation share of the split (default {dataset_mod.VAL_FRACTION})")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", parents=[common],
                       help="evaluate a trained model on fresh drops")
    e.add_argument("--model", required=True)
    e.add_argument("--sigma", type=size, default=None,
                   help="target size without --sigmas (default 0.8)")
    e.add_argument("--sigmas", type=sizes, default=None,
                   help="comma-separated sizes for a resolution sweep")
    e.add_argument("--gamma", type=number("--gamma", low=0.0, high=1.0), default=None,
                   help="accuracy the --sigmas sweep must exceed (default 0.9)")
    e.add_argument("--drops", type=number("--drops", int, 1), default=None,
                   help="default 700 for detection, 1000 for positioning")
    e.add_argument("--threshold", type=number("--threshold", low=0.0, high=1.0), default=None,
                   help="detection threshold override (default 0.5)")
    _add_scenario_flags(e)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("coverage", parents=[common], help="spatial accuracy map")
    c.add_argument("--model", required=True)
    c.add_argument("--sigma", type=size, default=0.8)
    c.add_argument("--pitch", type=number("--pitch"), default=dataset_mod.BIN_PITCH)
    c.add_argument("--drops-per-bin", type=number("--drops-per-bin", int, 1), default=None)
    c.add_argument("--threshold", type=number("--threshold", low=0.0, high=1.0), default=None,
                   help="detection threshold override (default 0.5)")
    c.add_argument("--paper-scale", action="store_true")
    c.add_argument("--pgm", default=None)
    _add_scenario_flags(c)
    c.set_defaults(func=cmd_coverage)

    b = sub.add_parser("baseline", parents=[common], help="angle-based positioning baseline")
    b.add_argument("--sigma", type=size, default=0.8)
    b.add_argument("--drops", type=number("--drops", int, 1), default=500)
    b.add_argument("--variant", choices=("swept7", "overlapped180", "both"),
                   default="both")
    b.add_argument("--model", default=None,
                   help="optional positioning model compared on identical drops")
    _add_scenario_flags(b)
    b.set_defaults(func=cmd_baseline)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, NonFiniteLoss, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonFiniteLoss):
            return EXIT_NUMERIC
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
