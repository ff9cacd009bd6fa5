"""Output checks for each csisense command a workload runs.

`observe` reads a command's output files into a flat dict of observables.
For the default workload seed they are compared with reference.json; for
any other seed the invariants hold instead (counts, finite values, and the
acceptance suite's accuracy ranges).  The invariants are checked for the
default seed too.

A refactor that keeps every frame within 1e-12 of the old code moves the
observables by about 1e-12 relative: synthesis does not amplify rounding, and
a 1e-12 relative perturbation of the training frames moved the trained models'
losses and mean errors by under 1e-11 relative.  Observables computed from
frames alone (per-record frame energies, labels, the angle baseline) are
compared within 1e-9 relative; those that pass through a trained model within
1e-6.  A wrong frame value, label, loss or decision moves them by far more: a
record's energy is compared record by record, so one wrong value in one frame
shows, and one flipped decision moves an accuracy by at least 1/1400.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FRAME_REL_TOL = 1e-9
MODEL_REL_TOL = 1e-6
ABS_TOL = 1e-12

# Observables that pass through a trained model; all others derive from frames alone.
MODEL_DERIVED = frozenset({"train_loss", "val_loss", "val_metric", "P", "mean_error",
                           "max_error", "mean_P", "min_P", "max_P", "csisensenet.mean_error"})

# Acceptance-suite paper ranges for the angle baseline's mean error (m).
BASELINE_RANGES = {"swept-7": (1.65, 4.95), "overlapped-180": (1.43, 4.29)}

_FRAME_HEADER = 12    # CSIF magic, u16 version, u16 links, u16 antennas, u16 beams


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def _frames(path: Path, n_records: int) -> np.ndarray:
    raw = np.fromfile(path, dtype=np.uint8)
    if n_records == 0 or raw.size % n_records:
        raise ValueError(f"frames.bin holds {raw.size} bytes for {n_records} records")
    rec = raw.reshape(n_records, -1)
    if bytes(rec[0, :4]) != b"CSIF" or not np.all(rec[:, :4] == rec[0, :4]):
        raise ValueError("frames.bin record without CSIF magic")
    return rec[:, _FRAME_HEADER:].copy().view("<f8")


def observe_gen(argv: list[str]) -> dict:
    out = Path(_option(argv, "--out"))
    manifest = json.loads((out / "manifest.json").read_text())
    labels = _rows(out / "labels.csv")
    targets = [r for r in labels if r["hyp"] == "target"]
    values = _frames(out / "frames.bin", len(labels))
    return {
        "records": len(labels),
        "targets": len(targets),
        "manifest_records": manifest["count_null"] + manifest["count_target"],
        "finite": bool(np.all(np.isfinite(values))),
        "record_energy": np.square(values).sum(axis=1).tolist(),
        "target_x_sum": math.fsum(float(r["x"]) for r in targets),
        "target_y_sum": math.fsum(float(r["y"]) for r in targets),
    }


def observe_train(argv: list[str]) -> dict:
    model = Path(_option(argv, "--out"))
    log = _rows(Path(str(model) + ".log.csv"))
    last = log[-1]
    if not model.is_file():
        raise FileNotFoundError(model)
    return {
        "epochs": len(log),
        "train_loss": float(last["train_loss"]),
        "val_loss": float(last["val_loss"]),
        "val_metric": float(last["val_metric"]),
    }


def observe_eval(argv: list[str]) -> dict:
    rows = _rows(Path(_option(argv, "--out")))
    if "P" in rows[0]:                       # detection: sigma,P,n
        return {"rows": len(rows), "drops": int(rows[0]["n"]), "P": float(rows[0]["P"])}
    errs = np.array([float(r["err"]) for r in rows])
    return {"rows": len(rows), "drops": len(rows), "finite": bool(np.all(np.isfinite(errs))),
            "mean_error": float(errs.mean()), "max_error": float(errs.max())}


def observe_coverage(argv: list[str]) -> dict:
    rows = _rows(Path(_option(argv, "--out")))
    scores = np.array([float(r["P"]) for r in rows])
    return {"bins": len(rows), "min_n": min(int(r["n"]) for r in rows),
            "max_n": max(int(r["n"]) for r in rows),
            "mean_P": float(scores.mean()), "min_P": float(scores.min()),
            "max_P": float(scores.max())}


def observe_baseline(argv: list[str]) -> dict:
    obs: dict = {}
    truths: dict[str, list[tuple[str, str]]] = {}
    for r in _rows(Path(_option(argv, "--out"))):
        variant = r["variant"].removesuffix("-degraded")
        truths.setdefault(variant, []).append((r["true_x"], r["true_y"]))
        obs[f"{variant}.rows"] = obs.get(f"{variant}.rows", 0) + 1
        obs[f"{variant}.error_sum"] = obs.get(f"{variant}.error_sum", 0.0) + float(r["error_m"])
    for variant in truths:
        obs[f"{variant}.mean_error"] = obs.pop(f"{variant}.error_sum") / obs[f"{variant}.rows"]
    firsts = list(truths.values())
    obs["identical_truths"] = all(t == firsts[0] for t in firsts)
    obs["truth_x_sum"] = math.fsum(float(x) for x, _ in firsts[0]) if firsts else 0.0
    return obs


OBSERVERS = {"gen": observe_gen, "train": observe_train, "eval": observe_eval,
             "coverage": observe_coverage, "baseline": observe_baseline}


def invariants(command: str, obs: dict, expect: dict) -> list[str]:
    """Failures of the checks that hold for every workload seed."""
    bad = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    if command == "gen":
        need(obs["records"] == expect["records"], f"records {obs['records']} != {expect['records']}")
        need(obs["manifest_records"] == obs["records"], "manifest counts disagree with labels.csv")
        need(obs["targets"] * 2 == obs["records"], "null and target counts differ")
        need(obs["finite"], "non-finite frame values")
    elif command == "train":
        need(obs["epochs"] == expect["epochs"], f"epochs {obs['epochs']} != {expect['epochs']}")
        need(all(math.isfinite(obs[k]) for k in ("train_loss", "val_loss", "val_metric")),
             "non-finite training log")
    elif command == "eval" and "P" in obs:
        need(obs["drops"] == expect["drops"], f"drops {obs['drops']} != {expect['drops']}")
        need(0.0 <= obs["P"] <= 1.0, f"accuracy {obs['P']} outside [0, 1]")
    elif command == "eval":
        need(obs["rows"] == expect["drops"], f"drops {obs['rows']} != {expect['drops']}")
        need(obs["finite"], "non-finite position errors")
        limit = expect.get("max_mean_error")
        need(limit is None or obs["mean_error"] < limit,
             f"net mean error {obs['mean_error']:.3f} m not below {limit} m")
    elif command == "coverage":
        need(obs["bins"] == expect["bins"], f"bins {obs['bins']} != {expect['bins']}")
        need(obs["min_n"] == obs["max_n"] == expect["drops_per_bin"], "wrong drops per bin")
        need(0.0 <= obs["min_P"] and obs["max_P"] <= 1.0, "accuracy outside [0, 1]")
    elif command == "baseline":
        for variant in ("swept-7", "overlapped-180", "csisensenet"):
            need(obs.get(f"{variant}.rows") == expect["drops"], f"{variant} rows != {expect['drops']}")
        need(obs["identical_truths"], "variants scored on different drops")
        for variant, (lo, hi) in BASELINE_RANGES.items():
            mean = obs.get(f"{variant}.mean_error", math.nan)
            need(lo <= mean <= hi, f"{variant} mean error {mean:.3f} m outside [{lo}, {hi}]")
    return bad


def compare(obs: dict, ref: dict) -> list[str]:
    """Differences from the reference observables beyond the stated tolerance."""
    bad = []
    for key, want in ref.items():
        got = obs.get(key)
        tol = MODEL_REL_TOL if key in MODEL_DERIVED else FRAME_REL_TOL

        def close(a, b) -> bool:
            if isinstance(b, float):
                return isinstance(a, float) and math.isclose(a, b, rel_tol=tol, abs_tol=ABS_TOL)
            return a == b

        if isinstance(want, list):
            wrong = ([i for i, (a, b) in enumerate(zip(got, want)) if not close(a, b)]
                     if isinstance(got, list) and len(got) == len(want) else [-1])
            if wrong:
                bad.append(f"{key}: {len(wrong)} of {len(want)} values differ from the reference")
        elif not close(got, want):
            bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad


def check(argv: list[str], expect: dict, ref: dict | None) -> tuple[dict, list[str]]:
    """Observables and failures of one finished command."""
    try:
        obs = OBSERVERS[argv[0]](argv)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {}, [f"unreadable output: {exc!r}"]
    bad = invariants(argv[0], obs, expect)
    if ref is not None:
        bad += compare(obs, ref)
    return obs, bad
