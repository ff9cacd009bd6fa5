"""csisense benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the root of a csisense checkout:

    python3 perfbench/run.py --workload detect-train --seed 0 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of untraced runs; --trace 1 prints the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each
workload runs in child processes of its own (see worker.py), with BLAS pinned
to one thread and an explicit CSISENSE_WORKERS, so the figures do not depend
on the caller's environment.  `attempted` counts the csisense commands run and
`failed` those that exited non-zero or failed their output check; their ratio
is failed_ops_ratio.

    python3 perfbench/run.py --write-reference       # refresh reference.json
    python3 perfbench/run.py --write-benchmark-json  # refresh BENCHMARK.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from definition import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

HERE = Path(__file__).resolve().parent
# A run, children included, must end within SETUP_ALLOWANCE_S + SECONDS_FACTOR * --seconds:
# the allowance covers the set-ups and the last iteration, which may overrun --seconds;
# the factor covers a traced run, which runs every command twice.  170 s at --seconds 20.
SETUP_ALLOWANCE_S = 110
SECONDS_FACTOR = 3
# Scratch directories go in the checkout, not the system temp directory, because the
# benchmark reads and writes only inside the checkout it runs in; each is removed after
# its run, and .gitignore names them in case a run is killed.
WORK_PREFIX = ".perfbench-"


class BenchError(Exception):
    pass


def child_env(root: Path, workers: int, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(blas_threads)
    env["CSISENSE_WORKERS"] = str(workers)
    return env


def run_child(args: list[str], env: dict, root: Path, work: Path, deadline: float) -> dict:
    """Run worker.py in its own process group; kill the group if it outlives the deadline."""
    result = Path(tempfile.mkstemp(suffix=".json", dir=work)[1])
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args)}: out of time")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # pool workers left behind, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}\n{output[-2000:]}")
    return json.loads(result.read_text())


def provenance(root: Path, worker_facts: dict) -> dict:
    """Machine and code facts; the checkout need not be a git repository."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "csisense").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {**worker_facts, "git_commit": commit, "src_sha256": digest.hexdigest()}


# Stage rates: per-layer metrics, also printed (not in the result object) by untraced runs.
STAGE_RATES = {"gen_frames_per_s": "gen", "train_samples_per_s": "train",
               "eval_drops_per_s": "eval"}


def stage_rate(stage: str, run: dict, setups: list[dict]) -> float:
    """Work per second of a stage: median over the untraced timed iterations, or, for a stage
    that only the set-up runs (gen and train on drop-eval), pooled over the set-ups."""
    timed = [i["stages"][stage] for i in run["iterations"] if stage in i["stages"]]
    if timed:
        return statistics.median(work / seconds for work, seconds in timed)
    pooled = [s["stages"][stage] for s in setups]
    return sum(w for w, _ in pooled) / sum(t for _, t in pooled)


def end_to_end(setups: list[dict], run: dict) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(i["wall_s"] for i in run["iterations"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def bench(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Metrics, command counts, failures and provenance of one benchmark run."""
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + SECONDS_FACTOR * seconds
    wl = WORKLOADS[workload]
    env = child_env(root, wl.workers, 1)
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=root,
                                     ignore_cleanup_errors=True) as tmp:
        work = Path(tmp)

        def child(mode: str, sub: str, env: dict = env) -> dict:
            return run_child(["--mode", mode, "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--workdir", str(work / sub)],
                             env, root, work, deadline)

        if trace:
            run = child("trace", "trace")
            probe = child("probe", "probe", child_env(root, wl.workers, os.cpu_count() or 1))
            results = [run]
            metrics = dict(run["layers"])
            metrics["sensenet.loss_and_grads.p50_ms.blas_nproc"] = probe["p50_ms"]
            wanted = PER_LAYER
            if run["absent"]:
                print(f"absent functions (reported as 0 calls): {', '.join(run['absent'])}")
        else:
            results = [child("setup", f"setup{i}") for i in range(wl.setup_repeats - 1)]
            run = child("run", "run")
            results.append(run)
            metrics = end_to_end(results, run)
            wanted = END_TO_END
    rates = {name: stage_rate(stage, run, results) for name, stage in STAGE_RATES.items()}
    metrics.update(rates)
    return {
        "metrics": {m[0]: {"value": metrics[m[0]], "unit": m[1]} for m in wanted},
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed_ops"] for r in results),
        "failures": [f for r in results for f in r["failures"]],
        "provenance": provenance(root, run["provenance"]),
        "iteration_walls": [i["wall_s"] for i in run["iterations"]],
        "paired_drops": run.get("paired_drops", {}),
        "stage_rates": rates,
    }


def write_reference(root: Path) -> None:
    deadline = time.monotonic() + 10 * SETUP_ALLOWANCE_S
    reference = {}
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=root,
                                     ignore_cleanup_errors=True) as tmp:
        for name, wl in WORKLOADS.items():
            res = run_child(["--mode", "reference", "--workload", name,
                             "--workdir", str(Path(tmp) / name)],
                            child_env(root, wl.workers, 1), root, Path(tmp), deadline)
            if res["failures"]:
                raise BenchError(f"{name}: {res['failures']}")
            reference[name] = res["observed"]
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="csisense benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed; {DEFAULT_SEED} is also checked against reference.json")
    p.add_argument("--seconds", type=float, default=None, help="timed length of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "csisense" / "cli.py").is_file():
        print("error: run from the root of a csisense checkout (src/csisense not found)",
              file=sys.stderr)
        return 2
    try:
        if args.write_benchmark_json:
            (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
            return 0
        if args.write_reference:
            write_reference(root)
            return 0
        if args.workload is None:
            p.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else benchmark_json()["run_seconds"]
        res = bench(root, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = ", ".join(f"{w:.3f}" for w in res["iteration_walls"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced iterations {len(res['iteration_walls'])} ({walls} s)")
    for name, m in res["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    for name, value in res["stage_rates"].items():
        if name not in res["metrics"]:
            print(f"  {name:<48} {value:>14.6g} 1/s (stage rate, a per-layer metric)")
    for tag, (distinct, calls) in res["paired_drops"].items():
        print(f"metrics.paired_drop in {tag}: {distinct} distinct / {calls} calls "
              f"over the traced iterations")
    print(f"failed_ops_ratio {res['failed']}/{res['attempted']} "
          f"(csisense commands failed / attempted)")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
