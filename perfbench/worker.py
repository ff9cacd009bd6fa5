"""One workload process: set-up, then the timed closed loop, optionally traced.

Started by run.py, which sets the BLAS-thread and CSISENSE_WORKERS variables
before numpy is imported here.  Modes:

  setup  import csisense, load the scenario, warm the link_geometry cache and
         run the workload's set-up commands; report the set-up time.
  run    set-up, then untraced iterations until --seconds have passed.
  trace  set-up, then iterations in which every command runs untraced and
         then traced, until --seconds have passed; report per-layer figures.
  reference  set-up and one iteration at the default workload seed; report
         the observables that reference.json stores.
  probe  time sensenet.loss_and_grads on one batch under the inherited BLAS
         thread count.

The result is written as JSON to --result.
"""

import time

T0 = time.perf_counter()    # set-up time includes the imports below

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import checks
from definition import DEFAULT_SEED, DROP_COMMANDS, WORKLOADS, Step, Workload, command
from tracer import SPAN_NAMES, Installation, Tracer

REFERENCE = Path(__file__).with_name("reference.json")
STAGES = ("gen", "train", "eval")
PROBE_STEPS = 40


class Session:
    """State of one workload process: the csisense CLI, where outputs go, and the checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, reference: dict | None):
        from csisense import cli
        from csisense.channel import link_geometry

        src = (Path.cwd() / "src").resolve()
        if src not in Path(cli.__file__).resolve().parents:
            raise RuntimeError(f"csisense imported from {cli.__file__}, not from {src}")
        link_geometry(cli.load_scenario("scenario1"))
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.setup_dir = workdir / "setup"
        self.setup_dir.mkdir(parents=True, exist_ok=True)
        self.reference = reference
        self.tracer: Tracer | None = None
        self.ops = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        self.observed: dict[str, dict] = {}
        self.check_s = 0.0
        self.drops: dict[str, list[int]] = {}   # command tag -> [distinct, calls] of paired_drop

    def run_step(self, step: Step, d: Path) -> dict:
        """Run one command in-process, time it, then check its output (untimed)."""
        argv = command(step, self.workload.name, self.seed, str(d), str(self.setup_dir))
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.cli.main(argv)
        except SystemExit as exc:              # argparse rejects the arguments
            rc = exc.code
        except Exception:                      # a traceback is a failed operation, not a crash
            rc = 1
            out.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        self.ops += 1
        if self.tracer is not None and self.tracer.drop_keys:
            keys = self.tracer.drop_keys
            counts = self.drops.setdefault(step.tag, [0, 0])
            counts[0] += len(set(keys))
            counts[1] += len(keys)
            keys.clear()
        if rc != 0:
            self.failed_ops += 1
            self.failures.append(f"{step.tag}: exit {rc}: {out.getvalue().strip()[-500:]}")
            return {"stage": step.stage, "seconds": seconds, "work": 0}
        check_start = time.perf_counter()
        ref = None if self.reference is None else self.reference[step.tag]
        obs, bad = checks.check(argv, step.expect, ref)
        self.observed[step.tag] = obs
        self.failed_ops += bool(bad)
        self.failures += [f"{step.tag}: {b}" for b in bad]
        self.check_s += time.perf_counter() - check_start
        if step.stage == "gen":
            work = obs.get("records", 0)
        elif step.stage == "train":
            work = obs.get("epochs", 0) * step.expect["samples"]
        else:
            work = step.expect["drops"]
        return {"stage": step.stage, "seconds": seconds, "work": work}

    def set_up(self) -> dict:
        """Run the set-up commands; return the set-up time and the set-up commands' stage totals."""
        ops = [self.run_step(s, self.setup_dir) for s in self.workload.setup]
        return {"setup_s": time.perf_counter() - T0 - self.check_s, "stages": stage_totals(ops)}

    def iteration(self, paired: bool = False) -> tuple[dict, dict | None]:
        """One pass over the timed steps, untraced.  When paired, each step also runs
        traced right after its untraced run, so both see the machine in the same state."""
        d = self.workdir / "iter"
        d.mkdir()
        plain, traced, absent = [], [], []
        try:
            for step in self.workload.steps:
                plain.append(self.run_step(step, d))
                if paired:
                    install = Installation(self.tracer)
                    try:
                        traced.append(self.run_step(step, d))
                    finally:
                        install.uninstall()
                    absent = install.absent
        finally:
            shutil.rmtree(d)
        if not paired:
            return summarize(plain), None
        return summarize(plain), {**summarize(traced), "absent": absent}


def summarize(ops: list[dict]) -> dict:
    return {"wall_s": sum(o["seconds"] for o in ops), "stages": stage_totals(ops)}


def stage_totals(ops: list[dict]) -> dict:
    """Per stage that ran: [work done, seconds taken]."""
    return {stage: [sum(o["work"] for o in ops if o["stage"] == stage),
                    sum(o["seconds"] for o in ops if o["stage"] == stage)]
            for stage in STAGES if any(o["stage"] == stage for o in ops)}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any pool child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _per_iteration(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(session: Session, traced: list[dict], untraced: list[dict]) -> dict:
    tracer = session.tracer
    n = len(traced)
    out = {}
    for span in SPAN_NAMES:
        st = tracer.stats.get(span)
        out[f"{span}.calls"] = _per_iteration(st.calls if st else 0, n)
        out[f"{span}.self_ms"] = _per_iteration(1e3 * st.self_s if st else 0.0, n)
        out[f"{span}.total_ms"] = _per_iteration(1e3 * st.total_s if st else 0.0, n)

    def pct(span: str, q: float, scale: float) -> float:
        st = tracer.stats.get(span)
        return scale * float(np.percentile(st.durations, q)) if st and st.durations else 0.0

    out["sensenet.loss_and_grads.p50_ms"] = pct("sensenet.loss_and_grads", 50, 1e3)
    out["sensenet.loss_and_grads.p90_ms"] = pct("sensenet.loss_and_grads", 90, 1e3)
    out["metrics.paired_drop.p50_us"] = pct("metrics.paired_drop", 50, 1e6)
    out["metrics.paired_drop.p99_us"] = pct("metrics.paired_drop", 99, 1e6)
    distinct = sum(d for d, _ in session.drops.values())
    calls = sum(c for _, c in session.drops.values())
    out["metrics.paired_drop.distinct"] = _per_iteration(distinct, n)
    out["metrics.paired_drop.unique_ratio"] = distinct / calls if calls else 0.0
    for tag in DROP_COMMANDS:
        d, c = session.drops.get(tag, (0, 0))
        out[f"metrics.paired_drop.unique_ratio.{tag}"] = d / c if c else 0.0
    out["dataset.bytes_written"] = _per_iteration(tracer.bytes_written, n)
    out["dataset.bytes_read"] = _per_iteration(tracer.bytes_read, n)
    out["frames_generated"] = traced[0]["stages"].get("gen", [0])[0]
    out["drops_evaluated"] = traced[0]["stages"].get("eval", [0])[0]
    lg = tracer.stats.get("sensenet.loss_and_grads")
    out["train_steps"] = _per_iteration(lg.calls if lg else 0, n)
    traced_wall = statistics.median(i["wall_s"] for i in traced)
    out["tracing_overhead_s"] = traced_wall - statistics.median(i["wall_s"] for i in untraced)
    out["unattributed_ms"] = 1e3 * (sum(i["wall_s"] for i in traced) - tracer.top_level_s) / n
    return out


def provenance() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{k: os.environ.get(k) for k in ("CSISENSE_WORKERS", "OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS")},
    }


def probe_train_step() -> dict:
    """Median loss_and_grads time for a batch of 32 at scenario1's frame shape."""
    from csisense import sensenet as nn

    rng = np.random.default_rng(0)
    params = nn.init_params(nn.Architecture(input_shape=(24, 7, 2)), 0)
    x = rng.standard_normal((32, 24, 7, 2))
    y = rng.integers(0, 2, 32).astype(float)
    times = []
    for i in range(PROBE_STEPS + 3):
        start = time.perf_counter()
        nn.loss_and_grads(params, (x, y), "bce")
        if i >= 3:
            times.append(time.perf_counter() - start)
    return {"p50_ms": 1e3 * statistics.median(times)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace", "reference", "probe"),
                   required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", type=Path)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    if args.mode == "probe":
        args.result.write_text(json.dumps(probe_train_step()))
        return 0

    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED and args.mode != "reference":
        reference = json.loads(REFERENCE.read_text())[workload.name]
    session = Session(workload, args.seed, args.workdir, reference)
    result = session.set_up()

    if args.mode == "reference":
        session.iteration()
        result["observed"] = session.observed
    elif args.mode != "setup":
        paired = args.mode == "trace"
        if paired:
            session.tracer = Tracer(keep_durations=("sensenet.loss_and_grads",
                                                    "metrics.paired_drop"))
        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < args.seconds:
            plain, with_spans = session.iteration(paired)
            untraced.append(plain)
            if with_spans is not None:
                traced.append(with_spans)
        result["iterations"] = untraced
        result["peak_rss_mb"] = peak_rss_mb()
        if traced:
            result["layers"] = layer_metrics(session, traced, untraced)
            result["absent"] = traced[0]["absent"]
            result["paired_drops"] = session.drops

    result["ops"] = session.ops
    result["failed_ops"] = session.failed_ops
    result["failures"] = session.failures
    result["provenance"] = provenance()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
