"""Output checks, failure accounting, and short end-to-end runs of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REPO_ROOT
from definition import END_TO_END, PER_LAYER, WORKLOADS, Step, Workload, benchmark_json
from worker import Session

RUN = [sys.executable, "perfbench/run.py"]

TINY_GEN = Step("gen", "gen", ("gen", "--scenario", "scenario1", "--n", "4", "--seed", "{seed}",
                               "--out", "{d}/ds"), {"records": 8})


def tiny_session(tmp_path: Path, reference: dict | None) -> Session:
    workload = Workload("tiny", "one small gen", workers=1, steps=(TINY_GEN,))
    return Session(workload, 0, tmp_path, reference)


def test_perturbed_output_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    first = tiny_session(tmp_path / "ref", None)
    first.run_step(TINY_GEN, tmp_path / "ref" / "out")
    assert (first.ops, first.failed_ops) == (1, 0)

    session = tiny_session(tmp_path / "run", {"gen": first.observed["gen"]})
    session.run_step(TINY_GEN, tmp_path / "run" / "same")
    assert (session.ops, session.failed_ops) == (1, 0), session.failures

    real_main = session.cli.main

    def main_then_perturb(argv):
        rc = real_main(argv)
        frames = Path(argv[argv.index("--out") + 1]) / "frames.bin"
        raw = bytearray(frames.read_bytes())
        value = memoryview(raw)[12:20].cast("d")
        value[0] += 1e-4                           # one float of the first frame
        frames.write_bytes(bytes(raw))
        return rc

    monkeypatch.setattr(session.cli, "main", main_then_perturb)
    session.run_step(TINY_GEN, tmp_path / "run" / "perturbed")
    assert (session.ops, session.failed_ops) == (2, 1)
    assert session.failures == ["gen: record_energy: 1 of 8 values differ from the reference"]


def test_non_zero_exit_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    bad = Step("gen", "gen", ("gen", "--scenario", "scenario1", "--sigma", "-1",
                              "--seed", "{seed}", "--out", "{d}/ds"), {"records": 8})
    session = tiny_session(tmp_path, None)
    session.run_step(bad, tmp_path / "out")
    assert (session.ops, session.failed_ops) == (1, 1)
    assert session.failures[0].startswith("gen: exit 2")


def test_benchmark_json_matches_definition():
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()
    assert [w["name"] for w in committed["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(RUN + ["--workload", "drop-eval", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace)],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload):
    result = run_bench(workload, trace=0)
    assert result["attempted"] >= len(WORKLOADS[workload].steps)
    assert list(result["metrics"]) == [m[0] for m in END_TO_END]
    for name, unit, _, _ in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


def test_smoke_traced_run():
    metrics = run_bench("positioning-volume", trace=1)["metrics"]
    assert list(metrics) == [m[0] for m in PER_LAYER]
    assert metrics["dataset.gen_binned_set.calls"]["value"] == 1
    assert metrics["frames_generated"]["value"] == 5120
    for rate in ("gen_frames_per_s", "train_samples_per_s", "eval_drops_per_s"):
        assert metrics[rate]["value"] > 0, rate
    assert metrics["drops_evaluated"]["value"] == 1000
    assert metrics["train_steps"]["value"] == 3 * 56           # ceil(1792 / 32) batches per epoch
    assert metrics["metrics.paired_drop.unique_ratio"]["value"] == 1.0
    assert metrics["metrics.paired_drop.unique_ratio.eval"]["value"] == 1.0
    assert metrics["metrics.paired_drop.unique_ratio.baseline"]["value"] == 0.0   # not run here
    assert metrics["dataset.bytes_read"]["value"] == metrics["dataset.bytes_written"]["value"] > 0
