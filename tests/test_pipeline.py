"""Pinned end-to-end artifacts: a tiny scenario1 pipeline run through `cli.main`.

Every artifact of `gen` (three protocols), `train` (detect and locate),
`eval` (single sigma, --sigmas, locate), `coverage` (CSV and PGM) and
`baseline --model` is compared with the copy under `tests/data/pipeline/`,
and `gen` is repeated with a two-worker pool.  On the numeric build recorded
in `build.json` beside the fixtures every file must match byte for byte; on
any other build counts, labels and headers must match exactly and floats
within 1e-9.  The model files (630 KB each) are pinned by their SHA-256 in
`digests.json`, checked on the recorded build; elsewhere their training logs
and every output computed from them stand in for them.

Regenerate (only when a change is meant to alter the numbers) with
`PYTHONPATH=src python tests/test_pipeline.py`.
"""

import hashlib
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from csisense import dataset as dataset_mod
from csisense.cli import main

FIXTURES = Path(__file__).parent / "data" / "pipeline"
TOLERANCE = 1e-9

GEN = [
    ["gen", "--scenario", "scenario1", "--n", "8", "--seed", "1", "--out", "{d}/res"],
    ["gen", "--scenario", "scenario1", "--protocol", "positioning", "--pitch", "2.5",
     "--n", "2", "--bin-jitter", "--seed", "2", "--out", "{d}/pos"],
    ["gen", "--scenario", "scenario1", "--protocol", "coverage", "--pitch", "2.5",
     "--n", "1", "--seed", "3", "--out", "{d}/cov"],
]
STEPS = GEN + [
    ["train", "--data", "{d}/res", "--task", "detect", "--epochs", "2", "--seed", "4",
     "--out", "{d}/det.csnn"],
    ["train", "--data", "{d}/pos", "--task", "locate", "--epochs", "2", "--seed", "5",
     "--out", "{d}/loc.csnn"],
    ["eval", "--model", "{d}/det.csnn", "--drops", "20", "--seed", "6",
     "--out", "{d}/eval.csv"],
    ["eval", "--model", "{d}/det.csnn", "--sigmas", "0.4,0.8", "--drops", "10",
     "--seed", "7", "--out", "{d}/eval_sigmas.csv"],
    ["eval", "--model", "{d}/loc.csnn", "--drops", "20", "--seed", "8",
     "--out", "{d}/eval_locate.csv"],
    ["coverage", "--model", "{d}/det.csnn", "--pitch", "1.0", "--drops-per-bin", "4",
     "--seed", "9", "--out", "{d}/coverage.csv", "--pgm", "{d}/coverage.pgm"],
    ["baseline", "--model", "{d}/loc.csnn", "--drops", "20", "--seed", "10",
     "--out", "{d}/baseline.csv"],
]


def build() -> dict:
    """What the fixtures' last bits depend on: numpy, its BLAS and the CPU's SIMD set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def run(steps, d: Path) -> None:
    for step in steps:
        argv = [arg.format(d=d) for arg in step]
        assert main(argv) == 0, " ".join(argv)


def artifacts(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file() and p.name not in ("build.json", "digests.json"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_text_close(got: str, want: str, name: str) -> None:
    got_tokens, want_tokens = re.split(r"([,\s]+)", got), re.split(r"([,\s]+)", want)
    assert len(got_tokens) == len(want_tokens), name
    for g, w in zip(got_tokens, want_tokens):
        if g == w:
            continue
        try:
            a, b = float(g.strip('"[]')), float(w.strip('"[]'))
        except ValueError:
            pytest.fail(f"{name}: {g!r} != {w!r}")
        assert math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE), f"{name}: {g} != {w}"


def assert_close(got: Path, want: Path, name: str) -> None:
    """Equal up to TOLERANCE in every float, exact in everything else."""
    if got.name == "frames.bin":
        a, b = dataset_mod.load_dataset(got.parent), dataset_mod.load_dataset(want.parent)
        np.testing.assert_allclose(a.tensors, b.tensors, rtol=TOLERANCE, atol=TOLERANCE,
                                   err_msg=name)
    else:
        assert_text_close(got.read_text(), want.read_text(), name)


def compare(root: Path, names: list[str], exact: bool) -> None:
    for name in names:
        got, want = root / name, FIXTURES / name
        if exact:
            assert got.read_bytes() == want.read_bytes(), f"{name} differs from its fixture"
        else:
            assert_close(got, want, name)


def test_pipeline_matches_fixtures(tmp_path, monkeypatch):
    monkeypatch.delenv("CSISENSE_WORKERS", raising=False)
    run(STEPS, tmp_path / "serial")
    exact = json.loads((FIXTURES / "build.json").read_text()) == build()
    digests = json.loads((FIXTURES / "digests.json").read_text())
    names = artifacts(FIXTURES)
    assert artifacts(tmp_path / "serial") == sorted(names + list(digests))
    compare(tmp_path / "serial", names, exact)
    if exact:
        assert {name: sha256(tmp_path / "serial" / name) for name in digests} == digests

    # The pool must not change a byte: several blocks, two workers.
    monkeypatch.setenv("CSISENSE_WORKERS", "2")
    monkeypatch.setattr(dataset_mod, "BLOCK", 5)
    run(GEN, tmp_path / "pool")
    gen_names = artifacts(tmp_path / "pool")
    assert gen_names == [n for n in names if n.split("/")[0] in ("res", "pos", "cov")]
    compare(tmp_path / "pool", gen_names, exact)


if __name__ == "__main__":
    import os
    import shutil

    os.environ.pop("CSISENSE_WORKERS", None)

    if FIXTURES.exists():
        shutil.rmtree(FIXTURES)
    run(STEPS, FIXTURES)
    models = sorted(FIXTURES.glob("*.csnn"))
    digests = {p.name: sha256(p) for p in models}
    for p in models:
        p.unlink()
    (FIXTURES / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    (FIXTURES / "build.json").write_text(json.dumps(build(), indent=2) + "\n")
    print(f"wrote {len(artifacts(FIXTURES))} artifacts to {FIXTURES}", file=sys.stderr)
