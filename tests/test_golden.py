"""Golden-frame gate: synthesis reproduces a frozen set of frames.

`tests/data/golden_frames.npz` holds frames written by the per-ray channel
code that preceded the array-native one.  Every case must match within 1e-12,
and the generator seeded for the drop must be left in the same state: the
next `random()` it yields after the drop is compared exactly, so the draw
order and the number of draws are pinned as well as the values.

Regenerate (only when the channel model is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from csisense.channel import Scenario
from csisense.cli import load_scenario
from csisense.dataset import (
    HYP_NULL,
    HYP_TARGET,
    RecordSpec,
    _generate_block,
    record_seed,
    synthesize,
)
from csisense.geometry import Point2D
from csisense.metrics import paired_drop

GOLDEN = Path(__file__).parent / "data" / "golden_frames.npz"
TOLERANCE = 1e-12


def _scenario(name: str, **changes):
    s = load_scenario(name)
    if not changes:
        return s
    d = s.to_dict()
    d.update(changes)
    return Scenario.from_dict(d)


def _drop_cases():
    """(case, scenario, sigma, master seed, index, center) of each paired drop."""
    cases = []
    for name in ("scenario1", "scenario2", "scenario3"):
        s = _scenario(name)
        cases += [(f"{name}-{i}", s, 0.8, 11, i, None) for i in range(8)]
    s1 = _scenario("scenario1")
    cases += [(f"fixed-{i}", s1, 0.5, 7, i, Point2D(1.75, 3.25)) for i in range(2)]
    cases += [(f"nolos-{i}", _scenario("scenario1", include_los=False), 0.8, 3, i, None)
              for i in range(2)]
    cases += [(f"noiseless-{i}", _scenario("scenario2", snr_db=math.inf), 1.2, 5, i, None)
              for i in range(2)]
    cases += [(f"scatter2-{i}", _scenario("scenario1", n_scatter=2), 0.8, 9, i, None)
              for i in range(2)]
    return cases


def _record_cases():
    """(case, scenario, spec, master seed) of each generated dataset record."""
    s1 = _scenario("scenario1")
    s2 = _scenario("scenario2", snr_db=math.inf)
    bin_center = Point2D(2.625, 1.375)
    specs = [
        RecordSpec(index=0, hyp=HYP_NULL, sigma=0.8),
        RecordSpec(index=1, hyp=HYP_TARGET, sigma=0.8),
        RecordSpec(index=2, hyp=HYP_TARGET, sigma=0.8, center=bin_center, bin_index=4),
        RecordSpec(index=3, hyp=HYP_TARGET, sigma=0.8, center=bin_center, bin_index=4,
                   bin_jitter_pitch=0.25),
        RecordSpec(index=4, hyp=HYP_NULL, sigma=0.8, bin_index=4),
    ]
    return ([(f"gen1-{sp.index}", s1, sp, 21) for sp in specs]
            + [(f"gen2-{sp.index}", s2, sp, 22) for sp in specs[:2]])


class _SeededGenerators:
    """Records each generator built from an integer seed, so a test can read the
    state a drop left its own generator in."""

    def __init__(self):
        self.by_seed = {}
        self._make = np.random.default_rng

    def __call__(self, seed=None):
        rng = self._make(seed)
        if isinstance(seed, int):
            self.by_seed[seed] = rng
        return rng


def synthesize_cases(monkeypatch) -> dict[str, np.ndarray]:
    """Every golden case as named arrays: center, frames and the next random()."""
    spy = _SeededGenerators()
    monkeypatch.setattr(np.random, "default_rng", spy)
    out: dict[str, np.ndarray] = {}
    for case, s, sigma, seed, index, center in _drop_cases():
        null, alt, centers = synthesize(s, [paired_drop(s, sigma, seed, index, center)])
        out[f"{case}.center"] = centers[0]
        out[f"{case}.null"] = _matrix(null[0])
        out[f"{case}.alt"] = _matrix(alt[0])
        out[f"{case}.next"] = np.array(spy.by_seed[record_seed(seed, index)].random())
    for case, s, spec, seed in _record_cases():
        tensors, centers, _ = _generate_block(s, [spec], seed)
        out[f"{case}.center"] = centers[0]
        out[f"{case}.tensor"] = tensors[0]
        out[f"{case}.next"] = np.array(spy.by_seed[record_seed(seed, spec.index)].random())
    return out


def _matrix(tensor: np.ndarray) -> np.ndarray:
    """The complex (rows, beams) frame matrix of a (rows, beams, 2) tensor."""
    return tensor[..., 0] + 1j * tensor[..., 1]


def test_frames_match_golden_set(monkeypatch):
    with np.load(GOLDEN) as data:
        golden = {k: data[k] for k in data.files}
    fresh = synthesize_cases(monkeypatch)
    assert sorted(fresh) == sorted(golden)
    for key, want in golden.items():
        got = fresh[key]
        assert got.shape == want.shape, key
        if key.endswith(".next"):
            assert got == want, key
        elif key.endswith(".center"):
            assert np.array_equal(got, want, equal_nan=True), key
        else:
            assert np.max(np.abs(got - want), initial=0.0) <= TOLERANCE, key


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    try:
        arrays = synthesize_cases(mp)
    finally:
        mp.undo()
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
