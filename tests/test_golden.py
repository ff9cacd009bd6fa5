"""Golden-frame gate: synthesis reproduces a frozen set of frames.

`tests/data/golden_frames.npz` holds frames written by the per-ray channel
code that preceded the array-native one.  Every case must match within 1e-12,
and the Generator the drop drew from must be left in the same state: the
next `random()` it yields after the drop is compared exactly, so the seed,
the draw order and the number of draws are pinned as well as the values.

Regenerate (only when the channel model is meant to change) with
`PYTHONPATH=src python tests/test_golden.py`.

The link geometry is pinned bit for bit as well: GEOMETRY_DIGESTS holds the
SHA-256 of each case's aoa, scatter, los_amp and response arrays.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from csisense import dataset as dataset_mod
from csisense import metrics as metrics_mod
from csisense.channel import Scenario, link_geometry
from csisense.cli import load_scenario
from csisense.dataset import DatasetManifest, _generate_block
from csisense.geometry import Point2D
from csisense.metrics import _paired_blocks

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
    """(case, manifest, index, target, center) of each generated dataset record;
    the manifest gives the scenario, sigma, master seed and jitter pitch."""
    def manifest(scenario, seed, jitter=False):
        return DatasetManifest(scenario=scenario, protocol="positioning", sigma=0.8,
                               n_per_hyp=1, master_seed=seed, grid_pitch=0.25,
                               bin_jitter=jitter)

    s1 = _scenario("scenario1")
    s2 = _scenario("scenario2", snr_db=math.inf)
    bin_center, drawn = (2.625, 1.375), (math.nan, math.nan)
    records = [(0, False, drawn, False), (1, True, drawn, False), (2, True, bin_center, False),
               (3, True, bin_center, True), (4, False, drawn, False)]
    return ([(f"gen1-{i}", manifest(s1, 21, jitter), i, t, c) for i, t, c, jitter in records]
            + [(f"gen2-{i}", manifest(s2, 22), i, t, c) for i, t, c, _ in records[:2]])


class _DrawSpy:
    """Stands in for dataset.draw and keeps the Generator the last drop drew
    from, so a test can read the state the drop left its stream in."""

    def __init__(self):
        self.last = None
        self._draw = dataset_mod.draw

    def __call__(self, scenario, rng, *args, **kwargs):
        self.last = rng
        return self._draw(scenario, rng, *args, **kwargs)


def synthesize_cases(monkeypatch) -> dict[str, np.ndarray]:
    """Every golden case as named arrays: center, frames and the next random().
    Each case is a block of one drop, so its Generator is read before another
    drop reseeds it."""
    spy = _DrawSpy()
    for module in (dataset_mod, metrics_mod):
        monkeypatch.setattr(module, "draw", spy)
    out: dict[str, np.ndarray] = {}
    for case, s, sigma, seed, index, center in _drop_cases():
        _, null, alt, centers = next(_paired_blocks(s, sigma, [(seed, index, center)]))
        out[f"{case}.center"] = centers[0]
        out[f"{case}.null"] = _matrix(null[0])
        out[f"{case}.alt"] = _matrix(alt[0])
        out[f"{case}.next"] = np.array(spy.last.random())
    for case, manifest, index, target, center in _record_cases():
        tensors, centers, _ = _generate_block(manifest, index, np.array([target]),
                                              np.array([center]))
        out[f"{case}.center"] = centers[0]
        out[f"{case}.tensor"] = tensors[0]
        out[f"{case}.next"] = np.array(spy.last.random())
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


# SHA-256 of each case's aoa, scatter, los_amp and response bytes, in that order.
GEOMETRY_DIGESTS = {
    "scenario1-0.25-0": "a6fd0dc1b883cd2d9717163694a24aba2101891880711a56dc7dd2825e13b735",
    "scenario1-0.25-1": "bff07401277a0797de9be02da7188e3648fda7c3cfcee7de77107ac5c011aa6a",
    "scenario1-0.25-7": "89478bd6f334c54a014436c79e8672b2938b72c5b8171c9d27bdc3f719268a86",
    "scenario1-0.3-0": "87699d098f5ee35b3473306c13b9be5464759b69db74f5ac12f137ae6e649966",
    "scenario1-0.3-1": "22ecd88f246dc13658512897db1b6c071ecb3aa067f3fd33517cfbdd5c73ccbf",
    "scenario1-0.3-7": "eb06be33b12173dd72999b3be5706368006c75e12116d16ad7a49baa00310d76",
    "scenario1-1.0-0": "47a7266b24ae4885fb9703430b1012ba04d8062f30859f97ac2c5b16fecff965",
    "scenario1-1.0-1": "6fe73f02c29208ea98b3b0a533d1ad529fc1017fc1bfc45b9999384232bea9d1",
    "scenario1-1.0-7": "a883fb70d771b41d95479ce3aff0b822f0215e200e12789652158b12ff213739",
    "scenario2-0.25-0": "26bcc5e32e564ea8e18604f342b156d3265629e52dd1dbc748cb4b72b6d80b63",
    "scenario2-0.25-1": "330658895478f88b19e5f46bbd24c7913c89cb41abb18afca705d8d01c47ad44",
    "scenario2-0.25-7": "5dbe80b5c68ffad22a93e54f2c80547c9ba8234b947412763f2857c0e8ee05a5",
    "scenario2-0.3-0": "7103180109097054f16df735c8ec32a51a2afe3b51b3bd8fe0d05ff9a2560944",
    "scenario2-0.3-1": "be0604b64fa26d0a1b17f45d61ebb2aa9f18c4a19c3682e6d790456927943c6a",
    "scenario2-0.3-7": "0b00f7ae88c6cde93f06140b6180655254218dac4892df1ef5486eee460ed39f",
    "scenario2-1.0-0": "0b4219241524f2cd55aa73d897613e383b3d06eccdd612e2bcbd7bc5bcf41da5",
    "scenario2-1.0-1": "b6dd626d60ba9024ff540badadded5531b38918621b81b5a9c21ed4dbbd97513",
    "scenario2-1.0-7": "cec20ab98221fd3d6f50548c364e69c8e176aaf5d1eced39cad74a6c816f750a",
    "scenario3-0.25-0": "76644368cb40646d474625098d7cb1b9ba1e89571e3c186d362157c4a6b55894",
    "scenario3-0.25-1": "c74903d517f5c3d687f21fb98b4b08f1f0985350de0f04c9e1913b4de580fb14",
    "scenario3-0.25-7": "eac771ba726e25e60b693966a2910dd0f4156b5d38d6a5549528033701d664d1",
    "scenario3-0.3-0": "90b75fd86fe9b82084a1460a19f07fe7be78ee4a9d38f4342f04310dcb4975bb",
    "scenario3-0.3-1": "2ecc1ae24454b2cd6bcec6f195dc66936c46b6188172d9a5270a8a3c834d5e62",
    "scenario3-0.3-7": "ff43939d57d42a4965b08163100bc988826bd69fc81536e6a61359da6fd5a575",
    "scenario3-1.0-0": "9d380a66cfac0c65fcd6c2d846e55cd494adca1f1829a0da743795eb58418dbe",
    "scenario3-1.0-1": "8fa6df0816b9c9c7b29d8ae479e2e78d9a90dceb6bd5ae562a6bd3cf7590bc52",
    "scenario3-1.0-7": "d9321bf9683e52047021ffa80903c40d14d698601cedc080451b764179ec521b",
    "interior-tx": "aa581fd28f58b9e5bf61a840be671e1024dc31cd1605ccc5c60faade935afb58",
    "corner-tx": "f81d029cc4d9ec23676ead579f48eb7fd3b45ed2834fb1efa206d723da85f03f",
}


def _geometry_cases():
    """(case, scenario): every preset at three pitches and three environment
    seeds, and scenario1 with an interior and with a corner transmitter."""
    for name in ("scenario1", "scenario2", "scenario3"):
        for pitch in (0.25, 0.3, 1.0):
            for env_seed in (0, 1, 7):
                yield f"{name}-{pitch}-{env_seed}", _scenario(name, grid_pitch=pitch,
                                                              env_seed=env_seed)
    yield "interior-tx", _scenario("scenario1", tx=[1.8, 3.1])
    yield "corner-tx", _scenario("scenario1", tx=[0.0, 0.0])


def test_link_geometry_matches_pinned_digests():
    fresh = {}
    for case, s in _geometry_cases():
        geo, digest = link_geometry(s), hashlib.sha256()
        for arr in (geo.aoa, geo.scatter, geo.los_amp, geo.response):
            digest.update(arr.tobytes())
        fresh[case] = digest.hexdigest()
    assert fresh == GEOMETRY_DIGESTS


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    try:
        arrays = synthesize_cases(mp)
    finally:
        mp.undo()
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
