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
from csisense.metrics import _score_drops

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
    cases += [(f"nolos-{i}", _scenario("scenario1", los_gain=0.0), 0.8, 3, i, None)
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
        null, alt, centers = _score_drops(s, sigma, [(seed, index, center)],
                                          lambda lo, *drops: drops)
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
    "scenario1-0.25-0": "feecbf298a92f08afaa1675e4c159df9aa84d4fd23b68eebedb72e61c9ee452a",
    "scenario1-0.25-1": "91e939a63fe6f28df1e4be12f08c4c4707c06cbb427537aced2bcff81fa0308c",
    "scenario1-0.25-7": "e9f058455d715da6a15f9eb402aae937adfcf07519ff4328f1b32c20adc801d5",
    "scenario1-0.3-0": "487d5faf18ec139834e5fcac9c6f30d98b9e82953a68d939fbcf6e9dea94cb55",
    "scenario1-0.3-1": "36aa539ecb2e9f6063933bd69f14bd5616d560eb78c520d06b3725451f1a33f5",
    "scenario1-0.3-7": "3e5134e0817eda7a614b232ed97ce47a52c9b50469682d3385f5d3c76cb8d164",
    "scenario1-1.0-0": "e8ef23f8ff3f6e9374fcbf2b15aaae23c8356a4305e7d375de1da604cbb0d5f8",
    "scenario1-1.0-1": "a5d72fdd82fdb743e55eecb5a26730090ceae8344a16a495bd71be77c93eb6d9",
    "scenario1-1.0-7": "8a2886292557d18aa83e84ca4a06c5b22328fbb7161967c5e7e1a0dc450b44f5",
    "scenario2-0.25-0": "494921ceaeb422ee40186fc55ba608de089d5587350e234ffff7b9e1e8d473cf",
    "scenario2-0.25-1": "779a64f264f581c2cf57a0b437c44ee6adac878fb5793f83a648cf7869da8381",
    "scenario2-0.25-7": "1ecd69fc75ef8722614c0cbe728318e5fbbe45992d4029fe56fa665dd032b76a",
    "scenario2-0.3-0": "4c4004038631a5e09df75ee17520173943e8bacd70936ce1caa3d58944e286e5",
    "scenario2-0.3-1": "6dd7483cc2fcfe8296cfee3caecccc73ad25046902095622d8ff0814854e7a0a",
    "scenario2-0.3-7": "5a591b22fd3669bdb654b7f2e99392e6b565a05d75397f64f10b6ead0d329243",
    "scenario2-1.0-0": "ffdc2c086e9d45e16cd5585708050333b35a179a353504851db66a59d952fd10",
    "scenario2-1.0-1": "4784333e4afe0fc792d1c4ac43d63d77b808df4b2ca565b6493e8d2416197f25",
    "scenario2-1.0-7": "0138e310bc7479938a508b0e66281a1a7a70b7f9e2c353a760ddfb19a4066f96",
    "scenario3-0.25-0": "7b529cad1f5b964a4381aa64e4a6d38ce88303048238dac687140bd1315b49ab",
    "scenario3-0.25-1": "5639f322436fedfdab4f0aa7b130334332a33bddf83648bf21462399e2939656",
    "scenario3-0.25-7": "faecacc3b930d5a95cd0f1b1a278f945510b42b31aa79b9719049e1ce878bcf2",
    "scenario3-0.3-0": "5ba9dd29a19f7a57e14d5146fc2e5e9deb7d2eda127ae6bf0d5c652ec0b9bd82",
    "scenario3-0.3-1": "4b2424d7735b230be440d9dd8edb84424ce3cc73ddeefc845f71945f5f4943c5",
    "scenario3-0.3-7": "3081d23ab52b937beda0d25edd2f211823cecbb5f5fe3ab16b48ea1b58e56384",
    "scenario3-1.0-0": "761fef3681f9a30abdd537672566df7d2b654c8144cc0479146ff34b8f33233b",
    "scenario3-1.0-1": "281fed8c71f5fed5d4fda193247b77006fc07421ed8c03a8fa44f50acb5574d8",
    "scenario3-1.0-7": "f9ada184cd5d26483e7260afedaab31da61eefeb33deab596d0ed63e9ec6ff15",
    "interior-tx": "61a416893abeb908467acddd168d9eed1d61bbf9f475de3d86bf87c56039b122",
    "corner-tx": "200aaeabd8e5dd79391d6b3fb3e369c0c2a3db7f67a4e5e363477c0bc6c0d723",
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
