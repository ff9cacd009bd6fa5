"""The csisense interfaces that the benchmark in perfbench/ calls or hooks.

Its tracer replaces module attributes with wrappers that read some arguments
by position or name (perfbench/tracer.py `_arg`), and its worker builds and
steps a model directly.  perfbench/tests sits outside the tier-1 testpaths,
so these tests pin what the benchmark relies on: breaking one of them fails
the operations of a `perfbench/run.py --trace 1` run.
"""

import inspect
import math

import numpy as np
import pytest

from csisense import dataset as dataset_mod
from csisense import metrics as metrics_mod
from csisense import sensenet as nn
from csisense.channel import Scenario
from csisense.frame import NormStats
from csisense.geometry import Point2D


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def recorder(monkeypatch, module, name) -> list[inspect.BoundArguments]:
    """Wrap module.name as the tracer does; returns the bound arguments of each call."""
    real, calls = getattr(module, name), []

    def hook(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, hook)
    return calls


@pytest.fixture
def scenario() -> Scenario:
    return Scenario.from_dict(dict(
        name="tiny", tx=[0.0, 0.5], room_side=2.0, beam_angles=[-0.8, 0.0, 0.8],
        receivers=[{"position": [2.0, 1.0], "boresight": math.pi, "n_antennas": 4}],
        grid_pitch=0.5,
    ))


def detector(scenario) -> nn.TrainedModel:
    arch = nn.Architecture(input_shape=(scenario.n_antennas, scenario.n_beams, 2),
                           conv_filters=(3, 4), dense_units=8)
    return nn.TrainedModel(nn.init_params(arch, 0), NormStats((0.0, 0.0), (1.0, 1.0)))


def test_paired_drop_is_called_with_its_key_by_position(monkeypatch, scenario):
    # the drop hook reads master_seed, index and center.x / center.y at positions 2-4
    assert parameters(metrics_mod.paired_drop) == [
        "scenario", "sigma", "master_seed", "index", "center", "rng"]
    calls = recorder(monkeypatch, metrics_mod, "paired_drop")
    model = detector(scenario)
    metrics_mod.detection_counts(model, scenario, 0.4, 2, 5)
    metrics_mod.coverage_map(model, scenario, 0.4, 1, 2.0, 7)
    metrics_mod.drop_positions(scenario, 0.4, 1, 9)
    assert [len(c.args) for c in calls] == [6] * 4
    keys = [c.args[2:5] for c in calls]
    assert [k[:2] for k in keys] == [(5, 0), (5, 1), (keys[2][0], 0), (9, 0)]
    assert keys[2][2] == Point2D(1.0, 1.0) and keys[3][2] is None


def test_model_built_and_stepped_as_the_worker_does():
    params = nn.init_params(nn.Architecture(input_shape=(24, 7, 2)), 0)
    assert params.task == "detect"
    x = np.random.default_rng(0).standard_normal((4, 24, 7, 2))
    value, grads = nn.loss_and_grads(params, (x, np.array([0.0, 1.0, 0.0, 1.0])), "bce")
    assert math.isfinite(value) and set(grads) == set(nn.PARAM_FIELDS)


def test_convolution_spans_are_named_from_w_and_need_dx(monkeypatch):
    # conv1 and conv2 are told apart by w.shape[2], their backward passes by need_dx
    assert parameters(nn.conv2d)[1] == "w"
    assert parameters(nn.conv2d_backward)[4] == "need_dx"
    assert inspect.signature(nn.conv2d_backward).parameters["need_dx"].default is True
    fwd = recorder(monkeypatch, nn, "conv2d")
    bwd = recorder(monkeypatch, nn, "conv2d_backward")
    params = nn.init_params(nn.Architecture(input_shape=(8, 3, 2), conv_filters=(3, 4)), 0)
    x = np.random.default_rng(0).standard_normal((2, 8, 3, 2))
    nn.loss_and_grads(params, (x, np.array([0.0, 1.0])), "bce")
    assert [c.arguments["w"].shape[2] for c in fwd] == [2, 3]
    assert sorted(c.arguments.get("need_dx", True) for c in bwd) == [False, True]


def test_dataset_io_takes_the_path_first(monkeypatch, scenario, tmp_path):
    # the byte counters read the directory at position 0 or keyword path
    assert parameters(dataset_mod.save_dataset)[0] == "path"
    assert parameters(dataset_mod.load_dataset)[0] == "path"
    saved = recorder(monkeypatch, dataset_mod, "save_dataset")
    dataset_mod.gen_resolution_set(scenario, 0.4, 1, 0, out=tmp_path / "ds")
    assert [c.arguments["path"] for c in saved] == [tmp_path / "ds"]
