"""Span arithmetic, nesting, and installation of the tracer on the csisense modules."""

import pytest

from tracer import SPAN_NAMES, TRACED, Installation, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_durations=("leaf",))

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    def outer():
        traced_middle()
        clock.now += 4.0

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    traced_outer = tracer.wrap(outer, "outer")
    traced_outer()
    traced_leaf(7.0)                      # a second top-level span

    st = tracer.stats
    assert (st["leaf"].calls, st["middle"].calls, st["outer"].calls) == (3, 1, 1)
    assert st["leaf"].total_s == st["leaf"].self_s == 12.0
    assert st["leaf"].durations == [2.0, 3.0, 7.0]
    assert st["middle"].total_s == 6.5
    assert st["middle"].self_s == 1.5      # 6.5 minus the two nested leaves
    assert st["outer"].total_s == 10.5
    assert st["outer"].self_s == 4.0       # 10.5 minus middle's whole duration, not its self time
    assert tracer.top_level_s == 17.5      # outer and the last leaf; nested spans not double counted
    assert sum(s.self_s for s in st.values()) == tracer.top_level_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer.wrap(fails, "fails")
    with pytest.raises(ValueError):
        traced()
    outer = tracer.wrap(lambda: traced(), "outer")
    with pytest.raises(ValueError):
        outer()
    assert tracer.stats["fails"].calls == 2
    assert tracer.stats["outer"].self_s == 0.0
    assert tracer.top_level_s == 2.0


def test_span_named_from_the_call_arguments():
    import numpy as np

    from csisense import sensenet

    tracer = Tracer()
    inst = Installation(tracer)
    try:
        params = sensenet.init_params(sensenet.Architecture(input_shape=(24, 7, 2)), 0)
        x = np.random.default_rng(0).standard_normal((4, 24, 7, 2))
        sensenet.loss_and_grads(params, (x, np.array([0.0, 1.0, 0.0, 1.0])), "bce")
    finally:
        inst.uninstall()
    for name in ("sensenet.conv1.fwd", "sensenet.conv2.fwd", "sensenet.conv1.bwd",
                 "sensenet.conv2.bwd", "sensenet.maxpool", "sensenet.maxpool_backward"):
        assert tracer.stats[name].calls == 1, name
    lg = tracer.stats["sensenet.loss_and_grads"]
    children = sum(tracer.stats[n].total_s for n in tracer.stats if n != "sensenet.loss_and_grads")
    assert lg.self_s == pytest.approx(lg.total_s - children)


def test_install_wraps_imported_names_and_uninstall_restores():
    from csisense import channel, dataset, metrics

    originals = (channel.sweep_csi, dataset.sweep_csi, metrics.estimate_position)
    inst = Installation(Tracer())
    try:
        assert channel.sweep_csi is dataset.sweep_csi
        assert channel.sweep_csi is not originals[0]
        assert metrics.estimate_position.__wrapped__ is originals[2]
        assert inst.absent == []
    finally:
        inst.uninstall()
    assert (channel.sweep_csi, dataset.sweep_csi, metrics.estimate_position) == originals


def test_removed_function_is_reported_absent(monkeypatch):
    from csisense import channel, dataset

    monkeypatch.delattr(channel, "sweep_csi")
    monkeypatch.delattr(dataset, "sweep_csi")
    inst = Installation(Tracer())
    inst.uninstall()
    assert inst.absent == ["channel.sweep_csi"]


def test_every_traced_function_exists_today():
    inst = Installation(Tracer())
    inst.uninstall()
    assert inst.absent == []
    assert len(SPAN_NAMES) == len(set(SPAN_NAMES)) == len(TRACED) + 3
