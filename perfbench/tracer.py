"""Span tracer that wraps the public functions of the csisense modules from outside.

A span is one call of a traced function: its name, start, end and the span
that called it (the enclosing span on the single-threaded call stack).  A
span's self time is its duration minus the time its direct child spans cover.
Spans are kept as per-name aggregates in memory and read out after the run.

Nothing in `src/` is edited: `install` replaces every module attribute that
is bound to a traced function, including names one csisense module imported
from another (`dataset.sweep_csi`, `metrics.estimate_position`, ...), so calls
made inside a module are caught too.  `uninstall` puts the originals back.
Pool workers started while tracing record into their own copy of the tracer,
which is discarded: their spans are not collected.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Layers are the csisense modules; `errors` does no work and is not a layer.
LAYERS = ("cli", "dataset", "channel", "geometry", "frame", "sensenet", "metrics", "baseline")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _conv_fwd_name(args, kwargs) -> str:
    # conv1's kernel reads the 2 input channels (real, imaginary); conv2's reads conv1's filters.
    w = _arg(args, kwargs, 1, "w")
    return "sensenet.conv1.fwd" if w.shape[2] == 2 else "sensenet.conv2.fwd"


def _conv_bwd_name(args, kwargs) -> str:
    # The trunk skips the input gradient only for conv1.
    return "sensenet.conv2.bwd" if _arg(args, kwargs, 4, "need_dx", True) else "sensenet.conv1.bwd"


def _estimate_name(args, kwargs) -> str:
    return "baseline.estimate_position." + _arg(args, kwargs, 3, "bank").variant


_conv_fwd_name.names = ("sensenet.conv1.fwd", "sensenet.conv2.fwd")
_conv_bwd_name.names = ("sensenet.conv1.bwd", "sensenet.conv2.bwd")
_estimate_name.names = ("baseline.estimate_position.swept-7",
                        "baseline.estimate_position.overlapped-180")


# (module, function) -> span name, or a function of the call's arguments that
# returns one.  Functions not listed are not wrapped: their time is part of the
# self time of the nearest traced caller.
TRACED: dict[tuple[str, str], str | Callable] = {
    ("cli", "cmd_gen"): "cli.gen",
    ("cli", "cmd_train"): "cli.train",
    ("cli", "cmd_eval"): "cli.eval",
    ("cli", "cmd_coverage"): "cli.coverage",
    ("cli", "cmd_baseline"): "cli.baseline",
    ("dataset", "gen_resolution_set"): "dataset.gen_resolution_set",
    ("dataset", "gen_binned_set"): "dataset.gen_binned_set",
    ("dataset", "save_dataset"): "dataset.save_dataset",
    ("dataset", "load_dataset"): "dataset.load_dataset",
    ("dataset", "split"): "dataset.split",
    ("channel", "link_geometry"): "channel.link_geometry",
    ("channel", "draw_null_rays"): "channel.draw_null_rays",
    ("channel", "apply_target"): "channel.apply_target",
    ("channel", "sweep_csi"): "channel.sweep_csi",
    ("geometry", "segment_blocked"): "geometry.segment_blocked",
    ("frame", "assemble_frame"): "frame.assemble_frame",
    ("frame", "to_tensor"): "frame.to_tensor",
    ("frame", "write_frame"): "frame.write_frame",
    ("frame", "read_frame"): "frame.read_frame",
    ("frame", "compute_stats"): "frame.compute_stats",
    ("frame", "normalize"): "frame.normalize",
    ("sensenet", "train"): "sensenet.train",
    ("sensenet", "loss_and_grads"): "sensenet.loss_and_grads",
    ("sensenet", "conv2d"): _conv_fwd_name,
    ("sensenet", "conv2d_backward"): _conv_bwd_name,
    ("sensenet", "maxpool"): "sensenet.maxpool",
    ("sensenet", "maxpool_backward"): "sensenet.maxpool_backward",
    ("sensenet", "detect_batch"): "sensenet.detect_batch",
    ("sensenet", "locate_batch"): "sensenet.locate_batch",
    ("sensenet", "save_model"): "sensenet.save_model",
    ("sensenet", "load_model"): "sensenet.load_model",
    ("metrics", "paired_drop"): "metrics.paired_drop",
    ("metrics", "detection_counts"): "metrics.detection_counts",
    ("metrics", "coverage_map"): "metrics.coverage_map",
    ("metrics", "baseline_positions"): "metrics.baseline_positions",
    ("metrics", "model_positions"): "metrics.model_positions",
    ("baseline", "attenuation_profile"): "baseline.attenuation_profile",
    ("baseline", "estimate_position"): _estimate_name,
}

# Span names as reported; an entry named by its arguments expands to several.
SPAN_NAMES = tuple(
    name for namer in TRACED.values()
    for name in ((namer,) if isinstance(namer, str) else namer.names)
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Per-name span aggregates on one call stack; `clock` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_durations: tuple[str, ...] = ()):
        self.clock = clock
        self.keep_durations = frozenset(keep_durations)
        self.stats: dict[str, SpanStats] = {}
        self.top_level_s = 0.0                   # time covered by spans with no parent
        self._child_s: list[float] = []          # per open span: time its children covered
        self.drop_keys: list[tuple] = []         # (seed, index, center) of each paired_drop
        self.bytes_written = 0
        self.bytes_read = 0

    def wrap(self, fn: Callable, namer: str | Callable) -> Callable:
        clock = self.clock
        child_s = self._child_s
        on_call = _CALL_HOOKS.get(namer if isinstance(namer, str) else "")

        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                covered = child_s.pop()
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = SpanStats()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - covered
                if name in self.keep_durations:
                    st.durations.append(dur)
                if child_s:
                    child_s[-1] += dur
                else:
                    self.top_level_s += dur
            if on_call is not None:
                on_call(self, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def _record_drop(tracer: Tracer, args, kwargs) -> None:
    center = _arg(args, kwargs, 4, "center")
    key_center = None if center is None else (center.x, center.y)
    tracer.drop_keys.append((_arg(args, kwargs, 2, "master_seed"),
                             _arg(args, kwargs, 3, "index"), key_center))


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _record_write(tracer: Tracer, args, kwargs) -> None:
    tracer.bytes_written += _dir_bytes(_arg(args, kwargs, 0, "path"))


def _record_read(tracer: Tracer, args, kwargs) -> None:
    tracer.bytes_read += _dir_bytes(_arg(args, kwargs, 0, "path"))


# Bookkeeping run after a span has ended, outside its measured time.
_CALL_HOOKS = {
    "metrics.paired_drop": _record_drop,
    "dataset.save_dataset": _record_write,
    "dataset.load_dataset": _record_read,
}


class Installation:
    """Wrappers installed on the csisense modules; `uninstall` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.modules = {m: importlib.import_module(f"csisense.{m}") for m in LAYERS}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for (mod_name, fn_name), namer in TRACED.items():
            original = getattr(self.modules[mod_name], fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = tracer.wrap(original, namer)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
