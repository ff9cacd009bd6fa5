"""2D-CSI frame assembly, tensor conversion and binary serialization.

A frame stacks the per-link beam captures into L*N_r rows (link-major row
blocks) and one column per beam, with the real and imaginary parts split
into two trailing channels; that real-valued tensor is what datasets store
and the network consumes.  A frames file is a run of fixed-size records, one
per frame, written with one call and read with one call.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch

MAGIC = b"CSIF"
VERSION = 1

STD_FLOOR = 1e-12


@dataclass(frozen=True)
class FrameMeta:
    n_links: int
    n_antennas: int
    n_beams: int


def to_tensor(h: np.ndarray) -> np.ndarray:
    """Real-valued frame tensors of per-link beam captures h[..., l, n, b]
    (link, antenna, beam), as (..., L * N_r, B, 2).

    Row l * N_r + n of a frame is antenna n of link l, column b is beam b;
    channel 0 holds the real part, channel 1 the imaginary part.
    """
    if h.ndim < 3 or 0 in h.shape[-3:]:
        raise ShapeMismatch(f"need non-empty (..., links, antennas, beams) captures, "
                            f"got {h.shape}")
    *lead, n_links, n_antennas, n_beams = h.shape
    tensors = np.ascontiguousarray(h, dtype=complex).view(float).reshape(
        *lead, n_links * n_antennas, n_beams, 2)
    if not np.all(np.isfinite(tensors)):
        raise ShapeMismatch("frame contains non-finite entries")
    return tensors


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization constants, frozen from the training split."""

    mean: tuple[float, float]
    std: tuple[float, float]


def compute_stats(tensors: np.ndarray) -> NormStats:
    """Global per-channel mean/std over an (N, rows, beams, 2) array of frame tensors."""
    x = np.asarray(tensors, dtype=float)
    mean = x.mean(axis=(0, 1, 2))
    std = x.std(axis=(0, 1, 2))
    return NormStats(mean=(float(mean[0]), float(mean[1])),
                     std=(float(std[0]), float(std[1])))


def normalize(tensor: np.ndarray, stats: NormStats) -> np.ndarray:
    """(x - mean) / std per channel, with a floor on std."""
    mean = np.asarray(stats.mean, dtype=float)
    std = np.maximum(np.asarray(stats.std, dtype=float), STD_FLOOR)
    return (np.asarray(tensor, dtype=float) - mean) / std


def _header(meta: FrameMeta) -> dict:
    return {"magic": MAGIC, "version": VERSION, **asdict(meta)}


def record_dtype(meta: FrameMeta) -> np.dtype:
    """One little-endian frame record: CSIF header (magic, u16 version, links,
    antennas, beams) then the row-major (re, im) float64 tensor."""
    fields = [(name, "S4" if name == "magic" else "<u2") for name in _header(meta)]
    rows = meta.n_links * meta.n_antennas
    return np.dtype(fields + [("data", "<f8", (rows, meta.n_beams, 2))])


def write_frames(path: str | Path, tensors: np.ndarray, meta: FrameMeta) -> None:
    """Write (N, rows, beams, 2) frame tensors as N fixed-size records."""
    records = np.empty(len(tensors), dtype=record_dtype(meta))
    if np.shape(tensors)[1:] != records["data"].shape[1:]:
        raise ShapeMismatch(f"frame tensors {np.shape(tensors)} do not match {meta}")
    for name, value in _header(meta).items():
        records[name] = value
    records["data"] = tensors
    records.tofile(path)


def read_frames(path: str | Path, meta: FrameMeta) -> np.ndarray:
    """(N, rows, beams, 2) tensors of a file of records whose headers all declare `meta`."""
    dtype = record_dtype(meta)
    size = Path(path).stat().st_size
    if size % dtype.itemsize:
        raise ShapeMismatch(f"{path}: truncated: {size} bytes is not a whole number "
                            f"of {dtype.itemsize}-byte frame records")
    records = np.fromfile(path, dtype=dtype)
    for name, want in _header(meta).items():
        bad = np.flatnonzero(records[name] != want)
        if bad.size:
            raise ShapeMismatch(f"{path}: record {bad[0]} has {name} "
                                f"{records[name][bad[0]].item()!r}, expected {want!r}")
    tensors = np.ascontiguousarray(records["data"], dtype=float)
    if not np.all(np.isfinite(tensors)):
        raise ShapeMismatch(f"{path}: frame contains non-finite entries")
    return tensors
