"""2D-CSI frame assembly, tensor conversion and binary serialization.

A frame stacks the per-link beam captures into a complex matrix with
L*N_r rows (link-major row blocks) and one column per beam.  The network
consumes the real-valued view with real/imaginary parts split into two
trailing channels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO, Sequence

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


@dataclass(frozen=True)
class CsiFrame:
    matrix: np.ndarray  # complex, (n_links * n_antennas, n_beams)
    meta: FrameMeta

    def __post_init__(self):
        rows = self.meta.n_links * self.meta.n_antennas
        if self.matrix.shape != (rows, self.meta.n_beams):
            raise ShapeMismatch(
                f"frame matrix {self.matrix.shape} != ({rows}, {self.meta.n_beams})"
            )
        if not np.all(np.isfinite(self.matrix.real) & np.isfinite(self.matrix.imag)):
            raise ShapeMismatch("frame contains non-finite entries")


def link_frame(h: np.ndarray) -> CsiFrame:
    """Frame of per-link beam captures h[l, n, b] (link, antenna, beam).

    Row l * N_r + n of the result is antenna n of link l; column b is beam b.
    """
    if h.ndim != 3 or 0 in h.shape:
        raise ShapeMismatch(f"need a non-empty (links, antennas, beams) array, got {h.shape}")
    n_links, n_antennas, n_beams = h.shape
    return CsiFrame(matrix=h.reshape(n_links * n_antennas, n_beams),
                    meta=FrameMeta(n_links, n_antennas, n_beams))


def to_tensor(frame: CsiFrame) -> np.ndarray:
    """Real-valued (rows, beams, 2) view; channel 0 real, channel 1 imaginary."""
    return np.stack([frame.matrix.real, frame.matrix.imag], axis=-1)


def from_tensor(tensor: np.ndarray, meta: FrameMeta | None = None) -> CsiFrame:
    """Inverse of to_tensor; exact complex round trip."""
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 3 or t.shape[-1] != 2:
        raise ShapeMismatch(f"expected (rows, beams, 2) tensor, got {t.shape}")
    matrix = t[..., 0] + 1j * t[..., 1]
    if meta is None:
        meta = FrameMeta(n_links=1, n_antennas=t.shape[0], n_beams=t.shape[1])
    return CsiFrame(matrix=matrix, meta=meta)


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization constants, frozen from the training split."""

    mean: tuple[float, float]
    std: tuple[float, float]


def compute_stats(tensors: Sequence[np.ndarray]) -> NormStats:
    """Global per-channel mean/std over a collection of frame tensors."""
    stacked = np.stack([np.asarray(t, dtype=float) for t in tensors])
    mean = stacked.mean(axis=(0, 1, 2))
    std = stacked.std(axis=(0, 1, 2))
    return NormStats(mean=(float(mean[0]), float(mean[1])),
                     std=(float(std[0]), float(std[1])))


def normalize(tensor: np.ndarray, stats: NormStats) -> np.ndarray:
    """(x - mean) / std per channel, with a floor on std."""
    mean = np.asarray(stats.mean, dtype=float)
    std = np.maximum(np.asarray(stats.std, dtype=float), STD_FLOOR)
    return (np.asarray(tensor, dtype=float) - mean) / std


_HEADER = struct.Struct("<4sHHHH")


def write_frame(fp: IO[bytes], frame: CsiFrame) -> None:
    """Little-endian binary record: CSIF header then row-major (re, im) float64."""
    m = frame.meta
    fp.write(_HEADER.pack(MAGIC, VERSION, m.n_links, m.n_antennas, m.n_beams))
    interleaved = np.empty(frame.matrix.shape + (2,), dtype="<f8")
    interleaved[..., 0] = frame.matrix.real
    interleaved[..., 1] = frame.matrix.imag
    fp.write(interleaved.tobytes())


def read_frame(fp: IO[bytes]) -> CsiFrame | None:
    """Read one frame record; None at end of stream."""
    header = fp.read(_HEADER.size)
    if not header:
        return None
    if len(header) != _HEADER.size:
        raise ShapeMismatch("truncated frame header")
    magic, version, n_links, n_antennas, n_beams = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ShapeMismatch(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise ShapeMismatch(f"unsupported frame version {version}")
    rows = n_links * n_antennas
    payload = fp.read(rows * n_beams * 2 * 8)
    if len(payload) != rows * n_beams * 2 * 8:
        raise ShapeMismatch("truncated frame payload")
    flat = np.frombuffer(payload, dtype="<f8").reshape(rows, n_beams, 2)
    matrix = flat[..., 0] + 1j * flat[..., 1]
    return CsiFrame(matrix=matrix, meta=FrameMeta(n_links, n_antennas, n_beams))
