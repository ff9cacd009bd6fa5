"""2D-CSI frame assembly, tensor conversion and binary serialization.

A frame stacks the per-link beam captures into L*N_r rows (link-major row
blocks) and one column per beam, with the real and imaginary parts split
into two trailing channels; that real-valued tensor is what datasets store
and the network consumes.  A frames file is a run of fixed-size records, one
per frame, appended a block at a time and checked and read in chunks of
about CHUNK_BYTES, so neither side holds the whole file.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ConfigError

MAGIC = b"CSIF"
VERSION = 1

STD_FLOOR = 1e-12

CHUNK_BYTES = 1 << 20   # frame records are checked and read this many bytes at a time


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
        raise ConfigError(f"need non-empty (..., links, antennas, beams) captures, "
                          f"got {h.shape}")
    *lead, n_links, n_antennas, n_beams = h.shape
    tensors = np.ascontiguousarray(h, dtype=complex).view(float).reshape(
        *lead, n_links * n_antennas, n_beams, 2)
    if not np.all(np.isfinite(tensors)):
        raise ConfigError("frame contains non-finite entries")
    return tensors


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization constants, frozen from the training split."""

    mean: tuple[float, float]
    std: tuple[float, float]


def compute_stats(tensors: np.ndarray) -> NormStats:
    """Global per-channel mean/std over an (N, rows, beams, 2) array of frame
    tensors: the values of x.mean(axis=(0, 1, 2)) and x.std(axis=(0, 1, 2)),
    whose temporaries would be as large as x, from chunks of about CHUNK_BYTES.

    numpy reduces such an array in element order into one running sum per
    channel; each chunk continues those sums (np.add.accumulate), so the bits
    are numpy's whatever the chunk size.
    """
    x = np.asarray(tensors, dtype=float)
    rows = max(1, CHUNK_BYTES // (8 * math.prod(x.shape[1:])))

    def running_sum(shift: np.ndarray | None = None) -> np.ndarray:
        total = None
        for lo in range(0, len(x), rows):
            part = x[lo:lo + rows].reshape(-1, x.shape[-1])
            if shift is not None:
                part = part - shift
                part *= part
            if total is not None:
                part = np.concatenate([total[None], part])
            total = np.add.accumulate(part, axis=0)[-1]
        return total

    count = math.prod(x.shape[:-1])
    mean = running_sum() / count
    std = np.sqrt(running_sum(mean) / count)
    return NormStats(mean=(float(mean[0]), float(mean[1])),
                     std=(float(std[0]), float(std[1])))


def normalize(tensor: np.ndarray, stats: NormStats, out: np.ndarray | None = None
              ) -> np.ndarray:
    """(x - mean) / std per channel, with a floor on std; written into `out`
    when given, which may be `tensor` itself (the same bits either way)."""
    mean = np.asarray(stats.mean, dtype=float)
    std = np.maximum(np.asarray(stats.std, dtype=float), STD_FLOOR)
    x = np.subtract(np.asarray(tensor, dtype=float), mean, out=out)
    return np.divide(x, std, out=x)


def _header(meta: FrameMeta) -> dict:
    return {"magic": MAGIC, "version": VERSION, **asdict(meta)}


def record_dtype(meta: FrameMeta) -> np.dtype:
    """One little-endian frame record: CSIF header (magic, u16 version, links,
    antennas, beams) then the row-major (re, im) float64 tensor."""
    fields = [(name, "S4" if name == "magic" else "<u2") for name in _header(meta)]
    rows = meta.n_links * meta.n_antennas
    return np.dtype(fields + [("data", "<f8", (rows, meta.n_beams, 2))])


def write_frames(file: str | Path | BinaryIO, tensors: np.ndarray, meta: FrameMeta) -> None:
    """Write (N, rows, beams, 2) frame tensors as N fixed-size records to a
    path, or append them to an open binary file."""
    records = np.empty(len(tensors), dtype=record_dtype(meta))
    if np.shape(tensors)[1:] != records["data"].shape[1:]:
        raise ConfigError(f"frame tensors {np.shape(tensors)} do not match {meta}")
    for name, value in _header(meta).items():
        records[name] = value
    records["data"] = tensors
    records.tofile(file)


class FrameFile:
    """The (N, rows, beams, 2) frame tensors of a file of records, checked on
    opening and read on demand.

    Opening reads the file once in chunks of about CHUNK_BYTES: its size must
    be a whole number of records, every record's header must declare `meta`
    and every value must be finite.  Indexing with a slice or with integer
    row indices reads only the chunks that hold those rows.
    """

    def __init__(self, path: str | Path, meta: FrameMeta):
        self.path = Path(path)
        self.dtype = record_dtype(meta)
        size = self.path.stat().st_size
        if size % self.dtype.itemsize:
            raise ConfigError(f"{path}: truncated: {size} bytes is not a whole number "
                              f"of {self.dtype.itemsize}-byte frame records")
        self.shape = (size // self.dtype.itemsize,) + self.dtype["data"].shape
        self._per = max(1, CHUNK_BYTES // self.dtype.itemsize)   # records per chunk
        want = _header(meta)
        for lo, records in self._chunks(range(0, len(self), self._per)):
            for name, value in want.items():
                bad = np.flatnonzero(records[name] != value)
                if bad.size:
                    raise ConfigError(f"{path}: record {lo + bad[0]} has {name} "
                                      f"{records[name][bad[0]].item()!r}, expected {value!r}")
            if not np.all(np.isfinite(records["data"])):
                raise ConfigError(f"{path}: frame contains non-finite entries")

    def __len__(self) -> int:
        return self.shape[0]

    def _chunks(self, starts):
        """(first row, records) of the chunks starting at rows `starts`; one
        records array is reused from chunk to chunk."""
        buf = np.empty(min(self._per, len(self)), dtype=self.dtype)
        with open(self.path, "rb") as fp:
            for lo in starts:
                records = buf[:min(self._per, len(self) - lo)]
                fp.seek(int(lo) * self.dtype.itemsize)
                if fp.readinto(records) != records.nbytes:
                    raise ConfigError(f"{self.path}: shorter than when it was opened")
                yield int(lo), records

    def __getitem__(self, rows: slice | np.ndarray) -> np.ndarray:
        """Frames of the rows named by a slice or by integer indices, in that order."""
        idx = (np.arange(*rows.indices(len(self))) if isinstance(rows, slice)
               else np.arange(len(self))[rows])
        order = np.argsort(idx, kind="stable")
        wanted = idx[order]
        chunk = wanted // self._per
        out = _mapped_empty((len(idx),) + self.shape[1:])
        for lo, records in self._chunks(chunk[np.diff(chunk, prepend=-1) != 0] * self._per):
            a, b = np.searchsorted(wanted, [lo, lo + len(records)])
            out[order[a:b]] = records["data"][wanted[a:b] - lo]
        return out


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array in an anonymous memory map.  The system
    takes its pages back as soon as it is freed, where a heap block of that
    size can stay with the process and raise the peak of the next command."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, max(8 * size, 1)), dtype=float, count=size).reshape(shape)
