import numpy as np
import pytest

from csisense.errors import ShapeMismatch
from csisense.frame import (
    FrameMeta,
    NormStats,
    compute_stats,
    link_frame,
    normalize,
    read_frames,
    record_dtype,
    to_tensor,
    write_frames,
)


def random_captures(rng, n_links, n_beams, n_antennas):
    """Per-link beam captures h[l, n, b]."""
    shape = (n_links, n_antennas, n_beams)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestAssemble:
    def test_reference_dimensions(self):
        rng = np.random.default_rng(0)
        frame = link_frame(random_captures(rng, 3, 7, 8))
        assert frame.matrix.shape == (24, 7)
        assert to_tensor(frame).shape == (24, 7, 2)

    def test_singleton(self):
        frame = link_frame(np.array([[[1 + 2j]]]))
        assert frame.matrix.shape == (1, 1)
        assert frame.matrix[0, 0] == 1 + 2j

    def test_indexing_layout(self):
        rng = np.random.default_rng(1)
        h = random_captures(rng, 3, 4, 5)
        frame = link_frame(h)
        for _ in range(50):
            l = rng.integers(3)
            i = rng.integers(4)
            k = rng.integers(5)
            assert frame.matrix[l * 5 + k, i] == h[l, k, i]

    def test_link_permutation_permutes_row_blocks(self):
        rng = np.random.default_rng(2)
        h = random_captures(rng, 3, 4, 5)
        base = link_frame(h).matrix
        perm = link_frame(h[[2, 0, 1]]).matrix
        assert np.array_equal(perm[0:5], base[10:15])
        assert np.array_equal(perm[5:10], base[0:5])
        assert np.array_equal(perm[10:15], base[5:10])

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeMismatch):
            link_frame(random_captures(rng, 2, 3, 4)[0])
        with pytest.raises(ShapeMismatch):
            link_frame(random_captures(rng, 2, 0, 4))
        with pytest.raises(ShapeMismatch):
            link_frame(np.full((2, 4, 3), np.nan + 0j))


class TestTensorConversion:
    def test_scalar_example(self):
        frame = link_frame(np.array([[[1 + 2j]]]))
        assert np.array_equal(to_tensor(frame), np.array([[[1.0, 2.0]]]))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        frame = link_frame(random_captures(rng, 3, 7, 8))
        t = to_tensor(frame)
        assert np.array_equal(t[..., 0] + 1j * t[..., 1], frame.matrix)

    def test_real_frame_has_zero_imag_channel(self):
        frame = link_frame(np.array([[[1.0, 3.0], [2.0, 4.0]]]))
        assert np.all(to_tensor(frame)[..., 1] == 0)


class TestNormalize:
    def test_constant_tensor_maps_to_zero(self):
        t = np.full((4, 3, 2), 7.0)
        stats = compute_stats([t])
        assert np.all(normalize(t, stats) == 0)

    def test_standardized_output(self):
        rng = np.random.default_rng(5)
        tensors = [rng.standard_normal((6, 5, 2)) * 3 + 1 for _ in range(40)]
        stats = compute_stats(tensors)
        out = np.stack([normalize(t, stats) for t in tensors])
        for ch in range(2):
            assert abs(out[..., ch].mean()) < 1e-6
            assert abs(out[..., ch].std() - 1.0) < 1e-6

    def test_stats_round_trip_deterministic(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((6, 5, 2))
        stats = compute_stats([t])
        reloaded = NormStats(mean=tuple(stats.mean), std=tuple(stats.std))
        assert np.array_equal(normalize(t, stats), normalize(t, reloaded))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        frames = [link_frame(random_captures(rng, 3, 7, 8)) for _ in range(5)]
        tensors = np.stack([to_tensor(f) for f in frames])
        path = tmp_path / "frames.bin"
        write_frames(path, tensors, frames[0].meta)
        back = read_frames(path, frames[0].meta)
        assert back.shape == (5, 24, 7, 2)
        assert np.array_equal(back, tensors)
        write_frames(path, tensors[:0], frames[0].meta)
        assert read_frames(path, frames[0].meta).shape == (0, 24, 7, 2)

    def test_header_layout(self, tmp_path):
        frame = link_frame(np.array([[[1 + 2j]]]))
        path = tmp_path / "frames.bin"
        write_frames(path, to_tensor(frame)[None], frame.meta)
        raw = path.read_bytes()
        assert raw[:4] == b"CSIF"
        assert raw[4:12] == bytes([1, 0, 1, 0, 1, 0, 1, 0])
        assert raw[12:] == np.array([1.0, 2.0], dtype="<f8").tobytes()
        assert len(raw) == record_dtype(frame.meta).itemsize == 12 + 1 * 1 * 2 * 8

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(8)
        frame = link_frame(random_captures(rng, 1, 2, 3))
        path = tmp_path / "frames.bin"
        write_frames(path, np.stack([to_tensor(frame)] * 2), frame.meta)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeMismatch, match="truncated"):
            read_frames(path, frame.meta)

    @pytest.mark.parametrize("offset,value,match", [
        (0, b"XSIF", "record 2 has magic b'XSIF', expected b'CSIF'"),
        (4, b"\x02\x00", "record 2 has version 2, expected 1"),
        (6, b"\x03\x00\x01\x00", "record 2 has n_links 3, expected 1"),  # same row count
        (12, np.array([np.nan], dtype="<f8").tobytes(), "non-finite"),
    ])
    def test_bad_record_is_rejected(self, tmp_path, offset, value, match):
        meta = FrameMeta(1, 3, 2)
        tensors = np.random.default_rng(9).standard_normal((4, 3, 2, 2))
        path = tmp_path / "frames.bin"
        write_frames(path, tensors, meta)
        raw = bytearray(path.read_bytes())
        at = 2 * record_dtype(meta).itemsize + offset
        raw[at:at + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatch, match=match):
            read_frames(path, meta)

    def test_shape_mismatch_on_write(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_frames(tmp_path / "f.bin", np.zeros((2, 4, 2, 2)), FrameMeta(1, 3, 2))
