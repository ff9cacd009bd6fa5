import numpy as np
import pytest

from csisense import frame as frame_mod
from csisense.errors import ConfigError
from csisense.frame import (
    FrameFile,
    FrameMeta,
    NormStats,
    compute_stats,
    normalize,
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
        assert to_tensor(random_captures(rng, 3, 7, 8)).shape == (24, 7, 2)
        # a block of drops keeps its leading axis
        block = np.stack([random_captures(rng, 3, 7, 8) for _ in range(5)])
        assert to_tensor(block).shape == (5, 24, 7, 2)

    def test_singleton(self):
        assert to_tensor(np.array([[[1 + 2j]]])).shape == (1, 1, 2)

    def test_indexing_layout(self):
        rng = np.random.default_rng(1)
        h = np.stack([random_captures(rng, 3, 4, 5) for _ in range(2)])
        t = to_tensor(h)
        for _ in range(50):
            d = rng.integers(2)
            l = rng.integers(3)
            i = rng.integers(4)
            k = rng.integers(5)
            assert complex(*t[d, l * 5 + k, i]) == h[d, l, k, i]

    def test_link_permutation_permutes_row_blocks(self):
        rng = np.random.default_rng(2)
        h = random_captures(rng, 3, 4, 5)
        base = to_tensor(h)
        perm = to_tensor(h[[2, 0, 1]])
        assert np.array_equal(perm[0:5], base[10:15])
        assert np.array_equal(perm[5:10], base[0:5])
        assert np.array_equal(perm[10:15], base[5:10])

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="need non-empty"):
            to_tensor(random_captures(rng, 2, 3, 4)[0])
        with pytest.raises(ConfigError, match="need non-empty"):
            to_tensor(random_captures(rng, 2, 0, 4))
        with pytest.raises(ConfigError, match="frame contains non-finite entries"):
            to_tensor(np.full((2, 4, 3), np.nan + 0j))
        block = np.stack([random_captures(rng, 2, 3, 4)] * 3)
        block[1, 0, 2, 1] = complex(0.0, np.inf)       # one entry of one drop
        with pytest.raises(ConfigError, match="non-finite"):
            to_tensor(block)


class TestTensorConversion:
    def test_scalar_example(self):
        assert np.array_equal(to_tensor(np.array([[[1 + 2j]]])), np.array([[[1.0, 2.0]]]))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        h = random_captures(rng, 3, 7, 8)
        t = to_tensor(h)
        assert np.array_equal(t[..., 0] + 1j * t[..., 1], h.reshape(24, 7))

    def test_real_frame_has_zero_imag_channel(self):
        assert np.all(to_tensor(np.array([[[1.0, 3.0], [2.0, 4.0]]]))[..., 1] == 0)


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


class TestChunkedStats:
    """compute_stats gives numpy's whole-array mean and std bit for bit,
    whatever the chunk size."""

    @pytest.mark.parametrize("shape", [(1, 1, 1, 2), (3, 4, 3, 2), (777, 8, 3, 2),
                                       (1792, 24, 7, 2)])
    @pytest.mark.parametrize("chunk_bytes", [1, 1000, 1 << 20])
    def test_matches_numpy(self, monkeypatch, shape, chunk_bytes):
        monkeypatch.setattr(frame_mod, "CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-6, 1.0, 1e3):
            x = rng.standard_normal(shape) * scale + rng.uniform(-1, 1) * scale
            stats = compute_stats(x)
            assert stats.mean == tuple(x.mean(axis=(0, 1, 2)).tolist())
            assert stats.std == tuple(x.std(axis=(0, 1, 2)).tolist())

    def test_in_place_normalize_matches(self):
        x = np.random.default_rng(4).standard_normal((9, 6, 5, 2)) * 3 + 1
        stats = compute_stats(x)
        want = normalize(x, stats)
        assert normalize(x, stats, out=x) is x
        assert np.array_equal(x, want)


class TestFrameFile:
    @pytest.fixture
    def frames(self, tmp_path, monkeypatch):
        monkeypatch.setattr(frame_mod, "CHUNK_BYTES", 3 * record_dtype(FrameMeta(1, 3, 2)).itemsize)
        tensors = np.random.default_rng(6).standard_normal((11, 3, 2, 2))
        write_frames(tmp_path / "f.bin", tensors, FrameMeta(1, 3, 2))
        return tensors, FrameFile(tmp_path / "f.bin", FrameMeta(1, 3, 2))

    def test_shape_and_whole_read(self, frames):
        tensors, file = frames
        assert len(file) == 11 and file.shape == (11, 3, 2, 2)
        assert np.array_equal(file[:], tensors)

    @pytest.mark.parametrize("rows", [slice(2, 9), slice(None, None, 4), slice(5, 5),
                                      np.array([10, 0, 3, 3, 7]), np.array([], dtype=int),
                                      np.array([-1, 2])])
    def test_rows_in_the_order_asked(self, frames, rows):
        tensors, file = frames
        assert np.array_equal(file[rows], tensors[rows])

    def test_bad_record_in_a_later_chunk_is_named(self, frames):
        _, file = frames
        raw = bytearray(file.path.read_bytes())
        raw[7 * file.dtype.itemsize + 4] = 9      # record 7's version, in the third chunk
        file.path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="record 7 has version 9, expected 1"):
            FrameFile(file.path, FrameMeta(1, 3, 2))

    def test_appended_blocks_read_back_as_one_file(self, tmp_path):
        meta = FrameMeta(1, 3, 2)
        tensors = np.random.default_rng(7).standard_normal((7, 3, 2, 2))
        with open(tmp_path / "f.bin", "wb") as fp:
            for lo in range(0, 7, 3):
                write_frames(fp, tensors[lo:lo + 3], meta)
        write_frames(tmp_path / "g.bin", tensors, meta)
        assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "g.bin").read_bytes()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        tensors = to_tensor(np.stack([random_captures(rng, 3, 7, 8) for _ in range(5)]))
        meta = FrameMeta(3, 8, 7)
        path = tmp_path / "frames.bin"
        write_frames(path, tensors, meta)
        back = FrameFile(path, meta)[:]
        assert back.shape == (5, 24, 7, 2)
        assert np.array_equal(back, tensors)
        write_frames(path, tensors[:0], meta)
        assert FrameFile(path, meta)[:].shape == (0, 24, 7, 2)

    def test_header_layout(self, tmp_path):
        meta = FrameMeta(1, 1, 1)
        path = tmp_path / "frames.bin"
        write_frames(path, to_tensor(np.array([[[[1 + 2j]]]])), meta)
        raw = path.read_bytes()
        assert raw[:4] == b"CSIF"
        assert raw[4:12] == bytes([1, 0, 1, 0, 1, 0, 1, 0])
        assert raw[12:] == np.array([1.0, 2.0], dtype="<f8").tobytes()
        assert len(raw) == record_dtype(meta).itemsize == 12 + 1 * 1 * 2 * 8

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(8)
        meta = FrameMeta(1, 3, 2)
        path = tmp_path / "frames.bin"
        write_frames(path, to_tensor(np.stack([random_captures(rng, 1, 2, 3)] * 2)), meta)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="truncated"):
            FrameFile(path, meta)

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
        with pytest.raises(ConfigError, match=match):
            FrameFile(path, meta)

    def test_shape_mismatch_on_write(self, tmp_path):
        with pytest.raises(ConfigError, match="do not match"):
            write_frames(tmp_path / "f.bin", np.zeros((2, 4, 2, 2)), FrameMeta(1, 3, 2))
