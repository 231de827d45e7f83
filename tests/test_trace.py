import struct

import numpy as np
import pytest

from divdiff.engine import GenerationConfig, generate_batch
from divdiff.errors import InvalidInputError, TraceFormatError
from divdiff.trace import TRACE_VERSION, trace_read, trace_write
from divdiff.state import MaskState


def write_random_trace(path, rng, steps=3, batch=2, length=4, vocab=5):
    blocks = rng.normal(size=(steps, batch, length, vocab)).astype(np.float32)
    trace_write(path, blocks)
    return blocks


class TestRoundTrip:
    def test_bitwise_lossless(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        blocks = write_random_trace(path, rng)
        replay = trace_read(path)
        assert replay.blocks.dtype == np.float32
        assert np.array_equal(
            replay.blocks.view(np.uint32), blocks.view(np.uint32)
        )

    def test_header_fields(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng, steps=4, batch=3, length=5, vocab=7)
        replay = trace_read(path)
        assert (replay.steps, replay.batch, replay.length, replay.vocab) == (4, 3, 5, 7)


class TestFormatErrors:
    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TraceFormatError):
            trace_read(path)

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            trace_read(path)

    def test_wrong_version_names_expected(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", TRACE_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match=str(TRACE_VERSION)):
            trace_read(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:20], "shorter than its header"),
        (lambda raw: raw[:16] + struct.pack("<Q", 0) + raw[24:], "zero dimension"),
        (lambda raw: raw + b"\0" * 4, "header promises"),
    ], ids=["short-header", "zero-dimension", "trailing-bytes"])
    def test_header_and_size_checks(self, tmp_path, rng, edit, message):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(TraceFormatError, match=message):
            trace_read(path)

    def test_non_finite_rejected_on_read(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        blocks = write_random_trace(path, rng)
        raw = bytearray(path.read_bytes())
        header = len(raw) - blocks.size * 4
        raw[header : header + 4] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            trace_read(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        blocks = np.zeros((1, 1, 2, 2), dtype=np.float32)
        blocks[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            trace_write(tmp_path / "t.oddt", blocks)

    @pytest.mark.parametrize("shape", [(0, 2, 3), (1, 0, 3), (1, 2, 0)])
    def test_zero_dimension_rejected_on_write(self, tmp_path, shape):
        path = tmp_path / "t.oddt"
        with pytest.raises(InvalidInputError):
            trace_write(path, [np.zeros(shape, dtype=np.float32)])
        assert not path.exists()

    def test_inconsistent_shapes_rejected(self, tmp_path, rng):
        with pytest.raises(InvalidInputError):
            trace_write(
                tmp_path / "t.oddt",
                [rng.normal(size=(1, 2, 3)), rng.normal(size=(1, 2, 4))],
            )


class TestReplayDenoiser:
    def test_steps_indexed_in_order(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        blocks = write_random_trace(path, rng, steps=3)
        replay = trace_read(path)
        state = MaskState.fully_masked(2, 4, 5)
        for t in range(3):
            np.testing.assert_allclose(replay.predict(state, t), blocks[t], atol=0)

    def test_query_beyond_recorded_steps(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng, steps=2)
        replay = trace_read(path)
        state = MaskState.fully_masked(2, 4, 5)
        with pytest.raises(InvalidInputError):
            replay.predict(state, 2)

    def test_batch_shape_mismatch(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng)
        replay = trace_read(path)
        with pytest.raises(InvalidInputError):
            replay.predict(MaskState.fully_masked(1, 4, 5), 0)

    def test_replay_is_deterministic_end_to_end(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng, steps=4, batch=2, length=4, vocab=6)
        config = GenerationConfig(temperature=1.0, steps=4, length=4, batch=2, seed=5)
        first = generate_batch(trace_read(path), config)
        second = generate_batch(trace_read(path), config)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_replay_supports_guidance(self, tmp_path, rng):
        path = tmp_path / "t.oddt"
        write_random_trace(path, rng, steps=4, batch=3, length=4, vocab=6)
        config = GenerationConfig(
            temperature=1.0, steps=4, length=4, batch=3, seed=5,
            guidance="odd", alpha=4.0,
        )
        seqs = generate_batch(trace_read(path), config)
        assert len(seqs) == 3
