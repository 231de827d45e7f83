"""Binary logits-trace files and the replay denoiser.

Layout (little-endian): 4-byte magic "ODDT", u32 version, then T, B, S, V
as u64, then T consecutive blocks of B*S*V float32 values in row-major
order. Round-trips are bitwise lossless, which lets guidance run against
logits recorded from any external model.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import InvalidInputError, TraceFormatError
from .state import MaskState

TRACE_MAGIC = b"ODDT"
TRACE_VERSION = 1

_HEADER = struct.Struct("<4sIQQQQ")


def trace_write(path, logits_per_step) -> None:
    """Write one float32 logits block per diffusion step."""
    blocks = [np.asarray(b, dtype=np.float32) for b in logits_per_step]
    if not blocks:
        raise InvalidInputError("trace_write: need at least one step")
    shape = blocks[0].shape
    if len(shape) != 3:
        raise InvalidInputError("trace_write: blocks must be (B, S, V)")
    if min(shape) < 1:
        raise InvalidInputError(f"trace_write: zero dimension in block shape {shape}")
    for b in blocks:
        if b.shape != shape:
            raise InvalidInputError("trace_write: block shapes must match across steps")
        if not np.all(np.isfinite(b)):
            raise InvalidInputError("trace_write: non-finite values")
    steps = len(blocks)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, steps, *shape))
        for b in blocks:
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


class ReplayDenoiser:
    """Feeds the recorded logits block for each step back to the engine."""

    def __init__(self, blocks: np.ndarray):
        self.blocks = blocks  # (T, B, S, V) float32
        self.steps, self.batch, self.length, self.vocab = blocks.shape

    def predict(self, state: MaskState, step: int) -> np.ndarray:
        if not 0 <= step < self.steps:
            raise InvalidInputError(
                f"replay trace holds {self.steps} steps, step {step} requested"
            )
        if (state.batch, state.length) != (self.batch, self.length):
            raise InvalidInputError(
                f"replay trace is ({self.batch}, {self.length}), state is "
                f"({state.batch}, {state.length})"
            )
        return self.blocks[step].astype(np.float64)


def trace_read(path) -> ReplayDenoiser:
    """Load a trace file, validating magic, version, size, and finiteness.

    The blocks are read once, straight into the returned array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise TraceFormatError("trace file shorter than its header")
        magic, version, steps, batch, length, vocab = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != TRACE_MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}, expected {TRACE_MAGIC!r}")
        if version != TRACE_VERSION:
            raise TraceFormatError(f"unsupported version {version}, expected {TRACE_VERSION}")
        if min(steps, batch, length, vocab) < 1:
            raise TraceFormatError("trace header contains a zero dimension")
        count = steps * batch * length * vocab
        expected = _HEADER.size + count * 4
        if size != expected:
            raise TraceFormatError(
                f"trace file is {size} bytes, header promises {expected}"
            )
        flat = np.fromfile(fh, dtype="<f4", count=count)
    if flat.size != count:
        raise TraceFormatError(f"trace file is shorter than the {expected} bytes it promised")
    blocks = flat.reshape(steps, batch, length, vocab)
    if not all(np.isfinite(block).all() for block in blocks):
        raise TraceFormatError("trace contains non-finite values")
    return ReplayDenoiser(blocks)
