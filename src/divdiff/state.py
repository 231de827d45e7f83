"""Mask-state bookkeeping for iterative unmasking generation.

A run starts from a fully masked token grid (optionally with a fixed,
never-masked prompt prefix) and commits a schedule-determined number of
positions per step. The reserved MASK id is one past the model vocabulary
and never appears in finished output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def mask_token(vocab: int) -> int:
    """Reserved MASK id for a model with `vocab` real tokens."""
    return vocab


@dataclass
class Schedule:
    """Per-step unmask quotas: unmask_counts has length steps and sums to
    the generated length."""

    steps: int
    unmask_counts: list[int]

    def __post_init__(self):
        if len(self.unmask_counts) != self.steps or any(c < 0 for c in self.unmask_counts):
            raise InvalidInputError("unmask_counts must be non-negative, one per step")


def build_schedule(length: int, steps: int) -> Schedule:
    """Linear schedule: equal unmask shares, the remainder on the first steps."""
    if steps < 1 or length < 1:
        raise InvalidInputError("build_schedule: need steps >= 1 and length >= 1")
    if steps > length:
        raise InvalidInputError(
            f"build_schedule: cannot unmask less than one token per step "
            f"(steps={steps} > length={length})"
        )
    base, extra = divmod(length, steps)
    counts = [base + 1] * extra + [base] * (steps - extra)
    return Schedule(steps=steps, unmask_counts=counts)


@dataclass
class MaskState:
    """Per-sample mask flags plus realized token ids.

    realized holds the MASK id at masked positions; positions before
    prompt_len belong to the conditioning prefix and are never masked.
    """

    masked: np.ndarray    # (B, S) bool
    realized: np.ndarray  # (B, S) int64
    vocab: int
    prompt_len: int = 0

    def __post_init__(self):
        self.masked = np.asarray(self.masked, dtype=bool)
        self.realized = np.asarray(self.realized, dtype=np.int64)
        if self.masked.ndim != 2 or self.masked.shape != self.realized.shape:
            raise InvalidInputError("MaskState: masked/realized must share a (B, S) shape")
        if not 0 <= self.prompt_len < self.masked.shape[1]:
            raise InvalidInputError("MaskState: prompt_len must be within the sequence")
        if self.masked[:, : self.prompt_len].any():
            raise InvalidInputError("MaskState: prompt positions cannot be masked")
        mid = mask_token(self.vocab)
        if np.any(self.realized[self.masked] != mid):
            raise InvalidInputError("MaskState: masked positions must hold the MASK id")
        unmasked = self.realized[~self.masked]
        if unmasked.size and (unmasked.min() < 0 or unmasked.max() >= self.vocab):
            raise InvalidInputError("MaskState: realized token id outside the vocabulary")

    @property
    def batch(self) -> int:
        return self.masked.shape[0]

    @property
    def length(self) -> int:
        return self.masked.shape[1]

    def copy(self) -> "MaskState":
        return MaskState(self.masked.copy(), self.realized.copy(), self.vocab, self.prompt_len)

    @classmethod
    def fully_masked(cls, batch: int, length: int, vocab: int, prompt=None) -> "MaskState":
        """Initial state: everything masked except an optional prompt prefix."""
        if batch < 1 or length < 1:
            raise InvalidInputError("MaskState: batch and length must be >= 1")
        masked = np.ones((batch, length), dtype=bool)
        realized = np.full((batch, length), mask_token(vocab), dtype=np.int64)
        plen = 0
        if prompt is not None:
            p = np.asarray(prompt, dtype=np.int64)
            if p.ndim != 1 or p.size >= length:
                raise InvalidInputError("prompt must be 1-D and shorter than the length")
            if p.size and (p.min() < 0 or p.max() >= vocab):
                raise InvalidInputError("prompt token id outside the vocabulary")
            plen = p.size
            masked[:, :plen] = False
            realized[:, :plen] = p
        return cls(masked, realized, vocab, plen)
