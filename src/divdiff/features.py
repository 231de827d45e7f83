"""Feature extraction from a partially generated batch.

Each sample yields a unified per-position distribution (softmax rows at
masked positions, exact one-hot rows at committed positions), a
vocabulary-length max-pool of those rows with argmax routing records, and
a scalar quality score. One softmax over every row, written into the
distribution's own buffer, serves both: the committed rows'
normalizers give the quality scores before those rows are overwritten
with their one-hot. Gradients in feature space are pushed back to the
masked logits analytically and applied at once as a descent step: each
vocabulary entry routes its gradient to the single position that
attained the max, one-hot rows are constants, and the softmax Jacobian is
applied in place to every row of a sample with a live gradient, inside the
one buffer that becomes the step (rows no gradient reaches stay exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractError, InvalidInputError, is_integer
from .state import MaskState


@dataclass
class UnifiedDistribution:
    """Per-position probability rows, committed-row flags and quality scores.

    one_hot marks committed rows (constants under differentiation); every
    row from prompt_len on is pooled, prompt rows are not.
    """

    probs: np.ndarray      # (B, S, V)
    one_hot: np.ndarray    # (B, S) bool
    qualities: np.ndarray  # (B,)
    prompt_len: int = 0


@dataclass
class FeatureSet:
    """Max-pooled features, argmax routing, and quality scores.

    routing[i, w] is the sequence position whose row attained the max for
    vocabulary entry w (ties to the lowest position), or -1 when the entry
    is excluded by a top-k restriction.
    """

    features: np.ndarray          # (B, V)
    routing: np.ndarray           # (B, V) int64
    qualities: np.ndarray         # (B,)


def unified_distribution(logits, state: MaskState) -> UnifiedDistribution:
    """Softmax rows at masked positions, one-hot rows at committed ones.

    The quality scores (see quality_scores) come from the same softmax.
    Every row of logits, prompt rows included, must be finite.
    """
    x = np.asarray(logits, dtype=np.float64)
    b, s, v = state.batch, state.length, state.vocab
    if x.shape != (b, s, v):
        raise InvalidInputError(
            f"unified_distribution: logits {x.shape} do not match the state ({b}, {s}, {v})"
        )
    committed = ~state.masked
    ids = state.realized[committed]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ContractError("realized token id outside the vocabulary")
    plen = state.prompt_len
    # softmax every row, prompt rows too: one pass over the contiguous
    # logits needs no buffered copy, as a strided x[:, plen:] view would
    probs, sums = linalg.softmax_rows(x, out=np.empty_like(x), return_sums=True)
    # a committed row's largest probability is 1 / its normalizer
    scored = committed[:, plen:]
    owner = np.nonzero(scored)[0]
    counts = np.bincount(owner, minlength=b)
    totals = np.bincount(owner, weights=1.0 / sums[:, plen:][scored], minlength=b)
    qualities = np.ones(b, dtype=np.float64)
    present = counts > 0
    qualities[present] = totals[present] / counts[present]
    probs[committed] = 0.0
    probs[(*np.nonzero(committed), ids)] = 1.0
    return UnifiedDistribution(probs, committed, qualities, plen)


def extract_features(ud: UnifiedDistribution, top_k: int | None = None) -> FeatureSet:
    """Max-pool the pooled rows over the sequence dimension (qualities from ud).

    With top_k set, pooling is restricted to the union of each row's top-k
    vocabulary entries; excluded entries get feature 0 and routing -1.
    """
    b, _, v = ud.probs.shape
    if top_k is not None and top_k < 1:
        raise InvalidInputError("extract_features: top_k must be >= 1 when set")
    rows = ud.probs[:, ud.prompt_len:]
    features = rows.max(axis=1)
    # first position attaining the max; a boolean argmax copies 1/8 of what
    # a float argmax across the sequence axis would
    routing = (rows == features[:, None, :]).argmax(axis=1) + ud.prompt_len
    if top_k is None or top_k >= v:
        return FeatureSet(features, routing, ud.qualities)
    keep = np.zeros((b, v), dtype=bool)
    order = np.argsort(-rows, axis=2, kind="stable")[..., :top_k]
    keep[np.arange(b)[:, None, None], order] = True
    return FeatureSet(np.where(keep, features, 0.0), np.where(keep, routing, -1),
                      ud.qualities)


def quality_scores(logits, state: MaskState) -> np.ndarray:
    """Mean of the model's max per-position probability over committed tokens.

    Only unmasked non-prompt positions count; a sample with none scores 1.
    """
    return unified_distribution(logits, state).qualities


def feature_set(logits, state: MaskState,
                top_k: int | None = None) -> tuple[FeatureSet, UnifiedDistribution]:
    """Convenience bundle: features (with qualities) and their distribution."""
    ud = unified_distribution(logits, state)
    return extract_features(ud, top_k=top_k), ud


def group_rows(batch: int, groups: int, caller: str) -> int:
    """Rows per batch when `groups` equal batches are stacked in `batch` rows."""
    if not is_integer(groups) or groups < 1 or batch % groups:
        raise InvalidInputError(
            f"{caller}: groups must be an integer >= 1 that divides the batch of "
            f"{batch}, got {groups!r}"
        )
    return batch // groups


def backprop_to_logits(upstream, fs: FeatureSet, ud: UnifiedDistribution,
                       logits, step: float) -> np.ndarray:
    """Descent step logits - step * gradient for per-sample feature gradients.

    upstream is (B, V), the gradient of some loss with respect to the
    pooled features. Gradient lands only at (masked position, vocabulary)
    slots recorded in the routing, so the result is a new array equal to
    logits except in the routed rows. The gradient itself reads off the
    step: logits - backprop_to_logits(upstream, fs, ud, logits, 1.0).
    """
    b, s, v = ud.probs.shape
    u = np.asarray(upstream, dtype=np.float64)
    if u.shape != (b, v):
        raise InvalidInputError(f"backprop_to_logits: upstream {u.shape} != ({b}, {v})")
    x = np.asarray(logits, dtype=np.float64)
    if x.shape != (b, s, v):
        raise InvalidInputError(f"backprop_to_logits: logits {x.shape} != ({b}, {s}, {v})")
    if not np.isfinite(step):
        raise InvalidInputError(f"backprop_to_logits: step {step} is not finite")
    routed = fs.routing >= 0
    if np.any(routed & ((fs.routing < ud.prompt_len) | (fs.routing >= s))):
        raise ContractError("routing points at a position outside the pooled rows")
    rows = np.where(routed, fs.routing, 0)
    live = routed & ~np.take_along_axis(ud.one_hot, rows, axis=1) & (u != 0.0)
    # each (sample, column) pair scatters to its own slot of buf, 0 unless
    # live; rows that no live gradient reaches then step by exactly 0
    buf = np.zeros((b, s, v), dtype=np.float64)
    np.put_along_axis(buf, rows[:, None, :], np.where(live, u, 0.0)[:, None, :], axis=1)
    for i in np.flatnonzero(live.any(axis=1)):
        linalg.softmax_vjp(ud.probs[i], buf[i], out=buf[i])
    buf *= step
    return np.subtract(x, buf, out=buf)
