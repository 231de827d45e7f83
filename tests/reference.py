"""A slow, plain reference of one guided denoising step, for the tests only.

Everything is written one sample and one row at a time, in the order the
method states it:

- the unified distribution as dense (B, S, V) rows: a softmax row at a
  masked position, an exact one-hot row at a committed one;
- max-pooled features, each routed to the first position attaining it;
- Gram-Schmidt over a Python list of basis vectors (OrthoBasis,
  extend_basis, project_onto_basis), with a second orthogonalization pass;
- the softmax vector-Jacobian product of one row at a time;
- a sampler that draws from one sample_stream per (sample, step);
- the bigram denoiser's prediction, one sample and one position at a time;
- the harness's pairwise diversity, one pair at a time;
- the planted task's answer checker, one sample and one correct template
  at a time;
- the gradient checks' central differences, one logits entry and two
  lone forward passes at a time.

The DPP kernel is joint over the batch, so its feature gradient is the
same dense matrix algebra as the library's, one batch at a time, with
its inverses from scipy's cho_factor/cho_solve; around it, features and
backprop are the per-row reference. The library computes all of this
batched, and the property tests hold it to this module bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from divdiff.dpp import _kernels, dpp_loss
from divdiff.features import extract_features, feature_set
from divdiff.features import unified_distribution as library_unified_distribution
from divdiff.gradcheck import frozen_odd_targets
from divdiff.odd import anneal_alpha
from divdiff.state import MaskState
from divdiff.streams import sample_stream


# ---- Gram-Schmidt over a list of basis vectors ---------------------------

@dataclass
class OrthoBasis:
    """Ordered list of mutually orthonormal history directions."""

    vectors: list[np.ndarray] = field(default_factory=list)
    tolerance: float = 1e-8

    def __len__(self) -> int:
        return len(self.vectors)


def project_onto_basis(basis: OrthoBasis, v) -> np.ndarray:
    """Projection of v onto the span of the basis (zero for an empty basis)."""
    x = np.asarray(v, dtype=np.float64)
    if not basis.vectors:
        return np.zeros_like(x)
    stacked = np.asarray(basis.vectors)
    if stacked.shape[1:] != x.shape:
        raise ValueError("project_onto_basis: length mismatch")
    return stacked.T @ (stacked @ x)


def extend_basis(basis: OrthoBasis, v) -> OrthoBasis:
    """Append the normalized residual of v, or return the basis unchanged.

    The residual is orthogonalized a second time before it is normalized;
    either pass at or below the tolerance leaves the basis as it is.
    """
    x = np.asarray(v, dtype=np.float64)
    r = x - project_onto_basis(basis, x)
    if np.linalg.norm(r) <= basis.tolerance:
        return basis
    r = r - project_onto_basis(basis, r)
    norm = np.linalg.norm(r)
    if norm <= basis.tolerance:
        return basis
    return OrthoBasis(vectors=basis.vectors + [r / norm], tolerance=basis.tolerance)


# ---- features and backprop, one row at a time ----------------------------

def softmax_row(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def softmax_vjp_row(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """dL/dz of one row from p = softmax(z) and u = dL/dp."""
    return (u - u @ p) * p


def unified_distribution(logits, state: MaskState):
    """(probs, qualities): dense softmax / one-hot rows and each sample's
    mean top probability over its committed non-prompt positions (1 if none)."""
    b, s, v = logits.shape
    probs = np.zeros((b, s, v))
    qualities = np.ones(b)
    for i in range(b):
        tops = []
        for p in range(s):
            row = softmax_row(logits[i, p])
            if state.masked[i, p]:
                probs[i, p] = row
                continue
            if p >= state.prompt_len:
                tops.append(row.max())
            probs[i, p, state.realized[i, p]] = 1.0
        if tops:
            qualities[i] = sum(tops) / len(tops)
    return probs, qualities


def pooled_features(probs, prompt_len: int, top_k=None):
    """(features, routing): per vocabulary entry the max over the pooled rows
    and the first position attaining it; with top_k, entries outside every
    pooled row's top-k get feature 0 and routing -1."""
    b, s, v = probs.shape
    features = np.zeros((b, v))
    routing = np.full((b, v), -1, dtype=np.int64)
    for i in range(b):
        keep = set(range(v))
        if top_k is not None:
            keep = set()
            for p in range(prompt_len, s):
                keep.update(np.argsort(-probs[i, p], kind="stable")[:top_k].tolist())
        for w in keep:
            column = probs[i, prompt_len:, w]
            first = int(np.argmax(column))
            features[i, w] = column[first]
            routing[i, w] = prompt_len + first
    return features, routing


def descent_step(logits, probs, state: MaskState, routing, upstream, step: float):
    """logits - step * (gradient of sum_i upstream_i . features_i), row by row."""
    out = np.array(logits, dtype=np.float64)
    b, s, v = probs.shape
    for i in range(b):
        for p in range(s):
            if not state.masked[i, p]:
                continue  # one-hot rows are constants
            cols = [w for w in range(v) if routing[i, w] == p and upstream[i, w] != 0.0]
            if not cols:
                continue
            u = np.zeros(v)
            u[cols] = upstream[i, cols]
            out[i, p] -= step * softmax_vjp_row(probs[i, p], u)
    return out


# ---- the two guidances -----------------------------------------------------

def odd_upstream(features, qualities, tolerance: float):
    """(upstream, basis): -q_i * r_i / |r_i| per sample after the first,
    r_i the residual against the basis of the samples before it."""
    upstream = np.zeros(features.shape)
    basis = OrthoBasis([features[0] / np.linalg.norm(features[0])], tolerance)
    for i in range(1, features.shape[0]):
        residual = features[i] - project_onto_basis(basis, features[i])
        norm = np.linalg.norm(residual)
        if norm > tolerance:
            upstream[i] = -qualities[i] * (residual / norm)
        basis = extend_basis(basis, features[i])
    return upstream, basis


def spd_inverse(m):
    """Inverse of a symmetric positive definite matrix by Cholesky, input
    and result symmetrized (the library's rounding convention)."""
    a = 0.5 * (m + m.T)
    inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def dpp_upstream(features, qualities, eps: float):
    """Gradient of -log det(L + eps I) / det(L + (1 + eps) I) with respect to
    the features, qualities held constant."""
    norms = np.linalg.norm(features, axis=1)
    normed = features / norms[:, None]
    weights = np.outer(qualities, qualities)
    kernel = (normed @ normed.T) * weights
    eye = np.eye(kernel.shape[0])
    grad_kernel = -(spd_inverse(kernel + eps * eye) - spd_inverse(kernel + (1.0 + eps) * eye))
    grad_normed = 2.0 * (grad_kernel * weights) @ normed
    radial = np.sum(grad_normed * normed, axis=1, keepdims=True)
    return (grad_normed - radial * normed) / norms[:, None]


def guided_step(logits, state: MaskState, guidance: str, alpha: float, t: int,
                total_steps=None, anneal="factor", tolerance=1e-8, jitter=1e-3,
                top_k=None):
    """odd_step or dpp_step: one descent step on the guidance loss."""
    x = np.asarray(logits, dtype=np.float64)
    alpha_t = anneal_alpha(alpha, t, anneal, total_steps)
    if alpha_t == 0.0 or (guidance == "odd" and x.shape[0] == 1):
        return x.copy()
    probs, qualities = unified_distribution(x, state)
    features, routing = pooled_features(probs, state.prompt_len, top_k)
    if guidance == "odd":
        upstream, _ = odd_upstream(features, qualities, tolerance)
    else:
        upstream = dpp_upstream(features, qualities, jitter)
    return descent_step(x, probs, state, routing, upstream, alpha_t)


# ---- sampling and one full step ---------------------------------------------

def sample_tokens(logits, temperature: float, state: MaskState, seed: int, step: int):
    """(proposals, confidences) at the masked positions; -1 / -inf elsewhere."""
    b, s, v = logits.shape
    proposals = np.full((b, s), -1, dtype=np.int64)
    confidences = np.full((b, s), -np.inf)
    for i in range(b):
        if temperature > 0.0:
            uniforms = sample_stream(seed, i, step).random(s)
        for p in range(s):
            if not state.masked[i, p]:
                continue
            if temperature == 0.0:
                proposals[i, p] = int(np.argmax(logits[i, p]))
                confidences[i, p] = 1.0
                continue
            probs = softmax_row(logits[i, p] / temperature)
            drawn = min(int(np.count_nonzero(np.cumsum(probs) < uniforms[p])), v - 1)
            proposals[i, p] = drawn
            confidences[i, p] = probs[drawn]
    return proposals, confidences


def denoise_step(model, state: MaskState, t: int, config, schedule) -> MaskState:
    """Predict, guide, sample, and commit each sample's most confident masked
    positions (ties to the lowest position)."""
    logits = np.asarray(model.predict(state, t), dtype=np.float64)
    if config.guidance != "none":
        logits = guided_step(logits, state, config.guidance, config.alpha,
                             schedule.steps - t, config.steps, config.anneal,
                             config.tolerance, config.jitter, config.feature_top_k)
    proposals, confidences = sample_tokens(logits, config.temperature, state, config.seed, t)
    out = state.copy()
    for i in range(state.batch):
        masked = np.flatnonzero(state.masked[i]).tolist()
        ranked = sorted(masked, key=lambda p: (-confidences[i, p], p))
        for p in ranked[: schedule.unmask_counts[t]]:
            out.realized[i, p] = proposals[i, p]
            out.masked[i, p] = False
    return out


# ---- the bigram denoiser -----------------------------------------------------

def bigram_predict(model, state: MaskState) -> np.ndarray:
    """BigramDenoiser.predict: per position, the mean of the left neighbor's
    forward row and the right neighbor's reverse row, the unigram standing
    in for a masked or absent neighbor."""
    b, s = state.batch, state.length
    probs = np.empty((b, s, model.vocab), dtype=np.float64)
    for i in range(b):
        left = np.tile(model.unigram, (s, 1))
        right = np.tile(model.unigram, (s, 1))
        for pos in range(s):
            if pos > 0 and not state.masked[i, pos - 1]:
                left[pos] = model.forward[state.realized[i, pos - 1]]
            if pos + 1 < s and not state.masked[i, pos + 1]:
                right[pos] = model.reverse[state.realized[i, pos + 1]]
        probs[i] = 0.5 * (left + right)
    return np.log(probs)


# ---- pairwise diversity ------------------------------------------------------

def pairwise_diversity(items) -> float:
    """harness.pairwise_diversity: the mean over unordered pairs of one minus
    the cosine similarity of normalized rows (vocabulary histograms for
    token sequences), each term clipped to [0, 2]."""
    rows = [np.asarray(item) for item in items]
    if rows[0].dtype.kind in "iu":
        width = int(max(r.max() for r in rows)) + 1
        rows = [np.bincount(r, minlength=width).astype(np.float64) for r in rows]
    else:
        rows = [r.astype(np.float64) for r in rows]
    normed = []
    for r in rows:
        norm = np.linalg.norm(r)
        normed.append(r / norm if norm > 0 else r)
    total, pairs = 0.0, 0
    for i in range(len(normed)):
        for j in range(i + 1, len(normed)):
            term = 1.0 - float(np.dot(normed[i], normed[j]))
            total += min(2.0, max(0.0, term))
            pairs += 1
    return total / pairs


# ---- answer checking ----------------------------------------------------------

def check_answer(task, output) -> bool:
    """models.check_answer of one sequence: equal to a correct template."""
    seq = np.asarray(output, dtype=np.int64)
    return any(np.array_equal(seq, task.templates[c]) for c in task.correct)


# ---- central differences, one entry at a time -----------------------------

def central_differences(objective, logits, h: float) -> np.ndarray:
    """Central differences of the scalar objective(x) over every entry of
    x, a copy of logits. Each entry is moved by +h and -h in turn, then
    restored."""
    x = np.array(logits, dtype=np.float64)
    flat = x.reshape(-1)  # a view: x is a fresh C-ordered copy
    grad = np.zeros(flat.size)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        fp = objective(x)
        flat[idx] = orig - h
        fm = objective(x)
        flat[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)


def lone_features(x, state: MaskState) -> np.ndarray:
    return extract_features(library_unified_distribution(x, state)).features


def fd_feature_gradient(logits, state: MaskState, upstream, h: float) -> np.ndarray:
    """gradcheck.fd_feature_gradient, one lone forward pass per value."""
    u = np.asarray(upstream, dtype=np.float64)
    return central_differences(lambda x: float(np.sum(u * lone_features(x, state))), logits, h)


def fd_odd_gradient(logits, state: MaskState, tolerance: float, h: float) -> np.ndarray:
    """gradcheck.fd_odd_gradient, one lone forward pass per value."""
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities[1:].copy()
    targets = np.asarray(frozen_odd_targets(fs0, tolerance)).reshape(-1, state.vocab)

    def objective(x):
        residuals = lone_features(x, state)[1:] - targets
        return float(-np.dot(q0, np.linalg.norm(residuals, axis=1)))

    return central_differences(objective, logits, h)


def fd_dpp_gradient(logits, state: MaskState, eps: float, h: float) -> np.ndarray:
    """gradcheck.fd_dpp_gradient, one lone forward pass per value."""
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities.copy()

    def objective(x):
        return dpp_loss(_kernels(lone_features(x, state)[None], q0[None])[0][0], eps)

    return central_differences(objective, logits, h)
