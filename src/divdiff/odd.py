"""Sequential orthogonal-repulsion guidance.

Sample 1 seeds an orthonormal basis with its (detached) feature direction.
Every later sample i is scored by the norm of its feature residual against
the basis built from samples 1..i-1, weighted by its quality score, and
its masked logits are pushed along the gradient that grows that residual.
The basis is one (rank, V) array of orthonormal rows, filled in sample
order by Gram-Schmidt with a second orthogonalization pass, and
project_onto_basis is the one projection onto it (exact repeats skip it).
The basis and projections are constants under differentiation, so sample
i's update depends only on samples 1..i: prefixes agree across batch sizes.
odd_step reads its knobs from the already-checked GenerationConfig.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import GenerationConfig
from .errors import DegenerateInputError, InvalidInputError
from .features import FeatureSet, backprop_to_logits, feature_set, group_rows
from .state import MaskState


def project_onto_basis(basis, v) -> np.ndarray:
    """Projection of v onto the span of the orthonormal rows of a (rank, V)
    basis; a rank-0 basis projects to zero."""
    stacked = np.asarray(basis, dtype=np.float64)
    x = np.asarray(v, dtype=np.float64)
    if stacked.ndim != 2 or stacked.shape[1:] != x.shape:
        raise InvalidInputError("project_onto_basis: length mismatch")
    return stacked.T @ (stacked @ x)


def anneal_alpha(alpha: float, t: int, mode: str = "factor",
                 total_steps: int | None = None) -> float:
    """Step size for t remaining steps (t counts down from total_steps to 1).

    "factor" applies (1 - 1/t), so the final step is unguided; "linear"
    ramps as (t - 1) / (total_steps - 1); "off" returns alpha unchanged.
    """
    if t < 1:
        raise InvalidInputError(f"anneal_alpha: remaining steps must be >= 1, got {t}")
    if mode == "off":
        return float(alpha)
    if mode == "factor":
        return float((1.0 - 1.0 / t) * alpha)
    if mode == "linear":
        if total_steps is None or total_steps < 1:
            raise InvalidInputError("anneal_alpha: linear mode needs total_steps >= 1")
        if total_steps == 1:
            return 0.0
        return float(alpha * (t - 1) / (total_steps - 1))
    raise InvalidInputError(f"anneal_alpha: unknown mode {mode!r}")


def odd_losses(fs: FeatureSet, tolerance: float):
    """Feature gradient of the quality-weighted orthogonal-residual loss.

    Sample i > 1 has loss -q_i * |r_i|, where r_i is the residual of its
    features against the basis of samples 1..i-1. Returns (upstream,
    directions, basis). upstream is the (B, V) gradient of the summed loss
    with respect to the features: row i is -q_i * r_i / |r_i|, row 0 is
    zero. directions[j] = r_i / |r_i| belongs to sample i = j + 2 (the list
    is empty for a batch of one). A residual at or below the tolerance
    gives direction None and a zero upstream row, and does not extend the
    basis; so does a bit-for-bit repeat of an earlier row, at any tolerance.
    basis is the (rank, V) array of orthonormal rows. Each distinct row is
    projected once; its residual is the first Gram-Schmidt pass. The second
    pass projects that residual once more, and what is left, normalized,
    fills the next basis row unless it is within tolerance.
    """
    v = np.asarray(fs.features, dtype=np.float64)
    q = fs.qualities
    if v.ndim != 2 or v.shape[0] < 1:
        raise InvalidInputError("odd_losses: expected (B, V) features with B >= 1")
    if q.shape != (v.shape[0],):
        raise InvalidInputError(f"odd_losses: qualities {q.shape} != ({v.shape[0]},)")
    first_norm = math.sqrt(v[0] @ v[0])
    if first_norm <= tolerance:
        raise DegenerateInputError("odd_losses: first feature vector is numerically zero")
    basis = np.empty(v.shape)
    basis[0] = v[0] / first_norm
    rank = 1
    upstream = np.zeros(v.shape)
    directions: list[np.ndarray | None] = []
    seen = {v[0].tobytes()}
    for i in range(1, v.shape[0]):
        key = v[i].tobytes()
        if key in seen:
            directions.append(None)
            continue
        seen.add(key)
        residual = v[i] - project_onto_basis(basis[:rank], v[i])
        norm = math.sqrt(residual @ residual)
        if norm <= tolerance:
            directions.append(None)
            continue
        direction = residual / norm
        directions.append(direction)
        upstream[i] = -q[i] * direction
        second = residual - project_onto_basis(basis[:rank], residual)
        second_norm = math.sqrt(second @ second)
        if second_norm > tolerance:
            basis[rank] = second / second_norm
            rank += 1
    return upstream, directions, basis[:rank]


def odd_step(logits, state: MaskState, config: GenerationConfig, t: int,
             groups: int = 1) -> np.ndarray:
    """One update at t remaining steps: X - alpha_t * grad of the summed loss.

    Sample 1 and any zero-residual sample come back bit-identical; sample
    i's output depends only on samples 1..i. groups equal batches stacked
    in the rows (see engine.run_generation's seeds) each get their own
    basis, so each comes back as its lone step would; the features and the
    backprop run once over all rows (the backprop only if a sample moves).
    """
    x = np.asarray(logits, dtype=np.float64)
    batch = group_rows(x.shape[0], groups, "odd_step")
    alpha_t = anneal_alpha(config.alpha, t, config.anneal, config.steps)
    if alpha_t == 0.0 or batch == 1:
        return x.copy()
    fs, ud = feature_set(x, state, top_k=config.feature_top_k)
    upstream = np.concatenate([
        odd_losses(FeatureSet(fs.features[i:i + batch], fs.routing[i:i + batch],
                              fs.qualities[i:i + batch]), config.tolerance)[0]
        for i in range(0, x.shape[0], batch)
    ])
    if not upstream.any():  # the backprop would subtract +0.0 everywhere
        return x.copy()
    return backprop_to_logits(upstream, fs, ud, logits=x, step=alpha_t)
