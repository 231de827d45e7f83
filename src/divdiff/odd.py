"""Sequential orthogonal-repulsion guidance.

Sample 1 seeds an orthonormal basis with its (detached) feature direction.
Every later sample i is scored by the norm of its feature residual against
the basis built from samples 1..i-1, weighted by its quality score, and
its masked logits are pushed along the gradient that grows that residual.
The basis and projections are constants under differentiation, so sample
i's update depends only on samples 1..i: prefixes agree across batch
sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .features import FeatureSet, backprop_to_logits, feature_set
from .state import MaskState


@dataclass
class OrthoBasis:
    """Ordered list of mutually orthonormal history directions."""

    vectors: list[np.ndarray] = field(default_factory=list)
    tolerance: float = 1e-8

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class OddParams:
    alpha: float
    tolerance: float = 1e-8
    anneal: str = "factor"

    def __post_init__(self):
        for name in ("alpha", "tolerance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"OddParams: {name} must be finite, got {value}")
        if self.alpha < 0:
            raise InvalidInputError("OddParams: alpha must be >= 0")
        if self.tolerance <= 0:
            raise InvalidInputError("OddParams: tolerance must be > 0")


def project_onto_basis(basis: OrthoBasis, v) -> np.ndarray:
    """Projection of v onto the span of the basis (zero for an empty basis)."""
    x = np.asarray(v, dtype=np.float64)
    if not basis.vectors:
        return np.zeros_like(x)
    stacked = np.asarray(basis.vectors)
    if stacked.shape[1:] != x.shape:
        raise InvalidInputError("project_onto_basis: length mismatch")
    return _project(stacked, x)


def _project(stacked: np.ndarray, x: np.ndarray) -> np.ndarray:
    return stacked.T @ (stacked @ x)


def extend_basis(basis: OrthoBasis, v) -> OrthoBasis:
    """Append the normalized residual of v, or return the basis unchanged.

    A second orthogonalization pass keeps the basis numerically orthonormal
    when the residual is small relative to v.
    """
    x = np.asarray(v, dtype=np.float64)
    r = x - project_onto_basis(basis, x)
    if np.linalg.norm(r) <= basis.tolerance:
        return basis
    stacked = np.asarray(basis.vectors, dtype=np.float64).reshape(len(basis), x.size)
    direction = _new_direction(stacked, r, basis.tolerance)
    if direction is None:
        return basis
    return OrthoBasis(vectors=basis.vectors + [direction], tolerance=basis.tolerance)


def _new_direction(stacked: np.ndarray, residual: np.ndarray,
                   tolerance: float) -> np.ndarray | None:
    """The basis vector a first-pass residual adds, or None.

    Orthogonalizes the residual against the stacked basis once more and
    normalizes it; None when that second residual is within tolerance.
    """
    r = residual - _project(stacked, residual)
    norm = np.linalg.norm(r)
    if norm <= tolerance:
        return None
    return r / norm


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
    """Quality-weighted orthogonal-residual losses over the batch.

    Returns (losses, directions, basis): losses[j] and directions[j]
    belong to sample j + 2 (sample 1 only seeds the basis, so both lists
    are empty for a batch of one). A residual at or below the tolerance
    yields loss 0 and direction None, and does not extend the basis.
    Each sample is projected once: its residual is also the first pass
    of extend_basis, whose second pass (_new_direction) then fills the
    rows of one preallocated (B, V) basis array.
    """
    v = np.asarray(fs.features, dtype=np.float64)
    q = fs.qualities
    if v.ndim != 2 or v.shape[0] < 1:
        raise InvalidInputError("odd_losses: expected (B, V) features with B >= 1")
    if q is None or q.shape != (v.shape[0],):
        raise InvalidInputError("odd_losses: feature set is missing quality scores")
    first_norm = np.linalg.norm(v[0])
    if first_norm <= tolerance:
        raise DegenerateInputError("odd_losses: first feature vector is numerically zero")
    vectors = np.empty(v.shape)
    vectors[0] = v[0] / first_norm
    rank = 1
    losses: list[float] = []
    directions: list[np.ndarray | None] = []
    for i in range(1, v.shape[0]):
        residual = v[i] - _project(vectors[:rank], v[i])
        norm = np.linalg.norm(residual)
        if norm <= tolerance:
            losses.append(0.0)
            directions.append(None)
            continue
        losses.append(float(-q[i] * norm))
        directions.append(residual / norm)
        direction = _new_direction(vectors[:rank], residual, tolerance)
        if direction is not None:
            vectors[rank] = direction
            rank += 1
    return losses, directions, OrthoBasis(vectors=list(vectors[:rank]), tolerance=tolerance)


def odd_step(logits, state: MaskState, params: OddParams, t: int,
             total_steps: int | None = None, top_k: int | None = None) -> np.ndarray:
    """One guidance update: X - alpha_t * grad of the summed residual loss.

    Sample 1 and any zero-residual sample come back bit-identical; sample
    i's output depends only on samples 1..i.
    """
    x = np.asarray(logits, dtype=np.float64)
    alpha_t = anneal_alpha(params.alpha, t, params.anneal, total_steps)
    if alpha_t == 0.0 or x.shape[0] == 1:
        return x.copy()
    fs, ud = feature_set(x, state, top_k=top_k)
    _, directions, _ = odd_losses(fs, params.tolerance)
    upstream = np.zeros_like(fs.features)
    for i, direction in enumerate(directions, start=1):
        if direction is not None:
            upstream[i] = -fs.qualities[i] * direction
    return backprop_to_logits(upstream, fs, ud, logits=x, step=alpha_t)
