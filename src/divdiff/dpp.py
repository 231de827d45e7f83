"""Joint batch-diversity guidance through a determinantal kernel.

Features are L2-normalized per sample, combined into a Gram matrix, and
weighted by the quality outer product. The loss is the negative log-det
ratio of the jittered kernel; its analytic gradient flows through the
kernel, the normalization, and the feature extractor back to the masked
logits. Unlike the sequential guidance, every sample's update depends on
the whole batch; stacked batches share one kernel stack, bit for bit as
alone. dpp_step reads its knobs from the already-checked GenerationConfig.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .engine import GenerationConfig
from .errors import DegenerateInputError, FactorizationError, InvalidInputError, NumericalError
from .features import FeatureSet, backprop_to_logits, feature_set, group_rows
from .odd import anneal_alpha
from .state import MaskState


def _kernels(features: np.ndarray, qualities: np.ndarray):
    """(L-ensembles, normalized features, norms, quality outer products) of
    (G, B, V) features and (G, B) qualities: one kernel per stacked batch."""
    norms = np.linalg.norm(features, axis=-1)
    if np.any(norms <= 0):
        raise DegenerateInputError("build_l_ensemble: zero-norm feature vector")
    normed = features / norms[..., None]
    weights = qualities[:, :, None] * qualities[:, None, :]
    return (normed @ normed.swapaxes(1, 2)) * weights, normed, norms, weights


def build_l_ensemble(fs: FeatureSet) -> np.ndarray:
    """Quality-weighted similarity kernel of the normalized batch features."""
    return _kernels(fs.features[None], fs.qualities[None])[0][0]


def _with_retry(factorize, m: np.ndarray, eps: float):
    """factorize(m) of a matrix or a (..., n, n) stack. When a stack fails,
    each matrix retries alone, so only a failing matrix gets the one bounded
    recovery attempt: 10*eps of extra jitter, then a NumericalError."""
    try:
        return factorize(m)
    except FactorizationError:
        if m.ndim > 2:
            return np.stack([_with_retry(factorize, one, eps) for one in m])
    try:
        return factorize(m + 10.0 * eps * np.eye(m.shape[-1]))
    except FactorizationError as exc:
        raise NumericalError(f"factorization failed after jitter retry: {exc}") from exc


def dpp_loss(l_matrix, eps: float):
    """Negative log-likelihood of batch diversity under the L-ensemble: a
    float for one kernel, an array for a (..., B, B) stack of kernels.

    Lower loss means a larger volume spanned by the batch features.
    """
    a = np.asarray(l_matrix, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError("dpp_loss: expected a square kernel matrix or a stack of them")
    if eps <= 0:
        raise InvalidInputError("dpp_loss: eps must be > 0")
    eye = np.eye(a.shape[-1])
    first = _with_retry(linalg.cholesky_logdet, a + eps * eye, eps)
    second = _with_retry(linalg.cholesky_logdet, a + (1.0 + eps) * eye, eps)
    return -(first - second)


def _stacked_feature_grad(fs: FeatureSet, groups: int, eps: float) -> np.ndarray:
    """(G·B, V) gradient of each of `groups` stacked batches' DPP loss with
    respect to its own features; its temporaries are freed on return."""
    b = fs.features.shape[0] // groups
    l_matrix, normed, norms, weights = _kernels(fs.features.reshape(groups, b, -1),
                                                fs.qualities.reshape(groups, b))
    jittered = np.concatenate([l_matrix + eps * np.eye(b), l_matrix + (1.0 + eps) * np.eye(b)])
    inv = _with_retry(linalg.spd_inverse, jittered, eps)
    grad_normed = 2.0 * (-(inv[:groups] - inv[groups:]) * weights) @ normed
    radial = np.sum(grad_normed * normed, axis=-1, keepdims=True)
    return ((grad_normed - radial * normed) / norms[..., None]).reshape(groups * b, -1)


def dpp_grad_logits(logits, state: MaskState, eps: float, top_k: int | None,
                    step: float, groups: int = 1) -> np.ndarray:
    """Descent step logits - step * (analytic gradient of the DPP loss).

    Quality scores are treated as constants, matching the sequential
    guidance; one-hot rows stay constants inside the feature extractor.
    The gradient reads off the step at step 1 (see backprop_to_logits).
    groups equal batches stacked in the rows each get their own kernel;
    the features and the backprop run once over all rows.
    """
    x = np.asarray(logits, dtype=np.float64)
    group_rows(x.shape[0], groups, "dpp_grad_logits")
    fs, ud = feature_set(x, state, top_k=top_k)
    return backprop_to_logits(_stacked_feature_grad(fs, groups, eps), fs, ud, logits=x, step=step)


def dpp_step(logits, state: MaskState, config: GenerationConfig, t: int,
             groups: int = 1) -> np.ndarray:
    """One joint update at t remaining steps: X - alpha_t * grad of the DPP
    loss, coupling samples only inside each of `groups` stacked batches."""
    x = np.asarray(logits, dtype=np.float64)
    group_rows(x.shape[0], groups, "dpp_step")
    alpha_t = anneal_alpha(config.alpha, t, config.anneal, config.steps)
    if alpha_t == 0.0:
        return x.copy()
    return dpp_grad_logits(x, state, config.jitter, top_k=config.feature_top_k, step=alpha_t,
                           groups=groups)
