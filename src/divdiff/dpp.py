"""Joint batch-diversity guidance through a determinantal kernel.

Features are L2-normalized per sample, combined into a Gram matrix, and
weighted by the quality outer product. The loss is the negative log-det
ratio of the jittered kernel; its analytic gradient flows through the
kernel, the normalization, and the feature extractor back to the masked
logits. Unlike the sequential guidance, every sample's update depends on
the whole batch. dpp_step reads its knobs from the already-checked
GenerationConfig.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .engine import GenerationConfig
from .errors import (
    DegenerateInputError,
    FactorizationError,
    InvalidInputError,
    NumericalError,
)
from .features import FeatureSet, backprop_to_logits, feature_set, group_rows, per_group
from .odd import anneal_alpha
from .state import MaskState


def _kernel(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L-ensemble, L2-normalized features, feature norms) of a feature set."""
    v = fs.features
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms <= 0):
        raise DegenerateInputError("build_l_ensemble: zero-norm feature vector")
    normed = v / norms[:, None]
    gram = normed @ normed.T
    return gram * np.outer(fs.qualities, fs.qualities), normed, norms


def build_l_ensemble(fs: FeatureSet) -> np.ndarray:
    """Quality-weighted similarity kernel of the normalized batch features."""
    return _kernel(fs)[0]


def _with_retry(factorize, m: np.ndarray, eps: float):
    """factorize(m), with one bounded recovery attempt: add 10*eps of extra
    jitter, then give up with a NumericalError."""
    try:
        return factorize(m)
    except FactorizationError:
        pass
    try:
        return factorize(m + 10.0 * eps * np.eye(m.shape[0]))
    except FactorizationError as exc:
        raise NumericalError(f"factorization failed after jitter retry: {exc}") from exc


def dpp_loss(l_matrix, eps: float) -> float:
    """Negative log-likelihood of batch diversity under the L-ensemble.

    Lower loss means a larger volume spanned by the batch features.
    """
    a = np.asarray(l_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("dpp_loss: expected a square kernel matrix")
    if eps <= 0:
        raise InvalidInputError("dpp_loss: eps must be > 0")
    eye = np.eye(a.shape[0])
    first = _with_retry(linalg.cholesky_logdet, a + eps * eye, eps)
    second = _with_retry(linalg.cholesky_logdet, a + (1.0 + eps) * eye, eps)
    return float(-(first - second))


def _feature_grad(fs: FeatureSet, eps: float) -> np.ndarray:
    """(B, V) gradient of one batch's DPP loss with respect to its features."""
    l_matrix, normed, norms = _kernel(fs)
    q = fs.qualities
    eye = np.eye(l_matrix.shape[0])
    grad_l = -(
        _with_retry(linalg.spd_inverse, l_matrix + eps * eye, eps)
        - _with_retry(linalg.spd_inverse, l_matrix + (1.0 + eps) * eye, eps)
    )
    grad_gram = grad_l * np.outer(q, q)
    grad_normed = 2.0 * grad_gram @ normed
    radial = np.sum(grad_normed * normed, axis=1, keepdims=True)
    return (grad_normed - radial * normed) / norms[:, None]


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
    grad_features = per_group(lambda group: _feature_grad(group, eps), fs, groups)
    return backprop_to_logits(grad_features, fs, ud, logits=x, step=step)


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
