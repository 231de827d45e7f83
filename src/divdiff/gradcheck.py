"""Finite-difference validation of every analytic gradient path.

The oracles only ever evaluate forward passes: feature extraction, the
orthogonal-residual objective with its projection targets and quality
weights frozen at the base point (they are constants under the published
stop-gradient semantics), and the joint determinantal objective with
quality frozen. Instances where a max-pool column has two positions
within 1e-6 of the top value are excluded (subgradient ambiguity), as are
near-zero residuals for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpp import build_l_ensemble, dpp_grad_logits, dpp_loss
from .engine import GenerationConfig
from .features import (
    FeatureSet,
    backprop_to_logits,
    extract_features,
    feature_set,
    unified_distribution,
)
from .odd import odd_losses, odd_step, project_onto_basis
from .state import MaskState, mask_token

MASKED_FRACTIONS = (0.25, 0.5, 1.0)
DEFAULT_STEP = 1e-4
DEFAULT_TOLERANCE = 1e-5
_REL_FLOOR = 1e-6


@dataclass
class SuiteResult:
    name: str
    instances: int
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(), np.abs(numeric).max())
    if scale <= _REL_FLOOR:
        # both gradients vanish; central differences only resolve their own
        # truncation noise down here
        return 0.0
    return float(np.abs(analytic - numeric).max() / scale)


def random_instance(rng, max_batch: int = 4, max_length: int = 6, max_vocab: int = 10,
                    min_batch: int = 1):
    """Random logits plus a mask state with one of the stock masked fractions."""
    b = int(rng.integers(min_batch, max_batch + 1))
    s = int(rng.integers(2, max_length + 1))
    v = int(rng.integers(3, max_vocab + 1))
    fraction = MASKED_FRACTIONS[int(rng.integers(len(MASKED_FRACTIONS)))]
    masked = rng.random((b, s)) < fraction
    realized = rng.integers(0, v, size=(b, s)).astype(np.int64)
    realized[masked] = mask_token(v)
    state = MaskState(masked, realized, v)
    logits = rng.normal(0.0, 1.5, size=(b, s, v))
    return logits, state


def has_pool_tie(logits, state: MaskState, gap: float = 1e-6) -> bool:
    """True when some vocabulary entry's max is attained twice within gap."""
    ud = unified_distribution(logits, state)
    rows = ud.probs[:, ud.prompt_len:]  # the rows extract_features pools
    if rows.shape[1] < 2:
        return False
    top2 = np.partition(rows, rows.shape[1] - 2, axis=1)[:, -2:]
    return bool(np.any(top2[:, 1] - top2[:, 0] <= gap))


def _central_differences(objective, logits, block=...,
                         h: float = DEFAULT_STEP) -> np.ndarray:
    """Central differences of the scalar objective(x) over the entries of
    x[block], a copy of logits; block is a sample index or the whole array.
    Each entry is moved by +h and -h in turn, then restored."""
    x = np.array(logits, dtype=np.float64)
    flat = x[block].reshape(-1)  # a view: x is a fresh C-ordered copy
    grad = np.zeros(flat.size)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        fp = objective(x)
        flat[idx] = orig - h
        fm = objective(x)
        flat[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad.reshape(x[block].shape)


def fd_feature_gradient(logits, state: MaskState, upstream, h: float = DEFAULT_STEP):
    """FD gradient of sum_i upstream_i . features_i(logits)."""
    u = np.asarray(upstream, dtype=np.float64)

    def objective(x, sample):
        fs = extract_features(unified_distribution(x, state))
        return float(np.dot(u[sample], fs.features[sample]))

    grad = np.zeros_like(np.asarray(logits, dtype=np.float64))
    for i in range(state.batch):
        grad[i] = _central_differences(lambda x: objective(x, i), logits, i, h)
    return grad


def frozen_odd_targets(fs0: FeatureSet, tolerance: float):
    """Projection targets for samples 2..B against the detached history:
    sample i's features projected onto the basis odd_losses builds from
    samples 1..i-1."""
    targets = []
    for i in range(1, fs0.features.shape[0]):
        prefix = FeatureSet(fs0.features[:i], fs0.routing[:i], fs0.qualities[:i])
        _, _, basis = odd_losses(prefix, tolerance)
        targets.append(project_onto_basis(basis, fs0.features[i]))
    return targets


def fd_odd_gradient(logits, state: MaskState, tolerance: float,
                    h: float = DEFAULT_STEP) -> np.ndarray:
    """FD gradient of the summed residual loss with frozen targets/qualities."""
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities.copy()
    targets = frozen_odd_targets(fs0, tolerance)

    def objective(x, sample):
        fs = extract_features(unified_distribution(x, state))
        residual = fs.features[sample] - targets[sample - 1]
        return float(-q0[sample] * np.linalg.norm(residual))

    grad = np.zeros_like(np.asarray(logits, dtype=np.float64))
    for i in range(1, state.batch):
        grad[i] = _central_differences(lambda x: objective(x, i), logits, i, h)
    return grad


def fd_dpp_gradient(logits, state: MaskState, eps: float,
                    h: float = DEFAULT_STEP) -> np.ndarray:
    """FD gradient of the joint determinantal loss with frozen qualities."""
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities.copy()

    def objective(x):
        fs = extract_features(unified_distribution(x, state))
        return dpp_loss(build_l_ensemble(FeatureSet(fs.features, fs.routing, q0)), eps)

    return _central_differences(objective, logits, h=h)


def _min_residual(logits, state: MaskState, tolerance: float) -> float:
    fs, _ = feature_set(logits, state)
    targets = frozen_odd_targets(fs, tolerance)
    norms = [
        np.linalg.norm(fs.features[i] - targets[i - 1])
        for i in range(1, state.batch)
    ]
    return min(norms) if norms else np.inf


def _draw_instance(rng, min_batch, predicate):
    while True:
        logits, state = random_instance(rng, min_batch=min_batch)
        if not has_pool_tie(logits, state) and predicate(logits, state):
            return logits, state


def run_feature_suite(instances: int = 200, seed: int = 0,
                      h: float = DEFAULT_STEP,
                      tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        logits, state = _draw_instance(rng, 1, lambda *_: True)
        upstream = rng.normal(0.0, 1.0, size=(state.batch, state.vocab))
        fs, ud = feature_set(logits, state)
        analytic = backprop_to_logits(upstream, fs, ud)
        numeric = fd_feature_gradient(logits, state, upstream, h)
        worst = max(worst, relative_error(analytic, numeric))
    return SuiteResult("feature-backprop", instances, worst, tolerance)


def run_odd_suite(instances: int = 120, seed: int = 1,
                  h: float = DEFAULT_STEP,
                  tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    rng = np.random.default_rng(seed)
    fd_tol = 1e-8
    config = GenerationConfig(alpha=1.0, tolerance=fd_tol, anneal="off")
    worst = 0.0
    for _ in range(instances):
        logits, state = _draw_instance(
            rng, 2, lambda lg, st: _min_residual(lg, st, fd_tol) > 1e-3
        )
        analytic = np.asarray(logits, dtype=np.float64) - odd_step(logits, state, config, t=1)
        numeric = fd_odd_gradient(logits, state, fd_tol, h)
        worst = max(worst, relative_error(analytic, numeric))
    return SuiteResult("orthogonal-residual", instances, worst, tolerance)


def run_dpp_suite(instances: int = 120, seed: int = 2, eps: float = 1e-3,
                  h: float = DEFAULT_STEP,
                  tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        logits, state = _draw_instance(rng, 1, lambda *_: True)
        analytic = dpp_grad_logits(logits, state, eps)
        numeric = fd_dpp_gradient(logits, state, eps, h)
        worst = max(worst, relative_error(analytic, numeric))
    return SuiteResult("determinantal", instances, worst, tolerance)


def run_all_suites(instances: int = 120, seed: int = 0) -> list[SuiteResult]:
    return [
        run_feature_suite(instances, seed),
        run_odd_suite(instances, seed + 1),
        run_dpp_suite(instances, seed + 2),
    ]
