"""Finite-difference validation of every analytic gradient path.

The guidance only ever applies its gradients as a descent step, so every
analytic gradient is read off that step at step size 1: logits minus the
stepped logits. The oracles only ever evaluate forward passes: feature
extraction, the orthogonal-residual objective with its projection targets and
quality weights frozen at the base point (they are constants under the
published stop-gradient semantics), and the joint determinantal objective with
quality frozen. Each scores all 2n perturbed copies of n logits as stacks of
bounded size, and each copy's value has the bits of its lone forward pass.
Random instances carry an unmasked prompt of 0 to S-2 positions. Instances
where a max-pool column has two positions within 1e-6 of the top value are
excluded (subgradient ambiguity), as are near-zero residuals for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpp import _kernels, dpp_loss, dpp_step
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
_BLOCK_ENTRIES = 1 << 17  # most logits entries (copies times copy size) scored at once


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
    """Random logits plus a mask state with one of the stock masked
    fractions and an unmasked prompt of 0 to S-2 positions."""
    b = int(rng.integers(min_batch, max_batch + 1))
    s = int(rng.integers(2, max_length + 1))
    v = int(rng.integers(3, max_vocab + 1))
    prompt_len = int(rng.integers(0, s - 1))
    fraction = MASKED_FRACTIONS[int(rng.integers(len(MASKED_FRACTIONS)))]
    masked = rng.random((b, s)) < fraction
    masked[:, :prompt_len] = False
    realized = rng.integers(0, v, size=(b, s)).astype(np.int64)
    realized[masked] = mask_token(v)
    state = MaskState(masked, realized, v, prompt_len=prompt_len)
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


def _central_differences(objective, logits, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central differences over every entry k of logits: copies 2k and 2k + 1
    move it by +h and -h, and objective scores an (N, *logits.shape) stack
    of copies as N values, _BLOCK_ENTRIES logits entries (or one copy) at most."""
    x = np.asarray(logits, dtype=np.float64)
    values = np.empty(2 * x.size)
    per_block = max(1, _BLOCK_ENTRIES // x.size)
    for start in range(0, values.size, per_block):
        copy = np.arange(start, min(start + per_block, values.size))
        copies = np.tile(x.ravel(), (copy.size, 1))
        copies[np.arange(copy.size), copy // 2] += np.where(copy % 2, -h, h)
        values[copy] = objective(copies.reshape(copy.size, *x.shape))
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(x.shape)


def _features(x, state: MaskState) -> np.ndarray:
    """(N, B, V) features of an (N, B, S, V) stack of logits for one state."""
    tiled = MaskState(np.tile(state.masked, (len(x), 1)), np.tile(state.realized, (len(x), 1)),
                      state.vocab, prompt_len=state.prompt_len)
    fs = extract_features(unified_distribution(x.reshape(-1, *x.shape[2:]), tiled))
    return fs.features.reshape(x.shape[:2] + (state.vocab,))


def fd_feature_gradient(logits, state: MaskState, upstream, h: float = DEFAULT_STEP):
    """FD gradient of sum_i upstream_i . features_i(logits)."""
    u = np.asarray(upstream, dtype=np.float64)
    return _central_differences(lambda x: np.sum(u * _features(x, state), axis=(1, 2)), logits, h)


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
    """FD gradient of the summed residual loss with frozen targets/qualities.

    Sample 1 seeds the basis and has no loss term, so its rows come back 0.
    """
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities[1:].copy()
    targets = np.asarray(frozen_odd_targets(fs0, tolerance)).reshape(-1, state.vocab)

    def objective(x):
        norms = np.linalg.norm(_features(x, state)[:, 1:] - targets, axis=-1)
        # one dot per copy: a matrix product would round the copies differently
        return [-np.dot(q0, row) for row in norms]

    return _central_differences(objective, logits, h)


def fd_dpp_gradient(logits, state: MaskState, eps: float,
                    h: float = DEFAULT_STEP) -> np.ndarray:
    """FD gradient of the joint determinantal loss with frozen qualities."""
    fs0, _ = feature_set(logits, state)
    q0 = fs0.qualities.copy()

    def objective(x):
        return dpp_loss(_kernels(_features(x, state), np.broadcast_to(q0, x.shape[:2]))[0], eps)

    return _central_differences(objective, logits, h)


def _run_suite(name: str, instances: int, seed: int, tolerance: float,
               min_batch: int, compare) -> SuiteResult:
    """Worst relative error of compare(rng, logits, state) -> (analytic,
    numeric) over random tie-free instances; compare returns None to have
    an instance redrawn."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < instances:
        logits, state = random_instance(rng, min_batch=min_batch)
        if has_pool_tie(logits, state):
            continue
        pair = compare(rng, logits, state)
        if pair is not None:
            worst = max(worst, relative_error(*pair))
            checked += 1
    return SuiteResult(name, instances, worst, tolerance)


def run_feature_suite(instances: int = 200, seed: int = 0,
                      h: float = DEFAULT_STEP,
                      tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    def compare(rng, logits, state):
        upstream = rng.normal(0.0, 1.0, size=(state.batch, state.vocab))
        fs, ud = feature_set(logits, state)
        analytic = logits - backprop_to_logits(upstream, fs, ud, logits, 1.0)
        return analytic, fd_feature_gradient(logits, state, upstream, h)

    return _run_suite("feature-backprop", instances, seed, tolerance, 1, compare)


def run_odd_suite(instances: int = 120, seed: int = 1,
                  h: float = DEFAULT_STEP,
                  tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    fd_tol = 1e-8
    config = GenerationConfig(alpha=1.0, tolerance=fd_tol, anneal="off")

    def compare(rng, logits, state):
        fs, _ = feature_set(logits, state)
        residuals = fs.features[1:] - np.asarray(frozen_odd_targets(fs, fd_tol))
        if np.linalg.norm(residuals, axis=1).min() <= 1e-3:
            return None
        analytic = logits - odd_step(logits, state, config, t=1)
        return analytic, fd_odd_gradient(logits, state, fd_tol, h)

    return _run_suite("orthogonal-residual", instances, seed, tolerance, 2, compare)


def run_dpp_suite(instances: int = 120, seed: int = 2, eps: float = 1e-3,
                  h: float = DEFAULT_STEP,
                  tolerance: float = DEFAULT_TOLERANCE) -> SuiteResult:
    config = GenerationConfig(alpha=1.0, anneal="off", jitter=eps)

    def compare(rng, logits, state):
        analytic = logits - dpp_step(logits, state, config, t=1)
        return analytic, fd_dpp_gradient(logits, state, eps, h)

    return _run_suite("determinantal", instances, seed, tolerance, 1, compare)


def run_all_suites(instances: int = 120, seed: int = 0) -> list[SuiteResult]:
    return [
        run_feature_suite(instances, seed),
        run_odd_suite(instances, seed + 1),
        run_dpp_suite(instances, seed + 2),
    ]
