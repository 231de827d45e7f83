"""Dense numerical kernels shared by the guidance modules.

Everything operates on float64 numpy arrays: stable row softmax, the
softmax vector-Jacobian product used for analytic backprop, and SPD
helpers (log-determinant and inverse of a matrix or a stack, via Cholesky).
Inputs are validated against the documented preconditions; callers are
expected to hold the returned arrays immutable.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import FactorizationError, InvalidInputError

# Matrices are symmetrized silently when the asymmetry is below this bound;
# larger asymmetry is treated as caller error.
SYMMETRY_TOL = 1e-10


def softmax_rows(logits, out=None, return_sums: bool = False):
    """Stable softmax along the last axis of an n-D array.

    out, when given, receives the probabilities and may be the input
    itself. With return_sums the row normalizers sum(exp(z - max z)) are
    returned too; a row's largest probability is exactly 1 / normalizer,
    since its largest exponential is exp(0) = 1.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.shape[-1] == 0:
        raise InvalidInputError("softmax_rows: empty last axis")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("softmax_rows: non-finite logits")
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    sums = out.sum(axis=-1, keepdims=True)
    out /= sums
    return (out, sums[..., 0]) if return_sums else out


def softmax_vjp(probs, upstream, out=None) -> np.ndarray:
    """Backpropagate probability-space gradients through softmax, row by row.

    probs holds rows p = softmax(z) and upstream the matching gradients
    u = dL/dp, both of shape (..., V). Returns dL/dz = p * (u - (u . p))
    for every row. The row dot products go through one batched np.matmul,
    which gives each row the same BLAS dot product a lone vector would get.
    With out given (it may be upstream itself) the result is written there;
    out must have the shape of probs.
    """
    p = np.asarray(probs, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise InvalidInputError("softmax_vjp: expected non-empty rows")
    if p.shape != u.shape:
        raise InvalidInputError(
            f"softmax_vjp: shape mismatch ({p.shape} probs vs {u.shape} upstream)"
        )
    if out is not None and out.shape != p.shape:
        raise InvalidInputError(
            f"softmax_vjp: shape mismatch ({p.shape} probs vs {out.shape} out)"
        )
    # the dots are taken before out is written, so out may alias upstream
    grad = np.subtract(u, np.matmul(u[..., None, :], p[..., :, None])[..., 0], out=out)
    grad *= p
    return grad


def _as_spd_input(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise InvalidInputError(f"{name}: expected a non-empty square matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name}: non-finite entries")
    at = a.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(np.abs(a - at).max(axis=(-2, -1)) > SYMMETRY_TOL * scale):
        raise InvalidInputError(f"{name}: matrix is not symmetric within {SYMMETRY_TOL:g}")
    # Kernel construction introduces rounding asymmetry; remove it here.
    return 0.5 * (a + at)


def cholesky_logdet(m):
    """Log-determinant of an SPD matrix (a float) or of each in a (..., n, n)
    stack (an array), bit for bit as alone.

    Uses a triangular factorization; raises FactorizationError when some
    matrix is not positive definite (callers may add jitter and retry).
    """
    a = _as_spd_input(m, "cholesky_logdet")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"cholesky_logdet: {exc}") from exc
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if a.ndim == 2 else logdet


def spd_inverse(m) -> np.ndarray:
    """Inverse of an SPD matrix or of each in a (..., n, n) stack, by the LAPACK
    Cholesky calls of scipy's cho_factor/cho_solve; checks and bits per matrix."""
    a = _as_spd_input(m, "spd_inverse")
    eye = np.eye(a.shape[-1])
    inv = np.empty_like(a)
    flat = inv.reshape(-1, *eye.shape)
    for i, matrix in enumerate(a.reshape(flat.shape)):
        factor, info = dpotrf(matrix, lower=1, clean=0)
        if info:
            raise FactorizationError(f"spd_inverse: stacked matrix {i} is not positive definite")
        flat[i] = dpotrs(factor, eye, lower=1)[0]
    return 0.5 * (inv + inv.swapaxes(-1, -2))
