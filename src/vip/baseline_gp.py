"""Exact Gaussian process regression with an RBF kernel.

Reference baseline: zero prior mean (targets come standardized), predictive
moments by Cholesky conditioning, hyperparameters by exhaustive grid search
over (lengthscale, signal variance, noise variance) on the log marginal
likelihood. Every training Gram is built at unit signal variance, made
exactly symmetric, (K + K^T) / 2, and then scaled by the signal variance;
the grid search and ``gp_predict`` share that construction. A
constant 1e-10 jitter is added to the diagonal of every training system; if
the factorization still fails it is retried once at 1e-6 before the pivot
error propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError, ParameterError
from .inference import LOG_2PI, _check_sigma2
from .numkit import as_matrix, as_vector, chol_solve, cholesky
from .predict import PredictiveDistribution, _finish

_JITTER = 1e-10
_JITTER_RETRY = 1e-6


@dataclass(frozen=True)
class RbfKernel:
    lengthscale: float
    signal_variance: float

    def __post_init__(self):
        # the Gram divides by lengthscale**2, which must neither underflow to 0 nor overflow
        ls = self.lengthscale
        if not (ls > 0 and 0.0 < ls * ls < math.inf):
            raise ParameterError(
                f"lengthscale must be positive with a positive, finite square, got {ls}"
            )
        if not (self.signal_variance > 0 and math.isfinite(self.signal_variance)):
            raise ParameterError(
                f"signal_variance must be positive, got {self.signal_variance}"
            )

    def gram(self, xa, xb) -> np.ndarray:
        xa = as_matrix(xa, "kernel inputs")
        xb = as_matrix(xb, "kernel inputs")
        if xa.shape[1] != xb.shape[1]:
            raise ParameterError(
                f"kernel inputs disagree on dimension: {xa.shape[1]} vs {xb.shape[1]}"
            )
        k = np.sum(xa * xa, axis=1)[:, None] + np.sum(xb * xb, axis=1)[None, :]
        k -= 2.0 * xa @ xb.T
        np.maximum(k, 0.0, out=k)
        k *= -0.5
        k /= self.lengthscale**2
        np.exp(k, out=k)
        k *= self.signal_variance
        return k


def _train_gram(kernel: RbfKernel, x: np.ndarray) -> np.ndarray:
    """K(x, x) made exactly symmetric: (K + K^T) / 2."""
    kff = kernel.gram(x, x)
    a = kff + kff.T
    a /= 2.0
    return a


def _train_chol(kff: np.ndarray, sigma2: float) -> np.ndarray:
    """Lower factor of kff + (sigma2 + jitter) I.

    The shifted diagonal is written into ``kff`` for the factorisation and
    restored afterwards, so no second N x N copy is made and the caller's
    matrix comes back byte-unchanged.
    """
    n = kff.shape[0]
    diag = kff.diagonal().copy()
    shifted = diag + sigma2
    try:
        kff.flat[:: n + 1] = shifted + _JITTER
        try:
            return cholesky(kff)
        except NotPositiveDefiniteError:
            kff.flat[:: n + 1] = shifted + _JITTER_RETRY
            return cholesky(kff)
    finally:
        kff.flat[:: n + 1] = diag


def gp_predict(kernel: RbfKernel, x, y, sigma2: float, x_star) -> PredictiveDistribution:
    """Closed-form posterior at x_star for f ~ GP(0, k), y = f + N(0, sigma2)."""
    x = as_matrix(x, "training inputs")
    y = as_vector(y, "targets")
    if x.shape[0] != y.shape[0]:
        raise ParameterError(f"{x.shape[0]} input rows vs {y.shape[0]} targets")
    x_star = as_matrix(x_star, "test inputs")
    sigma2 = _check_sigma2(sigma2)
    # the grid search's sv * unit, scaled in place; freed before the test rows
    kff = _train_gram(RbfKernel(kernel.lengthscale, 1.0), x)
    kff *= kernel.signal_variance
    la = _train_chol(kff, sigma2)
    del kff
    ksf = kernel.gram(x_star, x)
    mean = ksf @ chol_solve(la, y)
    v = scipy.linalg.solve_triangular(la, ksf.T, lower=True, check_finite=False)
    var_f = kernel.signal_variance - np.einsum("nk,nk->k", v, v)
    return _finish(mean, var_f, sigma2)


def gp_log_marginal(kff, y, sigma2: float) -> float:
    """log N(y; 0, kff + sigma2 I), via the jittered Cholesky factor.

    ``kff`` is the symmetric training Gram; it is factored in place of a
    copy and returned to the caller unchanged.
    """
    kff = np.asarray(kff, dtype=np.float64)
    y = as_vector(y, "targets")
    n = y.shape[0]
    if kff.shape != (n, n):
        raise ParameterError(f"Gram of shape {kff.shape} vs {n} targets")
    sigma2 = _check_sigma2(sigma2)
    la = _train_chol(kff, sigma2)
    alpha = scipy.linalg.solve_triangular(la, y, lower=True, check_finite=False)
    return float(
        -0.5 * (alpha @ alpha) - np.sum(np.log(np.diag(la))) - 0.5 * n * LOG_2PI
    )


@dataclass(frozen=True)
class GpFit:
    kernel: RbfKernel
    sigma2: float
    log_marginal: float


def gp_fit_grid(x, y, lengthscales, signal_variances, sigma2s) -> GpFit:
    """Exhaustive marginal-likelihood grid search.

    One unit-signal Gram is built per lengthscale; each cell scores
    ``sv * unit``. Grids are swept in ascending order, so exact ties resolve
    to the smallest lengthscale, then the smallest sigma2, then the smallest
    signal variance.
    """
    for name, grid in (
        ("lengthscales", lengthscales),
        ("signal_variances", signal_variances),
        ("sigma2s", sigma2s),
    ):
        if len(grid) == 0:
            raise ParameterError(f"{name} grid is empty")
    svs = sorted(float(v) for v in signal_variances)
    best = None
    for ls in sorted(float(v) for v in lengthscales):
        kernels = [RbfKernel(ls, sv) for sv in svs]
        unit = _train_gram(RbfKernel(ls, 1.0), x)
        for sig2 in sorted(float(v) for v in sigma2s):
            for kernel in kernels:
                lm = gp_log_marginal(kernel.signal_variance * unit, y, sig2)
                if best is None or lm > best.log_marginal:
                    best = GpFit(kernel, sig2, lm)
    return best
