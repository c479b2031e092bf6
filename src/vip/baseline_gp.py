"""Exact Gaussian process regression with an RBF kernel.

Reference baseline: zero prior mean (targets come standardized), predictive
moments by Cholesky conditioning, hyperparameters by exhaustive grid search
over (lengthscale, signal variance, noise variance) on the log marginal
likelihood. Training Grams K(x, x) are exactly symmetric by construction
(``RbfKernel.gram``); a grid cell scores sv * (unit-signal Gram), bit for
bit the Gram ``gp_predict`` builds at sv. A constant 1e-10 jitter is added
to the diagonal of every training system; if the factorization still fails
it is retried once at 1e-6 before the pivot error propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefiniteError, ParameterError
from .inference import LOG_2PI, _check_sigma2
from .numkit import as_matrix, as_vector, cholesky
from .predict import PredictiveDistribution, _finish

_JITTER = 1e-10
_JITTER_RETRY = 1e-6
# entries per block of rows in which ``RbfKernel.gram`` finishes its result
_GRAM_BLOCK = 2**16


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
        """K(xa, xb), built in the one array it returns. ``gram(x, x)``
        converts x once and takes x @ x.T, which numpy runs as a symmetric
        rank-k update; every entry then goes through the same elementwise
        ops, so it is exactly symmetric."""
        same = xb is xa
        xa = np.ascontiguousarray(as_matrix(xa, "kernel inputs"))
        xb = xa if same else as_matrix(xb, "kernel inputs")
        if xa.shape[1] != xb.shape[1]:
            raise ParameterError(
                f"kernel inputs disagree on dimension: {xa.shape[1]} vs {xb.shape[1]}"
            )
        k = xa @ xb.T
        sa = np.sum(xa * xa, axis=1)[:, None]
        sb = np.sum(xb * xb, axis=1)[None, :]
        # k holds xa xb^T until each block of rows is doubled and replaced
        # by its kernel values, so only a block-sized (sa + sb) sits beside it
        rows = max(1, _GRAM_BLOCK // max(1, k.shape[1]))
        for i in range(0, k.shape[0], rows):
            blk = k[i : i + rows]
            blk *= 2.0
            np.subtract(sa[i : i + rows] + sb, blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            blk *= -0.5
            blk /= self.lengthscale**2
            np.exp(blk, out=blk)
            blk *= self.signal_variance
        return k


def _train_chol(kff: np.ndarray, sigma2: float) -> np.ndarray:
    """Lower factor of kff + (sigma2 + jitter) I, made in ``kff``'s memory.

    The shifted diagonal is written into ``kff``, which ``cholesky`` then
    factors in place: no shifted copy and no second N x N array is made,
    and ``kff`` is spent. A failed factorisation leaves ``kff``'s strict
    lower triangle as it was, so the retry copies it back over the upper
    triangle that ``cholesky`` reads and rewrites the diagonal.
    """
    n = kff.shape[0]
    shifted = kff.diagonal() + sigma2
    kff.flat[:: n + 1] = shifted + _JITTER
    try:
        return cholesky(kff)
    except NotPositiveDefiniteError:
        for i in range(n - 1):
            kff[i, i + 1 :] = kff[i + 1 :, i]
        kff.flat[:: n + 1] = shifted + _JITTER_RETRY
        return cholesky(kff)


# as in posterior_predict; a subnormal lengthscale**2 overflows to the exact identity Gram
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def gp_predict(kernel: RbfKernel, x, y, sigma2: float, x_star) -> PredictiveDistribution:
    """Closed-form posterior at x_star for f ~ GP(0, k), y = f + N(0, sigma2).

    GPML Alg. 2.1, whitened: with the jittered K + sigma2 I = L L^T, forward
    solves give V = L^-1 K*^T and a = L^-1 y, the whitened y of
    ``gp_log_marginal``; then mean = a^T V and var_f = sv - colsum(V^2).
    """
    x = as_matrix(x, "training inputs")
    y = as_vector(y, "targets")
    if x.shape[0] != y.shape[0]:
        raise ParameterError(f"{x.shape[0]} input rows vs {y.shape[0]} targets")
    x_star = as_matrix(x_star, "test inputs")
    sigma2 = _check_sigma2(sigma2)
    # bit for bit the grid cell's sv * unit, factored in its own memory
    la = _train_chol(kernel.gram(x, x), sigma2)
    # K*^T, the transpose of a C-ordered Gram, is Fortran-ordered, so V
    # overwrites it in place. Solving for a in the same call would need a
    # stacked copy of K*, which raised the process's peak RSS.
    v = scipy.linalg.solve_triangular(
        la, kernel.gram(x_star, x).T, lower=True, overwrite_b=True, check_finite=False
    )
    a = scipy.linalg.solve_triangular(la, y, lower=True, check_finite=False)
    var_f = kernel.signal_variance - np.einsum("nk,nk->k", v, v)
    return _finish(a @ v, var_f, sigma2)


def gp_log_marginal(kff, y, sigma2: float) -> float:
    """log N(y; 0, kff + sigma2 I), via the jittered Cholesky factor.

    ``kff`` is the exactly symmetric training Gram. The jittered factor is
    made in its memory, so a caller that reads ``kff`` again passes a copy.
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
        unit = RbfKernel(ls, 1.0).gram(x, x)
        for sig2 in sorted(float(v) for v in sigma2s):
            for kernel in kernels:
                lm = gp_log_marginal(kernel.signal_variance * unit, y, sig2)
                if best is None or lm > best.log_marginal:
                    best = GpFit(kernel, sig2, lm)
        del unit  # so the next lengthscale's Gram is not built beside this one
    return best
