"""GP-style prediction from a trained surrogate.

Prediction stays in the S-dimensional coefficient space in which training
fits q(a). The config's kernel estimator, with normaliser (denom, ridge), is
K = Phi Phi^T + (ridge/denom) I over features phi(x) = Delta(x)/sqrt(denom);
given a Gaussian q(a), learned or exact,

    mean = m*(x) + phi(x)^T mu,    var_f = || chol(Sigma)^T phi(x) ||^2 + ridge/denom.

The cross-kernel between distinct test and training columns carries no
ridge, so by Woodbury conditioning the dense GP on the training block,

    mean  = m*(X*) + K*f (Kff + sigma2 I)^-1 (y - m*(X))
    var_f = diag(K** - K*f (Kff + sigma2 I)^-1 Kf*),

equals these formulas with q the exact coefficient posterior at noise
sigma2 + ridge/denom, the alpha = 0 optimum of the training objective for
fixed draws. That costs O(S^3) and never forms an N x N matrix. For the
plain averaged kernel, denom = S and ridge = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import destandardize_moments
from .errors import ContractError, DimensionError, NumericalError, ParameterError
from .inference import LOG_2PI, CoefficientPosterior, TrainedModel, _check_sigma2
from .numkit import STREAM_PREDICT, Rng, all_finite, as_matrix, as_vector, cholesky
from .priors import FunctionDraws, kernel_normaliser, sample_functions

_VAR_FLOOR = -1e-10  # anything below this is an error, above is clamped to 0


@dataclass
class PredictiveDistribution:
    """Per-point Gaussian predictions; var_y = var_f + sigma2."""

    mean: np.ndarray
    var_f: np.ndarray
    var_y: np.ndarray
    sigma2: float

    def __len__(self):
        return self.mean.shape[0]


def _finish(mean, var_f, sigma2) -> PredictiveDistribution:
    # both callers check sigma2 and build var_f in mean's shape
    mean = as_vector(mean, "predictive mean")
    low = float(var_f.min()) if var_f.size else 0.0
    if not all_finite(var_f) or low < _VAR_FLOOR:
        raise NumericalError(f"predictive variance broke its floor: min {low:.3e}")
    var_f = np.maximum(var_f, 0.0)
    return PredictiveDistribution(mean, var_f, var_f + sigma2, sigma2)


def exact_coefficient_posterior(b, y_centered, sigma2: float) -> CoefficientPosterior:
    """Conjugate posterior over a in y = B a + eps, a ~ N(0, I), eps ~ N(0, sigma2 I).

    A = B^T B + sigma2 I = L L^T is the one matrix factored (numpy runs B^T B as
    a symmetric product, so A is exactly symmetric); the rest is whitened
    against W = L^-1: mu = W^T (W B^T y) and Sigma = sigma2 W^T W. With W = QR,
    W^T W = R^T R, so R with each row signed to a positive diagonal, scaled by
    sqrt(sigma2) and transposed, is chol(Sigma). QR cannot fail on the
    nonsingular W: the posterior fails only where A's factorisation does.
    """
    b = as_matrix(b, "feature matrix")
    y = as_vector(y_centered, "centered targets")
    if b.shape[0] != y.shape[0]:
        raise DimensionError(f"{b.shape[0]} feature rows vs {y.shape[0]} targets")
    sigma2 = _check_sigma2(sigma2)
    s = b.shape[1]
    la = cholesky(b.T @ b + sigma2 * np.eye(s))
    w, _ = scipy.linalg.lapack.dtrtri(la, lower=1)  # la has a positive diagonal
    mu = w.T @ (w @ (b.T @ y))
    # a non-finite W (an overflowed inverse) passes through to the checks of q
    (r,) = scipy.linalg.qr(w, mode="r", check_finite=False)
    r *= np.copysign(math.sqrt(sigma2), np.diagonal(r))[:, None]
    return CoefficientPosterior(mu, r.T)


def predict_features(
    draws_test: FunctionDraws,
    q: CoefficientPosterior,
    sigma2: float,
    denom: float,
    ridge: float,
) -> PredictiveDistribution:
    """Reduced-rank prediction through the coefficient posterior.

    ``denom`` and ``ridge`` are the kernel normaliser the features belong
    to, from ``kernel_normaliser``.
    """
    if draws_test.is_symbolic:
        raise ContractError("prediction works on numeric draw sets")
    s = draws_test.num_draws
    if q.dim != s:
        raise DimensionError(f"q has dimension {q.dim}, draws have S={s}")
    sigma2 = _check_sigma2(sigma2)
    phi = draws_test.deltas.T / math.sqrt(denom)  # (K, S)
    mean = draws_test.mean[0] + phi @ q.mu
    a = phi @ q.chol
    var_f = np.einsum("ks,ks->k", a, a)
    if ridge:
        var_f += ridge / denom
    return _finish(mean, var_f, sigma2)


# a non-finite draw, posterior or moment is checked and named where it
# arises; numpy's warnings would only precede that error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def posterior_predict(
    model: TrainedModel, x_test, mode: str | None = None
) -> PredictiveDistribution:
    """Predict at new inputs from a trained model.

    ``mode``: 'exact' re-derives the coefficient posterior from a fresh
    fixed-seed draw set over [train; test], which gives the dense GP
    conditional of the config's kernel estimator; 'learned' reuses the
    trained q(a), which belongs to the same estimator; 'auto' (default, from
    the config) picks exact up to 2000 training points. The threshold is a
    choice between two posteriors, not between two costs: exact never forms
    an N x N matrix, costs more than learned at every N measured (500 to
    8000) with no crossover, and moving the threshold would change
    predictions above it. The prediction stream depends only on the master
    seed, so training length cannot shift it.
    """
    x_test = as_matrix(x_test, "test inputs")
    n = model.train_x.shape[0]
    if x_test.shape[1] != model.train_x.shape[1]:
        raise DimensionError(
            f"test inputs have {x_test.shape[1]} columns, training had {model.train_x.shape[1]}"
        )
    cfg = model.config
    mode = cfg.coeff_mode if mode is None else mode
    if mode == "auto":
        mode = "exact" if n <= 2000 else "learned"
    if mode not in ("exact", "learned"):
        raise ParameterError(f"unknown prediction mode {mode!r}")
    s = cfg.num_draws
    rng = Rng(cfg.seed, STREAM_PREDICT)
    denom, ridge = kernel_normaliser(s, cfg.estimator, cfg.psi)

    if mode == "learned":
        draws_test = sample_functions(model.prior, x_test, s, rng)
        return predict_features(draws_test, model.q, model.sigma2, denom, ridge)

    joint = sample_functions(model.prior, np.vstack([model.train_x, x_test]), s, rng)
    dt = joint.slice_columns(0, n)
    dtest = joint.slice_columns(n, n + x_test.shape[0])
    b = dt.deltas.T / math.sqrt(denom)
    noise = model.sigma2 + ridge / denom
    try:
        q = exact_coefficient_posterior(b, model.train_y - dt.mean[0], noise)
    except NumericalError as e:
        at = f"sigma2 = {model.sigma2:.6g}"
        if ridge:
            at = f"sigma2 + ridge/denom = {model.sigma2:.6g} + {ridge / denom:.6g}"
        raise NumericalError(
            f"exact coefficient posterior failed at noise variance {at}: {e}"
        ) from e
    return predict_features(dtest, q, model.sigma2, denom, ridge)


def nll_rmse(pred: PredictiveDistribution, y_true, stats=None) -> dict:
    """Average negative log likelihood and RMSE of the observation predictions.

    With ``stats`` the predictions are mapped back to the original target
    scale first; ``y_true`` is then expected in original units.
    """
    y = as_vector(y_true, "true targets")
    if y.shape[0] != len(pred):
        raise DimensionError(f"{len(pred)} predictions vs {y.shape[0]} targets")
    mean, var = destandardize_moments(pred.mean, pred.var_y, stats)
    return gaussian_nll_rmse(y, mean, var)


@np.errstate(over="ignore", invalid="ignore")
def gaussian_nll_rmse(y: np.ndarray, mean: np.ndarray, var: np.ndarray) -> dict:
    """Average NLL and RMSE of targets y under independent N(mean, var); a
    score that overflows a double is a NumericalError."""
    if np.any(var <= 0):
        raise ContractError("observation variance must be positive for the NLL")
    nll = float(np.mean(0.5 * (LOG_2PI + np.log(var)) + (y - mean) ** 2 / (2 * var)))
    rmse = float(np.sqrt(np.mean((y - mean) ** 2)))
    if not (math.isfinite(nll) and math.isfinite(rmse)):
        raise NumericalError(f"the score overflows a double: nll {nll}, rmse {rmse}")
    return {"nll": nll, "rmse": rmse}
