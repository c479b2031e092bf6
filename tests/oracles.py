"""Reference implementations the tests compare the package against.

No code path of ``vip`` calls these. They are the scalar, per-point forms of
quantities the package computes batched on the tape (the alpha and ELBO
data terms, the KL), a finite-difference gradient checker, and the dense
empirical kernel matrix that the rank-S feature route avoids forming.
"""

import math

import numpy as np

from vip import autodiff as ad
from vip.errors import ContractError, DimensionError, ParameterError
from vip.inference import LOG_2PI, CoefficientPosterior, _check_sigma2
from vip.numkit import as_vector
from vip.priors import FunctionDraws, kernel_normaliser


def cov(q: CoefficientPosterior) -> np.ndarray:
    """The covariance chol chol^T of q."""
    return q.chol @ q.chol.T


def standard_posterior(s: int) -> CoefficientPosterior:
    """N(0, I) over s coefficients."""
    return CoefficientPosterior(np.zeros(s), np.eye(s))


def _phi_s2(phi: np.ndarray, q: CoefficientPosterior):
    phi = as_vector(phi, "phi")
    if phi.shape[0] != q.dim:
        raise DimensionError(f"phi has {phi.shape[0]} entries, q has dimension {q.dim}")
    r_proj = float(phi @ q.mu)
    tv = q.chol.T @ phi
    return r_proj, float(tv @ tv)


def alpha_local_term(
    y: float, m: float, phi: np.ndarray, q: CoefficientPosterior, alpha: float, sigma2: float
) -> float:
    """log E_q[N(y; m + phi^T a, sigma2)^alpha], alpha in (0, 1]."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    sigma2 = _check_sigma2(sigma2)
    proj, s2 = _phi_s2(phi, q)
    r = float(y) - float(m) - proj
    v = s2 + sigma2 / alpha
    return (
        -0.5 * alpha * (LOG_2PI + math.log(sigma2))
        + 0.5 * (LOG_2PI + math.log(sigma2) - math.log(alpha))
        - 0.5 * (LOG_2PI + math.log(v))
        - r * r / (2.0 * v)
    )


def elbo_local_term(
    y: float, m: float, phi: np.ndarray, q: CoefficientPosterior, sigma2: float
) -> float:
    """E_q[log N(y; m + phi^T a, sigma2)] (the alpha -> 0 limit of term/alpha)."""
    sigma2 = _check_sigma2(sigma2)
    proj, s2 = _phi_s2(phi, q)
    r = float(y) - float(m) - proj
    return -0.5 * (LOG_2PI + math.log(sigma2)) - (r * r + s2) / (2.0 * sigma2)


def kl_standard_normal(q: CoefficientPosterior) -> float:
    """KL[N(mu, LL^T) || N(0, I)]."""
    s = q.dim
    frob = float(np.sum(q.chol * q.chol))
    logdet = float(np.sum(np.log(np.diag(q.chol))))
    return 0.5 * (float(q.mu @ q.mu) + frob - s) - logdet


def grad_check(build, point, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``build(tape, var) -> scalar Var`` defines the function; ``point`` is the
    leaf value to differentiate at. Relative error is
    |analytic - numeric| / (|analytic| + 1e-8), maximized over entries.
    """
    p0 = np.asarray(point, float)
    tape = ad.Tape()
    v = tape.leaf(p0, requires_grad=True)
    analytic = ad.backward(build(tape, v))[v.nid]

    def f(p: np.ndarray) -> float:
        t = ad.Tape()
        out = build(t, t.leaf(p, requires_grad=True))
        if out.value.shape != (1, 1):
            raise ContractError("grad_check: build must return a scalar Var")
        return float(out.value[0, 0])

    numeric = np.zeros_like(p0)
    for idx in np.ndindex(*p0.shape):
        hi = p0.copy()
        lo = p0.copy()
        hi[idx] += h
        lo[idx] -= h
        numeric[idx] = (f(hi) - f(lo)) / (2.0 * h)
    rel = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
    return float(rel.max()) if rel.size else 0.0


def empirical_kernel_matrix(
    draws: FunctionDraws, estimator: str = "mle", psi: float = 0.0
) -> np.ndarray:
    """The dense kernel (Delta^T Delta + ridge I) / denom of a numeric draw set."""
    denom, ridge = kernel_normaliser(draws.num_draws, estimator, psi)
    d = draws.deltas
    k = d.T @ d
    k.flat[:: d.shape[1] + 1] += ridge
    k /= denom
    return k
