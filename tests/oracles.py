"""Reference implementations the tests compare the package against.

No code path of ``vip`` calls these. They are the scalar, per-point forms of
quantities the package computes batched on the tape (the alpha and ELBO
data terms, the KL), a finite-difference gradient checker, a draw set's
moments formed from a given matrix of function values, the dense empirical
kernel matrix that the rank-S feature route avoids forming, the shuffles of
:class:`vip.numkit.Rng` as numpy-scalar loops, ``Rng`` tracking its
leftover words with an offset and its leftover normal as a float,
Adam updating each parameter group on its own, as ``adam_step`` did before
it moved to one flat buffer, the Cholesky factor and GP log marginal as
they were computed before ``numkit.cholesky`` factored in its input's memory,
and the RBF Gram as it was built before it was finished in its own memory.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from vip import autodiff as ad
from vip.baseline_gp import _JITTER, _JITTER_RETRY
from vip.errors import ContractError, DimensionError, NotPositiveDefiniteError, ParameterError
from vip.inference import ADAM_BETAS_EPS, LOG_2PI, CoefficientPosterior, _check_sigma2
from vip.numkit import _GOLDEN, _MASK64, Rng, _mix64, as_matrix, as_vector
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


def draws_from_matrix(f) -> FunctionDraws:
    """A numeric draw set made from an S x N matrix of function values, its
    mean and deltas formed as ``sample_functions`` forms them."""
    f = as_matrix(f, "draw matrix")
    if f.shape[0] < 2:
        raise ParameterError(f"need at least 2 draws, got {f.shape[0]}")
    s = f.shape[0]
    mean = np.full((1, s), 1.0 / s) @ f
    deltas = f - np.ones((s, 1)) @ mean
    return FunctionDraws(f, mean, deltas)


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


def _derive_seed(seed: int, stream: int) -> int:
    x = (int(seed) + _GOLDEN * (int(stream) + 1)) & _MASK64
    x = _mix64(x)
    return _mix64((x + _GOLDEN) & _MASK64)


class ReferenceRng(Rng):
    """``Rng`` with its lane seeding loop, a word buffer read from an offset
    and a separate normal carry. Same lane steps (``_step``), uniforms and
    shuffles; the words and variates should come out the same."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        s = _derive_seed(self.seed, self.stream)
        lanes = []
        for _ in range(self.LANES):
            s = (s + _GOLDEN) & _MASK64
            lane = _mix64(s)
            lanes.append(lane if lane else _GOLDEN)
        self._state = np.array(lanes, dtype=np.uint64)
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._norm_carry = None

    def _raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        parts = []
        avail = self._buf.size - self._pos
        take = min(avail, n)
        if take:
            parts.append(self._buf[self._pos : self._pos + take])
            self._pos += take
            n -= take
        if n > 0:
            block = self._step(-(-n // self.LANES))
            parts.append(block[:n])
            self._buf = block
            self._pos = n
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)

    def standard_normal(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        out = np.empty(n)
        i = 0
        if self._norm_carry is not None and n > 0:
            out[0] = self._norm_carry
            self._norm_carry = None
            i = 1
        rem = n - i
        if rem == 0:
            return out
        npairs = (rem + 1) // 2
        raw = self._raw(2 * npairs)
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        th = (2.0 * np.pi) * u2
        z = np.empty(2 * npairs)
        z[0::2] = r * np.cos(th)
        z[1::2] = r * np.sin(th)
        out[i:] = z[:rem]
        if rem % 2 == 1:
            self._norm_carry = float(z[rem])
        return out


def permutation(rng: Rng, n: int) -> np.ndarray:
    """Fisher-Yates shuffle of arange(n); consumes n-1 uniforms."""
    perm = np.arange(n)
    if n < 2:
        return perm
    u = rng.uniform(n - 1)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(u[k] * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@dataclass
class GroupAdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros(cls, params: dict) -> "GroupAdamState":
        return cls(
            {k: np.zeros_like(a) for k, a in params.items()},
            {k: np.zeros_like(a) for k, a in params.items()},
        )


def group_adam_step(params: dict, grads: dict, state: GroupAdamState, lr: float) -> dict:
    """One bias-corrected Adam update. Mutates ``state``, returns new params."""
    if sorted(params) != sorted(grads) or sorted(params) != sorted(state.m):
        raise ContractError("params, grads and optimizer state must share keys")
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    b1, b2, eps = ADAM_BETAS_EPS
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    out = {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise DimensionError(f"gradient for {k} has shape {g.shape}, expected {p.shape}")
        state.m[k] = b1 * state.m[k] + (1.0 - b1) * g
        state.v[k] = b2 * state.v[k] + (1.0 - b2) * (g * g)
        out[k] = p - lr * (state.m[k] / c1) / (np.sqrt(state.v[k] / c2) + eps)
    return out


def copying_cholesky(a) -> np.ndarray:
    """``numkit.cholesky`` less its input checks, as it was before it
    factored in place: ``dpotrf`` on the lower triangle of a copy of ``a``,
    which comes back unchanged."""
    L, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    if info == 0:
        bad = np.flatnonzero(~np.isfinite(np.diagonal(L)))
        info = int(bad[0]) + 1 if bad.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(info - 1, float(L[info - 1, info - 1]))
    return L


def copying_gp_log_marginal(kff: np.ndarray, y: np.ndarray, sigma2: float) -> float:
    """``baseline_gp.gp_log_marginal`` less its input checks, as it was before
    the factor was made in ``kff``'s memory: the jittered diagonal is
    written into ``kff``, factored by ``copying_cholesky`` (retried once at
    the larger jitter) and restored, so ``kff`` comes back unchanged."""
    n = kff.shape[0]
    diag = kff.diagonal().copy()
    shifted = diag + sigma2
    try:
        kff.flat[:: n + 1] = shifted + _JITTER
        try:
            la = copying_cholesky(kff)
        except NotPositiveDefiniteError:
            kff.flat[:: n + 1] = shifted + _JITTER_RETRY
            la = copying_cholesky(kff)
    finally:
        kff.flat[:: n + 1] = diag
    alpha = scipy.linalg.solve_triangular(la, y, lower=True, check_finite=False)
    return float(
        -0.5 * (alpha @ alpha) - np.sum(np.log(np.diag(la))) - 0.5 * n * LOG_2PI
    )


def two_array_gram(kernel, xa, xb) -> np.ndarray:
    """``RbfKernel.gram`` less its dimension check, as it was before it built
    its result in its own memory: the doubled product and the full
    (sa + sb) - 2p each take an N x M array of their own."""
    same = xb is xa
    xa = np.ascontiguousarray(as_matrix(xa, "kernel inputs"))
    xb = xa if same else as_matrix(xb, "kernel inputs")
    p = xa @ xb.T
    p *= 2.0
    k = np.sum(xa * xa, axis=1)[:, None] + np.sum(xb * xb, axis=1)[None, :]
    k -= p
    np.maximum(k, 0.0, out=k)
    k *= -0.5
    k /= kernel.lengthscale**2
    np.exp(k, out=k)
    k *= kernel.signal_variance
    return k
