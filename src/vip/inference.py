"""Two-stage fit: distil prior draws into a GP surrogate, then tune it.

Each optimization step draws S functions, forms the empirical mean m* and
centered residuals Delta, and treats

    f(x) = m*(x) + phi(x)^T a,    phi(x) = Delta(x) / sqrt(S),  a ~ N(0, I)

as a Bayesian linear model in the S-dimensional residual space. A Gaussian
q(a) = N(mu, L L^T) is fit by minimizing the negated alpha-energy

    loss = KL[q || N(0, I)] - (N / (alpha M)) sum_m log E_q[ p(y_m | a)^alpha ]

whose inner expectation is available in closed form. alpha = 0 is the ELBO
(the alpha -> 0 limit of the per-point term divided by alpha). Prior
parameters, q, and optionally log sigma^2 all receive gradients through the
same tape and are updated jointly with Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericalError, ParameterError
from .numkit import STREAM_DRAWS, STREAM_INIT, STREAM_SHUFFLE, Rng, as_matrix, as_vector
from .priors import FunctionDraws, init_prior, sample_functions

LOG_2PI = math.log(2.0 * math.pi)
# raw diagonal value whose softplus is exactly 1, so L starts at the identity
SOFTPLUS_INV_ONE = math.log(math.e - 1.0)


@dataclass
class CoefficientPosterior:
    """Gaussian over the S surrogate coefficients: N(mu, chol chol^T)."""

    mu: np.ndarray
    chol: np.ndarray

    def __post_init__(self):
        self.mu = as_vector(self.mu, "mu")
        self.chol = as_matrix(self.chol, "chol")
        s = self.mu.shape[0]
        if self.chol.shape != (s, s):
            raise DimensionError(f"chol must be {s}x{s}, got {self.chol.shape}")
        if np.any(np.triu(self.chol, 1) != 0.0):
            raise ParameterError("chol must be lower triangular")
        if np.any(np.diag(self.chol) <= 0.0):
            raise ParameterError("chol needs a strictly positive diagonal")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def cov(self) -> np.ndarray:
        return self.chol @ self.chol.T

    @classmethod
    def standard(cls, s: int) -> "CoefficientPosterior":
        return cls(np.zeros(s), np.eye(s))


def realize_chol(tril_raw: np.ndarray, diag_raw: np.ndarray) -> np.ndarray:
    """Unconstrained (tril, diag) -> lower factor with softplus-positive diagonal."""
    tril_raw = as_matrix(tril_raw, "tril_raw")
    s = tril_raw.shape[0]
    if tril_raw.shape != (s, s):
        raise DimensionError(f"tril_raw must be square, got {tril_raw.shape}")
    d = np.asarray(diag_raw, float).reshape(-1)
    if d.shape != (s,):
        raise DimensionError(f"diag_raw must have {s} entries, got {d.shape}")
    return np.tril(tril_raw, -1) + np.diag(np.logaddexp(0.0, d))


def q_from_raw(mu_raw, tril_raw, diag_raw) -> CoefficientPosterior:
    mu = np.asarray(mu_raw, float).reshape(-1)
    return CoefficientPosterior(mu, realize_chol(tril_raw, diag_raw))


def _check_sigma2(sigma2: float) -> float:
    sigma2 = float(sigma2)
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ParameterError(f"sigma2 must be positive and finite, got {sigma2}")
    return sigma2


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


# ---------------------------------------------------------------------------
# symbolic energy


def _variational_graph(tape: ad.Tape, params: dict):
    """Realize L and sum(log diag L) from the raw leaves on the tape."""
    diag_raw = params["q_diag"]
    tril_raw = params["q_tril"]
    s = tril_raw.value.shape[0]
    sp = ad.softplus(diag_raw)  # (s,1)
    log_diag_sum = ad.vsum(ad.vlog(sp))
    strict = np.tril(np.ones((s, s)), -1)
    diag_embed = ad.mul(
        ad.matmul(sp, tape.constant(np.ones((1, s)))), tape.constant(np.eye(s))
    )
    L = ad.add(ad.mul(tril_raw, tape.constant(strict)), diag_embed)
    return L, log_diag_sum


def _kl_graph(tape: ad.Tape, params: dict):
    L, log_diag_sum = _variational_graph(tape, params)
    mu = params["q_mu"]
    s = L.value.shape[0]
    t = ad.add(ad.dot(mu, mu), ad.dot(L, L))
    t = ad.sub(t, ad.scale(log_diag_sum, 2.0))
    t = ad.add(t, tape.constant(-float(s)))
    return ad.scale(t, 0.5), L


def energy_loss(
    tape: ad.Tape,
    y_batch: np.ndarray,
    draws: FunctionDraws,
    params: dict,
    alpha: float,
    log_sigma2,
    n_total: int,
):
    """Negated alpha-energy over one minibatch, as a scalar Var.

    ``log_sigma2`` is either a float (noise fixed) or a 1x1 Var leaf (noise
    learned). Returns (loss, info) with the data/KL parts as plain floats for
    diagnostics.
    """
    if not draws.is_symbolic:
        raise ContractError("energy_loss needs draws recorded on the tape")
    y = as_vector(np.asarray(y_batch, float), "targets")
    mb = y.shape[0]
    if draws.num_points != mb:
        raise DimensionError(f"draws cover {draws.num_points} points, batch has {mb}")
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    if n_total < mb:
        raise ParameterError(f"n_total={n_total} smaller than the batch ({mb})")
    s = draws.num_draws

    kl, L = _kl_graph(tape, params)
    phi = ad.scale(ad.transpose(draws.deltas), 1.0 / math.sqrt(s))  # (mb, s)
    pred = ad.add(ad.transpose(draws.mean), ad.matmul(phi, params["q_mu"]))
    resid = ad.sub(tape.constant(y.reshape(-1, 1)), pred)
    s2 = ad.matmul(ad.square(ad.matmul(phi, L)), tape.constant(np.ones((s, 1))))

    if isinstance(log_sigma2, ad.Var):
        lo = log_sigma2
        if lo.value.shape != (1, 1):
            raise DimensionError("log_sigma2 Var must be 1x1")
    else:
        lo = tape.constant(float(log_sigma2))

    if alpha > 0.0:
        v = ad.broadcast_add_row(s2, ad.scale(ad.vexp(lo), 1.0 / alpha))
        logv = ad.vlog(v)
        inv_v = ad.vexp(ad.scale(logv, -1.0))
        base = ad.add(
            ad.scale(logv, -0.5), ad.scale(ad.mul(ad.square(resid), inv_v), -0.5)
        )
        row = ad.add(
            ad.scale(lo, 0.5 * (1.0 - alpha)),
            tape.constant(0.5 * (1.0 - alpha) * LOG_2PI - 0.5 * math.log(alpha) - 0.5 * LOG_2PI),
        )
        data = ad.scale(ad.vsum(ad.broadcast_add_row(base, row)), n_total / (alpha * mb))
    else:
        inv_sig = ad.vexp(ad.scale(lo, -1.0))
        quad = ad.add(ad.square(resid), s2)
        invcol = ad.matmul(tape.constant(np.ones((mb, 1))), inv_sig)
        base = ad.scale(ad.mul(quad, invcol), -0.5)
        row = ad.add(ad.scale(lo, -0.5), tape.constant(-0.5 * LOG_2PI))
        data = ad.scale(ad.vsum(ad.broadcast_add_row(base, row)), n_total / mb)

    loss = ad.sub(kl, data)
    info = {"kl": float(kl.value[0, 0]), "data": float(data.value[0, 0])}
    return loss, info


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros(cls, params: dict) -> "AdamState":
        return cls(
            {k: np.zeros_like(a) for k, a in params.items()},
            {k: np.zeros_like(a) for k, a in params.items()},
        )


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> dict:
    """One bias-corrected Adam update. Mutates ``state``, returns new params."""
    if sorted(params) != sorted(grads) or sorted(params) != sorted(state.m):
        raise ContractError("params, grads and optimizer state must share keys")
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    out = {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise DimensionError(f"gradient for {k} has shape {g.shape}, expected {p.shape}")
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
        out[k] = p - lr * (state.m[k] / c1) / (np.sqrt(state.v[k] / c2) + eps)
    return out


# ---------------------------------------------------------------------------
# training


_GRID_DEFAULT = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


def _type_name(default) -> str:
    if default is None:
        return "null or a finite number"
    if isinstance(default, tuple):
        return "a list of " + ("integers" if isinstance(default[0], int) else "finite numbers")
    if isinstance(default, str):
        return "a string"
    return "an integer" if isinstance(default, int) else "a finite number"


def _type_matches(value, default) -> bool:
    if isinstance(value, bool):
        return False  # true/false is never a valid setting, though bool subclasses int
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_type_matches(v, default[0]) for v in value)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, int):
        return isinstance(value, int)
    if value is None:
        return default is None
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_value_types(d: dict, defaults: dict) -> None:
    """Reject a settings dict whose values are not typed like the defaults.

    An int default takes integers, a float default any finite number, a None
    default null or a finite number, a str default a string and a tuple
    default a list of items typed like its first entry. The ParameterError
    names the key.
    """
    for key, value in d.items():
        if not _type_matches(value, defaults[key]):
            raise ParameterError(
                f"{key} must be {_type_name(defaults[key])}, got {value!r}"
            )


@dataclass
class TrainConfig:
    alpha: float = 0.5
    num_draws: int = 20
    epochs: int = 500
    batch_size: int = 0  # 0 means full batch
    learning_rate: float = 0.01
    sigma2_mode: str = "learned"  # fixed | learned | grid
    sigma2: float = 0.1
    sigma2_grid: tuple = _GRID_DEFAULT
    estimator: str = "mle"
    psi: float = 0.0
    nu: object = None
    prior_family: str = "bnn"
    hidden: tuple = (10, 10)
    activation: str = "tanh"
    noise_dim: int = 10
    noise_halfwidth: float = 1.0
    seed: int = 0
    coeff_mode: str = "auto"  # exact | learned | auto

    def validate(self) -> "TrainConfig":
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if int(self.num_draws) < 2:
            raise ParameterError(f"num_draws must be >= 2, got {self.num_draws}")
        if int(self.epochs) < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if int(self.batch_size) < 0:
            raise ParameterError(f"batch_size must be >= 0, got {self.batch_size}")
        if float(self.learning_rate) <= 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.sigma2_mode not in ("fixed", "learned", "grid"):
            raise ParameterError(f"unknown sigma2_mode {self.sigma2_mode!r}")
        _check_sigma2(self.sigma2)
        if len(self.sigma2_grid) == 0 or any(g <= 0 for g in self.sigma2_grid):
            raise ParameterError("sigma2_grid must be non-empty and positive")
        if self.estimator not in ("mle", "pm"):
            raise ParameterError(f"unknown estimator {self.estimator!r}")
        if self.psi < 0:
            raise ParameterError(f"psi must be >= 0, got {self.psi}")
        if self.prior_family not in ("bnn", "ns"):
            raise ParameterError(f"unknown prior_family {self.prior_family!r}")
        if self.coeff_mode not in ("exact", "learned", "auto"):
            raise ParameterError(f"unknown coeff_mode {self.coeff_mode!r}")
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(d) - set(defaults))
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
        check_value_types(d, defaults)
        kwargs = dict(d)
        for key in ("sigma2_grid", "hidden"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs).validate()


@dataclass
class TrainedModel:
    """Everything prediction needs: prior, q, noise, seed, and the train block."""

    prior: object
    q: CoefficientPosterior
    sigma2: float
    config: TrainConfig
    seed: int
    loss_trace: list
    train_x: np.ndarray
    train_y: np.ndarray
    stats: object = None
    final_params: dict = field(default=None, repr=False)


def train(x, y, config: TrainConfig, stats=None, callback=None) -> TrainedModel:
    """Fit prior parameters and q(a) on (x, y); see the module docstring.

    x and y are expected on the scale training should happen at (the caller
    standardizes); ``stats`` is carried through to the model untouched.
    """
    x = as_matrix(x, "inputs")
    y = as_vector(y, "targets")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"{x.shape[0]} input rows vs {y.shape[0]} targets")
    n = x.shape[0]
    if n < 2:
        raise ParameterError(f"need at least 2 training points, got {n}")
    config.validate()
    if config.sigma2_mode == "grid":
        raise ContractError(
            "sigma2_mode='grid' is resolved by the benchmark grid search; "
            "train() runs with 'fixed' or 'learned'"
        )

    rng_init = Rng(config.seed, STREAM_INIT)
    prior = init_prior(
        config.prior_family,
        x.shape[1],
        config.hidden,
        config.activation,
        rng_init,
        noise_dim=config.noise_dim,
        noise_halfwidth=config.noise_halfwidth,
    )
    s = int(config.num_draws)
    params = dict(prior.param_items())
    params["q_mu"] = np.zeros((s, 1))
    params["q_tril"] = np.zeros((s, s))
    params["q_diag"] = np.full((s, 1), SOFTPLUS_INV_ONE)
    learn_sigma = config.sigma2_mode == "learned"
    if learn_sigma:
        params["log_sigma2"] = np.array([[math.log(config.sigma2)]])

    state = AdamState.zeros(params)
    rng_draws = Rng(config.seed, STREAM_DRAWS)
    rng_shuffle = Rng(config.seed, STREAM_SHUFFLE)
    mb = int(config.batch_size) if config.batch_size else n
    mb = min(mb, n)
    prior_names = [name for name, _ in prior.param_items()]
    trace = []

    for epoch in range(int(config.epochs)):
        perm = rng_shuffle.permutation(n)
        epoch_losses = []
        for start in range(0, n, mb):
            idx = perm[start : start + mb]
            tape = ad.Tape()
            leaves = {k: tape.leaf(a, requires_grad=True) for k, a in params.items()}
            try:
                draws = sample_functions(
                    prior, x[idx], s, rng_draws, tape=tape,
                    params={k: leaves[k] for k in prior_names},
                )
                lo = leaves["log_sigma2"] if learn_sigma else math.log(config.sigma2)
                loss, info = energy_loss(
                    tape, y[idx], draws, leaves, config.alpha, lo, n
                )
            except NumericalError as err:
                raise NumericalError(
                    f"epoch {epoch}, batch at {start}: {err}"
                ) from err
            lval = float(loss.value[0, 0])
            if not math.isfinite(lval):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch at {start}: "
                    f"data={info['data']:.6g} kl={info['kl']:.6g}"
                )
            grads = ad.backward(loss)
            params = adam_step(
                params, {k: grads[leaves[k].nid] for k in params}, state,
                config.learning_rate,
            )
            epoch_losses.append(lval)
        trace.append(math.fsum(epoch_losses) / len(epoch_losses))
        if callback is not None:
            callback(epoch, trace[-1])

    sigma2 = math.exp(params["log_sigma2"][0, 0]) if learn_sigma else config.sigma2
    return TrainedModel(
        prior=prior.with_params(params),
        q=q_from_raw(params["q_mu"], params["q_tril"], params["q_diag"]),
        sigma2=_check_sigma2(sigma2),
        config=config,
        seed=int(config.seed),
        loss_trace=trace,
        train_x=x,
        train_y=y,
        stats=stats,
        final_params=params,
    )
