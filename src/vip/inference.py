"""Two-stage fit: distil prior draws into a GP surrogate, then tune it.

Each optimization step draws S functions, forms the empirical mean m* and
centered residuals Delta, and treats

    f(x) = m*(x) + phi(x)^T a + e(x),    phi(x) = Delta(x) / sqrt(denom),  a ~ N(0, I)

as a Bayesian linear model in the S-dimensional residual space, where
(denom, ridge) is the kernel estimator's normaliser and e(x) ~ N(0, rho),
rho = ridge / denom, is independent per point; e is integrated out, so the
data term sees noise sigma^2 + rho. A Gaussian q(a) = N(mu, L L^T) is fit
by minimizing the negated alpha-energy

    loss = KL[q || N(0, I)] - (N / (alpha M)) sum_m log E_q[ p(y_m | a)^alpha ]

whose inner expectation is available in closed form. alpha = 0 is the ELBO
(the alpha -> 0 limit of the per-point term divided by alpha). Prior
parameters, q, and optionally log sigma^2 all receive gradients through the
same tape and are updated jointly with Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericalError, ParameterError
from .numkit import STREAM_DRAWS, STREAM_INIT, STREAM_SHUFFLE, Rng, as_matrix, as_vector
from .priors import (
    FunctionDraws,
    init_prior,
    kernel_normaliser,
    moment_constants,
    sample_functions,
)

LOG_2PI = math.log(2.0 * math.pi)
# raw diagonal value whose softplus is exactly 1, so L starts at the identity
SOFTPLUS_INV_ONE = math.log(math.e - 1.0)
ADAM_BETAS_EPS = (0.9, 0.999, 1e-8)  # Adam's two decay rates and eps, as published


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


def _after_last_update(name: str, what: str, value, low: float = 0.0) -> None:
    """No forward pass sees the last update: ``what`` of ``name`` must be in (low, inf)."""
    bad = [v for v in np.ravel(value).tolist() if not low < v < math.inf]
    if bad:
        raise NumericalError(
            f"the last update took {name} out of range: {what} = {bad[0]!r} (parameters: {name})"
        )


def q_from_raw(mu_raw, tril_raw, diag_raw) -> CoefficientPosterior:
    """q from its (S,1) mean, (S,S) tril and (S,1) diag: L's diagonal is softplus(diag)."""
    diag = np.logaddexp(0.0, diag_raw[:, 0])
    _after_last_update("q_diag", "softplus(q_diag)", diag)
    return CoefficientPosterior(mu_raw[:, 0], np.tril(tril_raw, -1) + np.diag(diag))


def _check_sigma2(sigma2: float) -> float:
    sigma2 = float(sigma2)
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ParameterError(f"sigma2 must be positive and finite, got {sigma2}")
    return sigma2


# ---------------------------------------------------------------------------
# symbolic energy


@lru_cache(maxsize=16)
def _embed_constants(s: int):
    """The (1,S) ones row, identity and strict lower mask that build L from its leaves.

    Built once per S and read-only, since every step at that S shares them.
    """
    out = (np.ones((1, s)), np.eye(s), np.tril(np.ones((s, s)), -1))
    for a in out:
        a.flags.writeable = False
    return out


def _variational_graph(tape: ad.Tape, params: dict):
    """Realize L and sum(log diag L) from the raw leaves on the tape."""
    diag_raw = params["q_diag"]
    tril_raw = params["q_tril"]
    ones_row, eye, strict = _embed_constants(tril_raw.value.shape[0])
    sp = ad.softplus(diag_raw)  # (s,1)
    log_diag_sum = ad.vsum(ad.vlog(sp))
    diag_embed = ad.mul(ad.matmul(sp, tape.constant(ones_row)), tape.constant(eye))
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
    log_sigma2: ad.Var,
    n_total: int,
    denom: float,
    ridge: float,
):
    """Negated alpha-energy over one minibatch, as a scalar Var.

    ``log_sigma2`` is a 1x1 Var: a leaf when the noise is learned, a
    constant when it is fixed. ``denom`` and ``ridge`` are the kernel
    normaliser from ``kernel_normaliser``. Returns (loss, info) with the
    data/KL parts as plain floats for diagnostics.
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
    phi = ad.scale(ad.transpose(draws.deltas), 1.0 / math.sqrt(denom))  # (mb, s)
    pred = ad.add(ad.transpose(draws.mean), ad.matmul(phi, params["q_mu"]))
    resid = ad.sub(tape.constant(y.reshape(-1, 1)), pred)
    _, ones_col = moment_constants(s)
    phi_l = ad.matmul(phi, L)
    s2 = ad.matmul(ad.mul(phi_l, phi_l), tape.constant(ones_col))

    lo = log_sigma2
    if ridge:  # the per-point term e adds its variance to the noise
        lo = ad.vlog(ad.add(ad.vexp(lo), tape.constant(ridge / denom)))

    if alpha > 0.0:
        v = ad.broadcast_add_row(s2, ad.scale(ad.vexp(lo), 1.0 / alpha))
        logv = ad.vlog(v)
        inv_v = ad.vexp(ad.scale(logv, -1.0))
        base = ad.add(
            ad.scale(logv, -0.5), ad.scale(ad.mul(ad.mul(resid, resid), inv_v), -0.5)
        )
        row = ad.add(
            ad.scale(lo, 0.5 * (1.0 - alpha)),
            tape.constant(0.5 * (1.0 - alpha) * LOG_2PI - 0.5 * math.log(alpha) - 0.5 * LOG_2PI),
        )
        data = ad.scale(ad.vsum(ad.broadcast_add_row(base, row)), n_total / (alpha * mb))
    else:
        inv_sig = ad.vexp(ad.scale(lo, -1.0))
        quad = ad.add(ad.mul(resid, resid), s2)
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
    """Adam's moment estimates over all parameter groups as two flat buffers.

    ``layout`` lists each group's (name, shape) in buffer order; ``m`` and
    ``v`` hold the groups' entries back to back, each group in row-major
    order.
    """

    layout: tuple
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: dict) -> "AdamState":
        layout = tuple((k, a.shape) for k, a in params.items())
        size = sum(a.size for a in params.values())
        return cls(layout, np.zeros(size), np.zeros(size))


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> dict:
    """One bias-corrected Adam update. Mutates ``state``, returns new params.

    The groups are updated as one flat vector in the state's layout; every
    operation is elementwise, so each entry gets the bits a per-group update
    gives it. The new params, in layout order, are views of one buffer.
    """
    names = [k for k, _ in state.layout]
    if params.keys() != grads.keys() or params.keys() != set(names):
        raise ContractError("params, grads and optimizer state must share keys")
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    for k, shape in state.layout:
        for what, a in (("parameter", params[k]), ("gradient", grads[k])):
            if a.shape != shape:
                raise DimensionError(f"{what} {k} has shape {a.shape}, expected {shape}")
    b1, b2, eps = ADAM_BETAS_EPS
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    g = np.concatenate([grads[k].ravel() for k in names])
    p = np.concatenate([params[k].ravel() for k in names])
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * (g * g)
    new = p - lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)
    out, pos = {}, 0
    for k, shape in state.layout:
        size = math.prod(shape)
        out[k] = new[pos : pos + size].reshape(shape)
        pos += size
    return out


# ---------------------------------------------------------------------------
# training


_GRID_DEFAULT = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


def _type_name(default) -> str:
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
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_value_types(d: dict, defaults: dict) -> None:
    """Reject a settings dict whose values are not typed like the defaults.

    An int default takes integers, a float default any finite number, a str
    default a string and a tuple default a list of items typed like its
    first entry. The ParameterError names the key.
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
        # rejects an unknown estimator or a negative psi
        kernel_normaliser(int(self.num_draws), self.estimator, self.psi)
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


# every non-finite value a step or the end-of-training checks meet is
# reported by name; numpy's warnings would only precede that error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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

    prior = init_prior(
        config.prior_family, x.shape[1], config.hidden, config.activation,
        Rng(config.seed, STREAM_INIT), noise_dim=config.noise_dim,
        noise_halfwidth=config.noise_halfwidth,
    )
    s = int(config.num_draws)
    params = dict(prior.params)
    params["q_mu"] = np.zeros((s, 1))
    params["q_tril"] = np.zeros((s, s))
    params["q_diag"] = np.full((s, 1), SOFTPLUS_INV_ONE)
    learn_sigma = config.sigma2_mode == "learned"
    log_sigma2 = math.log(config.sigma2)
    if learn_sigma:
        params["log_sigma2"] = np.array([[log_sigma2]])

    state = AdamState.zeros(params)
    rng_draws = Rng(config.seed, STREAM_DRAWS)
    rng_shuffle = Rng(config.seed, STREAM_SHUFFLE)
    mb = min(int(config.batch_size) or n, n)
    denom, ridge = kernel_normaliser(s, config.estimator, config.psi)
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
                    params={k: leaves[k] for k in prior.params},
                )
                lo = leaves["log_sigma2"] if learn_sigma else tape.constant(log_sigma2)
                loss, _ = energy_loss(
                    tape, y[idx], draws, leaves, config.alpha, lo, n, denom, ridge
                )
            except NumericalError as err:
                names = [k for k, v in leaves.items() if v.nid in err.leaf_ids]
                involved = f" (parameters: {', '.join(names)})" if names else ""
                raise NumericalError(
                    f"epoch {epoch}, batch at {start}: {err}{involved}"
                ) from err
            epoch_losses.append(float(loss.value[0, 0]))
            grads = ad.backward(loss)
            params = adam_step(
                params, {k: grads[leaves[k].nid] for k in params}, state,
                config.learning_rate,
            )
        trace.append(math.fsum(epoch_losses) / len(epoch_losses))
        if callback is not None:
            callback(epoch, trace[-1])

    sigma2 = config.sigma2
    if learn_sigma:
        try:
            sigma2 = math.exp(params["log_sigma2"][0, 0])
        except OverflowError:
            sigma2 = math.inf
        _after_last_update("log_sigma2", "exp(log_sigma2)", sigma2)
    q = q_from_raw(params["q_mu"], params["q_tril"], params["q_diag"])
    # a BNN forward pass takes exp of each log-scale and fails on an inf;
    # a scale that underflows to 0 passes there, so it passes here too
    for name in prior.params:
        if name.startswith(("w_log_scale_", "b_log_scale_")):
            scale = np.exp(params[name])
            _after_last_update(name, f"exp({name})", scale, low=-math.inf)
    return TrainedModel(
        prior=prior.with_params(params),
        q=q,
        sigma2=_check_sigma2(sigma2),
        config=config,
        seed=int(config.seed),
        loss_trace=trace,
        train_x=x,
        train_y=y,
        stats=stats,
        final_params=params,
    )
