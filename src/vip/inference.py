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

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, NumericalError, ParameterError
from .numkit import (
    STREAM_DRAWS, STREAM_INIT, STREAM_SHUFFLE, Rng, all_finite, as_matrix, as_vector,
    check_value_types, sum_of_squares,
)
from .priors import (
    FAMILIES,
    FunctionDraws,
    check_settings,
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


def q_from_raw(mu_raw, tril_raw, diag_raw) -> CoefficientPosterior:
    """q from its (S,1) mean, (S,S) tril and (S,1) diag: L's diagonal is softplus(diag)."""
    diag = np.logaddexp(0.0, diag_raw[:, 0])
    return CoefficientPosterior(mu_raw[:, 0], np.tril(tril_raw, -1) + np.diag(diag))


def _check_sigma2(sigma2: float) -> float:
    sigma2 = float(sigma2)
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ParameterError(f"sigma2 must be positive and finite, got {sigma2}")
    return sigma2


# ---------------------------------------------------------------------------
# symbolic energy


def _variational_graph(tape: ad.Tape, params: dict):
    """Realize L and sum(log diag L) from the raw leaves on the tape."""
    diag_raw = params["q_diag"]
    tril_raw = params["q_tril"]
    c = moment_constants(tril_raw.value.shape[0])
    sp = ad.softplus(diag_raw)  # (s,1)
    log_diag_sum = ad.vsum(ad.vlog(sp))
    diag_embed = ad.mul(ad.matmul(sp, tape.constant(c.ones_row)), tape.constant(c.eye))
    L = ad.add(ad.mul(tril_raw, tape.constant(c.strict)), diag_embed)
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
    phi_l = ad.matmul(phi, L)
    s2 = ad.matmul(ad.mul(phi_l, phi_l), tape.constant(moment_constants(s).ones_col))

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
    gives it. ``state.m`` and ``state.v`` are updated in place, in the
    operation order of ``m = b1 * m + (1 - b1) * g``,
    ``v = b2 * v + (1 - b2) * (g * g)`` and
    ``p - lr * (m / c1) / (sqrt(v / c2) + eps)``, and only after every
    argument has been checked, so a rejected call changes nothing. The new
    params, in layout order, are views of one buffer of their own.
    """
    names = [k for k, _ in state.layout]
    if params.keys() != grads.keys() or params.keys() != set(names):
        raise ContractError("params, grads and optimizer state must share keys")
    if not 0 < lr < math.inf:
        raise ParameterError(f"learning rate must be positive and finite, got {lr}")
    for k, shape in state.layout:
        for what, a in (("parameter", params[k]), ("gradient", grads[k])):
            if a.shape != shape:
                raise DimensionError(f"{what} {k} has shape {a.shape}, expected {shape}")
    b1, b2, eps = ADAM_BETAS_EPS
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    g = np.concatenate([grads[k].ravel() for k in names], dtype=np.float64)
    new = np.concatenate([params[k].ravel() for k in names], dtype=np.float64)
    m, v = state.m, state.v
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    g *= g
    g *= 1.0 - b2
    v *= b2
    v += g
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += eps
    step /= g
    new -= step
    out, pos = {}, 0
    for k, shape in state.layout:
        size = math.prod(shape)
        out[k] = new[pos : pos + size].reshape(shape)
        pos += size
    return out


def _check_update(params: dict) -> None:
    """Reject an update that leaves a group where the model cannot read it:
    each group finite, exp of a BNN log-scale below inf (underflow to 0
    passes), and math.exp(log_sigma2) and softplus(q_diag) in (0, inf). The
    error gives the first offending value and names every offending group.
    Failing those, it rejects every group whose sum of squares overflows: a
    group finite and in range but so large that the next step's products
    overflow. One BLAS dot per group answers on the success path."""
    bad, huge = [], []
    for name, a in params.items():
        what, value, low = name, a, -math.inf
        squares = sum_of_squares(a)
        if not (math.isfinite(squares) or all_finite(a)):
            pass
        elif name == "log_sigma2":
            try:
                what, value, low = "exp(log_sigma2)", math.exp(a[0, 0]), 0.0
            except OverflowError:
                what, value, low = "exp(log_sigma2)", math.inf, 0.0
        elif name == "q_diag":
            what, value, low = "softplus(q_diag)", np.logaddexp(0.0, a), 0.0
        elif name.startswith(("w_log_scale_", "b_log_scale_")):
            what, value = f"exp({name})", np.exp(a)
        elif math.isfinite(squares):
            continue
        value = np.ravel(value)
        out = value[~((low < value) & (value < math.inf))]
        if out.size:
            bad.append((name, f"{name} out of range: {what} = {float(out[0])!r}"))
        elif not math.isfinite(squares):
            huge.append((name, f"{name} out of range: sum({name}**2) = {squares!r}"))
    bad = bad or huge
    if bad:
        names = ", ".join(name for name, _ in bad)
        raise NumericalError(f"the Adam update took {bad[0][1]} (parameters: {names})")


# ---------------------------------------------------------------------------
# training


_GRID_DEFAULT = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


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

    def __post_init__(self):
        """Check every field as a JSON config is checked; the lists become tuples."""
        check_value_types(vars(self), {f.name: f.default for f in fields(self)})
        self.hidden = tuple(self.hidden)
        self.sigma2_grid = tuple(self.sigma2_grid)
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.num_draws < 2:
            raise ParameterError(f"num_draws must be >= 2, got {self.num_draws}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 0:
            raise ParameterError(f"batch_size must be >= 0, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ParameterError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.sigma2_mode not in ("fixed", "learned", "grid"):
            raise ParameterError(f"unknown sigma2_mode {self.sigma2_mode!r}")
        _check_sigma2(self.sigma2)
        if len(self.sigma2_grid) == 0 or any(not g > 0 for g in self.sigma2_grid):
            raise ParameterError("sigma2_grid must be non-empty and positive")
        # rejects an unknown estimator or a negative psi
        kernel_normaliser(self.num_draws, self.estimator, self.psi)
        if self.prior_family not in FAMILIES:
            raise ParameterError(f"unknown prior_family {self.prior_family!r}")
        # so every config that builds can be trained; a bnn reads no noise settings
        noise = (self.noise_dim, self.noise_halfwidth) if self.prior_family == "ns" else (0, 0.0)
        check_settings(self.prior_family, self.hidden, self.activation, *noise)
        if self.coeff_mode not in ("exact", "learned", "auto"):
            raise ParameterError(f"unknown coeff_mode {self.coeff_mode!r}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**d)


@dataclass
class TrainedModel:
    """Everything prediction needs: prior, q, noise, the config (whose seed
    sets the prediction stream) and the train block."""

    prior: object
    q: CoefficientPosterior
    sigma2: float
    config: TrainConfig
    loss_trace: list
    train_x: np.ndarray
    train_y: np.ndarray
    stats: object = None
    final_params: dict = field(default=None, repr=False)


def _pass(lazy: bool, prior, params: dict, x, y, n_total: int, config: TrainConfig, rng: Rng):
    """One step's loss, gradients and function draws at ``params`` on the
    batch (x, y), recorded on a lazy or an eager tape.

    Either pass returns only a finite loss: a lazy tape lets a non-finite
    value reach the loss, so its loss is checked here. A NumericalError
    names the parameters the failing op read.
    """
    denom, ridge = kernel_normaliser(config.num_draws, config.estimator, config.psi)
    tape = ad.Tape(lazy=lazy)
    leaves = {k: tape.leaf(a, requires_grad=True) for k, a in params.items()}
    try:
        draws = sample_functions(prior, x, config.num_draws, rng, tape=tape,
                                 params={k: leaves[k] for k in prior.params})
        if "log_sigma2" in leaves:
            lo = leaves["log_sigma2"]
        else:
            lo = tape.constant(math.log(config.sigma2))
        loss, _ = energy_loss(tape, y, draws, leaves, config.alpha, lo, n_total, denom, ridge)
        if lazy and not all_finite(loss.value):
            raise NumericalError("loss: non-finite value")
    except NumericalError as err:
        names = [k for k, v in leaves.items() if v.nid in err.leaf_ids]
        involved = f" (parameters: {', '.join(names)})" if names else ""
        raise NumericalError(f"{err}{involved}") from err
    grads = ad.backward(loss)
    return float(loss.value[0, 0]), {k: grads[v.nid] for k, v in leaves.items()}, draws


def _step(prior, params: dict, x, y, n_total: int, config: TrainConfig, rng: Rng):
    """One training step's loss, gradients and draws: a lazy pass, replayed
    once on an eager tape if it fails. ``rng`` is put back where the lazy
    pass found it, so the replay draws the same functions and names the op
    that made the first non-finite value; should the replay succeed, its
    result stands."""
    snapshot = rng.snapshot()
    try:
        return _pass(True, prior, params, x, y, n_total, config, rng)
    except NumericalError:
        pass
    rng.restore(snapshot)
    return _pass(False, prior, params, x, y, n_total, config, rng)


# every non-finite value a step meets or makes is reported by name;
# numpy's warnings would only precede that error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(x, y, config: TrainConfig, stats=None, callback=None) -> TrainedModel:
    """Fit prior parameters and q(a) on (x, y); see the module docstring.

    x and y are expected on the scale training should happen at (the caller
    standardizes); ``stats`` is carried through to the model untouched.

    Each step is recorded on a lazy tape, which checks finiteness only
    where a non-finite value could vanish, and its loss (``autodiff``). If
    that pass fails, the step reruns once on an eager tape, from the same
    parameters and draws, and the eager pass raises. So a NumericalError
    names the epoch and batch of the step that failed, and a tape op's
    names the op that made the first non-finite value and the parameters it
    read. The Adam update follows the accepted pass, and an update the model
    cannot read (see ``_check_update``) names every group it left out of
    range.
    """
    x = as_matrix(x, "inputs")
    y = as_vector(y, "targets")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"{x.shape[0]} input rows vs {y.shape[0]} targets")
    n = x.shape[0]
    if n < 2:
        raise ParameterError(f"need at least 2 training points, got {n}")
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
    s = config.num_draws
    params = dict(prior.params)
    params["q_mu"] = np.zeros((s, 1))
    params["q_tril"] = np.zeros((s, s))
    params["q_diag"] = np.full((s, 1), SOFTPLUS_INV_ONE)
    learn_sigma = config.sigma2_mode == "learned"
    if learn_sigma:
        params["log_sigma2"] = np.array([[math.log(config.sigma2)]])

    state = AdamState.zeros(params)
    rng_draws = Rng(config.seed, STREAM_DRAWS)
    rng_shuffle = Rng(config.seed, STREAM_SHUFFLE)
    mb = min(config.batch_size or n, n)
    trace = []

    for epoch in range(config.epochs):
        perm = rng_shuffle.permutation(n)
        epoch_losses = []
        for start in range(0, n, mb):
            idx = perm[start : start + mb]
            try:
                # ``draws`` is not read but held until the next step has drawn:
                # freed with the rest of its step, it leaves a free block at
                # the heap top that glibc returns to the system and the next
                # step faults back in (about 200 page faults and a tenth of a
                # criterion-01 step, measured)
                loss, grads, draws = _step(prior, params, x[idx], y[idx], n, config, rng_draws)
                epoch_losses.append(loss)
                params = adam_step(params, grads, state, config.learning_rate)
                _check_update(params)
            except NumericalError as err:
                raise NumericalError(f"epoch {epoch}, batch at {start}: {err}") from err
        trace.append(math.fsum(epoch_losses) / len(epoch_losses))
        if callback is not None:
            callback(epoch, trace[-1])

    sigma2 = math.exp(params["log_sigma2"][0, 0]) if learn_sigma else float(config.sigma2)
    return TrainedModel(
        prior=prior.with_params(params),
        q=q_from_raw(params["q_mu"], params["q_tril"], params["q_diag"]),
        sigma2=sigma2,
        config=config,
        loss_trace=trace,
        train_x=x,
        train_y=y,
        stats=stats,
        final_params=params,
    )
