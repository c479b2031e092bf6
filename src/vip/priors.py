"""Sampling-based priors over functions and their empirical moments.

A prior here is anything that can produce S function draws at a batch of
inputs: a Bayesian network with factorized Gaussian weights (reparameterized,
so draws stay differentiable in the prior parameters) or a deterministic
network pushed forward from bounded noise. The draws feed two moment
estimators: the plain averaged outer product

    m*(x)  = (1/S) sum_s f_s(x)
    K(x,x') = (1/S) sum_s (f_s(x) - m*(x)) (f_s(x') - m*(x'))

and an inverse-Wishart posterior-mean variant that shrinks with a ridge psi
and degrees of freedom nu (default nu = number of evaluation points, which
collapses the denominator to S - 1).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, ParameterError
from .numkit import Rng, as_matrix

_ACTIVATIONS = ("tanh", "relu")


def _check_activation(activation: str):
    if activation not in _ACTIVATIONS:
        raise ParameterError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")


def _check_layers(layer_sizes):
    if len(layer_sizes) < 2:
        raise ParameterError("layer_sizes needs at least input and output entries")
    if any(int(s) < 1 for s in layer_sizes):
        raise ParameterError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != 1:
        raise ParameterError("function draws are scalar-valued: last layer size must be 1")


@dataclass
class BnnPrior:
    """Factorized Gaussian weight prior: w = mean + exp(log_scale) * eps."""

    layer_sizes: tuple
    activation: str
    weight_mean: list
    weight_log_scale: list
    bias_mean: list
    bias_log_scale: list

    family = "bnn"

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        _check_layers(self.layer_sizes)
        _check_activation(self.activation)
        n_layers = len(self.layer_sizes) - 1
        for name in ("weight_mean", "weight_log_scale", "bias_mean", "bias_log_scale"):
            arrays = getattr(self, name)
            if len(arrays) != n_layers:
                raise ParameterError(f"{name}: expected {n_layers} layer arrays")
        for l in range(n_layers):
            fi, fo = self.layer_sizes[l], self.layer_sizes[l + 1]
            if self.weight_mean[l].shape != (fi, fo) or self.weight_log_scale[l].shape != (fi, fo):
                raise DimensionError(f"layer {l}: weight arrays must be {(fi, fo)}")
            if self.bias_mean[l].shape != (1, fo) or self.bias_log_scale[l].shape != (1, fo):
                raise DimensionError(f"layer {l}: bias arrays must be {(1, fo)}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @classmethod
    def init(cls, layer_sizes, activation: str, rng: Rng) -> "BnnPrior":
        """Prior means ~ N(0, 1/fan_in), log scales at log(0.01).

        The input layer is drawn wider (weight sd x3, bias sd x2) so unit
        thresholds start spread over the standardized input range; with a
        short optimization budget a bunched first layer spends most of it
        just fanning out.
        """
        _check_layers(layer_sizes)
        wm, wls, bm, bls = [], [], [], []
        for l, (fi, fo) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            sd = 1.0 / np.sqrt(fi)
            w_sd = 3.0 * sd if l == 0 else sd
            b_sd = 2.0 * sd if l == 0 else sd
            wm.append(w_sd * rng.standard_normal(fi * fo).reshape(fi, fo))
            wls.append(np.full((fi, fo), np.log(0.01)))
            bm.append(b_sd * rng.standard_normal(fo).reshape(1, fo))
            bls.append(np.full((1, fo), np.log(0.01)))
        return cls(tuple(layer_sizes), activation, wm, wls, bm, bls)

    def param_items(self):
        out = []
        for l in range(len(self.layer_sizes) - 1):
            out.append((f"w_mean_{l}", self.weight_mean[l]))
            out.append((f"w_log_scale_{l}", self.weight_log_scale[l]))
            out.append((f"b_mean_{l}", self.bias_mean[l]))
            out.append((f"b_log_scale_{l}", self.bias_log_scale[l]))
        return out

    def with_params(self, params: dict) -> "BnnPrior":
        n = len(self.layer_sizes) - 1
        return replace(
            self,
            weight_mean=[np.asarray(params[f"w_mean_{l}"], float) for l in range(n)],
            weight_log_scale=[np.asarray(params[f"w_log_scale_{l}"], float) for l in range(n)],
            bias_mean=[np.asarray(params[f"b_mean_{l}"], float) for l in range(n)],
            bias_log_scale=[np.asarray(params[f"b_log_scale_{l}"], float) for l in range(n)],
        )

    def to_dict(self) -> dict:
        return {
            "family": "bnn",
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
            "weight_mean": [w.tolist() for w in self.weight_mean],
            "weight_log_scale": [w.tolist() for w in self.weight_log_scale],
            "bias_mean": [b.tolist() for b in self.bias_mean],
            "bias_log_scale": [b.tolist() for b in self.bias_log_scale],
        }


@dataclass
class NeuralSamplerPrior:
    """Deterministic network over [x, z], z ~ Uniform[-a, a]^noise_dim.

    The weights themselves are the (trainable) prior parameters; all draw
    randomness enters through z.
    """

    layer_sizes: tuple
    activation: str
    weights: list
    biases: list
    noise_dim: int
    noise_halfwidth: float

    family = "ns"

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        _check_layers(self.layer_sizes)
        _check_activation(self.activation)
        if self.noise_dim < 1:
            raise ParameterError(f"noise_dim must be >= 1, got {self.noise_dim}")
        if self.noise_halfwidth < 0:
            raise ParameterError(f"noise_halfwidth must be >= 0, got {self.noise_halfwidth}")
        if self.layer_sizes[0] <= self.noise_dim:
            raise ParameterError("first layer must be wider than noise_dim (x gets the rest)")
        n_layers = len(self.layer_sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ParameterError(f"expected {n_layers} weight/bias arrays")
        for l in range(n_layers):
            fi, fo = self.layer_sizes[l], self.layer_sizes[l + 1]
            if self.weights[l].shape != (fi, fo):
                raise DimensionError(f"layer {l}: weights must be {(fi, fo)}")
            if self.biases[l].shape != (1, fo):
                raise DimensionError(f"layer {l}: biases must be {(1, fo)}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0] - self.noise_dim

    @classmethod
    def init(
        cls,
        x_dim: int,
        hidden,
        activation: str,
        rng: Rng,
        noise_dim: int = 10,
        noise_halfwidth: float = 1.0,
    ) -> "NeuralSamplerPrior":
        sizes = (int(x_dim) + int(noise_dim), *[int(h) for h in hidden], 1)
        ws, bs = [], []
        for fi, fo in zip(sizes[:-1], sizes[1:]):
            sd = 1.0 / np.sqrt(fi)
            ws.append(sd * rng.standard_normal(fi * fo).reshape(fi, fo))
            bs.append(np.zeros((1, fo)))
        return cls(sizes, activation, ws, bs, int(noise_dim), float(noise_halfwidth))

    def param_items(self):
        out = []
        for l in range(len(self.layer_sizes) - 1):
            out.append((f"w_{l}", self.weights[l]))
            out.append((f"b_{l}", self.biases[l]))
        return out

    def with_params(self, params: dict) -> "NeuralSamplerPrior":
        n = len(self.layer_sizes) - 1
        return replace(
            self,
            weights=[np.asarray(params[f"w_{l}"], float) for l in range(n)],
            biases=[np.asarray(params[f"b_{l}"], float) for l in range(n)],
        )

    def to_dict(self) -> dict:
        return {
            "family": "ns",
            "layer_sizes": list(self.layer_sizes),
            "activation": self.activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "noise_dim": self.noise_dim,
            "noise_halfwidth": self.noise_halfwidth,
        }


def prior_from_dict(d: dict):
    family = d.get("family")
    if family == "bnn":
        return BnnPrior(
            tuple(d["layer_sizes"]),
            d["activation"],
            [np.asarray(w, float) for w in d["weight_mean"]],
            [np.asarray(w, float) for w in d["weight_log_scale"]],
            [np.asarray(b, float) for b in d["bias_mean"]],
            [np.asarray(b, float) for b in d["bias_log_scale"]],
        )
    if family == "ns":
        return NeuralSamplerPrior(
            tuple(d["layer_sizes"]),
            d["activation"],
            [np.asarray(w, float) for w in d["weights"]],
            [np.asarray(b, float) for b in d["biases"]],
            int(d["noise_dim"]),
            float(d["noise_halfwidth"]),
        )
    raise ParameterError(f"unknown prior family {family!r}")


def init_prior(
    family: str,
    x_dim: int,
    hidden,
    activation: str,
    rng: Rng,
    noise_dim: int = 10,
    noise_halfwidth: float = 1.0,
):
    if family == "bnn":
        return BnnPrior.init((int(x_dim), *[int(h) for h in hidden], 1), activation, rng)
    if family == "ns":
        return NeuralSamplerPrior.init(
            x_dim, hidden, activation, rng, noise_dim=noise_dim, noise_halfwidth=noise_halfwidth
        )
    raise ParameterError(f"unknown prior family {family!r}")


@dataclass
class FunctionDraws:
    """S function draws evaluated at N inputs, with mean and centered residuals.

    ``values`` is S x N (draw s along row s); ``mean`` is the 1 x N column
    average; ``deltas = values - mean``. All three are Vars when the draws
    were recorded on a tape, plain arrays otherwise. ``eval_count`` is the
    number of columns the moment estimates are normalized against; column
    slices of a joint evaluation keep the parent's count.
    """

    values: object
    mean: object
    deltas: object
    eval_count: int
    param_vars: dict | None = field(default=None, repr=False)

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.values, ad.Var)

    @property
    def num_draws(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]

    def deltas_array(self) -> np.ndarray:
        return self.deltas.value if self.is_symbolic else self.deltas

    def mean_array(self) -> np.ndarray:
        return self.mean.value if self.is_symbolic else self.mean

    @classmethod
    def from_matrix(cls, f) -> "FunctionDraws":
        f = as_matrix(f, "draw matrix")
        if f.shape[0] < 2:
            raise ParameterError(f"need at least 2 draws, got {f.shape[0]}")
        s = f.shape[0]
        mean = (np.full((1, s), 1.0 / s)) @ f
        deltas = f - np.ones((s, 1)) @ mean
        return cls(f, mean, deltas, f.shape[1])

    def slice_columns(self, start: int, stop: int) -> "FunctionDraws":
        if self.is_symbolic:
            raise ContractError("slice_columns only applies to numeric draw sets")
        if not 0 <= start <= stop <= self.num_points:
            raise ParameterError(f"bad column slice [{start}, {stop})")
        return FunctionDraws(
            self.values[:, start:stop],
            self.mean[:, start:stop],
            self.deltas[:, start:stop],
            self.eval_count,
        )


def _bnn_draw_eps(prior: BnnPrior, num_draws: int, rng: Rng):
    """Each draw's per-layer (weight, bias) noise, from one request in draw order."""
    sizes = list(zip(prior.layer_sizes[:-1], prior.layer_sizes[1:]))
    per_draw = sum(fi * fo + fo for fi, fo in sizes)
    flat = rng.standard_normal(num_draws * per_draw)
    draws, pos = [], 0
    for _ in range(num_draws):
        eps = []
        for fi, fo in sizes:
            ew = flat[pos : pos + fi * fo].reshape(fi, fo)
            pos += fi * fo
            eb = flat[pos : pos + fo].reshape(1, fo)
            pos += fo
            eps.append((ew, eb))
        draws.append(eps)
    return draws


def _ns_inputs(prior: NeuralSamplerPrior, x: np.ndarray, num_draws: int, rng: Rng) -> np.ndarray:
    """[x, z_s] for every draw s, stacked draw-major into one (S*N, d + noise_dim) matrix."""
    n, d = x.shape
    a = prior.noise_halfwidth
    h = np.empty((num_draws, n, d + prior.noise_dim))
    h[:, :, :d] = x
    if a == 0.0:
        # frozen noise: every draw sees z = 0 and the stream is untouched
        h[:, :, d:] = 0.0
    else:
        h[:, :, d:] = rng.uniform(num_draws * prior.noise_dim, -a, a).reshape(num_draws, 1, -1)
    return h.reshape(num_draws * n, -1)


def sample_functions(prior, x, num_draws: int, rng: Rng, tape=None, params=None) -> FunctionDraws:
    """Evaluate S fresh draws from the prior at the rows of x.

    With a tape, the forward pass is recorded and the draws are
    differentiable in the prior parameters (pass ``params`` as a name->Var
    dict to reuse existing leaves; otherwise requires-grad leaves are created
    and exposed as ``draws.param_vars``). Without a tape the same arithmetic
    runs in plain numpy; both paths consume the RNG identically, so their
    values agree bitwise. Neural-sampler draws run as one pass over all S*N
    rows; BNN draws run one pass per draw.
    """
    x = as_matrix(x, "inputs")
    if num_draws < 2:
        raise ParameterError(f"need at least 2 draws, got {num_draws}")
    if x.shape[1] != prior.input_dim:
        raise DimensionError(
            f"inputs have {x.shape[1]} columns, prior expects {prior.input_dim}"
        )
    n = x.shape[0]
    s = int(num_draws)
    if tape is None:
        ops, params = _NUMPY_OPS, dict(prior.param_items())
    else:
        ops = _tape_ops(tape)
        if params is None:
            params = {name: tape.leaf(arr, requires_grad=True) for name, arr in prior.param_items()}
        elif sorted(params) != sorted(name for name, _ in prior.param_items()):
            raise ContractError("params dict does not match the prior's parameter names")

    if prior.family == "ns":
        f = ops.reshape(_forward(prior, _ns_inputs(prior, x, s, rng), ops, params), (s, n))
    elif tape is None:
        f = np.empty((s, n))
        for k, eps in enumerate(_bnn_draw_eps(prior, s, rng)):
            f[k] = _forward(prior, x, ops, params, eps)[:, 0]
    else:
        f = None
        for k, eps in enumerate(_bnn_draw_eps(prior, s, rng)):
            row = ad.transpose(_forward(prior, x, ops, params, eps))
            basis = np.zeros((s, 1))
            basis[k, 0] = 1.0
            term = ad.matmul(tape.constant(basis), row)
            f = term if f is None else ad.add(f, term)
    if tape is None:
        return FunctionDraws.from_matrix(f)
    mean = ad.matmul(tape.constant(np.full((1, s), 1.0 / s)), f)
    deltas = ad.sub(f, ad.matmul(tape.constant(np.ones((s, 1))), mean))
    return FunctionDraws(f, mean, deltas, n, param_vars=params)


# The arithmetic of a forward pass: plain numpy for prediction, tape ops for training.
# The numpy add_row and tanh write over their first operand, which is always an
# array the pass has just made; at S*N rows that saves two large temporaries.
_Ops = namedtuple("_Ops", "const add mul exp matmul add_row tanh relu reshape")
_NUMPY_OPS = _Ops(
    lambda v: v, np.add, np.multiply, np.exp, np.matmul,
    lambda h, b: np.add(h, b, out=h), lambda h: np.tanh(h, out=h),
    lambda h: np.where(h > 0.0, h, 0.0), np.reshape,
)


def _tape_ops(tape) -> _Ops:
    return _Ops(
        tape.constant, ad.add, ad.mul, ad.vexp, ad.matmul, ad.broadcast_add_row, ad.vtanh, ad.relu,
        ad.reshape,
    )


def _forward(prior, h: np.ndarray, ops: _Ops, p: dict, eps=None):
    """The network at the rows of h as a column, in the arithmetic of ``ops``.

    ``p`` maps the prior's parameter names to arrays (numpy ops) or Vars
    (tape ops), so numeric and taped passes agree bitwise. A BNN pass is one
    draw, its weights built from that draw's ``eps``; a neural-sampler pass
    takes the stacked [x, z] rows of all its draws.
    """
    n_layers = len(prior.layer_sizes) - 1
    act = ops.tanh if prior.activation == "tanh" else ops.relu
    h = ops.const(h)
    for l in range(n_layers):
        if prior.family == "bnn":
            sig_w = ops.exp(p[f"w_log_scale_{l}"])
            sig_b = ops.exp(p[f"b_log_scale_{l}"])
            w = ops.add(ops.mul(sig_w, ops.const(eps[l][0])), p[f"w_mean_{l}"])
            b = ops.add(ops.mul(sig_b, ops.const(eps[l][1])), p[f"b_mean_{l}"])
        else:
            w, b = p[f"w_{l}"], p[f"b_{l}"]
        h = ops.add_row(ops.matmul(h, w), b)
        if l + 1 < n_layers:
            h = act(h)
    return h


def kernel_normaliser(draws: FunctionDraws, estimator: str, psi: float = 0.0, nu=None):
    """(denominator, ridge) of an estimator: K = (Delta^T Delta + ridge I) / denominator.

    'mle' is the plain average (S, no ridge); 'pm' the inverse-Wishart
    posterior mean, nu + S - N - 1 with ridge psi, N being the draws'
    ``eval_count``.
    """
    s = draws.num_draws
    if estimator == "mle":
        return s, 0.0
    if estimator == "pm":
        if psi < 0:
            raise ParameterError(f"psi must be >= 0, got {psi}")
        n_eval = draws.eval_count
        denom = float(n_eval if nu is None else nu) + s - n_eval - 1
        if denom <= 0:
            raise ParameterError(
                f"posterior-mean denominator nu + S - N - 1 = {denom:g} must be positive"
            )
        return denom, psi
    raise ParameterError(f"unknown estimator {estimator!r}")


def empirical_kernel(
    draws: FunctionDraws, i: int, j: int, estimator: str = "mle", psi: float = 0.0, nu=None
) -> float:
    """Covariance estimate between evaluation columns i and j."""
    d = draws.deltas_array()
    n = d.shape[1]
    if not (0 <= i < n and 0 <= j < n):
        raise ParameterError(f"column indices ({i}, {j}) out of range for {n} points")
    denom, ridge = kernel_normaliser(draws, estimator, psi, nu)
    raw = float(d[:, i] @ d[:, j])
    if i == j:
        raw += ridge
    return raw / denom


def empirical_kernel_matrix(
    draws: FunctionDraws, estimator: str = "mle", psi: float = 0.0, nu=None
) -> np.ndarray:
    denom, ridge = kernel_normaliser(draws, estimator, psi, nu)
    d = draws.deltas_array()
    k = d.T @ d
    k.flat[:: d.shape[1] + 1] += ridge
    k /= denom
    return k
