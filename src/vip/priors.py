"""Sampling-based priors over functions and their empirical moments.

A prior here is anything that can produce S function draws at a batch of
inputs: a Bayesian network with factorized Gaussian weights (reparameterized,
so draws stay differentiable in the prior parameters) or a deterministic
network pushed forward from bounded noise. The draws feed two moment
estimators: the plain averaged outer product

    m*(x)  = (1/S) sum_s f_s(x)
    K(x,x') = (1/S) sum_s (f_s(x) - m*(x)) (f_s(x') - m*(x'))

and the inverse-Wishart posterior mean (Delta^T Delta + psi I) / (S - 1),
which shrinks with a ridge psi. ``kernel_normaliser`` is the one place an
estimator becomes its (denominator, ridge) pair; training and both
prediction routes take it from there.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, ParameterError
from .numkit import Rng, as_matrix, check_finite, check_value_types

_ACTIVATIONS = ("tanh", "relu")


def _check_layers(layer_sizes):
    if len(layer_sizes) < 2:
        raise ParameterError("layer_sizes needs at least input and output entries")
    if any(s < 1 for s in layer_sizes):
        raise ParameterError(f"layer sizes must be positive, got {layer_sizes}")
    if layer_sizes[-1] != 1:
        raise ParameterError("function draws are scalar-valued: last layer size must be 1")


# Each family's arrays per layer, in parameter order: (parameter-name prefix,
# weight or bias). Layer l's array is named f"{prefix}_{l}"; a weight is
# fan_in x fan_out, a bias 1 x fan_out.
_LAYOUT = {
    "bnn": (("w_mean", "weight"), ("w_log_scale", "weight"), ("b_mean", "bias"),
            ("b_log_scale", "bias")),
    "ns": (("w", "weight"), ("b", "bias")),
}


FAMILIES = tuple(_LAYOUT)


def _check_family(family):
    if family not in _LAYOUT:
        raise ParameterError(f"unknown prior family {family!r}")


def check_settings(family: str, hidden, activation: str, noise_dim: int, noise_halfwidth: float):
    """Reject the first setting that no prior of a known ``family`` takes
    at any input width, naming it: a hidden width below 1, an unknown
    activation, any noise input for a bnn, and for an ns prior fewer than
    one noise input or a noise range [-a, a) whose width 2a is negative or
    not finite. ``Prior`` and ``TrainConfig`` check by this one rule.
    """
    if any(h < 1 for h in hidden):
        raise ParameterError(f"hidden widths must be >= 1, got {list(hidden)}")
    if activation not in _ACTIVATIONS:
        raise ParameterError(f"activation must be one of {_ACTIVATIONS}, got {activation!r}")
    if family == "bnn" and (noise_dim or noise_halfwidth):
        raise ParameterError("only the ns family takes noise inputs")
    if family == "ns" and noise_dim < 1:
        raise ParameterError(f"noise_dim must be >= 1, got {noise_dim}")
    if not 0.0 <= 2.0 * noise_halfwidth < np.inf:
        raise ParameterError(
            f"noise_halfwidth must be >= 0 with 2 * noise_halfwidth finite, "
            f"got {noise_halfwidth}"
        )


# the JSON types of a Prior's settings, as check_value_types reads them
_SETTING_TYPES = {"family": "bnn", "layer_sizes": (1,), "noise_dim": 0, "noise_halfwidth": 0.0}


@dataclass
class Prior:
    """A network prior over functions, in one of two families.

    'bnn': factorized Gaussian weights, w = mean + exp(log_scale) * eps.
    'ns' (neural sampler): a deterministic network over [x, z] with
    z ~ Uniform[-a, a]^noise_dim, a = noise_halfwidth; the weights themselves
    are the (trainable) prior parameters and all draw randomness enters
    through z. ``params`` maps the parameter names of ``_LAYOUT`` to arrays
    and is the prior's only copy of its weights.
    """

    family: str
    layer_sizes: tuple
    activation: str
    params: dict
    noise_dim: int = 0
    noise_halfwidth: float = 0.0

    def __post_init__(self):
        check_value_types({k: getattr(self, k) for k in _SETTING_TYPES}, _SETTING_TYPES, "prior.")
        _check_family(self.family)
        self.layer_sizes = tuple(self.layer_sizes)
        _check_layers(self.layer_sizes)
        self.noise_halfwidth = float(self.noise_halfwidth)  # a checked integer becomes a float
        check_settings(self.family, self.layer_sizes[1:-1], self.activation, self.noise_dim,
                       self.noise_halfwidth)
        if self.layer_sizes[0] <= self.noise_dim:
            raise ParameterError("first layer must be wider than noise_dim (x gets the rest)")
        shapes = {}
        for l, (fi, fo) in enumerate(zip(self.layer_sizes[:-1], self.layer_sizes[1:])):
            for prefix, kind in _LAYOUT[self.family]:
                shapes[f"{prefix}_{l}"] = (fi, fo) if kind == "weight" else (1, fo)
        if set(self.params) != set(shapes):
            raise ParameterError(
                f"a {self.family} prior with layers {self.layer_sizes} takes parameters "
                f"{list(shapes)}, got {sorted(self.params)}"
            )
        self.params = {name: np.asarray(self.params[name], float) for name in shapes}
        for name, shape in shapes.items():
            if self.params[name].shape != shape:
                raise DimensionError(f"{name} must be {shape}, got {self.params[name].shape}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0] - self.noise_dim

    def with_params(self, params: dict) -> "Prior":
        """This prior with its arrays taken from ``params``; other names are ignored."""
        return replace(self, params={name: params[name] for name in self.params})


def init_prior(
    family: str,
    x_dim: int,
    hidden,
    activation: str,
    rng: Rng,
    noise_dim: int = 10,
    noise_halfwidth: float = 1.0,
) -> Prior:
    """A fresh prior over x_dim inputs with the given hidden layer widths.

    Weights are drawn ~ N(0, 1/fan_in) layer by layer. A BNN draws its
    weight means so, with log scales at log(0.01) and its input layer drawn
    wider (weight sd x3, bias sd x2) so unit thresholds start spread over
    the standardized input range; with a short optimization budget a bunched
    first layer spends most of it just fanning out. A neural sampler's first
    layer also takes the noise_dim noise inputs, and its biases start at 0.
    The noise arguments apply to 'ns' only.
    """
    _check_family(family)
    if family == "bnn":
        noise_dim, noise_halfwidth = 0, 0.0
    sizes = (int(x_dim) + int(noise_dim), *[int(h) for h in hidden], 1)
    _check_layers(sizes)
    params = {}
    for l, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        sd = 1.0 / np.sqrt(fi)
        if family == "ns":
            params[f"w_{l}"] = sd * rng.standard_normal(fi * fo).reshape(fi, fo)
            params[f"b_{l}"] = np.zeros((1, fo))
            continue
        w_sd = 3.0 * sd if l == 0 else sd
        b_sd = 2.0 * sd if l == 0 else sd
        params[f"w_mean_{l}"] = w_sd * rng.standard_normal(fi * fo).reshape(fi, fo)
        params[f"w_log_scale_{l}"] = np.full((fi, fo), np.log(0.01))
        params[f"b_mean_{l}"] = b_sd * rng.standard_normal(fo).reshape(1, fo)
        params[f"b_log_scale_{l}"] = np.full((1, fo), np.log(0.01))
    return Prior(family, sizes, activation, params, noise_dim, noise_halfwidth)


_StepConstants = namedtuple("_StepConstants", "ones_col ones_row eye strict")


@lru_cache(maxsize=16)
def moment_constants(s: int) -> _StepConstants:
    """A training step's constants at S draws.

    The (S,1) ones column sums the energy's per-draw terms; the identity's
    columns place taped BNN draws in their rows; the (1,S) ones row, the
    identity and the strict lower mask build q's factor L. Built once per S
    and read-only, since every step at that S shares them.
    """
    out = _StepConstants(
        np.ones((s, 1)), np.ones((1, s)), np.eye(s), np.tril(np.ones((s, s)), -1),
    )
    for a in out:
        a.flags.writeable = False
    return out


@dataclass
class FunctionDraws:
    """S function draws evaluated at N inputs, with mean and centered residuals.

    ``values`` is S x N (draw s along row s); ``mean`` is the 1 x N column
    average; ``deltas = values - mean``. All three are Vars when the draws
    were recorded on a tape, plain arrays otherwise.
    """

    values: object
    mean: object
    deltas: object

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.values, ad.Var)

    @property
    def num_draws(self) -> int:
        return self.values.shape[0]

    @property
    def num_points(self) -> int:
        return self.values.shape[1]

    def slice_columns(self, start: int, stop: int) -> "FunctionDraws":
        if self.is_symbolic:
            raise ContractError("slice_columns only applies to numeric draw sets")
        if not 0 <= start <= stop <= self.num_points:
            raise ParameterError(f"bad column slice [{start}, {stop})")
        return FunctionDraws(
            self.values[:, start:stop],
            self.mean[:, start:stop],
            self.deltas[:, start:stop],
        )


def _bnn_draw_eps(prior: Prior, num_draws: int, rng: Rng):
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


def _ns_inputs(prior: Prior, x: np.ndarray, num_draws: int, rng: Rng) -> np.ndarray:
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
    differentiable in ``params``, a name->Var dict of the prior's parameter
    leaves on that tape. Without a tape the same arithmetic runs in plain
    numpy on ``prior.params``; both paths consume the RNG identically, so
    their values agree bitwise. Neural-sampler draws run as one pass over
    all S*N rows; BNN draws run one pass per draw.
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
        ops, params = _NUMPY_OPS, prior.params
    else:
        ops = _tape_ops(tape)
        if params is None or sorted(params) != sorted(prior.params):
            raise ContractError("a taped draw needs params: a leaf for each prior parameter")

    if prior.family == "ns":
        f = ops.reshape(_forward(prior, _ns_inputs(prior, x, s, rng), ops, params), (s, n))
    elif tape is None:
        f = np.empty((s, n))
        for k, eps in enumerate(_bnn_draw_eps(prior, s, rng)):
            f[k] = _forward(prior, x, ops, params, eps)[:, 0]
    else:
        f = None
        eye = moment_constants(s).eye
        for k, eps in enumerate(_bnn_draw_eps(prior, s, rng)):
            row = ad.transpose(_forward(prior, x, ops, params, eps))
            term = ad.matmul(tape.constant(eye[:, k : k + 1]), row)
            f = term if f is None else ad.add(f, term)
    if tape is None:
        check_finite(f, "draw matrix")
    # arrays made per call: moment_constants builds S x S masks, and numeric S runs to thousands
    mean = ops.matmul(ops.const(np.full((1, s), 1.0 / s)), f)
    deltas = ops.sub(f, ops.matmul(ops.const(np.ones((s, 1))), mean))
    return FunctionDraws(f, mean, deltas)


# The arithmetic of a forward pass: plain numpy for prediction, tape ops for training.
# The numpy add_row and tanh write over their first operand, which is always an
# array the pass has just made; at S*N rows that saves two large temporaries.
_Ops = namedtuple("_Ops", "const add sub mul exp matmul add_row tanh relu reshape")
_NUMPY_OPS = _Ops(
    lambda v: v, np.add, np.subtract, np.multiply, np.exp, np.matmul,
    lambda h, b: np.add(h, b, out=h), lambda h: np.tanh(h, out=h),
    lambda h: np.where(h > 0.0, h, 0.0), np.reshape,
)


def _tape_ops(tape) -> _Ops:
    return _Ops(
        tape.constant, ad.add, ad.sub, ad.mul, ad.vexp, ad.matmul, ad.broadcast_add_row,
        ad.vtanh, ad.relu, ad.reshape,
    )


def _forward(prior: Prior, h: np.ndarray, ops: _Ops, p: dict, eps=None):
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


def kernel_normaliser(num_draws: int, estimator: str, psi: float = 0.0):
    """(denominator, ridge) of an estimator: K = (Delta^T Delta + ridge I) / denominator.

    'mle' is the plain average (S, no ridge). 'pm' is the inverse-Wishart
    posterior mean with ridge psi and as many degrees of freedom as
    evaluation points, which makes its denominator S - 1 at any number of
    points: a point's kernel never depends on which others are evaluated.
    """
    if estimator == "mle":
        return num_draws, 0.0
    if estimator == "pm":
        if not psi >= 0:
            raise ParameterError(f"psi must be >= 0, got {psi}")
        return num_draws - 1, psi
    raise ParameterError(f"unknown estimator {estimator!r}")

