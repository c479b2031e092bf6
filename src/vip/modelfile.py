"""Model persistence: the one module that knows the model-file layout.

One JSON document per model, rendered canonically (sorted keys, two-space
indent, no NaN, trailing newline) so identical models serialize to identical
bytes, and read back value by value through ``numkit.check_value_types``.
The standardized training block rides along because rank-reduced
prediction re-evaluates function draws jointly over train and test inputs.
"""

import json
import math
from dataclasses import fields

import numpy as np

from .data import Stats
from .errors import DimensionError, ModelFileError, ParameterError
from .inference import CoefficientPosterior, TrainConfig, TrainedModel, _check_sigma2
from .numkit import check_value_types
from .priors import Prior

FORMAT_VERSION = 2

# Each prior family's per-layer arrays: model-file key -> parameter-name prefix.
_PRIOR_ARRAYS = {
    "bnn": {"weight_mean": "w_mean", "weight_log_scale": "w_log_scale",
            "bias_mean": "b_mean", "bias_log_scale": "b_log_scale"},
    "ns": {"weights": "w", "biases": "b"},
}

# The type each value is read as: an array stands for JSON lists nested as
# deep as its ndim around finite numbers, a tuple for a list of its item.
_VECTOR, _MATRIX = np.zeros(1), np.zeros((1, 1))
_TOP = {"seed": 0, "sigma2": 0.1}
_Q = {"mu": _VECTOR, "chol": _MATRIX}
_TRAIN = {"x": _MATRIX, "y": _VECTOR}
_STATS = {"feature_means": _VECTOR, "feature_stds": _VECTOR, "target_mean": 0.0, "target_std": 0.0}
_CONFIG = {f.name: f.default for f in fields(TrainConfig)}


def canonical_json(obj) -> str:
    """Stable rendering used for every JSON artifact this package writes."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def read_json(path, error):
    """The JSON value in the file at ``path``. Bad JSON, bytes that are not
    UTF-8 and a key repeated within one object raise ``error`` naming the file."""

    def unique_keys(pairs):
        d = {}
        for key, value in pairs:
            if key in d:  # json.load would keep the last value and drop this one
                raise error(f"{path}: key {key!r} appears twice in one object")
            d[key] = value
        return d

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except ValueError as e:  # bad JSON or bytes that are not UTF-8
            raise error(f"{path}: not valid UTF-8 JSON ({e})") from e


def model_to_dict(model: TrainedModel) -> dict:
    p = model.prior
    prior = {"family": p.family, "layer_sizes": list(p.layer_sizes), "activation": p.activation}
    for key, prefix in _PRIOR_ARRAYS[p.family].items():
        prior[key] = [p.params[f"{prefix}_{l}"].tolist() for l in range(len(p.layer_sizes) - 1)]
    if p.family == "ns":
        prior.update(noise_dim=p.noise_dim, noise_halfwidth=p.noise_halfwidth)
    return {
        "format_version": FORMAT_VERSION,
        "seed": model.config.seed,
        "sigma2": float(model.sigma2),
        "config": model.config.to_dict(),
        "prior": prior,
        "q": {"mu": model.q.mu.tolist(), "chol": model.q.chol.tolist()},
        "stats": None if model.stats is None else {
            k: np.asarray(v, float).tolist() for k, v in vars(model.stats).items()
        },
        "train": {"x": model.train_x.tolist(), "y": model.train_y.tolist()},
    }


_REQUIRED = ("format_version", "seed", "sigma2", "config", "prior", "q", "train")


def _read(block: dict, where: str, types: dict) -> dict:
    """The values of ``types``' keys in ``block``, by the type rule; a missing key reads as null."""
    return check_value_types({k: block.get(k) for k in types}, types, where)


def _prior_from_dict(d: dict) -> Prior:
    family = d.get("family")
    # an unknown family reads no arrays; Prior then rejects it by name
    keys = _PRIOR_ARRAYS.get(family, {}) if isinstance(family, str) else {}
    layers = _read(d, "prior.", dict.fromkeys(keys, (_MATRIX,)))
    params = {f"{keys[k]}_{l}": a for k, arrays in layers.items() for l, a in enumerate(arrays)}
    noise = (d.get("noise_dim"), d.get("noise_halfwidth")) if family == "ns" else ()
    return Prior(family, d.get("layer_sizes"), d.get("activation"), params, *noise)


def _check_stats(stats: Stats, input_dim: int) -> None:
    for name in ("feature_means", "feature_stds"):
        if getattr(stats, name).shape != (input_dim,):
            raise ModelFileError(f"stats.{name} must hold {input_dim} finite entries")
    if np.any(stats.feature_stds <= 0.0):
        raise ModelFileError("stats.feature_stds must be positive")
    if not stats.target_std > 0.0:
        raise ModelFileError("stats.target_std must be positive and finite")


def _check_agreement(config: dict, prior: Prior, seed: int) -> None:
    """The config block, its values type-checked and its missing keys at
    their defaults, restates the prior's settings and the file's seed; each
    copy must agree. A bnn prior has no noise settings, so its config's go unread."""
    sizes = list(prior.layer_sizes)
    rules = [("prior_family", "prior.family", prior.family, prior.family),
             ("hidden", "prior.layer_sizes", sizes, sizes[1:-1]),
             ("activation", "prior.activation", prior.activation, prior.activation),
             ("seed", "seed", seed, seed)]
    if prior.family == "ns":
        rules += [(k, f"prior.{k}", getattr(prior, k), getattr(prior, k))
                  for k in ("noise_dim", "noise_halfwidth")]
    for key, other, shown, expected in rules:
        value = config[key]
        value = list(value) if isinstance(value, tuple) else value
        if value != expected:
            raise ModelFileError(
                f"malformed model file: config.{key} {value!r} disagrees with {other} {shown!r}"
            )


def model_from_dict(d: dict) -> TrainedModel:
    if not isinstance(d, dict):
        raise ModelFileError("model file must contain a JSON object")
    missing = [k for k in _REQUIRED if k not in d]
    if missing:
        raise ModelFileError(f"model file missing fields: {', '.join(missing)}")
    try:  # a ModelFileError raised in here passes through as it is
        version = _read(d, "", {"format_version": FORMAT_VERSION})["format_version"]
        if version != FORMAT_VERSION:  # before other values, which a version may retype
            raise ModelFileError(
                f"unsupported format_version {version!r}, expected {FORMAT_VERSION}"
            )
        top = _read(d, "", _TOP)
        for key in ("config", "prior", "q", "train", "stats"):
            if not (isinstance(d.get(key), dict) or key == "stats" and d.get(key) is None):
                or_null = " or null" if key == "stats" else ""
                raise ModelFileError(f"model file field {key!r} must be a JSON object{or_null}")
        sigma2 = _check_sigma2(top["sigma2"])
        prior = _prior_from_dict(d["prior"])
        q = CoefficientPosterior(**_read(d["q"], "q.", _Q))
        # typed here as well as in TrainConfig, so that the error names config.<key>
        cfg = d["config"]
        check_value_types({k: cfg[k] for k in _CONFIG if k in cfg}, _CONFIG, "config.")
        # before TrainConfig, whose rule for the prior's settings names no block
        _check_agreement({**_CONFIG, **cfg}, prior, top["seed"])
        try:
            config = TrainConfig.from_dict(cfg)
        except ParameterError as e:  # a range or unknown-key error names no block
            raise ParameterError(f"config: {e}") from e
        stats = None if d.get("stats") is None else Stats(**_read(d["stats"], "stats.", _STATS))
        train = _read(d["train"], "train.", _TRAIN)
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError, DimensionError) as e:
        raise ModelFileError(f"malformed model file: {e}") from e
    train_x, train_y = train["x"], train["y"]
    if train_x.shape[1] != prior.input_dim:
        raise ModelFileError(
            f"train.x has shape {train_x.shape}, prior.input_dim is {prior.input_dim}"
        )
    if train_y.shape != (train_x.shape[0],):
        raise ModelFileError(
            f"train.y has shape {train_y.shape}, train.x has {train_x.shape[0]} rows"
        )
    # the exact posterior is linear in train.y; targets whose sum of squares
    # overflows overflow it too (vip train writes standardised targets)
    with np.errstate(over="ignore"):
        if not math.isfinite(train_y @ train_y):
            raise ModelFileError("train.y is too large: its sum of squares overflows")
    if q.dim != config.num_draws:
        raise ModelFileError(f"q has dimension {q.dim}, config.num_draws is {config.num_draws}")
    if stats is not None:
        _check_stats(stats, prior.input_dim)
    return TrainedModel(
        prior=prior, q=q, sigma2=sigma2, config=config, loss_trace=[],
        train_x=train_x, train_y=train_y, stats=stats,
    )


def save_model(model: TrainedModel, path: str) -> None:
    """Render first, then write: a model that cannot be rendered leaves any
    file already at ``path`` as it was."""
    text = canonical_json(model_to_dict(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str) -> TrainedModel:
    return model_from_dict(read_json(path, ModelFileError))
