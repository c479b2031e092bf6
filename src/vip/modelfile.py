"""Model persistence: the one module that knows the model-file layout.

One JSON document per model, rendered canonically (sorted keys, two-space
indent, no NaN, trailing newline) so identical models serialize to identical
bytes, and read back value by value through ``numkit.check_value_types``.
Each fact is stored once: the config block is the only copy of the seed and
of the prior's settings, the prior block maps each name in ``Prior.params``
to its matrix, and the input width is train.x's. The standardized training
block rides along because the exact coefficient posterior is derived from
function draws at the training inputs.
"""

import json
import math
from dataclasses import fields

import numpy as np

from .data import Stats
from .errors import ContractError, DimensionError, ModelFileError, ParameterError
from .inference import CoefficientPosterior, TrainConfig, TrainedModel, _check_sigma2
from .numkit import check_value_types, reject_unknown
from .priors import Prior

FORMAT_VERSION = 3

# The type each value is read as: an array stands for JSON lists nested as
# deep as its ndim around finite numbers, a tuple for a list of its item.
_VECTOR, _MATRIX = np.zeros(1), np.zeros((1, 1))
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
    p, cfg = model.prior, model.config
    # the config and train.x's width are the file's one record of the prior's settings
    sizes = (model.train_x.shape[1] + p.noise_dim, *cfg.hidden, 1)
    if (p.family, p.layer_sizes, p.activation, (p.noise_dim, p.noise_halfwidth)) != (
            cfg.prior_family, sizes, cfg.activation, cfg.prior_noise):
        raise ContractError("the model's prior does not have its config's settings")
    return {
        "format_version": FORMAT_VERSION,
        "sigma2": float(model.sigma2),
        "config": cfg.to_dict(),
        "prior": {name: a.tolist() for name, a in p.params.items()},
        "q": {"mu": model.q.mu.tolist(), "chol": model.q.chol.tolist()},
        "stats": None if model.stats is None else {
            k: np.asarray(v, float).tolist() for k, v in vars(model.stats).items()
        },
        "train": {"x": model.train_x.tolist(), "y": model.train_y.tolist()},
    }


_REQUIRED = ("format_version", "sigma2", "config", "prior", "q", "train")


def _read(block: dict, where: str, types: dict) -> dict:
    """The values of ``types``' keys in ``block``, by the type rule; a missing key reads as null."""
    return check_value_types({k: block.get(k) for k in types}, types, where)


def _check_stats(stats: Stats, input_dim: int) -> None:
    for name in ("feature_means", "feature_stds"):
        if getattr(stats, name).shape != (input_dim,):
            raise ModelFileError(f"stats.{name} must hold {input_dim} finite entries")
    if np.any(stats.feature_stds <= 0.0):
        raise ModelFileError("stats.feature_stds must be positive")
    if not stats.target_std > 0.0:
        raise ModelFileError("stats.target_std must be positive and finite")


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
        reject_unknown(d, (*_REQUIRED, "stats"), "unknown fields")  # the version sets the keys
        sigma2 = _check_sigma2(_read(d, "", {"sigma2": 0.1})["sigma2"])
        for key in ("config", "prior", "q", "train", "stats"):
            if not (isinstance(d.get(key), dict) or key == "stats" and d.get(key) is None):
                or_null = " or null" if key == "stats" else ""
                raise ModelFileError(f"model file field {key!r} must be a JSON object{or_null}")
        # typed here as well as in TrainConfig, so that the error names config.<key>
        cfg = d["config"]
        check_value_types({k: cfg[k] for k in _CONFIG if k in cfg}, _CONFIG, "config.")
        try:
            config = TrainConfig.from_dict(cfg)
        except ParameterError as e:  # a range or unknown-key error names no block
            raise ParameterError(f"config: {e}") from e
        params = check_value_types(d["prior"], dict.fromkeys(d["prior"], _MATRIX), "prior.")
        for key, types in (("q", _Q), ("stats", _STATS), ("train", _TRAIN)):
            reject_unknown(d.get(key) or {}, types, "unknown fields", f"{key}.")
        q = CoefficientPosterior(**_read(d["q"], "q.", _Q))
        stats = None if d.get("stats") is None else Stats(**_read(d["stats"], "stats.", _STATS))
        train = _read(d["train"], "train.", _TRAIN)
        # the config is the one copy of the network's settings, train.x of its input width
        noise = config.prior_noise
        sizes = (train["x"].shape[1] + noise[0], *config.hidden, 1)
        prior = Prior(config.prior_family, sizes, config.activation, params, *noise)
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError, DimensionError) as e:
        raise ModelFileError(f"malformed model file: {e}") from e
    train_x, train_y = train["x"], train["y"]
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
