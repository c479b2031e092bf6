"""Model persistence.

One JSON document per model, rendered canonically (sorted keys, two-space
indent, no NaN, trailing newline) so identical models serialize to identical
bytes.  The standardized training block rides along because rank-reduced
prediction re-evaluates function draws jointly over train and test inputs.
"""

import json
import math

import numpy as np

from .data import Stats
from .errors import DimensionError, ModelFileError, ParameterError
from .inference import (
    CoefficientPosterior,
    TrainConfig,
    TrainedModel,
    _check_sigma2,
    check_value_types,
)
from .numkit import all_finite
from .priors import prior_from_dict

FORMAT_VERSION = 2


def canonical_json(obj) -> str:
    """Stable rendering used for every JSON artifact this package writes."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": int(model.seed),
        "sigma2": float(model.sigma2),
        "config": model.config.to_dict(),
        "prior": model.prior.to_dict(),
        "q": {
            "mu": [float(v) for v in model.q.mu],
            "chol": model.q.chol.tolist(),
        },
        "stats": None if model.stats is None else model.stats.to_dict(),
        "train": {
            "x": model.train_x.tolist(),
            "y": [float(v) for v in model.train_y],
        },
    }


_REQUIRED = ("format_version", "seed", "sigma2", "config", "prior", "q", "train")
_SCALARS = {"seed": 0, "sigma2": 0.1}  # typed like these


def _check_stats(stats: Stats, input_dim: int) -> None:
    for name in ("feature_means", "feature_stds"):
        v = getattr(stats, name)
        if v.shape != (input_dim,) or not all_finite(v):
            raise ModelFileError(f"stats.{name} must hold {input_dim} finite entries")
    if np.any(stats.feature_stds <= 0.0):
        raise ModelFileError("stats.feature_stds must be positive")
    if not math.isfinite(stats.target_mean):
        raise ModelFileError("stats.target_mean must be finite")
    if not (stats.target_std > 0.0 and math.isfinite(stats.target_std)):
        raise ModelFileError("stats.target_std must be positive and finite")


def _finite_array(name: str, value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if not all_finite(a):
        raise ModelFileError(f"{name} has non-finite entries")
    return a


def model_from_dict(d: dict) -> TrainedModel:
    if not isinstance(d, dict):
        raise ModelFileError("model file must contain a JSON object")
    missing = [k for k in _REQUIRED if k not in d]
    if missing:
        raise ModelFileError(f"model file missing fields: {', '.join(missing)}")
    if d["format_version"] != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported format_version {d['format_version']!r}, expected {FORMAT_VERSION}"
        )
    for key in ("config", "prior", "q", "train", "stats"):
        if not (isinstance(d.get(key), dict) or key == "stats" and d.get(key) is None):
            or_null = " or null" if key == "stats" else ""
            raise ModelFileError(f"model file field {key!r} must be a JSON object{or_null}")
    try:
        check_value_types({k: d[k] for k in _SCALARS}, _SCALARS)
        sigma2 = _check_sigma2(d["sigma2"])
        seed = int(d["seed"])
        prior = prior_from_dict(d["prior"])
        q = CoefficientPosterior(
            _finite_array("q.mu", d["q"]["mu"]), _finite_array("q.chol", d["q"]["chol"])
        )
        config = TrainConfig.from_dict(d["config"])
        stats = None if d.get("stats") is None else Stats.from_dict(d["stats"])
        train_x = _finite_array("train.x", d["train"]["x"])
        train_y = _finite_array("train.y", d["train"]["y"])
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError, DimensionError) as e:
        raise ModelFileError(f"malformed model file: {e}") from e
    if train_x.ndim != 2 or train_x.shape[1] != prior.input_dim:
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
        prior=prior,
        q=q,
        sigma2=sigma2,
        config=config,
        seed=seed,
        loss_trace=[],
        train_x=train_x,
        train_y=train_y,
        stats=stats,
    )


def save_model(model: TrainedModel, path: str) -> None:
    """Render first, then write: a model that cannot be rendered leaves any
    file already at ``path`` as it was."""
    text = canonical_json(model_to_dict(model))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path: str) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as e:  # bad JSON or bytes that are not UTF-8
            raise ModelFileError(f"{path}: not valid UTF-8 JSON ({e})") from e
    return model_from_dict(d)
