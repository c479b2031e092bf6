"""Experiment protocols: repeated-split benchmarks and the noise grid search.

Every split gets its own seed derived from the master seed, so reports are
pure functions of (input data, config, master seed) and adding splits never
perturbs earlier ones.
"""

import math
from dataclasses import replace

import numpy as np

from . import data as datamod
from .baseline_gp import gp_fit_grid, gp_predict
from .errors import ParameterError, ParseError
from .inference import TrainConfig, TrainedModel, train
from .numkit import STREAM_GRID, derive_seed
from .predict import nll_rmse, posterior_predict

# offset keeping per-split seeds clear of the fixed per-purpose streams
SPLIT_STREAM_BASE = 100
PROTOCOLS = ("toy", "uci", "interp")
# every protocol's options with their defaults: the split schedule and how a
# split is made (uci reads train_frac, interp the segments, toy toy_n and toy_noise)
SPLIT_OPTIONS = {"splits": 5, "seed": 0, "train_frac": 0.9, "n_segments": 5,
                 "segment_len": 20, "toy_n": 300, "toy_noise": "std"}
# share of the training rows the noise grid search holds out for validation
GRID_VAL_FRAC = 0.2


def grid_search_sigma2(ds: datamod.Dataset, cfg: TrainConfig) -> TrainedModel:
    """Pick sigma2 from cfg.sigma2_grid by validation NLL, then refit on all of ds.

    One model is trained on the sub-training rows; each grid value is scored
    by re-deriving the exact coefficient posterior at that sigma2 (the draws
    are pinned by the model seed, so nothing else moves).  Ties go to the
    smallest sigma2.  A single-element grid skips the search entirely.
    Returns the refit model, whose sigma2 is the value picked.
    """
    grid = sorted(float(g) for g in cfg.sigma2_grid)
    best = grid[0]
    if len(set(grid)) > 1:
        sub_tr, val = datamod.split(ds, 1.0 - GRID_VAL_FRAC, derive_seed(cfg.seed, STREAM_GRID))
        probe = train(sub_tr.x, sub_tr.y, replace(cfg, sigma2_mode="fixed"))
        best_nll = math.inf
        for s2 in grid:
            pred = posterior_predict(replace(probe, sigma2=s2), val.x, mode="exact")
            nll = nll_rmse(pred, val.y)["nll"]
            if nll < best_nll:
                best, best_nll = s2, nll

    return train(ds.x, ds.y, replace(cfg, sigma2_mode="fixed", sigma2=best), stats=ds.stats)


def _mean_se(values):
    v = np.asarray(values, dtype=float)
    mean = float(v.mean())
    se = 0.0 if v.size < 2 else float(v.std(ddof=1) / math.sqrt(v.size))
    return mean, se


def needs_data(protocol) -> bool:
    """Whether ``protocol`` runs on a given dataset; the toy protocol makes its own."""
    if protocol not in PROTOCOLS:
        raise ParameterError(f"unknown protocol {protocol!r}")
    return protocol != "toy"


def _split_for(protocol, data, k_seed, opts):
    if protocol == "toy":
        train = datamod.synth_toy(opts["toy_n"], k_seed, noise=opts["toy_noise"])
        return train, datamod.toy_grid(1000)
    if protocol == "uci":
        return datamod.split(data, opts["train_frac"], k_seed)
    return datamod.interp_split(data, opts["n_segments"], opts["segment_len"], k_seed)


def _repeated_splits(protocol, data, fit_predict, options, head=None) -> dict:
    """Run ``fit_predict`` on every split and summarize on the original scale.

    ``options`` override ``SPLIT_OPTIONS``' defaults by name.
    ``fit_predict(train, test_x, split_seed)`` gets the standardized training
    set and test inputs and returns (predictive distribution, extra per-split
    fields). ``head`` adds report fields after ``protocol``.
    """
    unknown = sorted(set(options) - set(SPLIT_OPTIONS))
    if unknown:
        raise ParameterError(f"unknown protocol options: {', '.join(unknown)}")
    opts = {**SPLIT_OPTIONS, **options}
    splits, seed = opts["splits"], opts["seed"]
    if needs_data(protocol) and data is None:
        raise ParameterError(f"{protocol} protocol needs a dataset")
    if splits < 1:
        raise ParameterError("splits must be >= 1")
    if protocol == "toy" and opts["toy_n"] < 2:
        # one row has a constant feature column, which standardising rejects
        raise ParameterError(f"toy_n must be >= 2, got {opts['toy_n']}")
    per = []
    for k in range(splits):
        sk = derive_seed(seed, SPLIT_STREAM_BASE + k)
        raw_tr, raw_te = _split_for(protocol, data, sk, opts)
        try:
            stats = datamod.compute_stats(raw_tr)
        except ParseError as e:
            raise ParseError(f"split {k} training rows: {e}", col=e.col) from None
        tr = datamod.apply_stats(raw_tr, stats)
        pred, fields = fit_predict(tr, datamod.apply_stats(raw_te, stats).x, sk)
        metrics = nll_rmse(pred, raw_te.y, stats=stats)
        per.append(
            {"split": k, "seed": sk, **fields, "nll": metrics["nll"], "rmse": metrics["rmse"]}
        )
    nll_mean, nll_se = _mean_se([p["nll"] for p in per])
    rmse_mean, rmse_se = _mean_se([p["rmse"] for p in per])
    return {
        "protocol": protocol,
        **(head or {}),
        "splits": splits,
        "seed": seed,
        "nll_mean": nll_mean,
        "nll_se": nll_se,
        "rmse_mean": rmse_mean,
        "rmse_se": rmse_se,
        "per_split": per,
    }


def run_protocol(protocol: str, cfg: TrainConfig, data: datamod.Dataset = None, **options) -> dict:
    """Train and evaluate over repeated splits; metrics on the original scale.

    toy: fresh synthetic training draw per split, scored on the noiseless
    1000-point grid.  uci: random train/test splits.  interp: contiguous
    segments held out.  sigma2_mode 'grid' in cfg routes each split through
    grid_search_sigma2.  ``options`` are ``SPLIT_OPTIONS`` by name.
    """

    def fit_predict(tr, te_x, sk):
        cfg_k = replace(cfg, seed=sk)
        if cfg.sigma2_mode == "grid":
            model = grid_search_sigma2(tr, cfg_k)
        else:
            model = train(tr.x, tr.y, cfg_k, stats=tr.stats)
        return posterior_predict(model, te_x), {"sigma2": float(model.sigma2)}

    return _repeated_splits(protocol, data, fit_predict, options)


DEFAULT_GP_LENGTHSCALES = (0.3, 1.0, 3.0)
DEFAULT_GP_SIGNAL_VARIANCES = (0.5, 1.0, 2.0)
DEFAULT_GP_SIGMA2S = (0.01, 0.05, 0.1, 0.5, 1.0)
# gp-baseline's grid-config keys and their defaults
GRID_CONFIG = {"protocol": "uci", "lengthscales": DEFAULT_GP_LENGTHSCALES,
               "signal_variances": DEFAULT_GP_SIGNAL_VARIANCES, "sigma2s": DEFAULT_GP_SIGMA2S,
               **SPLIT_OPTIONS}


def gp_baseline_protocol(
    protocol: str = GRID_CONFIG["protocol"],
    data: datamod.Dataset = None,
    lengthscales=DEFAULT_GP_LENGTHSCALES,
    signal_variances=DEFAULT_GP_SIGNAL_VARIANCES,
    sigma2s=DEFAULT_GP_SIGMA2S,
    **options,
) -> dict:
    """Same split schedule as run_protocol, with an exact squared-exponential
    GP fit by marginal-likelihood grid search as the model."""

    def fit_predict(tr, te_x, sk):
        fit = gp_fit_grid(tr.x, tr.y, lengthscales, signal_variances, sigma2s)
        pred = gp_predict(fit.kernel, tr.x, tr.y, fit.sigma2, te_x)
        return pred, {
            "lengthscale": fit.kernel.lengthscale,
            "signal_variance": fit.kernel.signal_variance,
            "sigma2": fit.sigma2,
            "log_marginal": fit.log_marginal,
        }

    return _repeated_splits(protocol, data, fit_predict, options, head={"model": "gp_rbf_baseline"})
