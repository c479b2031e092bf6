"""Command-line surface.

Subcommands: synth, train, predict, eval, bench, gp-baseline.  Reports and
summaries go to stdout as canonical JSON; per-point predictions go to CSV.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import bench as benchmod
from . import data as datamod
from .errors import (
    ContractError,
    DimensionError,
    ModelFileError,
    NumericalError,
    ParameterError,
    ParseError,
)
from .inference import TrainConfig, train
from .modelfile import canonical_json, load_model, read_json, save_model
from .numkit import check_value_types
from .predict import gaussian_nll_rmse, posterior_predict


def _load_json_object(path) -> dict:
    d = read_json(path, ParseError)
    if not isinstance(d, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return d


def _load_config(path) -> TrainConfig:
    if path is None:
        return TrainConfig()
    return TrainConfig.from_dict(_load_json_object(path))


_CSV_BLOCK_ROWS = 1024


def _write_csv(path, header, rows):
    """Write a numeric table as CSV with CRLF line ends.

    Each value is written as its shortest round-trip ``repr``, which never
    holds a comma, quote or line break, so no cell needs quoting. Rows are
    rendered and written in blocks of ``_CSV_BLOCK_ROWS``, each by one
    ``%r`` format over the block's values, so the text of a large table is
    never held whole.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%r"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for i in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[i : i + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _cmd_synth(args) -> int:
    ds = datamod.synth_toy(args.n, args.seed, noise=args.noise)
    _write_csv(args.out, None, np.column_stack([ds.x, ds.y]))
    _emit({"kind": args.kind, "rows": ds.n, "columns": ds.d + 1, "path": args.out})
    return 0


def _fit(ds_std, cfg):
    """Train on a standardized dataset, honoring grid mode."""
    if cfg.sigma2_mode == "grid":
        return benchmod.grid_search_sigma2(ds_std, cfg)
    return train(ds_std.x, ds_std.y, cfg, stats=ds_std.stats)


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    raw = datamod.load_csv(args.data, has_header=args.has_header)
    ds = datamod.standardize(raw)
    model = _fit(ds, cfg)
    save_model(model, args.model_out)
    _emit(
        {
            "model": args.model_out,
            "rows": raw.n,
            "features": raw.d,
            "seed": model.config.seed,
            "sigma2": float(model.sigma2),
            "final_loss": model.loss_trace[-1] if model.loss_trace else None,
        }
    )
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    d = model.prior.input_dim
    try:
        raw = datamod.load_csv(args.data, has_header=args.has_header, input_dim=d)
    except ParseError as e:
        raise ParseError(
            f"{e} (vip predict reads the model's {d} feature columns, optionally "
            "followed by a target column whose values it ignores)"
        ) from None
    x = raw.x if model.stats is None else datamod.apply_stats(raw, model.stats).x
    pred = posterior_predict(model, x, mode=args.coeff)
    mean, var = datamod.destandardize_moments(pred.mean, pred.var_y, model.stats)
    header = [f"x{j + 1}" for j in range(raw.d)] + ["mean", "var_y"]
    _write_csv(args.out, header, np.column_stack([raw.x, mean, var]))
    _emit({"path": args.out, "rows": raw.n})
    return 0


def _cmd_eval(args) -> int:
    header, table = datamod.load_table(args.pred, has_header=True, positive=("var_y",))
    try:
        i_mean, i_var = header.index("mean"), header.index("var_y")
    except ValueError:
        raise ParseError(f"{args.pred}: header must name 'mean' and 'var_y' columns") from None
    for name in ("mean", "var_y"):
        if header.count(name) > 1:
            raise ParseError(f"{args.pred}: header names column {name!r} twice", row=1)
    data = datamod.load_csv(args.data, has_header=args.has_header)
    if data.n != table.shape[0]:
        raise ParseError(
            f"{args.pred}: {table.shape[0]} prediction rows, but {args.data} "
            f"has {data.n} data rows"
        )
    _emit({"n": data.n, **gaussian_nll_rmse(data.y, table[:, i_mean], table[:, i_var])})
    return 0


def _protocol_data(protocol, args):
    """The ``--data`` table a protocol runs on, or None for one that makes its own."""
    if not benchmod.needs_data(protocol):
        return None
    if args.data is None:
        raise ParameterError(f"--data is required for the {protocol} protocol")
    return datamod.load_csv(args.data, has_header=args.has_header)


def _cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    report = benchmod.run_protocol(
        args.protocol, cfg, data=_protocol_data(args.protocol, args),
        **{name: getattr(args, name) for name in benchmod.SPLIT_OPTIONS},
    )
    _emit(report)
    return 0


def _cmd_gp_baseline(args) -> int:
    opts = {}
    if args.grid_config is not None:
        opts = _load_json_object(args.grid_config)
        unknown = sorted(set(opts) - set(benchmod.GRID_CONFIG))
        if unknown:
            raise ParameterError(f"unknown grid-config keys: {', '.join(unknown)}")
        check_value_types(opts, benchmod.GRID_CONFIG)
    protocol = opts.pop("protocol", benchmod.GRID_CONFIG["protocol"])
    report = benchmod.gp_baseline_protocol(
        protocol, data=_protocol_data(protocol, args), **opts
    )
    _emit(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vip",
        description="Sampling-based function priors with GP surrogate inference.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    sp.add_argument("--kind", choices=["toy"], default="toy")
    sp.add_argument("--n", type=int, default=300)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", choices=datamod.NOISE_SCALES, default="var")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_synth)

    tp = sub.add_parser("train", help="fit a model and save it as JSON")
    tp.add_argument("--data", required=True)
    tp.add_argument("--config", default=None)
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument("--has-header", action="store_true")
    tp.add_argument("--model-out", required=True)
    tp.set_defaults(func=_cmd_train)

    pp = sub.add_parser("predict", help="write per-point predictions as CSV")
    pp.add_argument("--model", required=True)
    pp.add_argument("--data", required=True)
    pp.add_argument("--has-header", action="store_true")
    pp.add_argument("--coeff", choices=["learned", "exact"], default=None)
    pp.add_argument("--out", required=True)
    pp.set_defaults(func=_cmd_predict)

    ep = sub.add_parser("eval", help="score a prediction CSV against targets")
    ep.add_argument("--pred", required=True)
    ep.add_argument("--data", required=True)
    ep.add_argument("--has-header", action="store_true")
    ep.set_defaults(func=_cmd_eval)

    bp = sub.add_parser("bench", help="run a repeated-split benchmark protocol")
    bp.add_argument("--protocol", choices=benchmod.PROTOCOLS, required=True)
    bp.add_argument("--data", default=None)
    bp.add_argument("--config", default=None)
    opt = benchmod.SPLIT_OPTIONS
    bp.add_argument("--splits", type=int, default=opt["splits"])
    bp.add_argument("--seed", type=int, default=opt["seed"])
    bp.add_argument("--train-frac", type=float, default=opt["train_frac"])
    bp.add_argument("--segments", type=int, dest="n_segments", default=opt["n_segments"])
    bp.add_argument("--segment-len", type=int, default=opt["segment_len"])
    bp.add_argument("--toy-n", type=int, default=opt["toy_n"])
    bp.add_argument("--toy-noise", choices=datamod.NOISE_SCALES, default=opt["toy_noise"])
    bp.add_argument("--has-header", action="store_true")
    bp.set_defaults(func=_cmd_bench)

    gp = sub.add_parser("gp-baseline", help="exact GP baseline over the same splits")
    gp.add_argument("--data", default=None)
    gp.add_argument("--grid-config", default=None)
    gp.add_argument("--has-header", action="store_true")
    gp.set_defaults(func=_cmd_gp_baseline)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ContractError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ParseError, ModelFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
