"""sha256 digests of what the ``vip`` command writes, over a fixed matrix.

Two source trees behave the same when their digest files are equal: every
model file, summary, prediction CSV, report and error text matches byte for
byte. Each trained model also gets a ``model-content:<name>`` digest of what
``load_model`` reads from its file, which does not depend on the file's
layout: two trees whose model files differ only in format give equal ones.

    python tools/byte_matrix.py TREE OUT.json [--configs K]
    python tools/byte_matrix.py --compare A.json B.json

The first form imports ``vip`` from ``TREE/src`` and runs ``vip.cli.main``
in-process, at one BLAS thread, in a fresh temporary directory, so every
path a command prints is the same relative path on both sides. It covers:

- the 32 training configs bnn/ns x alpha 0/0.5 x mle/pm (psi 0.1) x
  fixed/learned sigma2 x full batch/batch 16: each model file and train
  summary, the exact and learned prediction CSVs with their summaries, and
  the ``vip eval`` report of each CSV; then the exact and learned prediction
  CSVs, with their summaries, of a one-row CSV (the first row of the
  prediction data), since BLAS may round a row by how many rows it comes with;
- ``vip bench`` toy, uci and interp reports;
- ``vip gp-baseline`` at N=80 and N=1000;
- on a fixed CSV of 1,000 rows with three input columns, ``vip gp-baseline``
  (uci, 2 splits) and one train, exact predict and eval, so multi-column
  Grams and first layers are covered;
- the exit code, stdout and stderr of a fixed list of failing invocations.

``--configs K`` runs only the first K training configs and nothing else,
a quick check that the tool itself is deterministic. The second form
prints every name whose digest differs or is missing on one side, and
exits 1 if there is any.
"""

import os

# one BLAS thread, fixed before numpy loads, so a sum's order cannot depend
# on a thread split
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

TRAIN_BASE = {"epochs": 25, "num_draws": 8, "hidden": [10, 10], "noise_dim": 3, "seed": 7}
BENCH_BASE = {"epochs": 40, "num_draws": 10, "hidden": [10, 10], "sigma2_mode": "fixed"}

# name, config (or None; a string is written as it is), argv after the
# config, which gp-baseline reads by --grid-config; each exits non-zero
FAILING = [
    ("diverging-bnn-update", {"learning_rate": 1000.0, "epochs": 3},
     ["train", "--data", "toy300.csv"]),
    # epoch 0's update moves every group by about 1e300: finite, but its
    # sum of squares overflows
    ("diverging-ns-forward",
     {"epochs": 2, "num_draws": 5, "learning_rate": 1e300, "hidden": [10, 10],
      "prior_family": "ns", "sigma2_mode": "fixed"},
     ["train", "--data", "toy300.csv"]),
    ("unknown-config-key", {"epochs": 1, "no_such_key": 1}, ["train", "--data", "train.csv"]),
    ("mistyped-config-value", {"epochs": "3"}, ["train", "--data", "train.csv"]),
    ("bad-csv-cell", None, ["train", "--data", "bad.csv"]),
    ("missing-data-file", None, ["train", "--data", "absent.csv"]),
    ("missing-model-file", None,
     ["predict", "--model", "absent.json", "--data", "rows.csv", "--out", "p.csv"]),
    ("eval-row-mismatch", None, ["eval", "--pred", "short.csv", "--data", "rows.csv"]),
    ("bench-uci-without-data", None, ["bench", "--protocol", "uci"]),
    ("gp-baseline-unknown-protocol", {"protocol": "foo"}, ["gp-baseline"]),
    ("repeated-config-key", '{"epochs": 1, "num_draws": 4, "epochs": 2}',
     ["train", "--data", "train.csv"]),
    # the first training config's model file, with config.hidden edited
    ("config-does-not-fit-prior", None,
     ["predict", "--model", "unfit.model.json", "--data", "rows.csv", "--out", "p.csv"]),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file(path) -> str:
    return _digest(Path(path).read_bytes())


def _model_content(path) -> str:
    """A digest of the model ``vip.modelfile.load_model`` reads from ``path``:
    the prior's arrays by name, q, repr(sigma2), the config's canonical JSON,
    the training block and the stats, each array with its name and shape."""
    import numpy as np
    from vip.modelfile import canonical_json, load_model

    m = load_model(path)
    arrays = {f"prior.{k}": v for k, v in sorted(m.prior.params.items())}
    arrays.update({"q.mu": m.q.mu, "q.chol": m.q.chol, "train_x": m.train_x,
                   "train_y": m.train_y})
    if m.stats is not None:
        arrays.update({f"stats.{k}": v for k, v in sorted(vars(m.stats).items())})
    h = hashlib.sha256()
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, dtype=float)
        h.update(f"{name} {a.shape}\n".encode() + a.tobytes())
    h.update(f"sigma2 {m.sigma2!r}\n".encode())
    h.update(canonical_json(m.config.to_dict()).encode())
    return h.hexdigest()


class _Runner:
    """Runs ``vip`` commands in-process and records digests by name."""

    def __init__(self, main):
        self.main = main
        self.digests = {}

    def run(self, name, argv, outputs=()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main(argv)
        self.digests[f"{name}.exit"] = str(code)
        self.digests[f"{name}.stdout"] = _digest(out.getvalue().encode())
        self.digests[f"{name}.stderr"] = _digest(err.getvalue().encode())
        for path in outputs:
            self.digests[f"{name}:{path}"] = _file(path) if os.path.exists(path) else "missing"

    def train(self, name, argv, model):
        """``run`` a train command, then digest the contents of the model it wrote."""
        self.run(f"train-{name}", argv + ["--model-out", model], [model])
        self.digests[f"model-content:{name}"] = (
            _model_content(model) if os.path.exists(model) else "missing"
        )


def _config(name, cfg) -> str:
    path = f"{name}.config.json"
    Path(path).write_text(cfg if isinstance(cfg, str) else json.dumps(cfg, sort_keys=True))
    return path


def _d3_row(i: int) -> list:
    """Row i of the three-column CSV: smooth inputs in [-2, 2] and a target
    that reads all three."""
    x = [2.0 * math.sin(0.37 * (i + 1) * (j + 1) + j) for j in range(3)]
    return x + [math.sin(x[0]) + 0.5 * x[1] * x[2] + 0.1 * math.cos(7.0 * i)]


def _train_configs():
    for family, alpha, est, mode, batch in itertools.product(
        ("bnn", "ns"), (0.0, 0.5), ("mle", "pm"), ("fixed", "learned"), (0, 16)
    ):
        cfg = dict(TRAIN_BASE, prior_family=family, alpha=alpha, estimator=est,
                   psi=0.1 if est == "pm" else 0.0, sigma2_mode=mode, batch_size=batch)
        yield f"{family}-a{alpha}-{est}-{mode}-b{batch}", cfg


def run_matrix(tree: Path, configs=None) -> dict:
    sys.path.insert(0, str(tree.resolve() / "src"))
    from vip import cli

    r = _Runner(cli.main)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="byte-matrix-") as work:
        os.chdir(work)
        try:
            _run_commands(r, configs)
        finally:
            os.chdir(home)
    return r.digests


def _run_commands(r: _Runner, configs) -> None:
    """Every command of the matrix, run in the current directory; with
    ``configs``, only the synth commands and the first ``configs`` train configs."""
    for name, n, seed, noise in (("train", "80", "3", "std"), ("rows", "120", "4", "var"),
                                 ("gp", "1000", "5", "std"), ("toy300", "300", "0", "std")):
        r.run(f"synth-{name}", ["synth", "--n", n, "--seed", seed, "--noise", noise,
                                "--out", f"{name}.csv"], [f"{name}.csv"])
    Path("one.csv").write_text(Path("rows.csv").read_text().splitlines(keepends=True)[0])
    for name, cfg in itertools.islice(_train_configs(), configs):
        model = f"{name}.model.json"
        r.train(name, ["train", "--data", "train.csv", "--config", _config(name, cfg)], model)
        for coeff in ("exact", "learned"):
            pred = f"{name}.{coeff}.csv"
            r.run(f"predict-{name}-{coeff}", ["predict", "--model", model, "--data",
                                              "rows.csv", "--coeff", coeff, "--out", pred],
                  [pred])
            r.run(f"eval-{name}-{coeff}", ["eval", "--pred", pred, "--data", "rows.csv"])
            pred = f"{name}.one.{coeff}.csv"
            r.run(f"predict-one-{name}-{coeff}", ["predict", "--model", model, "--data",
                                                  "one.csv", "--coeff", coeff, "--out", pred],
                  [pred])
    if configs is not None:
        return

    bench = _config("bench", BENCH_BASE)
    r.run("bench-toy", ["bench", "--protocol", "toy", "--config", bench, "--splits", "2"])
    r.run("bench-uci", ["bench", "--protocol", "uci", "--config", bench, "--splits", "2",
                        "--data", "train.csv"])
    r.run("bench-interp", ["bench", "--protocol", "interp", "--config", bench,
                           "--data", "train.csv", "--segments", "2", "--segment-len", "10"])
    grid = _config("grid", {"splits": 2})
    for name, csv in (("gp-baseline-80", "train.csv"), ("gp-baseline-1000", "gp.csv")):
        r.run(name, ["gp-baseline", "--data", csv, "--grid-config", grid])

    Path("d3.csv").write_text("".join(",".join(map(repr, _d3_row(i))) + "\n"
                                      for i in range(1000)))
    r.run("gp-baseline-d3", ["gp-baseline", "--data", "d3.csv", "--grid-config", grid])
    r.train("d3", ["train", "--data", "d3.csv", "--config", _config("d3", TRAIN_BASE)],
            "d3.model.json")
    r.run("predict-d3", ["predict", "--model", "d3.model.json", "--data", "d3.csv",
                         "--coeff", "exact", "--out", "d3.exact.csv"], ["d3.exact.csv"])
    r.run("eval-d3", ["eval", "--pred", "d3.exact.csv", "--data", "d3.csv"])

    Path("bad.csv").write_text("0.5,1.0\n0.25,abc\n")
    Path("short.csv").write_text("x1,mean,var_y\n0.0,0.0,1.0\n")
    model = json.loads(Path(f"{next(_train_configs())[0]}.model.json").read_text())
    model["config"]["hidden"] = [7, 7]
    Path("unfit.model.json").write_text(json.dumps(model))
    for name, cfg, argv in FAILING:
        if cfg is not None:
            flag = "--grid-config" if argv[0] == "gp-baseline" else "--config"
            argv = argv + [flag, _config(name, cfg)]
        if argv[0] == "train":
            argv = argv + ["--model-out", f"{name}.model.json"]
        r.run(f"fail-{name}", argv)


def compare(a: dict, b: dict) -> list:
    """Names whose digests differ or that only one side has, sorted."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("paths", nargs=2, metavar="PATH",
                   help="TREE OUT.json, or with --compare the two digest files")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--configs", type=int, default=None)
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(x).read_text())["digests"] for x in args.paths)
        diff = compare(a, b)
        for name in diff:
            print(f"differs: {name}")
        print(f"{len(a.keys() | b.keys()) - len(diff)} identical, {len(diff)} differ")
        return 1 if diff else 0
    tree, out = (Path(x).resolve() for x in args.paths)
    digests = run_matrix(tree, args.configs)
    out.write_text(json.dumps({"digests": digests, "count": len(digests)}, indent=1,
                              sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
