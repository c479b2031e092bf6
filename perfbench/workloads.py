"""The four benchmark workloads.

Each workload is a closed loop with one client: the next op starts only when
the previous one has returned, as a researcher waits for each fit or
prediction. A workload has three parts:

- ``prepare(seed, workdir)``: set-up, timed as ``setup_s``;
- ``op(k)``: one timed unit of work;
- ``check(k, result)``: untimed output checks, returning an ``Outcome``.

Each workload times its own small units of work (an epoch, a request, a grid
cell) and follows each with a run of ``Reference``. Op 1 repeats op 0 with the
same inputs, so every run checks that an identical op gives byte-identical
output. The library is called only through module attributes
(``vip.bench.run_protocol``, not a ``from`` import), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import vip.baseline_gp
import vip.bench
import vip.cli
import vip.inference
from vip import data as datamod
from vip.inference import TrainConfig
from vip.modelfile import canonical_json, model_to_dict


@dataclass
class Outcome:
    """What the checks found for one op."""

    items: int  # splits, fits or requests the op attempted
    failures: list = field(default_factory=list)  # one message per failed check
    digests: dict = field(default_factory=dict)  # input key -> output text
    samples: dict = field(default_factory=dict)  # report metric -> values


class Reference:
    """A fixed loop of numpy work with no vip code in it, timed on demand.

    On a shared machine the speed of one core drifts by up to 1.6x over
    seconds as other tenants load it. A unit of work timed next to a loop of
    the same kind slows down with it, so their ratio holds steady where the
    wall time does not. Two kinds: ``network`` is the forward and backward
    pass of a small tanh network on 300 points, six times (small matrix
    products, elementwise ops, interpreter overhead), like a training step
    or a prediction; ``sweep`` is the matrix-vector sweep over a 1000 x 1000
    matrix that a column Cholesky makes, bound by memory bandwidth.
    ``spent`` totals the loop's time, which every op time and span leaves
    out.
    """

    def __init__(self, kind: str = "network"):
        self.spent = 0.0
        if kind == "sweep":
            self._loop = self._sweep
            self._m = np.linspace(0.0, 1.0, 1000 * 1000).reshape(1000, 1000)
            self._v = np.linspace(0.0, 1.0, 1000)
        else:
            self._loop = self._network
            self._x = np.linspace(-2.0, 2.0, 300).reshape(300, 1)
            self._w1, self._w2 = np.full((1, 10), 0.3), np.full((10, 10), 0.1)
            self._w3, self._b = np.full((10, 1), 0.2), np.full((1, 10), 0.01)

    def _network(self):
        x, w1, w2, w3, b = self._x, self._w1, self._w2, self._w3, self._b
        kept = []
        for _ in range(6):
            h1 = np.tanh(x @ w1 + b)
            h2 = np.tanh(h1 @ w2 + b)
            f = h2 @ w3
            g2 = (np.ones_like(f) @ w3.T) * (1.0 - h2 * h2)
            g1 = (g2 @ w2.T) * (1.0 - h1 * h1)
            kept.append((h1.T @ g2, x.T @ g1, float(np.sum(f))))
        return kept

    def _sweep(self):
        m, v = self._m, self._v
        return [float(np.sum(m[j:, :j] @ v[:j])) for j in range(0, 1000, 8)]

    def ratio(self, seconds: float) -> float:
        """``seconds`` in units of one run of the loop, timed now."""
        t0 = time.perf_counter()
        self._loop()
        dt = time.perf_counter() - t0
        self.spent += dt
        return seconds / dt


def op_seed(seed: int, k: int) -> int:
    """Input seed of op k; op 1 repeats op 0 for the determinism check."""
    return seed * 1000 + (0 if k == 1 else k)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def _time_unit(samples: dict, unit: str, seconds: float, ref: Reference):
    samples.setdefault(f"{unit}_ms", []).append(seconds * 1e3)
    samples.setdefault(f"{unit}_ref", []).append(ref.ratio(seconds))


class EpochClock:
    """``train`` callback that times each epoch and records its loss."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.start()

    def start(self):
        self.samples, self.losses = {}, []
        self._last = time.perf_counter()

    def __call__(self, epoch, loss):
        _time_unit(self.samples, "epoch", time.perf_counter() - self._last, self.ref)
        self.losses.append(loss)
        self._last = time.perf_counter()


def _check_split(out: Outcome, split: dict, loss_keys=("nll", "rmse")):
    # nll_rmse raises on var_y <= 0, and a finite NLL needs every predictive
    # mean and variance finite, so this also checks each prediction.
    values = [split[k] for k in loss_keys]
    if not _finite(values):
        out.failures.append(f"non-finite split metrics {dict(zip(loss_keys, values))}")
    out.samples["nll"] = [split["nll"]]
    out.samples["rmse"] = [split["rmse"]]


class ToyProtocol:
    """Acceptance criterion 01's protocol, one split per op."""

    name = "toy-protocol"
    reference = "network"
    items_per_op = 1
    units = ("epoch",)
    cfg = TrainConfig(
        alpha=0.0, num_draws=20, epochs=500, batch_size=0, learning_rate=0.01,
        sigma2_mode="learned", hidden=(10, 10), activation="tanh",
    )

    def __init__(self, ref: Reference):
        self.clock = EpochClock(ref)

    def prepare(self, seed, workdir):
        self.seed = seed
        # run_protocol takes no callback, so hand train() one on its way in.
        train = vip.bench.train

        def train_with_clock(x, y, config, stats=None, callback=None):
            self.clock.start()
            return train(x, y, config, stats=stats, callback=self.clock)

        vip.bench.train = train_with_clock

    def op(self, k):
        return vip.bench.run_protocol(
            "toy", self.cfg, splits=1, seed=op_seed(self.seed, k),
            toy_n=300, toy_noise="std",
        )

    def check(self, k, report):
        out = Outcome(1)
        split = report["per_split"][0]
        _check_split(out, split)
        if len(self.clock.losses) != self.cfg.epochs or not _finite(self.clock.losses):
            out.failures.append("loss trace missing or non-finite")
        out.samples.update(self.clock.samples)
        out.digests[op_seed(self.seed, k)] = json.dumps([split, self.clock.losses])
        return out


class MinibatchWide:
    """Many small steps: neural-sampler prior, S=50, N=512, batch 32, alpha=0.5."""

    name = "minibatch-wide"
    reference = "network"
    items_per_op = 1
    units = ("epoch",)
    cfg = TrainConfig(
        alpha=0.5, num_draws=50, epochs=4, batch_size=32, learning_rate=0.01,
        sigma2_mode="learned", prior_family="ns", hidden=(10, 10), activation="tanh",
    )

    def __init__(self, ref: Reference):
        self.clock = EpochClock(ref)

    def prepare(self, seed, workdir):
        self.seed = seed
        self.ds = datamod.standardize(datamod.synth_toy(512, seed, noise="std"))

    def op(self, k):
        self.clock.start()
        cfg = replace(self.cfg, seed=op_seed(self.seed, k))
        return vip.inference.train(self.ds.x, self.ds.y, cfg, callback=self.clock)

    def check(self, k, model):
        out = Outcome(1)
        if not (_finite(model.loss_trace) and _finite(self.clock.losses)):
            out.failures.append("non-finite loss trace")
        if not all(_finite(p) for p in model.final_params.values()):
            out.failures.append("non-finite parameters")
        out.samples.update(self.clock.samples)
        out.digests[op_seed(self.seed, k)] = canonical_json(model_to_dict(model))
        return out


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return vip.cli.main(argv)


class PredictCli:
    """In-process ``vip predict`` requests, alternating the two coefficient routes.

    The model has N=2000 training points, where the ``auto`` route switches
    from exact to learned; each op is one exact and one learned request.
    """

    name = "predict-cli"
    reference = "network"
    items_per_op = 2
    units = ("predict_exact", "predict_learned")
    coeffs = ("exact", "learned")
    n_train, n_test = 2000, 5000
    train_cfg = {"alpha": 0.5, "num_draws": 20, "epochs": 10, "batch_size": 0}

    def __init__(self, ref: Reference):
        self.ref = ref

    def prepare(self, seed, workdir):
        self.workdir = workdir
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        self.model, self.test = path("model.json"), path("test.csv")
        steps = [
            ["synth", "--n", str(self.n_train), "--seed", str(seed), "--out", path("train.csv")],
            ["synth", "--n", str(self.n_test), "--seed", str(seed + 1), "--out", self.test],
        ]
        with open(path("config.json"), "w", encoding="utf-8") as fh:
            json.dump(self.train_cfg, fh)
        steps.append(
            ["train", "--data", path("train.csv"), "--config", path("config.json"),
             "--seed", str(seed), "--model-out", self.model]
        )
        for argv in steps:
            if _cli(argv) != 0:
                raise RuntimeError(f"set-up step failed: vip {' '.join(argv)}")
        self.test_xy = np.loadtxt(self.test, delimiter=",", ndmin=2)

    def _out(self, coeff):
        return os.path.join(self.workdir, f"pred-{coeff}.csv")

    def op(self, k):
        done, samples = [], {}
        for coeff in self.coeffs:
            t0 = time.perf_counter()
            rc = _cli(["predict", "--model", self.model, "--data", self.test,
                       "--coeff", coeff, "--out", self._out(coeff)])
            _time_unit(samples, f"predict_{coeff}", time.perf_counter() - t0, self.ref)
            done.append((coeff, rc))
        return done, samples

    def check(self, k, result):
        done, samples = result
        out = Outcome(len(done), samples=samples)
        x, y = self.test_xy[:, :-1], self.test_xy[:, -1]
        for coeff, rc in done:
            if rc != 0:
                out.failures.append(f"{coeff}: exit code {rc}")
                continue
            with open(self._out(coeff), encoding="utf-8") as fh:
                text = fh.read()
            pred = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
            mean, var = pred[:, -2], pred[:, -1]
            if pred.shape != (self.n_test, x.shape[1] + 2) or not np.array_equal(pred[:, :-2], x):
                out.failures.append(f"{coeff}: output rows do not match the input rows")
                continue
            if not (_finite(mean) and _finite(var) and np.all(var > 0)):
                out.failures.append(f"{coeff}: non-finite prediction or var_y <= 0")
                continue
            nll = float(np.mean(0.5 * np.log(2 * math.pi * var) + (y - mean) ** 2 / (2 * var)))
            out.samples.setdefault("nll", []).append(nll)
            out.samples.setdefault("rmse", []).append(float(np.sqrt(np.mean((y - mean) ** 2))))
            out.digests[coeff] = text
        return out


class GpBaseline:
    """Exact RBF-GP grid search on the toy protocol, N=1000, one split per op."""

    name = "gp-baseline"
    reference = "sweep"
    items_per_op = 1
    units = ("cell",)

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples = {}

    def prepare(self, seed, workdir):
        self.seed = seed
        # gp_fit_grid takes no callback, so time each grid cell on its way in.
        log_marginal = vip.baseline_gp.gp_log_marginal

        def timed_cell(*args, **kwargs):
            t0 = time.perf_counter()
            out = log_marginal(*args, **kwargs)
            _time_unit(self.samples, "cell", time.perf_counter() - t0, self.ref)
            return out

        vip.baseline_gp.gp_log_marginal = timed_cell

    def op(self, k):
        self.samples = {}
        return vip.bench.gp_baseline_protocol("toy", splits=1, seed=op_seed(self.seed, k), toy_n=1000)

    def check(self, k, report):
        out = Outcome(1)
        split = report["per_split"][0]
        _check_split(out, split, ("nll", "rmse", "log_marginal"))
        out.samples.update(self.samples)
        out.digests[op_seed(self.seed, k)] = json.dumps(split)
        return out


WORKLOADS = {w.name: w for w in (ToyProtocol, MinibatchWide, PredictCli, GpBaseline)}
