"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces the public functions of each vip module with
wrappers that time them and count their work; ``uninstall`` puts the
originals back. Several modules copy a function at import time (``from
.numkit import cholesky``), so a wrapper goes under every name a caller looks
up. Spans nest: a span's self time is its duration minus its child spans.

The code is single-threaded and nothing queues, so no layer waits; the traced
run reports that instead of wait times of zero.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

import vip.autodiff
import vip.baseline_gp
import vip.bench
import vip.cli
import vip.data
import vip.inference
import vip.modelfile
import vip.numkit
import vip.predict
import vip.priors
from vip.errors import NotPositiveDefiniteError

WAIT_TIME = "none: one thread and no queues, so no layer waits"

# Spans each workload must record at least once; a traced run missing one
# has lost a wrapper (a caller looks the function up under another name).
EXPECTED_SPANS = {
    "toy-protocol": (
        "numkit.rng", "numkit.cholesky", "autodiff.backward", "priors.sample_taped",
        "priors.sample_numeric", "inference.energy", "inference.adam", "inference.train",
        "predict.exact_posterior", "predict.features", "predict.posterior_predict",
        "bench.split_train", "bench.split_predict",
    ),
    "minibatch-wide": (
        "numkit.rng", "autodiff.backward", "priors.sample_taped", "inference.energy",
        "inference.adam", "inference.train",
    ),
    "predict-cli": (
        "numkit.rng", "numkit.cholesky", "priors.sample_numeric", "predict.exact_posterior",
        "predict.features", "predict.posterior_predict", "data.load_csv", "modelfile.load",
        "cli.main",
    ),
    "gp-baseline": (
        "numkit.cholesky", "baseline_gp.gram", "baseline_gp.log_marginal",
        "bench.split_train", "bench.split_predict",
    ),
}

# Tape size of one criterion-01 training step (BNN prior, S=20, N=300).
TOY_TAPE_NODES = 804


class Tracer:
    def __init__(self, side, lapack_reference: bool = False):
        self.ms = defaultdict(float)  # span name -> total milliseconds
        self.self_ms = defaultdict(float)  # span name -> ms outside child spans
        self.counts = Counter()  # span name -> calls; counter name -> work
        # side.spent: seconds of the benchmark's own work, kept out of all spans
        self.side = side
        self.lapack_reference = lapack_reference
        self._open = []  # child time of each open span
        self._patches = []

    def _span(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self._open.append(0.0)
            x0, t0 = self.side.spent, time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 - (self.side.spent - x0)
                children = self._open.pop()
                if self._open:
                    self._open[-1] += dt
                self.ms[label] += dt * 1e3
                self.self_ms[label] += (dt - children) * 1e3
                self.counts[label] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _wrap(self, targets, name, after=None, inner=None):
        for owner, attr in targets:
            old = getattr(owner, attr)
            self._patches.append((owner, attr, old))
            setattr(owner, attr, self._span(name, inner(old) if inner else old, after))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _counted_cholesky(self, cholesky):
        def counted(a):
            try:
                factor = cholesky(a)
            except NotPositiveDefiniteError:
                self.counts["numkit.cholesky_failed"] += 1
                raise
            self.counts["numkit.cholesky_gflop"] += factor.shape[0] ** 3 / 3e9
            if self.lapack_reference:
                t0 = time.perf_counter()
                scipy.linalg.cholesky(np.asarray(a), lower=True, check_finite=False)
                dt = time.perf_counter() - t0
                self.side.spent += dt
                self.ms["numkit.cholesky_lapack"] += dt * 1e3
            return factor

        return counted

    def install(self):
        c = self.counts
        nk, inf, pr, bench = vip.numkit, vip.inference, vip.predict, vip.bench

        def rng_after(args, kwargs, out):
            c["numkit.rng_variates"] += out.size

        self._wrap([(nk.Rng, "standard_normal"), (nk.Rng, "uniform")], "numkit.rng", rng_after)
        self._wrap(
            [(nk, "cholesky"), (pr, "cholesky"), (vip.baseline_gp, "cholesky")],
            "numkit.cholesky", inner=self._counted_cholesky,
        )

        def backward_after(args, kwargs, out):
            tape = args[0].tape
            c["autodiff.tape_nodes"] += len(tape)
            c["autodiff.backward_nodes_visited"] += tape.last_visited

        self._wrap([(vip.autodiff, "backward")], "autodiff.backward", backward_after)

        def sample_kind(args, kwargs):
            tape = kwargs.get("tape", args[4] if len(args) > 4 else None)
            return "priors.sample_numeric" if tape is None else "priors.sample_taped"

        def sample_after(args, kwargs, out):
            if not out.is_symbolic:
                c["priors.draw_points"] += out.num_draws * out.num_points

        self._wrap(
            [(vip.priors, "sample_functions"), (inf, "sample_functions"), (pr, "sample_functions")],
            sample_kind, sample_after,
        )
        self._wrap([(inf, "energy_loss")], "inference.energy")
        self._wrap([(inf, "adam_step")], "inference.adam")
        self._wrap([(inf, "train"), (bench, "train"), (vip.cli, "train")], "inference.train")
        self._wrap([(pr, "exact_coefficient_posterior")], "predict.exact_posterior")
        self._wrap([(pr, "predict_features")], "predict.features")
        self._wrap(
            [(pr, "posterior_predict"), (bench, "posterior_predict"), (vip.cli, "posterior_predict")],
            "predict.posterior_predict",
        )

        def csv_after(args, kwargs, out):
            c["data.rows_parsed"] += out.n

        self._wrap([(vip.data, "load_csv")], "data.load_csv", csv_after)

        def model_after(args, kwargs, out):
            c["modelfile.bytes_read"] += os.path.getsize(args[0])

        self._wrap([(vip.modelfile, "load_model"), (vip.cli, "load_model")], "modelfile.load", model_after)
        self._wrap([(vip.cli, "main")], "cli.main")

        def cell_after(args, kwargs, out):
            c["baseline_gp.grid_cells"] += 1

        self._wrap([(vip.baseline_gp.RbfKernel, "gram")], "baseline_gp.gram")
        self._wrap([(vip.baseline_gp, "gp_log_marginal")], "baseline_gp.log_marginal", cell_after)
        self._wrap([(bench, "train"), (bench, "gp_fit_grid")], "bench.split_train")
        self._wrap([(bench, "posterior_predict"), (bench, "gp_predict")], "bench.split_predict")

    def metrics(self, items: int) -> dict:
        """Per-layer metrics, by name, over ``items`` traced splits, fits or requests.

        Step metrics are per training step; the RNG is per step where the
        workload trains and per item elsewhere; the rest are per item.
        """
        ms, self_ms, c = self.ms, self.self_ms, self.counts
        steps = c["inference.adam"]

        def per(total, n):
            return total / n if n else 0.0

        rng_unit = steps or items
        return {
            "numkit.rng_calls": per(c["numkit.rng"], rng_unit),
            "numkit.rng_variates": per(c["numkit.rng_variates"], rng_unit),
            "numkit.rng_ms": per(ms["numkit.rng"], rng_unit),
            "numkit.cholesky_calls": per(c["numkit.cholesky"], items),
            "numkit.cholesky_ms": per(ms["numkit.cholesky"], items),
            "numkit.cholesky_failed": per(c["numkit.cholesky_failed"], items),
            "numkit.cholesky_gflop": per(c["numkit.cholesky_gflop"], items),
            "numkit.cholesky_lapack_ms": per(ms["numkit.cholesky_lapack"], items),
            "autodiff.tape_nodes": per(c["autodiff.tape_nodes"], steps),
            "autodiff.backward_nodes_visited": per(c["autodiff.backward_nodes_visited"], steps),
            "autodiff.backward_ms": per(ms["autodiff.backward"], steps),
            "priors.sample_taped_ms": per(ms["priors.sample_taped"], steps),
            "priors.sample_numeric_ms": per(ms["priors.sample_numeric"], items),
            "priors.draw_points": per(c["priors.draw_points"], items),
            "inference.energy_ms": per(ms["inference.energy"], steps),
            "inference.adam_ms": per(ms["inference.adam"], steps),
            "inference.train_self_ms": per(self_ms["inference.train"], steps),
            "inference.steps": per(steps, items),
            "predict.exact_posterior_ms": per(ms["predict.exact_posterior"], items),
            "predict.features_ms": per(ms["predict.features"], items),
            "predict.posterior_predict_self_ms": per(self_ms["predict.posterior_predict"], items),
            "data.load_csv_ms": per(ms["data.load_csv"], items),
            "data.rows_parsed": per(c["data.rows_parsed"], items),
            "modelfile.load_ms": per(ms["modelfile.load"], items),
            "modelfile.bytes_read": per(c["modelfile.bytes_read"], items),
            "cli.predict_self_ms": per(self_ms["cli.main"], items),
            "baseline_gp.gram_ms": per(ms["baseline_gp.gram"], items),
            "baseline_gp.log_marginal_ms": per(ms["baseline_gp.log_marginal"], items),
            "baseline_gp.grid_cells": per(c["baseline_gp.grid_cells"], items),
            "bench.split_train_ms": per(ms["bench.split_train"], items),
            "bench.split_predict_ms": per(ms["bench.split_predict"], items),
        }

    def problems(self, workload: str) -> list:
        """Coverage checks: expected spans recorded, toy tape at its baseline size."""
        out = [f"no {name} spans" for name in EXPECTED_SPANS[workload] if not self.counts[name]]
        if workload == "toy-protocol":
            steps = self.counts["inference.adam"]
            nodes = self.counts["autodiff.tape_nodes"] / steps if steps else 0
            if nodes != TOY_TAPE_NODES:
                out.append(f"autodiff.tape_nodes is {nodes}, expected {TOY_TAPE_NODES}")
        return out
