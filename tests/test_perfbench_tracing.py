"""The benchmark's traced run wraps library functions by name.

``perfbench/tracing.py`` patches functions of the vip modules in place, some
under several names (``vip.bench.train``, ``vip.cli.load_model``, ...). A
renamed or deleted function makes ``Tracer.install`` fail, and a function
that is inlined or called under another name records no span; the traced
run's correctness check also pins the toy training step's tape size. These
tests catch all three here rather than in the benchmark's own check.
"""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vip.bench
import vip.cli
import vip.inference
import vip.numkit
import vip.priors
from vip.data import standardize, synth_toy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_installs_and_uninstalls_against_the_package(perfbench):
    tracing, workloads = perfbench
    sample, normal = vip.priors.sample_functions, vip.numkit.Rng.standard_normal
    tracer = tracing.Tracer(workloads.Reference())
    try:
        tracer.install()
        assert vip.priors.sample_functions is not sample
        assert vip.numkit.Rng.standard_normal is not normal
    finally:
        tracer.uninstall()
    assert vip.priors.sample_functions is sample
    assert vip.numkit.Rng.standard_normal is normal


def _traced(tracing, workloads, run):
    tracer = tracing.Tracer(workloads.Reference())
    try:
        tracer.install()
        run()
    finally:
        tracer.uninstall()
    return tracer


def test_toy_split_records_its_spans_and_tape_size(perfbench):
    # criterion 01's config for one epoch: every training step records the same tape
    tracing, workloads = perfbench
    cfg = replace(workloads.ToyProtocol.cfg, epochs=1)
    tracer = _traced(
        tracing, workloads,
        lambda: vip.bench.run_protocol("toy", cfg, splits=1, seed=0, toy_n=300, toy_noise="std"),
    )
    assert tracer.problems("toy-protocol") == []


def test_minibatch_train_records_its_spans(perfbench):
    # the minibatch-wide shape, small: ns prior, alpha 0.5, learned noise, batches of 16
    tracing, workloads = perfbench
    ds = standardize(synth_toy(64, 0, "std"))
    cfg = replace(workloads.MinibatchWide.cfg, num_draws=5, epochs=1, batch_size=16, hidden=(4,))
    tracer = _traced(tracing, workloads, lambda: vip.inference.train(ds.x, ds.y, cfg))
    assert tracer.counts["inference.adam"] == 4
    assert tracer.problems("minibatch-wide") == []


def test_gp_baseline_split_records_its_spans(perfbench):
    tracing, workloads = perfbench
    tracer = _traced(
        tracing, workloads, lambda: vip.bench.gp_baseline_protocol("toy", splits=1, toy_n=60)
    )
    assert tracer.problems("gp-baseline") == []


def test_predict_requests_record_their_spans(perfbench, tmp_path, capsys):
    tracing, workloads = perfbench
    rng = np.random.default_rng(0)
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    np.savetxt(train_csv, rng.standard_normal((20, 2)), delimiter=",")
    np.savetxt(test_csv, rng.standard_normal((5, 2)), delimiter=",")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 2, "num_draws": 4, "hidden": [3]}')
    model = str(tmp_path / "m.json")
    argv = ["train", "--data", str(train_csv), "--config", str(cfg), "--model-out", model]
    assert vip.cli.main(argv) == 0

    def requests():
        for coeff in ("exact", "learned"):
            argv = ["predict", "--model", model, "--data", str(test_csv), "--coeff", coeff,
                    "--out", str(tmp_path / f"p-{coeff}.csv")]
            assert vip.cli.main(argv) == 0

    tracer = _traced(tracing, workloads, requests)
    capsys.readouterr()
    assert tracer.problems("predict-cli") == []
