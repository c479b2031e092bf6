import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vip
import vip.bench as bench
import vip.cli as cli
from vip.errors import NumericalError
from vip.inference import TrainConfig
from vip.modelfile import load_model

from test_data import _NUMBER, _csv_text

TINY_CFG = {
    "epochs": 4,
    "num_draws": 4,
    "hidden": [3],
    "sigma2_mode": "fixed",
}


def _predict_layout(d):
    """What vip predict adds to an error in the --data file of a d-input model."""
    return (
        f"(vip predict reads the model's {d} feature columns, optionally "
        "followed by a target column whose values it ignores)"
    )


def _cfg_file(tmp_path, extra=None, name="cfg.json"):
    d = dict(TINY_CFG)
    if extra:
        d.update(extra)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def _synth(tmp_path, n=30, seed=1, name="data.csv"):
    out = tmp_path / name
    assert cli.main(["synth", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return str(out)


class TestSynth:
    def test_writes_rows(self, tmp_path, capsys):
        path = _synth(tmp_path, n=25)
        lines = Path(path).read_text().strip().split("\n")
        assert len(lines) == 25
        assert all(len(l.split(",")) == 2 for l in lines)
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 25

    def test_deterministic_bytes(self, tmp_path):
        a = _synth(tmp_path, seed=4, name="a.csv")
        b = _synth(tmp_path, seed=4, name="b.csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_bad_n_is_usage_error(self, tmp_path):
        assert cli.main(["synth", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


class TestTrain:
    def test_round_trip_and_summary(self, tmp_path, capsys):
        data = _synth(tmp_path)
        cfg = _cfg_file(tmp_path)
        model_out = str(tmp_path / "m.json")
        capsys.readouterr()  # drop the synth summary
        rc = cli.main(
            ["train", "--data", data, "--config", cfg, "--seed", "7", "--model-out", model_out]
        )
        assert rc == 0
        m = load_model(model_out)
        assert m.config.seed == 7
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 30 and summary["features"] == 1

    def test_repeat_runs_byte_identical(self, tmp_path):
        data = _synth(tmp_path)
        cfg = _cfg_file(tmp_path)
        m1, m2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
        for out in (m1, m2):
            assert cli.main(
                ["train", "--data", data, "--config", cfg, "--seed", "3", "--model-out", out]
            ) == 0
        assert Path(m1).read_bytes() == Path(m2).read_bytes()

    def test_noise_halfwidth_with_overflowing_range_is_usage_error(self, tmp_path, capsys):
        # the noise range 2 * 1e308 overflowed in the first step's draw, and
        # training exited 4 with "leaf: non-finite value", naming no key
        data = _synth(tmp_path)
        cfg = _cfg_file(tmp_path, {"prior_family": "ns", "noise_halfwidth": 1e308})
        capsys.readouterr()
        argv = ["train", "--data", data, "--config", cfg, "--model-out", str(tmp_path / "m")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: noise_halfwidth must be >= 0 with 2 * noise_halfwidth finite, got 1e+308\n"
        )

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        data = _synth(tmp_path)
        cfg = _cfg_file(tmp_path, extra={"learning_rte": 0.1})
        rc = cli.main(["train", "--data", data, "--config", cfg, "--model-out", str(tmp_path / "m.json")])
        assert rc == 2

    def test_missing_data_file_is_data_error(self, tmp_path):
        rc = cli.main(
            ["train", "--data", str(tmp_path / "nope.csv"), "--model-out", str(tmp_path / "m.json")]
        )
        assert rc == 3

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nx,4\n")
        rc = cli.main(["train", "--data", str(bad), "--model-out", str(tmp_path / "m.json")])
        assert rc == 3

    def test_non_finite_cell_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2\n0.3,0.4\n0.5,nan\n0.7,0.8\n")
        rc = cli.main(["train", "--data", str(bad), "--model-out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "row 3, column 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [1, 2])
    def test_constant_column_is_data_error(self, tmp_path, capsys, column):
        table = np.column_stack([np.arange(6.0), np.linspace(-1.0, 1.0, 6)])
        table[:, column - 1] = 0.5
        data = tmp_path / "const.csv"
        np.savetxt(data, table, delimiter=",")
        rc = cli.main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.json")])
        assert rc == 3
        assert f"column {column} is constant" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cells, column",
        [(["1e308", "-1e308", "1e308", "-1e308"], 1), (["1e308"] * 4, 1),
         (["1e308", "-1e308", "1e308", "-1e308"], 2)],
    )
    def test_overflowing_column_is_data_error(self, tmp_path, capsys, cells, column):
        # finite cells whose mean or std overflows a double
        other = ["0.1", "0.2", "0.5", "0.3"]
        rows = zip(cells, other) if column == 1 else zip(other, cells)
        data = tmp_path / "big.csv"
        data.write_text("".join(f"{a},{b}\n" for a, b in rows))
        model_out = tmp_path / "m.json"
        rc = cli.main(["train", "--data", str(data), "--model-out", str(model_out)])
        assert rc == 3
        assert f"column {column} overflows" in capsys.readouterr().err
        assert not model_out.exists()

    def test_grid_mode(self, tmp_path, capsys):
        data = _synth(tmp_path, n=40)
        cfg = _cfg_file(tmp_path, extra={"sigma2_mode": "grid", "sigma2_grid": [0.1, 0.5]})
        model_out = str(tmp_path / "m.json")
        assert cli.main(["train", "--data", data, "--config", cfg, "--model-out", model_out]) == 0
        assert load_model(model_out).sigma2 in (0.1, 0.5)

    # the user gave 2 rows, but the error named the 1 the validation split left
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_grid_search_on_two_rows_is_usage_error_naming_the_split(self, tmp_path, capsys,
                                                                     command):
        cfg = _cfg_file(tmp_path, extra={"sigma2_mode": "grid", "sigma2_grid": [0.1, 0.5]})
        if command == "train":
            argv = ["train", "--data", _synth(tmp_path, n=2), "--config", cfg,
                    "--model-out", str(tmp_path / "m.json")]
        else:
            argv = ["bench", "--protocol", "toy", "--toy-n", "2", "--splits", "1",
                    "--config", cfg]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: the sigma2 grid search needs at least 3 training points, got 2: "
            "its validation split holds out 20%\n"
        )

    def test_single_valued_grid_trains_on_two_rows(self, tmp_path):
        data = _synth(tmp_path, n=2)
        cfg = _cfg_file(tmp_path, extra={"sigma2_mode": "grid", "sigma2_grid": [0.3, 0.3]})
        model_out = str(tmp_path / "m.json")
        assert cli.main(["train", "--data", data, "--config", cfg, "--model-out", model_out]) == 0
        assert load_model(model_out).sigma2 == 0.3


class TestPredictEval:
    def test_full_pipeline(self, tmp_path, capsys):
        data = _synth(tmp_path, n=40)
        cfg = _cfg_file(tmp_path, extra={"epochs": 60})
        model_out = str(tmp_path / "m.json")
        pred_out = str(tmp_path / "p.csv")
        assert cli.main(["train", "--data", data, "--config", cfg, "--model-out", model_out]) == 0
        assert cli.main(["predict", "--model", model_out, "--data", data, "--out", pred_out]) == 0
        rows = Path(pred_out).read_text().strip().split("\n")
        assert rows[0] == "x1,mean,var_y"
        assert len(rows) == 41
        capsys.readouterr()
        assert cli.main(["eval", "--pred", pred_out, "--data", data]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["n"] == 40
        assert np.isfinite(metrics["nll"]) and metrics["rmse"] >= 0

    def test_predictions_in_original_units(self, tmp_path):
        # targets offset by +50: destandardized means must live near 50
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        y = 50.0 + 0.1 * rng.standard_normal(30)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n")
        cfg = _cfg_file(tmp_path, extra={"epochs": 30})
        model_out = str(tmp_path / "m.json")
        pred_out = str(tmp_path / "p.csv")
        assert cli.main(["train", "--data", str(data), "--config", cfg, "--model-out", model_out]) == 0
        assert cli.main(["predict", "--model", model_out, "--data", str(data), "--out", pred_out]) == 0
        means = [float(l.split(",")[1]) for l in Path(pred_out).read_text().strip().split("\n")[1:]]
        assert 40 < np.mean(means) < 60

    def test_coeff_mode_flag(self, tmp_path):
        data = _synth(tmp_path, n=25)
        cfg = _cfg_file(tmp_path)
        model_out = str(tmp_path / "m.json")
        assert cli.main(["train", "--data", data, "--config", cfg, "--model-out", model_out]) == 0
        for mode in ("learned", "exact"):
            out = str(tmp_path / f"p_{mode}.csv")
            assert cli.main(
                ["predict", "--model", model_out, "--data", data, "--out", out, "--coeff", mode]
            ) == 0
        a = (tmp_path / "p_learned.csv").read_text()
        b = (tmp_path / "p_exact.csv").read_text()
        assert a != b

    def test_exact_route_where_only_a_second_factorisation_would_fail(self, tmp_path):
        # A = B^T B + sigma2 I factors at this sigma2, but sigma2 W^T W, which
        # the exact route once factored as well, does not: vip predict exited 4.
        # Train seed and sigma2 are the first such pair of a search over seeds
        # 0-5 and sigma2 = 10^(-k/8), k = 96..159, on this data and config.
        data = _synth(tmp_path, n=60)
        model_out = tmp_path / "m.json"
        cfg = _cfg_file(tmp_path, {"num_draws": 20})
        assert cli.main(["train", "--data", data, "--config", cfg, "--seed", "1",
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        d["sigma2"] = 10.0 ** (-148 / 8)
        model_out.write_text(json.dumps(d))
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--model", str(model_out), "--data", data,
                         "--out", str(out), "--coeff", "exact"]) == 0
        assert len(out.read_text().splitlines()) == 61

    @pytest.mark.parametrize(
        "extra, at",
        [
            ({}, "sigma2 = 1e-19"),
            ({"estimator": "pm", "psi": 1e-30}, "sigma2 + ridge/denom = 1e-19 + 5.26316e-32"),
        ],
    )
    def test_exact_posterior_that_fails_to_factor_names_itself(
        self, tmp_path, capsys, extra, at
    ):
        # at this sigma2, A = B^T B + sigma2 I itself is not positive definite
        data = _synth(tmp_path, n=60)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_draws": 20, "hidden": [3], "epochs": 20, **extra}))
        model = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", str(cfg), "--seed", "0",
                         "--model-out", str(model)]) == 0
        d = json.loads(model.read_text())
        d["sigma2"] = 1e-19
        model.write_text(json.dumps(d))
        capsys.readouterr()
        assert cli.main(["predict", "--model", str(model), "--data", data,
                         "--out", str(tmp_path / "p.csv"), "--coeff", "exact"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: exact coefficient posterior failed at noise variance {at}: "
            "matrix is not positive definite: pivot "
        )

    def test_eval_missing_columns_is_data_error(self, tmp_path):
        data = _synth(tmp_path, n=10)
        pred = tmp_path / "p.csv"
        pred.write_text("x1,mu,v\n" + "\n".join("0,0,1" for _ in range(10)) + "\n")
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3

    @pytest.mark.parametrize("column, cell", [("mean", "nan"), ("var_y", "inf"), ("mean", "-inf")])
    def test_eval_non_finite_prediction_is_data_error(self, tmp_path, capsys, column, cell):
        data = _synth(tmp_path, n=4)
        rows = [["0.5", "0.1", "1.0"] for _ in range(4)]
        col = 2 if column == "mean" else 3
        rows[2][col - 1] = cell
        pred = tmp_path / "p.csv"
        pred.write_text("x1,mean,var_y\n" + "\n".join(",".join(r) for r in rows) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3
        assert f"row 4, column {col}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["train.x", "train.y", "q"])
    @pytest.mark.parametrize("coeff", ["exact", "learned"])
    def test_tampered_model_shape_is_data_error(self, tmp_path, capsys, field, coeff):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path),
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        if field == "train.x":
            d["train"]["x"] = [row + [0.0] for row in d["train"]["x"]]
        elif field == "train.y":
            d["train"]["y"] = d["train"]["y"][:-1]
        else:
            d["q"] = {"mu": d["q"]["mu"][:-1], "chol": [r[:-1] for r in d["q"]["chol"][:-1]]}
        model_out.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv"), "--coeff", coeff])
        assert rc == 3
        # train.x gives the prior's input width, so a wider one misfits the first weights
        named = "prior.w_mean_0 must be (2, 3)" if field == "train.x" else f"{field} has "
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sigma2", "x"), ("sigma2", -1.0), ("sigma2", 0.0), ("sigma2", None),
    ])
    def test_bad_model_scalar_is_data_error(self, tmp_path, capsys, field, value):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path),
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        d[field] = value
        model_out.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert field in err and "model file" in err

    # each value was once accepted, or failed later with the wrong exit code
    @pytest.mark.parametrize("block, key, text", [
        ("stats", "target_mean", "NaN"),
        ("stats", "target_std", "0.0"),
        ("stats", "feature_stds", "[-1.0]"),
        ("stats", "feature_stds", "[1.0, 2.0]"),
        ("stats", "feature_stds", "[0.0]"),
        ("train", "y", "1e400"),
    ])
    def test_bad_stats_or_train_value_is_data_error(self, tmp_path, capsys, block, key, text):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path),
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        if key == "y":
            d[block][key][3] = "@"  # one entry of the vector
        else:
            d[block][key] = "@"
        model_out.write_text(json.dumps(d).replace('"@"', text))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert f"{block}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("header, name", [("x1,mean,var_y,mean", "mean"),
                                              ("mean,var_y,var_y", "var_y")])
    def test_eval_header_naming_a_column_twice_is_data_error(self, tmp_path, capsys, header,
                                                             name):
        # the first of two 'mean' columns was scored, at exit 0
        data = _synth(tmp_path, n=2)
        pred = tmp_path / "p.csv"
        width = header.count(",") + 1
        pred.write_text("\n".join([header, ",".join(["1.0"] * width), ",".join(["2.0"] * width)]))
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3
        assert capsys.readouterr().err == (
            f"error: {pred}: header names column {name!r} twice at row 1\n"
        )

    def test_eval_header_wider_than_rows_is_data_error(self, tmp_path, capsys):
        data = _synth(tmp_path, n=3)
        pred = tmp_path / "p.csv"
        pred.write_text("x1,mean,var_y\n" + "\n".join("0.1,1.0" for _ in range(3)) + "\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    @pytest.mark.parametrize("field", ["prior", "q.mu", "q.chol"])
    def test_non_finite_model_array_is_data_error(self, tmp_path, capsys, family, field):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        cfg = _cfg_file(tmp_path, {"prior_family": family, "noise_dim": 2})
        assert cli.main(["train", "--data", data, "--config", cfg,
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        if field == "prior":
            field = "prior.w_mean_0" if family == "bnn" else "prior.w_0"
            d["prior"][field.split(".")[1]][0][0] = float("nan")
        elif field == "q.mu":
            d["q"]["mu"][1] = float("nan")
        else:
            d["q"]["chol"][1][0] = float("inf")
        model_out.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert f"{field} must be a list of " in capsys.readouterr().err

    # 1e308 is finite, but the noise range 2 * 1e308 is not
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1e308"])
    def test_non_finite_noise_halfwidth_is_data_error(self, tmp_path, capsys, text):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        cfg = _cfg_file(tmp_path, {"prior_family": "ns", "noise_dim": 2})
        assert cli.main(["train", "--data", data, "--config", cfg,
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        d["config"]["noise_halfwidth"] = "@"
        model_out.write_text(json.dumps(d).replace('"@"', text))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert "noise_halfwidth" in capsys.readouterr().err

    def test_eval_row_count_mismatch_is_data_error(self, tmp_path, capsys):
        data = _synth(tmp_path, n=5)
        pred = tmp_path / "p.csv"
        pred.write_text("x1,mean,var_y\n0.5,0.1,1.0\n0.6,0.2,1.0\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3
        err = capsys.readouterr().err
        assert "2 prediction rows" in err and "5 data rows" in err

    @pytest.mark.parametrize("cell", ["0.0", "-1.0"])
    def test_eval_non_positive_var_y_is_data_error(self, tmp_path, capsys, cell):
        data = _synth(tmp_path, n=3)
        pred = tmp_path / "p.csv"
        pred.write_text(f"mean,var_y\n0.1,1.0\n0.2,{cell}\n0.3,1.0\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 3
        err = capsys.readouterr().err
        assert f"non-positive cell '{cell}'" in err and "row 3, column 2" in err

    def test_eval_score_that_overflows_is_numerical_error(self, tmp_path, capsys):
        # the squared residual overflows; the inf score made the JSON report raise
        data = _synth(tmp_path, n=3)
        pred = tmp_path / "p.csv"
        pred.write_text("mean,var_y\n1e200,1.0\n0.2,1.0\n0.3,1.0\n")
        capsys.readouterr()
        assert cli.main(["eval", "--pred", str(pred), "--data", data]) == 4
        assert capsys.readouterr().err == (
            "error: the score overflows a double: nll inf, rmse inf\n"
        )

    @pytest.mark.parametrize("width", [1, 4])
    def test_predict_data_of_wrong_width_is_data_error(self, tmp_path, capsys, width):
        # a 2-feature model reads 2 columns (features only) or 3 (training layout)
        rng = np.random.default_rng(0)
        train_csv = tmp_path / "train.csv"
        np.savetxt(train_csv, rng.standard_normal((12, 3)), delimiter=",")
        model_out = tmp_path / "m.json"
        assert cli.main(["train", "--data", str(train_csv), "--config", _cfg_file(tmp_path),
                         "--model-out", str(model_out)]) == 0
        data = tmp_path / "wrong.csv"
        np.savetxt(data, rng.standard_normal((5, width)), delimiter=",")
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", str(data),
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: {data}: {width} columns, expected 2 (features only) or 3 "
            f"(features, then a target) {_predict_layout(2)}\n"
        )

    @pytest.mark.parametrize("input_dim, has_header", [(1, False), (2, True)])
    def test_predict_data_of_features_only_matches_training_layout(
        self, tmp_path, input_dim, has_header
    ):
        rng = np.random.default_rng(3)
        train_csv = tmp_path / "train.csv"
        np.savetxt(train_csv, rng.standard_normal((12, input_dim + 1)), delimiter=",")
        model_out = str(tmp_path / "m.json")
        assert cli.main(["train", "--data", str(train_csv), "--config", _cfg_file(tmp_path),
                         "--model-out", model_out]) == 0
        rows = rng.standard_normal((7, input_dim + 1))
        outputs = []
        for name, table in (("xy.csv", rows), ("x.csv", rows[:, :input_dim])):
            data = tmp_path / name
            header = ",".join(f"c{j}" for j in range(table.shape[1])) if has_header else ""
            np.savetxt(data, table, delimiter=",", fmt="%.17g", header=header, comments="")
            out = tmp_path / f"pred-{name}"
            argv = ["predict", "--model", model_out, "--data", str(data), "--out", str(out)]
            assert cli.main(argv + (["--has-header"] if has_header else [])) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 8

    def test_corrupt_model_file_is_data_error(self, tmp_path):
        data = _synth(tmp_path, n=10)
        bad = tmp_path / "m.json"
        bad.write_text("{}")
        assert cli.main(["predict", "--model", str(bad), "--data", data, "--out", str(tmp_path / "p.csv")]) == 3

    @pytest.mark.parametrize("field", ["prior", "config", "q", "train", "stats"])
    def test_model_block_that_is_not_an_object_is_data_error(self, tmp_path, capsys, field):
        data, model = _trained(tmp_path)
        d = json.loads(model.read_text())
        d[field] = []
        model.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert f"model file field '{field}' must be a JSON object" in capsys.readouterr().err


# Hand edits of a model file: a value of the wrong JSON type, or a
# non-integer where an integer belongs. Each loaded and predicted at exit 0,
# but for the config edits, which exited 3 naming the key without its block.
# (model family, path, new value, the field the error names)
_MODEL_TYPE_PROBES = [
    ("bnn", ["q", "mu", 0], "1", "q.mu"),
    ("bnn", ["q", "mu", 0], True, "q.mu"),
    ("bnn", ["q", "chol", 0, 0], "1", "q.chol"),
    ("bnn", ["train", "x", 0, 0], "0.5", "train.x"),
    ("bnn", ["train", "y", 0], True, "train.y"),
    ("bnn", ["stats", "target_std"], "2", "stats.target_std"),
    ("bnn", ["stats", "target_mean"], True, "stats.target_mean"),
    ("bnn", ["stats", "feature_means", 0], "0", "stats.feature_means"),
    ("bnn", ["config", "hidden"], [3.7], "config.hidden"),
    ("bnn", ["config", "hidden", 0], True, "config.hidden"),
    ("bnn", ["config", "hidden", 0], "3", "config.hidden"),
    ("bnn", ["prior", "w_mean_0", 0, 0], "0.1", "prior.w_mean_0"),
    ("bnn", ["format_version"], 3.0, "format_version"),
    ("ns", ["config", "noise_dim"], 2.5, "config.noise_dim"),
    ("ns", ["config", "noise_dim"], "2", "config.noise_dim"),
    ("ns", ["config", "noise_halfwidth"], "1", "config.noise_halfwidth"),
    ("ns", ["prior", "w_0", 0, 0], True, "prior.w_0"),
    ("bnn", ["config", "num_draws"], "5", "config.num_draws"),
]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    """A 40-row toy CSV and a bnn and an ns model (noise_dim 2) trained on it."""
    d = tmp_path_factory.mktemp("probe")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "40", "--seed", "1", "--out", str(d / "data.csv")]) == 0
        for family, extra in (("bnn", {}), ("ns", {"prior_family": "ns", "noise_dim": 2})):
            (d / f"{family}.cfg.json").write_text(
                json.dumps({"epochs": 2, "num_draws": 4, "hidden": [3], **extra})
            )
            assert cli.main(["train", "--data", str(d / "data.csv"), "--config",
                             str(d / f"{family}.cfg.json"), "--model-out",
                             str(d / f"{family}.json")]) == 0
    return d


class TestModelFileTypes:
    @pytest.mark.parametrize("family, path, value, field", [
        pytest.param(*p, id=p[0] + (f"-{'.'.join(map(str, p[1]))}={json.dumps(p[2])}"
                                    if p[1] else "-unedited"))
        for p in [("bnn", [], None, None), ("ns", [], None, None), *_MODEL_TYPE_PROBES]
    ])
    def test_mistyped_value_exits_3_naming_the_field(self, probe_dir, family, path, value,
                                                     field):
        d = json.loads((probe_dir / f"{family}.json").read_text())
        if path:
            _mutate(d, path, value)
        (probe_dir / "edited.json").write_text(json.dumps(d))
        for coeff in ("exact", "learned"):
            rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                        "--data", probe_dir / "data.csv", "--coeff", coeff,
                                        "--out", probe_dir / "p.csv"])
            if field is None:  # the unedited file
                assert (rc, err) == (0, "")
            else:
                assert rc == 3 and len(err.splitlines()) == 1
                assert err.startswith(f"error: malformed model file: {field} must be ")

    # config values of the right type that TrainConfig rejects; each exited 3
    # without naming the block
    @pytest.mark.parametrize("key, value, message", [
        ("num_draws", 1, "num_draws must be >= 2, got 1"),
        ("alpha", 2.0, "alpha must be in [0, 1], got 2.0"),
        ("sigma2_mode", "nope", "unknown sigma2_mode 'nope'"),
        ("bogus", 1, "unknown config keys: bogus"),
    ])
    def test_rejected_config_value_exits_3_naming_the_block(self, probe_dir, key, value,
                                                            message):
        d = json.loads((probe_dir / "bnn.json").read_text())
        d["config"][key] = value
        (probe_dir / "edited.json").write_text(json.dumps(d))
        rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                    "--data", probe_dir / "data.csv",
                                    "--out", probe_dir / "p.csv"])
        assert (rc, err) == (3, f"error: malformed model file: config: {message}\n")

    # the config is the one copy of the network's settings, and train.x gives
    # its input width: a config the prior arrays do not fit, or arrays that do
    # not fit the config, are rejected by the prior that both build
    @pytest.mark.parametrize("family, path, value, message", [
        ("bnn", ["config", "hidden"], [7, 7],
         "a bnn prior with layers (1, 7, 7, 1) lacks w_mean_2, w_log_scale_2, b_mean_2, "
         "b_log_scale_2"),
        ("bnn", ["config", "hidden"], [],
         "a bnn prior with layers (1, 1) does not take b_log_scale_1, b_mean_1, w_log_scale_1, "
         "w_mean_1"),
        ("bnn", ["config", "prior_family"], "ns",
         "a ns prior with layers (11, 3, 1) lacks w_0, b_0, w_1, b_1 and does not take "
         "b_log_scale_0, b_log_scale_1, b_mean_0, b_mean_1, w_log_scale_0, w_log_scale_1, "
         "w_mean_0, w_mean_1"),
        ("ns", ["config", "prior_family"], "bnn",
         "a bnn prior with layers (1, 3, 1) lacks w_mean_0, w_log_scale_0, b_mean_0, "
         "b_log_scale_0, w_mean_1, w_log_scale_1, b_mean_1, b_log_scale_1 and does not take "
         "b_0, b_1, w_0, w_1"),
        ("bnn", ["prior", "w_mean_2"], [[0.0]],
         "a bnn prior with layers (1, 3, 1) does not take w_mean_2"),
        ("bnn", ["prior", "w_mean_0"], [[0.1, 0.2]], "prior.w_mean_0 must be (1, 3), got (1, 2)"),
        ("ns", ["config", "noise_dim"], 5, "prior.w_0 must be (6, 3), got (3, 3)"),
        ("bnn", ["config", "hidden"], [0], "config: hidden widths must be >= 1, got [0]"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, (list, int)) else str(v)[:40])
    def test_config_and_prior_arrays_that_do_not_fit_exit_3_naming_the_prior(
        self, probe_dir, family, path, value, message
    ):
        d = json.loads((probe_dir / f"{family}.json").read_text())
        d[path[0]][path[1]] = value
        (probe_dir / "edited.json").write_text(json.dumps(d))
        rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                    "--data", probe_dir / "data.csv",
                                    "--out", probe_dir / "p.csv"])
        assert (rc, err) == (3, f"error: malformed model file: {message}\n")

    # a config edit the arrays still fit is the model's setting, not a
    # disagreement: it loads, and prediction follows it (a bnn prior reads
    # no noise settings)
    @pytest.mark.parametrize("family, key, value, moves", [
        ("bnn", "seed", 99, True),
        ("bnn", "activation", "relu", True),
        ("ns", "noise_halfwidth", 2.0, True),
        ("bnn", "noise_dim", 5, False),
        ("bnn", "noise_halfwidth", 2.0, False),
    ])
    def test_config_edit_that_fits_the_prior_sets_the_prediction(self, probe_dir, family, key,
                                                                 value, moves):
        outputs = []
        for edit in (False, True):
            d = json.loads((probe_dir / f"{family}.json").read_text())
            if edit:
                d["config"][key] = value
            (probe_dir / "edited.json").write_text(json.dumps(d))
            out = probe_dir / f"p-{edit}.csv"
            rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                        "--data", probe_dir / "data.csv", "--out", out])
            assert (rc, err) == (0, "")
            outputs.append(out.read_bytes())
        assert (outputs[0] != outputs[1]) == moves

    def test_format_version_2_file_exits_3(self, probe_dir):
        d = json.loads((probe_dir / "bnn.json").read_text())
        d["format_version"] = 2
        (probe_dir / "edited.json").write_text(json.dumps(d))
        rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                    "--data", probe_dir / "data.csv",
                                    "--out", probe_dir / "p.csv"])
        assert (rc, err) == (3, "error: unsupported format_version 2, expected 3\n")

    # every block holds only the keys the reader knows; a stray one was dropped
    # and the file predicted at exit 0
    @pytest.mark.parametrize("path, names", [
        ([], None),  # the file vip train wrote
        (["seed"], "seed"),
        (["q", "extra"], "q.extra"),
        (["train", "extra"], "train.extra"),
        (["stats", "extra"], "stats.extra"),
    ], ids=lambda v: ".".join(v) if isinstance(v, list) else None)
    def test_unknown_key_exits_3_naming_it(self, probe_dir, path, names):
        d = json.loads((probe_dir / "bnn.json").read_text())
        if path:
            (d[path[0]] if len(path) == 2 else d)[path[-1]] = 5
        (probe_dir / "edited.json").write_text(json.dumps(d))
        for coeff in ("exact", "learned"):
            rc, err = _main_in_process(["predict", "--model", probe_dir / "edited.json",
                                        "--data", probe_dir / "data.csv", "--coeff", coeff,
                                        "--out", probe_dir / "p.csv"])
            want = (0, "") if names is None else (
                3, f"error: malformed model file: unknown fields: {names}\n")
            assert (rc, err) == want


def _trained(tmp_path):
    """A 10-row data file and a model trained on it with the tiny config."""
    data = _synth(tmp_path, n=10)
    model = tmp_path / "m.json"
    assert cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path),
                     "--model-out", str(model)]) == 0
    return data, model


def _argv_reading(entry, bad, tmp_path):
    """The argv of one command whose file argument ``entry`` is ``bad``."""
    out = str(tmp_path / "out.csv")
    if entry == "gp-baseline --grid-config":
        return ["gp-baseline", "--grid-config", bad]
    data, model = _trained(tmp_path)
    return {
        "train --data": ["train", "--data", bad, "--model-out", str(tmp_path / "m2.json")],
        "train --config": ["train", "--data", data, "--config", bad,
                           "--model-out", str(tmp_path / "m2.json")],
        "predict --data": ["predict", "--model", str(model), "--data", bad, "--out", out],
        "predict --model": ["predict", "--model", bad, "--data", data, "--out", out],
        "eval --pred": ["eval", "--pred", bad, "--data", data],
    }[entry]


class TestUnreadableInput:
    """Bytes that are not UTF-8, or a CSV cell past the csv field limit, are data errors."""

    @pytest.mark.parametrize("entry", [
        "train --data", "predict --data", "eval --pred",
        "train --config", "gp-baseline --grid-config", "predict --model",
    ])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1.0,2.0\n\xff\xfe,3.0\n")
        argv = _argv_reading(entry, str(bad), tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert f"{bad}: not " in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["train --data", "predict --data", "eval --pred"])
    def test_oversize_csv_cell_is_data_error(self, tmp_path, capsys, entry):
        bad = tmp_path / "big.csv"
        bad.write_text("1.0,2.0\n" + "1" * 140_000 + ",3.0\n")
        argv = _argv_reading(entry, str(bad), tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "field limit" in err and "row 2" in err


class TestRepeatedJsonKey:
    # json.load keeps the last value of a repeated key, so each of these
    # files was read at exit 0 with one of its values dropped
    @pytest.mark.parametrize("entry, text, key", [
        ("train --config", '{"epochs": 2, "num_draws": 4, "hidden": [3], "epochs": 1}', "epochs"),
        ("gp-baseline --grid-config", '{"protocol": "toy", "toy_n": 30, "splits": 1, "splits": 2}',
         "splits"),
        # the first "sigma2" of a model file is config.sigma2, in a nested object
        ("predict --model", None, "sigma2"),
    ], ids=["train --config", "gp-baseline --grid-config", "predict --model"])
    def test_repeated_key_is_data_error_naming_the_file_and_key(self, tmp_path, capsys,
                                                                entry, text, key):
        bad = tmp_path / "repeated.json"
        argv = _argv_reading(entry, str(bad), tmp_path)
        if text is None:
            text = (tmp_path / "m.json").read_text()
            text = text.replace('"sigma2":', '"sigma2": 0.5, "sigma2":', 1)
        bad.write_text(text)
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {bad}: key {key!r} appears twice in one object\n"
        )


def _write_csv_per_cell(path, header, rows):
    """The writer _write_csv replaced: csv.writer over one repr per cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for r in rows:
            w.writerow([repr(float(v)) for v in r])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 3.0, -42.0, 1e16, 1e22, 0.1, 1 / 3]


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(
        table=st.integers(1, 5).flatmap(lambda width: st.lists(
            st.lists(
                st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=width, max_size=width,
            ),
            min_size=1, max_size=12,
        )),
        with_header=st.booleans(),
    )
    def test_bytes_match_the_per_cell_writer(self, tmp_path_factory, table, with_header):
        rows = np.asarray(table, dtype=float)
        header = [f"x{j + 1}" for j in range(rows.shape[1])] if with_header else None
        d = tmp_path_factory.getbasetemp()
        cli._write_csv(d / "new.csv", header, rows)
        _write_csv_per_cell(d / "old.csv", header, rows)
        assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS,
                                   2 * cli._CSV_BLOCK_ROWS + 1])
    def test_bytes_match_across_row_blocks(self, tmp_path, n):
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        rows[::7, 1] = rng.choice(_EDGE_FLOATS, len(rows[::7]))
        cli._write_csv(tmp_path / "new.csv", ["x1", "mean", "var_y"], rows)
        _write_csv_per_cell(tmp_path / "old.csv", ["x1", "mean", "var_y"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_predict_header_and_line_ends(self, tmp_path):
        out = tmp_path / "p.csv"
        cli._write_csv(out, ["x1", "mean", "var_y"], np.array([[-0.0, 1.0, 5e-324]]))
        assert out.read_bytes() == b"x1,mean,var_y\r\n-0.0,1.0,5e-324\r\n"


# one wrongly typed value for each kind of setting
BAD_CONFIG_VALUES = [
    ("alpha", "x"),  # number
    ("psi", float("nan")),  # finite number
    ("learning_rate", True),  # a boolean is not a number
    ("num_draws", 2.7),  # integer
    ("epochs", 1.5),
    ("seed", "3"),
    ("hidden", 5),  # list of integers
    ("sigma2_grid", [0.1, "a"]),  # list of numbers
    ("activation", 3),  # string
    # an integer too large for a double is not finite
    pytest.param("learning_rate", 10**400, id="learning_rate-10**400"),
]


class TestConfigTypes:
    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, key, value):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        capsys.readouterr()
        rc = cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path, {key: value}),
                       "--model-out", str(model_out)])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not model_out.exists()

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
    def test_wrong_type_in_model_file_is_data_error(self, tmp_path, capsys, key, value):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", _cfg_file(tmp_path),
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        d["config"][key] = value
        model_out.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert key in capsys.readouterr().err


# what a fuzzed config puts in place of a setting: non-finite and extreme
# numbers, a negative zero and wrongly typed values
_FUZZ_EDGES = [math.nan, math.inf, -math.inf, 1e307, 1.7e308, -0.0, "1", True, None, [0.5]]
_FUZZ_KEYS = [f.name for f in dataclasses.fields(TrainConfig)] + ["learning_rte"]
_FUZZ_REPLACEMENTS = st.one_of(
    # a float setting at an extreme that validation can pass, so training runs
    st.tuples(
        st.sampled_from([f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]),
        st.sampled_from([1e307, 1.7e308, -0.0]),
    ),
    st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_EDGES)),
)


@st.composite
def _fuzz_configs(draw):
    """A small valid config with one or two settings replaced by an edge value.

    Integer settings stay small: an edge value in one is never an integer,
    so a huge epoch count cannot reach training."""
    cfg = {
        "prior_family": draw(st.sampled_from(["bnn", "ns"])),
        "alpha": draw(st.sampled_from([0.0, 0.5, 1.0])),
        "batch_size": draw(st.sampled_from([0, 1, 7])),
        "sigma2_mode": draw(st.sampled_from(["fixed", "learned", "grid"])),
        "sigma2_grid": [0.1, 1.0],
        "estimator": draw(st.sampled_from(["mle", "pm"])),
        "learning_rate": draw(st.sampled_from([0.01, 1e3])),
        "epochs": draw(st.integers(0, 2)),
        "num_draws": draw(st.integers(2, 5)),
        "hidden": [draw(st.integers(1, 4))],
        "noise_dim": 2,
    }
    cfg.update(draw(st.lists(_FUZZ_REPLACEMENTS, min_size=1, max_size=2)))
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a 20-row toy CSV, on which both configs below
    overflow an Adam update, and a model of each family trained on it."""
    d = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "20", "--seed", "24", "--noise", "var",
                         "--out", str(d / "data.csv")]) == 0
        (d / "tiny.json").write_text(json.dumps(
            {"epochs": 2, "num_draws": 4, "hidden": [3], "sigma2_mode": "fixed", "noise_dim": 2}
        ))
        for family in ("bnn", "ns"):
            assert cli.main(["train", "--data", str(d / "data.csv"), "--config",
                             _cfg_file(d, {"prior_family": family}, name=f"{family}.cfg.json"),
                             "--model-out", str(d / f"{family}.json")]) == 0
    return d


def _main_in_process(argv):
    """Run the CLI in-process; return its exit code and its stderr, with each
    warning raised counted as a line of stderr, as it is in a process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _assert_exit_contract(rc, err):
    """A documented exit code; exit 0 writes nothing to stderr, any other
    exactly one line starting ``error: ``."""
    assert rc in (0, 2, 3, 4)
    if rc == 0:
        assert err == ""
    else:
        lines = err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(cfg=_fuzz_configs())
    # the only update makes w_0 inf, which a model file cannot hold
    @example(cfg={"learning_rate": 1e307, "epochs": 1, "num_draws": 5, "hidden": [4],
                  "sigma2_mode": "fixed", "prior_family": "ns", "alpha": 0.5})
    # the only update makes the BNN means inf (on 50 rows q_mu too)
    @example(cfg={"learning_rate": 1.7e308, "epochs": 1, "num_draws": 5, "hidden": [4],
                  "sigma2_mode": "fixed", "alpha": 0.5})
    # the grid search's validation NLL overflowed a temporary with a warning
    @example(cfg={"sigma2_mode": "grid", "sigma2_grid": [0.1, 1.0], "estimator": "pm",
                  "psi": 1.7e308, "epochs": 0, "num_draws": 2, "hidden": [1], "alpha": 0.0})
    def test_train_exits_with_a_code_and_one_error_line(self, fuzz_dir, cfg):
        (fuzz_dir / "cfg.json").write_text(json.dumps(cfg))
        model = fuzz_dir / "m.json"
        model.unlink(missing_ok=True)
        rc, err = _main_in_process(["train", "--data", fuzz_dir / "data.csv", "--config",
                                    fuzz_dir / "cfg.json", "--model-out", model])
        _assert_exit_contract(rc, err)
        assert model.exists() == (rc == 0)
        if rc == 4 and cfg.get("sigma2_mode", "learned") != "grid":
            # a fit outside the grid search fails only in a training step
            assert err.startswith("error: epoch ")


# what a fuzzed model file puts in place of a value: non-finite and extreme
# numbers, a negative zero, integers beyond a double's precision and range,
# and wrongly typed values; _DELETE removes the key or list item instead
_DELETE = "<delete>"
_MODEL_EDGES = [math.nan, math.inf, -math.inf, 1e308, -0.0, 2**70, 10**400,
                "1", True, None, [], {}, _DELETE]
# the top-level fields, each that is validated drawn three times as often
_MODEL_FIELDS = ["stats", "q", "train", "prior", "sigma2", "config"] * 3 + [
    "format_version"
]


@st.composite
def _model_mutations(draw):
    """A path into a model file, a top-level field and then indices that each
    pick a key (in sorted order) or an item one level down, and the value
    that goes there."""
    path = [draw(st.sampled_from(_MODEL_FIELDS)), *draw(st.lists(st.integers(0, 40), max_size=4))]
    return path, draw(st.sampled_from(_MODEL_EDGES))


def _mutate(d, path, value):
    """Put ``value`` at ``path`` in ``d``: a key names itself, an index picks
    modulo the length; the walk stops early at a scalar or an empty block.
    Returns the value that was there."""
    parent, key = None, None
    for step in path:
        if not (isinstance(d, (dict, list)) and d):
            break
        if isinstance(d, list):
            step %= len(d)
        elif isinstance(step, int):
            step = sorted(d)[step % len(d)]
        parent, key, d = d, step, d[step]
    if value == _DELETE:
        del parent[key]
    else:
        parent[key] = value
    return d


def _mistyped(old, new):
    """True when ``new`` is not a JSON number where ``old`` was one, or not an
    integer where ``old`` was one (every integer a fuzzed model file holds is
    a value that must be an integer)."""
    if type(old) not in (int, float) or new == _DELETE:
        return False
    return type(new) not in (int, float) or type(old) is int and type(new) is not int


class TestModelFileFuzz:
    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["bnn", "ns"]), mutation=_model_mutations())
    # a zero feature or target std passes every check but the stats block's
    @example(family="bnn", mutation=(["stats", "feature_stds", 0], -0.0))
    @example(family="ns", mutation=(["stats", "target_std"], -0.0))
    # these overflowed, standardising the ignored target column or mapping
    # the moments back to the target scale, or escaped as an OverflowError
    @example(family="bnn", mutation=(["stats", "target_mean"], 1e308))
    @example(family="bnn", mutation=(["stats", "target_std"], 1e308))
    @example(family="ns", mutation=(["q", "mu", 0], 10**400))
    def test_predict_exits_with_a_code_and_one_error_line(self, fuzz_dir, family, mutation):
        d = json.loads((fuzz_dir / f"{family}.json").read_text())
        old = _mutate(d, *mutation)
        (fuzz_dir / "fuzzed.json").write_text(json.dumps(d, allow_nan=True))
        for coeff in ("exact", "learned"):
            rc, err = _main_in_process(
                ["predict", "--model", fuzz_dir / "fuzzed.json", "--data",
                 fuzz_dir / "data.csv", "--coeff", coeff, "--out", fuzz_dir / "p.csv"]
            )
            _assert_exit_contract(rc, err)
            if _mistyped(old, mutation[1]):
                assert rc == 3


class TestCsvFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=_csv_text(), has_header=st.booleans())
    def test_train_and_predict_exit_with_a_code_and_one_error_line(
        self, fuzz_dir, text, has_header
    ):
        data = fuzz_dir / "fuzzed.csv"
        data.write_text(text, encoding="utf-8", newline="")
        header = ["--has-header"] if has_header else []
        _assert_exit_contract(*_main_in_process(
            ["train", "--data", data, "--config", fuzz_dir / "tiny.json",
             "--model-out", fuzz_dir / "fuzzed-model.json", *header]
        ))
        for coeff in ("exact", "learned"):
            _assert_exit_contract(*_main_in_process(
                ["predict", "--model", fuzz_dir / "bnn.json", "--data", data,
                 "--coeff", coeff, "--out", fuzz_dir / "p.csv", *header]
            ))


@st.composite
def _numeric_csv(draw):
    """A table of 2 to 12 rows of 2 or 3 well-formed numbers each, so that
    fuzzed runs also get past parsing."""
    width, rows = draw(st.integers(2, 3)), draw(st.integers(2, 12))
    return "".join(",".join(draw(_NUMBER) for _ in range(width)) + "\n" for _ in range(rows))


_DATA_TEXT = st.one_of(_csv_text(), _numeric_csv())


@st.composite
def _scored_files(draw):
    """A data file's text, and a prediction file's with a row for each of its
    non-blank lines, under a header that names mean and var_y, one of them
    perhaps twice, among x1 columns; its var_y cells are positive numbers."""
    text = draw(_DATA_TEXT)
    names = draw(st.permutations(
        ["mean", "var_y", *draw(st.lists(st.sampled_from(["x1", "mean", "var_y"]), max_size=2))]
    ))
    cell = {"x1": _NUMBER, "mean": _NUMBER, "var_y": _NUMBER.filter(lambda c: float(c) > 0)}
    rows = [",".join(draw(cell[name]) for name in names) for line in text.splitlines() if line]
    return text, "\n".join([",".join(names), *rows]) + "\n"


class TestEvalFuzz:
    @settings(max_examples=100, deadline=None)
    @given(files=_scored_files(), has_header=st.booleans())
    def test_eval_exits_with_a_code_and_one_error_line(self, fuzz_dir, files, has_header):
        data, pred = fuzz_dir / "fuzzed.csv", fuzz_dir / "fuzzed-pred.csv"
        data.write_text(files[0], encoding="utf-8", newline="")
        pred.write_text(files[1], encoding="utf-8", newline="")
        header = ["--has-header"] if has_header else []
        _assert_exit_contract(*_main_in_process(["eval", "--pred", pred, "--data", data,
                                                 *header]))


class TestBenchDataFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=_DATA_TEXT, has_header=st.booleans(),
           protocol=st.sampled_from(["uci", "interp"]))
    def test_bench_and_gp_baseline_exit_with_a_code_and_one_error_line(
        self, fuzz_dir, text, has_header, protocol
    ):
        data = fuzz_dir / "fuzzed.csv"
        data.write_text(text, encoding="utf-8", newline="")
        header = ["--has-header"] if has_header else []
        (fuzz_dir / "grid.json").write_text(json.dumps(
            {"protocol": protocol, "splits": 1, "n_segments": 1, "segment_len": 1,
             "lengthscales": [1.0], "signal_variances": [1.0], "sigma2s": [0.1, 1.0]}
        ))
        _assert_exit_contract(*_main_in_process(
            ["bench", "--protocol", protocol, "--data", data, "--config", fuzz_dir / "tiny.json",
             "--splits", "1", "--segments", "1", "--segment-len", "1", *header]
        ))
        _assert_exit_contract(*_main_in_process(
            ["gp-baseline", "--data", data, "--grid-config", fuzz_dir / "grid.json", *header]
        ))


class TestBench:
    def test_toy_report(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path)
        rc = cli.main(
            ["bench", "--protocol", "toy", "--config", cfg, "--splits", "2",
             "--seed", "5", "--toy-n", "30"]
        )
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["protocol"] == "toy" and len(rep["per_split"]) == 2

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path)
        argv = ["bench", "--protocol", "toy", "--config", cfg, "--splits", "2",
                "--seed", "8", "--toy-n", "30"]
        assert cli.main(argv) == 0
        a = capsys.readouterr().out
        assert cli.main(argv) == 0
        b = capsys.readouterr().out
        assert a == b

    def test_uci_without_data_is_usage_error(self, tmp_path):
        assert cli.main(["bench", "--protocol", "uci", "--splits", "2"]) == 2

    def test_toy_n_below_2_is_usage_error(self, tmp_path, capsys):
        # one toy row made a constant feature column, a data error (exit 3)
        capsys.readouterr()
        rc = cli.main(["bench", "--protocol", "toy", "--config", _cfg_file(tmp_path),
                       "--splits", "1", "--toy-n", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: toy_n must be >= 2, got 1\n"

    def test_constant_training_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        data.write_text("".join(f"{float(i)!r},0.5,{float(i % 3)!r}\n" for i in range(20)))
        capsys.readouterr()
        rc = cli.main(["bench", "--protocol", "uci", "--data", str(data),
                       "--config", _cfg_file(tmp_path), "--splits", "1"])
        assert rc == 3
        assert "split 0 training rows: feature column 2 is constant" in capsys.readouterr().err

    def test_overflowing_training_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text(
            "".join(f"{float(i)!r},{(-1) ** i}e308,{float(i % 3)!r}\n" for i in range(20))
        )
        capsys.readouterr()
        rc = cli.main(["bench", "--protocol", "uci", "--data", str(data),
                       "--config", _cfg_file(tmp_path), "--splits", "1"])
        assert rc == 3
        assert "split 0 training rows: feature column 2 overflows" in capsys.readouterr().err

    def test_interp_protocol(self, tmp_path, capsys):
        data = _synth(tmp_path, n=60)
        cfg = _cfg_file(tmp_path)
        capsys.readouterr()
        rc = cli.main(
            ["bench", "--protocol", "interp", "--data", data, "--config", cfg,
             "--splits", "2", "--segments", "2", "--segment-len", "5"]
        )
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["per_split"]) == 2


def _subparser(name):
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[name]


class TestProtocolTables:
    """vip.bench declares the protocols, their options and their defaults;
    the command line reads them from there."""

    def test_bench_flags_are_the_split_options(self):
        actions = {a.dest: a for a in _subparser("bench")._actions}
        options = {dest: a.default for dest, a in actions.items()
                   if dest not in ("help", "protocol", "data", "config", "has_header")}
        assert options == bench.SPLIT_OPTIONS
        assert tuple(actions["protocol"].choices) == bench.PROTOCOLS

    def test_grid_config_is_the_gp_grids_and_the_split_options(self):
        assert bench.GRID_CONFIG == {
            "protocol": "uci", "lengthscales": bench.DEFAULT_GP_LENGTHSCALES,
            "signal_variances": bench.DEFAULT_GP_SIGNAL_VARIANCES,
            "sigma2s": bench.DEFAULT_GP_SIGMA2S, **bench.SPLIT_OPTIONS,
        }


class TestGpBaseline:
    def test_runs_with_grid_config(self, tmp_path, capsys):
        data = _synth(tmp_path, n=50)
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({
            "lengthscales": [0.5, 1.0],
            "signal_variances": [1.0],
            "sigma2s": [0.05, 0.5],
            "splits": 2,
        }))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--data", data, "--grid-config", str(gc)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["model"] == "gp_rbf_baseline"
        assert len(rep["per_split"]) == 2

    def test_unknown_grid_key_is_usage_error(self, tmp_path):
        data = _synth(tmp_path, n=20)
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({"lengthscale": [1.0]}))
        assert cli.main(["gp-baseline", "--data", data, "--grid-config", str(gc)]) == 2

    def test_toy_n_below_2_is_usage_error(self, tmp_path, capsys):
        # one toy row made a constant feature column, a data error (exit 3)
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({"protocol": "toy", "toy_n": 1}))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 2
        assert capsys.readouterr().err == "error: toy_n must be >= 2, got 1\n"

    def test_unknown_protocol_is_named_before_data_is_asked_for(self, tmp_path, capsys):
        # this exited 2 asking for --data for the foo protocol
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({"protocol": "foo"}))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 2
        assert capsys.readouterr().err == "error: unknown protocol 'foo'\n"

    def test_non_object_grid_config_is_data_error(self, tmp_path):
        gc = tmp_path / "grid.json"
        gc.write_text("[1]")
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [("splits", "a"), ("train_frac", "0.5"), ("lengthscales", [1.0, "x"]),
         ("sigma2s", 0.1), ("protocol", 5), ("toy_n", 30.0),
         pytest.param("train_frac", 10**400, id="train_frac-10**400")],
    )
    def test_wrongly_typed_grid_key_is_usage_error(self, tmp_path, capsys, key, value):
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({"protocol": "toy", key: value}))
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("lengthscale", [1e-300, 1e200])
    def test_lengthscale_whose_square_is_not_positive_finite_is_usage_error(
        self, tmp_path, capsys, lengthscale
    ):
        # 1e-300 squares to 0 and the Gram became NaN (exit 4); 1e200 squares
        # past the largest double and raised OverflowError (exit 1)
        gc = tmp_path / "grid.json"
        gc.write_text(json.dumps({"protocol": "toy", "splits": 1, "lengthscales": [lengthscale]}))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 2
        assert capsys.readouterr().err == (
            "error: lengthscale must be positive with a positive, finite square, "
            f"got {lengthscale!r}\n"
        )

    def test_constant_training_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        data.write_text("".join(f"{float(i)!r},0.5\n" for i in range(20)))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--data", str(data)]) == 3
        assert "split 0 training rows: target column 2 is constant" in capsys.readouterr().err

    def test_overflowing_training_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("".join(f"{float(i)!r},{(-1) ** i}e308\n" for i in range(20)))
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--data", str(data)]) == 3
        assert "split 0 training rows: target column 2 overflows" in capsys.readouterr().err

    def test_defaults_without_config(self, tmp_path, capsys):
        data = _synth(tmp_path, n=40)
        capsys.readouterr()
        assert cli.main(["gp-baseline", "--data", data]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["per_split"]) == 5


def _cli_process(*args, cwd, env_extra=None):
    """``vip`` in a child interpreter, so stderr shows what a user sees:
    pytest captures warnings raised in its own process. ``env_extra`` adds
    to the child's environment."""
    pkg_root = str(Path(vip.__file__).resolve().parent.parent)
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "vip.cli", *args], cwd=cwd, env=env, capture_output=True,
        text=True,
    )


class TestNoNumpyWarningsOnStderr:
    # numpy's overflow warnings used to reach stderr ahead of the error line

    def test_diverging_train(self, tmp_path):
        assert cli.main(["synth", "--n", "300", "--seed", "0", "--noise", "std",
                         "--out", str(tmp_path / "toy.csv")]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps({"epochs": 3, "learning_rate": 1000.0}))
        proc = _cli_process("train", "--data", "toy.csv", "--config", "cfg.json",
                            "--model-out", "m.json", cwd=tmp_path)
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: epoch 0, batch at 0: the Adam update took w_log_scale_0 out of range: "
            "exp(w_log_scale_0) = inf (parameters: w_log_scale_0, b_log_scale_0, "
            "w_log_scale_1, b_log_scale_1, w_log_scale_2, b_log_scale_2, log_sigma2)\n"
        )

    def test_predict_from_an_overflowing_model(self, tmp_path):
        # finite ns weights of about 1e300, whose draws overflow; training
        # rejects an update that makes them, so the model file is edited
        data = str(tmp_path / "toy.csv")
        assert cli.main(["synth", "--n", "300", "--seed", "0", "--noise", "std",
                         "--out", data]) == 0
        cfg = _cfg_file(tmp_path, {"epochs": 1, "num_draws": 5, "hidden": [10, 10],
                                   "prior_family": "ns"})
        model = tmp_path / "m.json"
        assert cli.main(["train", "--data", data, "--config", cfg,
                         "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["prior"] = {k: np.copysign(1e300, a).tolist() for k, a in doc["prior"].items()}
        model.write_text(json.dumps(doc))
        proc = _cli_process("predict", "--model", "m.json", "--data", "toy.csv",
                            "--out", "p.csv", cwd=tmp_path)
        assert proc.returncode == 4
        assert proc.stderr == (
            "error: exact coefficient posterior failed at noise variance sigma2 = 0.1: "
            "cholesky input contains non-finite entries\n"
        )

    def test_gp_baseline_with_a_subnormal_squared_lengthscale(self, tmp_path):
        # 1e-160 squares to a subnormal, so the Gram's division overflows;
        # its limit, the identity Gram, is the right answer
        (tmp_path / "grid.json").write_text(json.dumps(
            {"protocol": "toy", "lengthscales": [1e-160], "splits": 1, "toy_n": 60}
        ))
        proc = _cli_process("gp-baseline", "--grid-config", "grid.json", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""


class TestByteDeterminism:
    def test_model_bytes_repeat_at_a_fixed_blas_thread_count(self, tmp_path):
        # The bytes are a function of the seed, the inputs, the numpy and
        # scipy builds and the BLAS thread count: a threaded GEMM may split
        # its sums differently, so only runs at one count are compared.
        assert cli.main(["synth", "--n", "2000", "--seed", "3", "--noise", "std",
                         "--out", str(tmp_path / "toy.csv")]) == 0
        cfg = _cfg_file(tmp_path, {"prior_family": "ns", "num_draws": 50, "hidden": [50, 50],
                                   "batch_size": 0, "alpha": 0.5, "epochs": 1})
        for threads in ("1", "2"):
            models = []
            for run in range(2):
                out = f"m{threads}_{run}.json"
                proc = _cli_process("train", "--data", "toy.csv", "--config", cfg,
                                    "--seed", "3", "--model-out", out, cwd=tmp_path,
                                    env_extra={"OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                models.append((tmp_path / out).read_bytes())
            assert models[0] == models[1], f"two runs at {threads} BLAS threads differ"


class TestExitCodes:
    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["bench"])  # missing required --protocol
        assert e.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["frobnicate"])
        assert e.value.code == 2

    def test_numerical_failure_maps_to_4(self, tmp_path, monkeypatch):
        # the parser binds subcommands by module global, so patching the
        # global reroutes dispatch
        def boom(args):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_synth", boom)
        assert cli.main(["synth", "--out", str(tmp_path / "x.csv")]) == 4

    @pytest.mark.parametrize(
        "argv, protocol", [(["bench", "--protocol", "interp"], "interp"), (["gp-baseline"], "uci")]
    )
    def test_protocol_without_data_is_usage_error(self, capsys, argv, protocol):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --data is required for the {protocol} protocol\n"

    @pytest.mark.parametrize("y", [1.7e308, -1.7e308])
    def test_overflowing_train_targets_exit_3(self, tmp_path, capsys, y):
        # finite targets this large would overflow B^T y in the exact
        # coefficient posterior; the model file is rejected where it loads
        data, model = _trained(tmp_path)
        d = json.loads(model.read_text())
        d["train"]["y"] = [y] * len(d["train"]["y"])
        model.write_text(json.dumps(d))
        capsys.readouterr()
        argv = ["predict", "--model", str(model), "--data", data, "--coeff", "exact",
                "--out", str(tmp_path / "p.csv")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "train.y" in err

    def test_diverging_train_exits_4_naming_the_parameter(self, tmp_path, capsys):
        data = _synth(tmp_path, n=300, seed=0)
        cfg = _cfg_file(tmp_path, {"learning_rate": 1e3, "sigma2_mode": "learned"})
        argv = ["train", "--data", data, "--config", cfg, "--model-out", str(tmp_path / "m")]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: epoch 0, batch at 0: the Adam update took w_log_scale_0 out of range: "
            "exp(w_log_scale_0) = inf (parameters: w_log_scale_0, b_log_scale_0, "
            "w_log_scale_1, b_log_scale_1, log_sigma2)\n"
        )

    def test_overflowing_update_exits_4_naming_its_step(self, tmp_path, capsys):
        # epoch 0's update made the means inf and the log-scales too large
        # to take exp of
        data = _synth(tmp_path, n=50, seed=1)
        cfg = _cfg_file(tmp_path, {"learning_rate": 1e308, "epochs": 3, "num_draws": 5,
                                   "hidden": [4], "sigma2_mode": "learned"})
        argv = ["train", "--data", data, "--config", cfg, "--model-out", str(tmp_path / "m")]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: epoch 0, batch at 0: the Adam update took w_mean_0 out of range: "
            "w_mean_0 = inf (parameters: w_mean_0, w_log_scale_0, b_mean_0, b_log_scale_0, "
            "w_mean_1, w_log_scale_1, b_mean_1, b_log_scale_1, log_sigma2)\n"
        )

    @pytest.mark.parametrize(
        "extra, failure",
        [
            # w_0 became inf: vip train exited 1 on a JSON ValueError
            # traceback while saving the model
            (
                {"learning_rate": 1e307, "prior_family": "ns"},
                "w_0 out of range: w_0 = inf (parameters: w_0)",
            ),
            # q_mu became inf: vip train exited 4 with "mu contains
            # non-finite entries", naming neither the step nor a parameter
            (
                {"learning_rate": 1.7e308},
                "w_mean_0 out of range: w_mean_0 = inf (parameters: w_mean_0, w_log_scale_0, "
                "b_mean_0, b_log_scale_0, w_mean_1, w_log_scale_1, b_mean_1, b_log_scale_1, "
                "q_mu)",
            ),
        ],
        ids=["ns-weight", "bnn-q-mean"],
    )
    def test_overflowing_only_update_exits_4_naming_its_step(
        self, tmp_path, capsys, extra, failure
    ):
        data, model = _synth(tmp_path, n=50, seed=1), tmp_path / "m.json"
        cfg = _cfg_file(tmp_path, {"epochs": 1, "num_draws": 5, "hidden": [4], "alpha": 0.5,
                                   **extra})
        capsys.readouterr()
        argv = ["train", "--data", data, "--config", cfg, "--model-out", str(model)]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            f"error: epoch 0, batch at 0: the Adam update took {failure}\n"
        )
        assert not model.exists()

    # epoch 0's update moved every group by about 1e300, finite and in
    # range: two epochs failed in epoch 1's forward pass naming q_mu alone,
    # and one epoch saved, at exit 0, a model both prediction routes reject
    @pytest.mark.parametrize("epochs", [2, 1])
    def test_finite_update_too_large_to_square_exits_4_at_its_step(
        self, tmp_path, capsys, epochs
    ):
        data, model = str(tmp_path / "toy.csv"), tmp_path / "m.json"
        assert cli.main(["synth", "--n", "300", "--seed", "0", "--noise", "std",
                         "--out", data]) == 0
        cfg = _cfg_file(tmp_path, {"epochs": epochs, "num_draws": 5, "learning_rate": 1e300,
                                   "hidden": [10, 10], "prior_family": "ns",
                                   "sigma2_mode": "fixed"})
        capsys.readouterr()
        argv = ["train", "--data", data, "--config", cfg, "--model-out", str(model)]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: epoch 0, batch at 0: the Adam update took w_0 out of range: "
            "sum(w_0**2) = inf (parameters: w_0, b_0, w_1, b_1, w_2, b_2, q_mu, q_tril, "
            "q_diag)\n"
        )
        assert not model.exists()

    @pytest.mark.parametrize(
        "extra, groups",
        [
            # exp(log_sigma2) overflowed in the end-of-training conversion: an
            # uncaught OverflowError, exit 1
            ({}, ", log_sigma2"),
            # softplus(q_diag) underflowed to 0 and q was rejected as a bad
            # setting, exit 2
            ({"sigma2_mode": "fixed", "alpha": 0.0}, ", q_diag"),
            # a BNN log-scale grew by ~lr: the model was saved, exit 0, and
            # vip predict on it failed naming no parameter
            ({"sigma2_mode": "fixed", "alpha": 0.5}, ""),
        ],
        ids=["noise", "q", "prior-scale"],
    )
    def test_diverging_last_update_exits_4_naming_the_parameter(
        self, tmp_path, capsys, extra, groups
    ):
        # one epoch at lr 1e3: the first and only Adam step diverges, and no
        # forward pass runs after it
        data, cfg, model = tmp_path / "d.csv", tmp_path / "cfg.json", tmp_path / "m.json"
        assert cli.main(["synth", "--n", "300", "--noise", "std", "--out", str(data)]) == 0
        cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 1e3, **extra}))
        capsys.readouterr()
        argv = ["train", "--data", str(data), "--config", str(cfg), "--model-out", str(model)]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "error: epoch 0, batch at 0: the Adam update took w_log_scale_0 out of range: "
            "exp(w_log_scale_0) = inf (parameters: w_log_scale_0, b_log_scale_0, "
            f"w_log_scale_1, b_log_scale_1, w_log_scale_2, b_log_scale_2{groups})\n"
        )
        assert not model.exists()
