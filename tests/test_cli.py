import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vip
import vip.cli as cli
from vip.errors import NumericalError
from vip.modelfile import load_model

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
        lines = open(path).read().strip().split("\n")
        assert len(lines) == 25
        assert all(len(l.split(",")) == 2 for l in lines)
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 25

    def test_deterministic_bytes(self, tmp_path):
        a = _synth(tmp_path, seed=4, name="a.csv")
        b = _synth(tmp_path, seed=4, name="b.csv")
        assert open(a, "rb").read() == open(b, "rb").read()

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
        assert m.seed == 7
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
        assert open(m1, "rb").read() == open(m2, "rb").read()

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


class TestPredictEval:
    def test_full_pipeline(self, tmp_path, capsys):
        data = _synth(tmp_path, n=40)
        cfg = _cfg_file(tmp_path, extra={"epochs": 60})
        model_out = str(tmp_path / "m.json")
        pred_out = str(tmp_path / "p.csv")
        assert cli.main(["train", "--data", data, "--config", cfg, "--model-out", model_out]) == 0
        assert cli.main(["predict", "--model", model_out, "--data", data, "--out", pred_out]) == 0
        rows = open(pred_out).read().strip().split("\n")
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
        means = [float(l.split(",")[1]) for l in open(pred_out).read().strip().split("\n")[1:]]
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
        a = open(str(tmp_path / "p_learned.csv")).read()
        b = open(str(tmp_path / "p_exact.csv")).read()
        assert a != b

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
        assert f"{field} has " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("sigma2", "x"), ("sigma2", -1.0), ("sigma2", 0.0), ("sigma2", None),
        ("seed", "3"), ("seed", 1.5),
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
            field = "prior.weight_mean" if family == "bnn" else "prior.weights"
            d["prior"][field.split(".")[1]][0][0][0] = float("nan")
        elif field == "q.mu":
            d["q"]["mu"][1] = float("nan")
        else:
            d["q"]["chol"][1][0] = float("inf")
        model_out.write_text(json.dumps(d))
        capsys.readouterr()
        rc = cli.main(["predict", "--model", str(model_out), "--data", data,
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 3
        assert f"{field} has non-finite entries" in capsys.readouterr().err

    # 1e308 is finite, but the noise range 2 * 1e308 is not
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1e308"])
    def test_non_finite_noise_halfwidth_is_data_error(self, tmp_path, capsys, text):
        data = _synth(tmp_path, n=10)
        model_out = tmp_path / "m.json"
        cfg = _cfg_file(tmp_path, {"prior_family": "ns", "noise_dim": 2})
        assert cli.main(["train", "--data", data, "--config", cfg,
                         "--model-out", str(model_out)]) == 0
        d = json.loads(model_out.read_text())
        d["prior"]["noise_halfwidth"] = "@"
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

    def test_non_object_grid_config_is_data_error(self, tmp_path):
        gc = tmp_path / "grid.json"
        gc.write_text("[1]")
        assert cli.main(["gp-baseline", "--grid-config", str(gc)]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [("splits", "a"), ("train_frac", "0.5"), ("lengthscales", [1.0, "x"]),
         ("sigma2s", 0.1), ("protocol", 5), ("toy_n", 30.0)],
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
            "error: epoch 1, batch at 0: exp: produced a non-finite value "
            "(parameters: w_log_scale_0)\n"
        )

    def test_predict_from_an_overflowing_model(self, tmp_path):
        # one step at lr 1e300 leaves finite ns weights whose draws overflow
        data = str(tmp_path / "toy.csv")
        assert cli.main(["synth", "--n", "300", "--seed", "0", "--noise", "std",
                         "--out", data]) == 0
        cfg = _cfg_file(tmp_path, {"epochs": 1, "num_draws": 5, "learning_rate": 1e300,
                                   "hidden": [10, 10], "prior_family": "ns"})
        assert cli.main(["train", "--data", data, "--config", cfg,
                         "--model-out", str(tmp_path / "m.json")]) == 0
        proc = _cli_process("predict", "--model", "m.json", "--data", "toy.csv",
                            "--out", "p.csv", cwd=tmp_path)
        assert proc.returncode == 4
        assert proc.stderr == "error: cholesky input contains non-finite entries\n"

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
        err = capsys.readouterr().err
        assert err.startswith("error: epoch 1, batch at 0: ")
        assert err.rstrip().endswith("(parameters: w_log_scale_0)")

    @pytest.mark.parametrize(
        "extra, name, what",
        [
            # exp(log_sigma2) overflowed in the end-of-training conversion: an
            # uncaught OverflowError, exit 1
            ({}, "log_sigma2", "exp(log_sigma2) = inf"),
            # softplus(q_diag) underflowed to 0 and q was rejected as a bad
            # setting, exit 2
            ({"sigma2_mode": "fixed", "alpha": 0.0}, "q_diag", "softplus(q_diag) = 0.0"),
            # a BNN log-scale grew by ~lr: the model was saved, exit 0, and
            # vip predict on it failed naming no parameter
            (
                {"sigma2_mode": "fixed", "alpha": 0.5},
                "w_log_scale_0",
                "exp(w_log_scale_0) = inf",
            ),
        ],
        ids=["noise", "q", "prior-scale"],
    )
    def test_diverging_last_update_exits_4_naming_the_parameter(
        self, tmp_path, capsys, extra, name, what
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
            f"error: the last update took {name} out of range: {what} (parameters: {name})\n"
        )
        assert not model.exists()
