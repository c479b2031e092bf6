"""README's library examples run as written."""

import ast
import math
import re
from pathlib import Path

import vip.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    # the CLI quick start writes the toy.csv the first block loads
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--n", "300", "--seed", "0", "--noise", "std",
                     "--out", "toy.csv"]) == 0
    capsys.readouterr()
    scope = {}
    exec(compile(blocks[0], "README.md: library example 1", "exec"), scope)
    metrics = ast.literal_eval(capsys.readouterr().out)
    assert sorted(metrics) == ["nll", "rmse"] and all(map(math.isfinite, metrics.values()))
    # on the original target scale a fit to the toy curve is close; targets
    # left standardised, with predictions mapped back, gave rmse 0.57
    assert metrics["rmse"] < 0.2
    exec(compile(blocks[1], "README.md: library example 2", "exec"), scope)
    assert scope["step"] == 99
    assert all(math.isfinite(float(a.sum())) for a in scope["params"].values())
