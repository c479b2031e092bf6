"""The byte-identity tool, ``tools/byte_matrix.py``, gives one tree's
digests the same way every time, so two trees can be compared by it."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "byte_matrix.py"


def _tool(*args, cwd):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], cwd=cwd, capture_output=True, text=True
    )


def test_two_config_subset_gives_equal_digests_twice(tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        run = _tool(ROOT, out, "--configs", "2", cwd=tmp_path)
        assert run.returncode == 0, run.stderr
    digests = json.loads(outs[0].read_text())["digests"]
    # four synth commands with their CSVs, then per config a train with its
    # model file and two predicts with their CSVs and evals
    assert len(digests) == 4 * 4 + 2 * (4 + 2 * (4 + 3))
    assert {v for k, v in digests.items() if k.endswith(".exit")} == {"0"}
    same = _tool("--compare", *outs, cwd=tmp_path)
    assert (same.returncode, same.stdout) == (0, f"{len(digests)} identical, 0 differ\n")


def test_compare_names_what_differs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"digests": {"x": "1", "y": "2", "only-a": "3"}}))
    b.write_text(json.dumps({"digests": {"x": "1", "y": "9"}}))
    run = _tool("--compare", a, b, cwd=tmp_path)
    assert (run.returncode, run.stdout) == (
        1, "differs: only-a\ndiffers: y\n1 identical, 2 differ\n"
    )
