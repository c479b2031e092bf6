"""The benchmark's traced run wraps library functions by name.

``perfbench/tracing.py`` patches functions of the vip modules in place, some
under several names (``vip.bench.train``, ``vip.cli.load_model``, ...). A
renamed or deleted function makes ``Tracer.install`` fail, so this test
catches it here rather than in the benchmark's own correctness check.
"""

import importlib
from pathlib import Path

import vip.numkit
import vip.priors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
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
