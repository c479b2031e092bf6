"""Benchmark entry point.

    python3 perfbench/run.py --workload toy-protocol --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is a JSON report with the environment, the
per-workload metrics and, in a traced run, the tracing overhead.
"""

import os

# One thread in all: BLAS threads count toward the two cores of the machine
# the bounds were set on, one thread is steadier when the machine is shared,
# and it makes the LAPACK reference single-threaded. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "vip", "__init__.py")):
    sys.exit(f"no vip sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Reference  # noqa: E402

SETUP_REPEATS = 5  # fresh interpreters timed per run; setup_s is their median
MIN_OPS = 2  # op 1 repeats op 0, so every run checks determinism


def _blas(module) -> dict:
    """Name, version and live thread count of the OpenBLAS a module bundles."""
    cfg = module.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.dirname(module.__file__) + ".libs/lib*openblas*.so*"):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(np),
        "blas_scipy": _blas(scipy),
        "seed": seed,
    }


def measure_setup(args, workdir, i) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for the first op."""
    child_dir = os.path.join(workdir, f"setup-{i}")
    os.mkdir(child_dir)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", child_dir]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    return float(done.stdout.split()[-1]) - t0


def percentile(values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    n = len(values)
    if n * (1.0 - q) < 10:
        return None
    return sorted(values)[math.ceil(q * n) - 1]


def report(samples: dict, op_seconds: list, workload: str) -> dict:
    """The per-workload metrics, each timing with its sample count."""
    rep = {"op_s": statistics.median(op_seconds), "op_n": len(op_seconds)}
    if workload == "toy-protocol":
        rep["split_s"] = rep["op_s"]
    if workload == "gp-baseline":
        rep["gp_split_s"] = rep["op_s"]
    for name, values in samples.items():
        if name in ("nll", "rmse"):
            rep[name] = statistics.median(values)
            continue
        rep[f"{name}_min"] = min(values)
        rep[f"{name}_p50"] = statistics.median(values)
        rep[f"{name}_p90"] = percentile(values, 0.9)
        rep[f"{name}_n"] = len(values)
    return rep


def run(args, bench_cfg) -> int:
    cls = WORKLOADS[args.workload]
    ref = Reference(cls.reference)
    workload = cls(ref)
    traced = args.trace == 1
    tracer = tracing.Tracer(ref, lapack_reference=args.workload == "gp-baseline") if traced else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload.prepare(args.seed, workdir)

        times = {False: [], True: []}  # traced? -> op seconds
        samples, digests, setup_s = {}, {}, []
        attempted = failed = 0
        t_start, paused = time.perf_counter(), 0.0

        def elapsed():
            return time.perf_counter() - t_start - paused

        k = 0
        while k < MIN_OPS or elapsed() < args.seconds:
            # Spread the set-up measurements over the run, between ops, so
            # that they meet the machine's drifting speed as the ops do.
            if len(setup_s) < SETUP_REPEATS and elapsed() >= len(setup_s) * args.seconds / SETUP_REPEATS:
                t0 = time.perf_counter()
                setup_s.append(measure_setup(args, workdir, len(setup_s)))
                paused += time.perf_counter() - t0
            on = traced and k % 2 == 1  # a traced run alternates untraced and traced ops
            if on:
                tracer.install()
            try:
                x0, t0 = ref.spent, time.perf_counter()
                result = workload.op(k)
                dt = time.perf_counter() - t0 - (ref.spent - x0)
            except Exception:  # an op that raises counts as failed; keep measuring
                print(f"op {k} failed:", file=sys.stderr)
                traceback.print_exc()
                attempted += workload.items_per_op
                failed += workload.items_per_op
                k += 1
                continue
            finally:
                if on:
                    tracer.uninstall()
            times[on].append(dt)
            outcome = workload.check(k, result)
            for key, text in outcome.digests.items():
                if digests.setdefault(key, text) != text:
                    outcome.failures.append(f"repeated op {key!r} gave different output")
            for msg in outcome.failures:
                print(f"op {k}: {msg}", file=sys.stderr)
            attempted += outcome.items
            failed += min(len(outcome.failures), outcome.items)
            if not on:
                for name, values in outcome.samples.items():
                    samples.setdefault(name, []).extend(values)
            k += 1
        while len(setup_s) < SETUP_REPEATS:
            setup_s.append(measure_setup(args, workdir, len(setup_s)))

    untraced = times[False]
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops": k,
        "setup_s_samples": setup_s,
        "report": report(samples, untraced, args.workload) if untraced else {},
        "ops_failed_ratio": failed / attempted,
    }
    problems = []
    if traced:
        problems = tracer.problems(args.workload)
        values = tracer.metrics(attempted - len(untraced) * workload.items_per_op)
        values["trace.op_s_untraced"] = statistics.median(untraced)
        values["trace.op_s_traced"] = statistics.median(times[True])
        info["tracing_overhead"] = values["trace.op_s_traced"] / values["trace.op_s_untraced"] - 1.0
        info["wait_time"] = tracing.WAIT_TIME
        info["trace_problems"] = problems
        wanted = bench_cfg["per_layer"]
    else:
        values = {
            "unit_ref": sum(statistics.median(samples[f"{u}_ref"]) for u in workload.units),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["report"]["setup_s"] = values["setup_s"]
        info["report"]["peak_rss_mb"] = values["peak_rss_mb"]
        wanted = bench_cfg["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_only:
        WORKLOADS[args.workload](Reference()).prepare(args.seed, args.setup_only)
        print(time.monotonic())
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_cfg = json.load(fh)
    return run(args, bench_cfg)


if __name__ == "__main__":
    sys.exit(main())
