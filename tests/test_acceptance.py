"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Unlike the unit suites these run whole protocols (training loops, CLI round
trips), so this file dominates overall test time. Every check recomputes its
expected values from scratch (hand algebra, dense linear-algebra oracles, or
seeded numpy Monte Carlo); nothing is compared against stored outputs.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import vip
from vip import autodiff as ad
from vip.baseline_gp import RbfKernel, gp_log_marginal, gp_predict
from vip.bench import run_protocol
from vip.data import load_csv
from vip.inference import CoefficientPosterior, TrainConfig, energy_loss
from vip.numkit import Rng
from vip.predict import exact_coefficient_posterior, predict_features
from vip.priors import init_prior, sample_functions

from oracles import (
    alpha_local_term,
    cov,
    draws_from_matrix,
    elbo_local_term,
    empirical_kernel_matrix,
    kl_standard_normal,
)

LOG_2PI = math.log(2 * math.pi)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1. toy regression protocol ---------------------------------------------


def test_criterion_01_toy_regression_medians():
    t0 = time.monotonic()
    cfg = TrainConfig(
        alpha=0.0,
        num_draws=20,
        epochs=500,
        batch_size=0,
        learning_rate=0.01,
        sigma2_mode="learned",
        hidden=(10, 10),
        activation="tanh",
    )
    rep = run_protocol("toy", cfg, splits=5, seed=0, toy_n=300, toy_noise="std")
    med_nll = statistics.median(p["nll"] for p in rep["per_split"])
    med_rmse = statistics.median(p["rmse"] for p in rep["per_split"])
    elapsed = time.monotonic() - t0
    ok = med_nll <= -0.35 and med_rmse <= 0.17 and elapsed <= 300.0
    assert _report(
        1,
        ok,
        f"median nll {med_nll:.3f} (need <= -0.35), median rmse {med_rmse:.3f}"
        f" (need <= 0.17), {elapsed:.0f}s of 300s",
    )


# -- 2. UCI regression benchmarks -------------------------------------------

# reference (nll, rmse) means the harness is expected to land near
_UCI_REFERENCE = {
    "boston": (2.45, 2.88),
    "energy": (0.60, 0.45),
    "yacht": (-0.02, 0.32),
}


def _uci_dir() -> Path:
    env = os.environ.get("VIP_UCI_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "uci"


def test_criterion_02_uci_benchmark_means():
    root = _uci_dir()
    missing = sorted(n for n in _UCI_REFERENCE if not (root / f"{n}.csv").exists())
    if missing:
        detail = (
            f"datasets not provisioned: {', '.join(missing)} (looked in {root}; "
            "place <name>.csv with the target in the last column, or point "
            "VIP_UCI_DIR at a directory that has them)"
        )
        _report(2, False, detail)
        pytest.fail(detail)

    t0 = time.monotonic()
    cfg = TrainConfig(
        alpha=0.5,
        num_draws=20,
        epochs=1000,
        batch_size=0,
        learning_rate=0.01,
        sigma2_mode="grid",
        hidden=(10, 10),
        activation="tanh",
    )
    parts, ok = [], True
    for name, (ref_nll, ref_rmse) in _UCI_REFERENCE.items():
        ds = load_csv(root / f"{name}.csv")
        rep = run_protocol("uci", cfg, data=ds, splits=5, seed=0, train_frac=0.9)
        good = (
            abs(rep["nll_mean"] - ref_nll) <= 0.35
            and abs(rep["rmse_mean"] - ref_rmse) <= 0.30 * abs(ref_rmse)
        )
        ok = ok and good
        parts.append(
            f"{name} nll {rep['nll_mean']:.2f}/{ref_nll:.2f}"
            f" rmse {rep['rmse_mean']:.2f}/{ref_rmse:.2f}"
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 1800.0
    assert _report(2, ok, "; ".join(parts) + f"; {elapsed:.0f}s of 1800s")


# -- 3. dense vs feature-space predictive routes ----------------------------


def test_criterion_03_dense_feature_equivalence():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(2, 11))
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 11))
        joint = draws_from_matrix(rng.standard_normal((s, n + k)))
        dt = joint.slice_columns(0, n)
        ds = joint.slice_columns(n, n + k)
        y = rng.standard_normal(n)
        sig2 = 0.05 + rng.random()

        # dense oracle: condition K = Delta^T Delta / S on the training block
        k = joint.deltas.T @ joint.deltas / s
        kff, ksf = k[:n, :n], k[n:, :n]
        a_mat = kff + sig2 * np.eye(n)
        dense_mean = joint.mean[0, n:] + ksf @ np.linalg.solve(a_mat, y - joint.mean[0, :n])
        dense_var = np.diag(k)[n:] - np.einsum("kn,nk->k", ksf, np.linalg.solve(a_mat, ksf.T))

        b = dt.deltas.T / math.sqrt(s)
        q = exact_coefficient_posterior(b, y - dt.mean[0], sig2)
        feat = predict_features(ds, q, sig2, s, 0.0)

        for a, bb in ((dense_mean, feat.mean), (dense_var, feat.var_f)):
            rel = np.max(np.abs(a - bb) / (np.abs(bb) + 1e-9))
            worst = max(worst, float(rel))
    ok = worst <= 1e-6
    assert _report(3, ok, f"worst relative gap {worst:.2e} over 100 instances (need <= 1e-6)")


# -- 4. closed-form alpha term vs Monte Carlo -------------------------------


def test_criterion_04_alpha_term_vs_monte_carlo():
    rng = np.random.default_rng(400)
    n_mc = 10**6
    hits = 0
    worst_sigmas = 0.0
    for i in range(20):
        s = int(rng.integers(1, 9))
        alpha = (0.3, 0.5, 1.0)[i % 3]
        mu = 0.5 * rng.standard_normal(s)
        chol = np.tril(0.3 * rng.standard_normal((s, s)), -1) + np.diag(
            np.exp(0.25 * rng.standard_normal(s))
        )
        q = CoefficientPosterior(mu, chol)
        phi = rng.standard_normal(s)
        y = float(rng.standard_normal())
        m = float(rng.standard_normal())
        sig2 = 0.1 + rng.random()

        closed = alpha_local_term(y, m, phi, q, alpha, sig2)
        a = mu + rng.standard_normal((n_mc, s)) @ chol.T
        resid = y - m - a @ phi
        t = np.exp(alpha * (-0.5 * (resid**2 / sig2 + math.log(2 * math.pi * sig2))))
        mean_t = float(t.mean())
        se_log = float(t.std(ddof=1)) / (mean_t * math.sqrt(n_mc))
        gap = abs(closed - math.log(mean_t))
        worst_sigmas = max(worst_sigmas, gap / se_log)
        hits += gap <= 3.0 * se_log
    ok = hits >= 19
    assert _report(4, ok, f"{hits}/20 within 3 MC standard errors (worst {worst_sigmas:.2f} se)")


# -- 5. gradients of the full energy ----------------------------------------


def _energy_grad_worst(family: str, alpha: float) -> float:
    # deterministic seeds; central differences at h=1e-5 carry ~3e-10 of
    # roundoff, which unlucky near-zero gradient entries would amplify
    seed = 60 + {"bnn": 0, "ns": 2}[family] + (alpha == 1.0)
    rng_np = np.random.default_rng(seed)
    n, s = 5, 5
    x = rng_np.standard_normal((n, 1))
    y = rng_np.standard_normal(n)
    prior = init_prior(family, 1, (3,), "tanh", Rng(50, 0), noise_dim=2)
    base = dict(prior.params)
    base["q_mu"] = 0.2 * rng_np.standard_normal((s, 1))
    base["q_tril"] = 0.2 * rng_np.standard_normal((s, s))
    base["q_diag"] = 0.2 * rng_np.standard_normal((s, 1))
    base["log_sigma2"] = np.array([[math.log(0.4)]])
    prior_names = list(prior.params)

    def loss_of(arrs):
        tape = ad.Tape()
        leaves = {k: tape.leaf(v, requires_grad=True) for k, v in arrs.items()}
        draws = sample_functions(
            prior, x, s, Rng(51, 0), tape=tape,
            params={k: leaves[k] for k in prior_names},
        )
        loss, _ = energy_loss(tape, y, draws, leaves, alpha, leaves["log_sigma2"], 25, s, 0.0)
        return leaves, loss

    leaves, loss = loss_of(base)
    grads = ad.backward(loss)
    h = 1e-5
    worst = 0.0
    for name, arr in base.items():
        g = grads[leaves[name].nid]
        for idx in np.ndindex(*arr.shape):
            hi = {k: v.copy() for k, v in base.items()}
            lo = {k: v.copy() for k, v in base.items()}
            hi[name][idx] += h
            lo[name][idx] -= h
            num = (loss_of(hi)[1].value[0, 0] - loss_of(lo)[1].value[0, 0]) / (2 * h)
            worst = max(worst, abs(g[idx] - num) / (abs(g[idx]) + 1e-8))
    return worst


def test_criterion_05_full_energy_gradients():
    worst = 0.0
    for family in ("bnn", "ns"):
        for alpha in (0.5, 1.0):
            worst = max(worst, _energy_grad_worst(family, alpha))
    ok = worst <= 1e-4
    assert _report(
        5, ok, f"max relative gradient error {worst:.2e} over both families, alpha in {{0.5, 1}}"
    )


# -- 6. alpha -> 0 recovers the ELBO term -----------------------------------


def test_criterion_06_alpha_zero_limit():
    rng = np.random.default_rng(600)
    alpha = 1e-5
    worst = 0.0
    for _ in range(20):
        s = int(rng.integers(1, 9))
        mu = 0.4 * rng.standard_normal(s)
        chol = np.tril(0.3 * rng.standard_normal((s, s)), -1) + np.diag(
            np.exp(0.2 * rng.standard_normal(s))
        )
        q = CoefficientPosterior(mu, chol)
        phi = rng.standard_normal(s)
        y = float(rng.standard_normal())
        m = float(rng.standard_normal())
        sig2 = 0.1 + rng.random()
        scaled = alpha_local_term(y, m, phi, q, alpha, sig2) / alpha
        elbo = elbo_local_term(y, m, phi, q, sig2)
        worst = max(worst, abs(scaled - elbo) / (abs(elbo) + 1e-12))
    ok = worst <= 1e-3
    assert _report(6, ok, f"worst relative gap to ELBO term {worst:.2e} at alpha=1e-5")


# -- 7. kernel estimator suite ----------------------------------------------


def test_criterion_07_kernel_estimators():
    # (a) averaged-outer-product kernel stays PSD
    rng = np.random.default_rng(700)
    min_eig = np.inf
    for _ in range(50):
        s = int(rng.integers(2, 41))
        n = int(rng.integers(2, 31))
        draws = draws_from_matrix(rng.standard_normal((s, n)) * (0.1 + rng.random()))
        kmat = empirical_kernel_matrix(draws, estimator="mle")
        w = np.linalg.eigvalsh((kmat + kmat.T) / 2)
        min_eig = min(min_eig, float(w[0]))
    psd_ok = min_eig >= -1e-8

    # (b) two-draw hand example, exact in float64
    two = draws_from_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
    mle = empirical_kernel_matrix(two, estimator="mle")
    pm = empirical_kernel_matrix(two, estimator="pm", psi=0.1)
    hand_ok = np.array_equal(mle, np.array([[1.0, -1.0], [-1.0, 1.0]])) and np.array_equal(
        pm, np.array([[2.1, -2.0], [-2.0, 2.1]])
    )

    # (c) one-unit tanh process, S=1e5, against an independent MC oracle
    s_big = 10**5
    lane = Rng(701, 0)
    w = lane.standard_normal(s_big)
    b = lane.standard_normal(s_big)
    oracle_rng = np.random.default_rng(702)
    w2 = oracle_rng.standard_normal(s_big)
    b2 = oracle_rng.standard_normal(s_big)
    conv_worst = 0.0
    for _ in range(5):
        x1, x2 = oracle_rng.standard_normal(2)
        f = np.tanh(np.outer(w, np.array([x1, x2])) + b[:, None])
        est = empirical_kernel_matrix(draws_from_matrix(f), estimator="mle")[0, 1]
        mc = float(np.mean(np.tanh(w2 * x1 + b2) * np.tanh(w2 * x2 + b2)))
        conv_worst = max(conv_worst, abs(est - mc))
    conv_ok = conv_worst <= 0.05

    ok = psd_ok and hand_ok and conv_ok
    assert _report(
        7,
        ok,
        f"psd min eig {min_eig:.1e}, hand example exact: {hand_ok}, "
        f"one-unit tanh worst gap {conv_worst:.3f} (need <= 0.05)",
    )


# -- 8. exact GP baseline ----------------------------------------------------


def _hand_two_point(ls, sv, x2, xs, y, sig2):
    # 2x2 inverse written out by hand, including the 1e-10 jitter the
    # implementation adds to the noisy diagonal
    k12 = sv * math.exp(-0.5 * (x2 / ls) ** 2)
    ks1 = sv * math.exp(-0.5 * (xs / ls) ** 2)
    ks2 = sv * math.exp(-0.5 * ((x2 - xs) / ls) ** 2)
    a = sv + sig2 + 1e-10
    det = a * a - k12 * k12
    iy0 = (a * y[0] - k12 * y[1]) / det
    iy1 = (-k12 * y[0] + a * y[1]) / det
    mean = ks1 * iy0 + ks2 * iy1
    ik0 = (a * ks1 - k12 * ks2) / det
    ik1 = (-k12 * ks1 + a * ks2) / det
    var = sv - (ks1 * ik0 + ks2 * ik1)
    return mean, var


def test_criterion_08_exact_gp_baseline():
    hand_worst = 0.0
    cases = [
        (1.0, 1.0, 1.0, 0.5, (1.0, 2.0), 0.5),
        (0.8, 1.3, 1.2, 0.5, (0.7, -0.4), 0.3),
    ]
    for ls, sv, x2, xs, y, sig2 in cases:
        want_mean, want_var = _hand_two_point(ls, sv, x2, xs, y, sig2)
        pred = gp_predict(
            RbfKernel(ls, sv),
            np.array([[0.0], [x2]]),
            np.array(y),
            sig2,
            np.array([[xs]]),
        )
        hand_worst = max(
            hand_worst,
            abs(pred.mean[0] - want_mean),
            abs(pred.var_f[0] - want_var),
        )
    hand_ok = hand_worst <= 1e-10

    rng = np.random.default_rng(800)
    lm_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 31))
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal(n)
        kern = RbfKernel(0.5 + rng.random(), 0.5 + rng.random())
        sig2 = 0.05 + rng.random()
        got = gp_log_marginal(kern.gram(x, x), y, sig2)
        cov = kern.gram(x, x) + (sig2 + 1e-10) * np.eye(n)
        sign, logdet = np.linalg.slogdet(cov)
        want = -0.5 * (y @ np.linalg.solve(cov, y) + logdet + n * LOG_2PI)
        lm_worst = max(lm_worst, abs(got - want))
    lm_ok = lm_worst <= 1e-8

    ok = hand_ok and lm_ok
    assert _report(
        8,
        ok,
        f"two-point hand gap {hand_worst:.1e} (need <= 1e-10), "
        f"log-marginal oracle gap {lm_worst:.1e} (need <= 1e-8)",
    )


# -- 9. CLI determinism ------------------------------------------------------


def _cli(*args, cwd):
    # The child runs from `cwd`, where a relative PYTHONPATH entry such as
    # `src` no longer resolves; put the directory holding the `vip` this
    # process imported first, so the child runs the same code.
    pkg_root = str(Path(vip.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "vip.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"vip {' '.join(args)} failed: {proc.stderr}"
    return proc.stdout


def test_criterion_09_cli_determinism(tmp_path):
    """Two identical ``vip train`` runs, and two ``vip bench`` runs, write
    identical bytes.

    The bytes are a function of the seed, the inputs, the numpy and scipy
    builds and the BLAS thread count; the child processes here inherit one
    environment, so all of those are held fixed. Runs at different BLAS
    thread counts may differ in the last bits (see
    ``test_cli.py::TestByteDeterminism``).
    """
    _cli(
        "synth", "--n", "60", "--seed", "5", "--noise", "std",
        "--out", str(tmp_path / "toy.csv"),
        cwd=tmp_path,
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "epochs": 40,
                "num_draws": 6,
                "hidden": [4],
                "alpha": 0.0,
                "batch_size": 8,
                "sigma2_mode": "learned",
            }
        )
    )
    for out in ("m1.json", "m2.json"):
        _cli(
            "train", "--data", str(tmp_path / "toy.csv"),
            "--config", str(cfg), "--seed", "3",
            "--model-out", str(tmp_path / out),
            cwd=tmp_path,
        )
    train_ok = (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    bcfg = tmp_path / "bench.json"
    bcfg.write_text(
        json.dumps(
            {
                "epochs": 12,
                "num_draws": 4,
                "hidden": [3],
                "sigma2_mode": "fixed",
                "sigma2": 0.1,
            }
        )
    )
    reports = [
        _cli(
            "bench", "--protocol", "toy", "--splits", "2", "--toy-n", "50",
            "--seed", "7", "--config", str(bcfg),
            cwd=tmp_path,
        )
        for _ in range(2)
    ]
    bench_ok = reports[0] == reports[1] and len(reports[0]) > 0

    ok = train_ok and bench_ok
    assert _report(
        9,
        ok,
        f"train byte-identical: {train_ok}, bench report byte-identical: {bench_ok}",
    )


# -- 10. KL and contraction invariants --------------------------------------


def test_criterion_10_kl_and_contraction_invariants():
    rng = np.random.default_rng(1000)
    kl_min = np.inf
    for _ in range(1000):
        s = int(rng.integers(1, 9))
        mu = rng.standard_normal(s)
        chol = np.tril(0.5 * rng.standard_normal((s, s)), -1) + np.diag(
            np.exp(0.4 * rng.standard_normal(s))
        )
        kl_min = min(kl_min, kl_standard_normal(CoefficientPosterior(mu, chol)))
    kl_ok = kl_min >= -1e-12

    worst_growth = -np.inf
    for _ in range(1000):
        s = int(rng.integers(1, 7))
        n = int(rng.integers(2, 21))
        b = rng.standard_normal((n, s))
        y = rng.standard_normal(n)
        sig2 = 0.05 + rng.random()
        full = exact_coefficient_posterior(b, y, sig2)
        less = exact_coefficient_posterior(b[:-1], y[:-1], sig2)
        growth = np.max(np.diag(cov(full)) - np.diag(cov(less)))
        worst_growth = max(worst_growth, float(growth))
    contraction_ok = worst_growth <= 1e-10

    ok = kl_ok and contraction_ok
    assert _report(
        10,
        ok,
        f"min KL {kl_min:.2e} (need >= 0), worst variance growth on extra data "
        f"{worst_growth:.2e} (need <= 0) over 1000 instances each",
    )
