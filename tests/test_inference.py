import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vip import autodiff as ad
from vip import inference as inf
from vip.errors import ContractError, DimensionError, NumericalError, ParameterError
from vip.inference import (
    AdamState,
    CoefficientPosterior,
    TrainConfig,
    adam_step,
    energy_loss,
    q_from_raw,
    train,
)
from vip.data import standardize, synth_toy
from vip.modelfile import canonical_json, model_to_dict
from vip.numkit import Rng
from vip.priors import init_prior, kernel_normaliser, moment_constants, sample_functions

from oracles import (
    GroupAdamState,
    alpha_local_term,
    cov,
    elbo_local_term,
    group_adam_step,
    kl_standard_normal,
    standard_posterior,
)

LOG_2PI = math.log(2 * math.pi)
PSI = 0.7  # the pm ridge of the energy tests


def random_q(rng, s):
    mu = rng.standard_normal(s)
    L = np.tril(0.3 * rng.standard_normal((s, s)))
    L[np.arange(s), np.arange(s)] = 0.5 + rng.random(s)
    return CoefficientPosterior(mu, L)


def log_normal_pdf(y, mean, var):
    return -0.5 * (LOG_2PI + np.log(var)) - (y - mean) ** 2 / (2 * var)


class TestLocalTerms:
    def test_alpha_one_is_marginal_likelihood(self):
        # at alpha=1 the term is log N(y; m + phi.mu, sigma2 + phi^T Sigma phi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = int(rng.integers(1, 6))
            q = random_q(rng, s)
            phi = rng.standard_normal(s)
            y, m, sig2 = rng.standard_normal(), rng.standard_normal(), 0.3
            got = alpha_local_term(y, m, phi, q, 1.0, sig2)
            v = sig2 + phi @ cov(q) @ phi
            want = log_normal_pdf(y, m + phi @ q.mu, v)
            assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_q_scales_log_density(self):
        # Sigma ~ 0: log E[p^alpha] -> alpha * log p at the mean
        rng = np.random.default_rng(1)
        s = 3
        q = CoefficientPosterior(rng.standard_normal(s), 1e-9 * np.eye(s))
        phi = rng.standard_normal(s)
        y, m, sig2, alpha = 0.7, -0.2, 0.4, 0.55
        got = alpha_local_term(y, m, phi, q, alpha, sig2)
        want = alpha * log_normal_pdf(y, m + phi @ q.mu, sig2)
        assert got == pytest.approx(want, rel=1e-6)

    def test_small_alpha_limit_recovers_elbo(self):
        rng = np.random.default_rng(2)
        s = 4
        q = random_q(rng, s)
        phi = rng.standard_normal(s)
        y, m, sig2 = 0.3, 0.1, 0.5
        alpha = 1e-7
        lim = alpha_local_term(y, m, phi, q, alpha, sig2) / alpha
        assert lim == pytest.approx(elbo_local_term(y, m, phi, q, sig2), abs=1e-4)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            s = int(rng.integers(2, 5))
            q = random_q(rng, s)
            phi = rng.standard_normal(s)
            y, m, sig2 = rng.standard_normal(), rng.standard_normal(), 0.25
            alpha = [0.3, 0.5, 1.0][trial]
            n = 400_000
            a = rng.standard_normal((n, s)) @ q.chol.T + q.mu
            w = np.exp(alpha * log_normal_pdf(y, m + a @ phi, sig2))
            est = math.log(w.mean())
            se = w.std() / (w.mean() * math.sqrt(n))
            got = alpha_local_term(y, m, phi, q, alpha, sig2)
            assert abs(got - est) <= 3 * se + 1e-12

    def test_domain_checks(self):
        q = standard_posterior(2)
        phi = np.ones(2)
        with pytest.raises(ParameterError):
            alpha_local_term(0, 0, phi, q, 0.0, 0.1)
        with pytest.raises(ParameterError):
            alpha_local_term(0, 0, phi, q, 1.5, 0.1)
        with pytest.raises(ParameterError):
            alpha_local_term(0, 0, phi, q, 0.5, -0.1)
        with pytest.raises(DimensionError):
            elbo_local_term(0, 0, np.ones(3), q, 0.1)


class TestKl:
    def test_standard_q_is_zero(self):
        assert kl_standard_normal(standard_posterior(5)) == pytest.approx(0.0)

    def test_hand_worked_shift(self):
        # mu = [1, 0], L = I: KL = ||mu||^2 / 2 = 0.5
        q = CoefficientPosterior(np.array([1.0, 0.0]), np.eye(2))
        assert kl_standard_normal(q) == pytest.approx(0.5, rel=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            q = random_q(rng, int(rng.integers(1, 7)))
            assert kl_standard_normal(q) >= -1e-12

    def test_matches_quadrature_2d(self):
        rng = np.random.default_rng(5)
        q = CoefficientPosterior(
            np.array([0.4, -0.6]), np.array([[0.8, 0.0], [0.3, 1.2]])
        )
        xs = np.linspace(-9.0, 9.0, 901)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        centered = pts - q.mu
        z = np.linalg.solve(q.chol, centered.T)
        logdet = np.log(np.diag(q.chol)).sum()
        logq = -LOG_2PI - logdet - 0.5 * (z * z).sum(axis=0)
        logp = -LOG_2PI - 0.5 * (pts * pts).sum(axis=1)
        dx = xs[1] - xs[0]
        quad = float(np.sum(np.exp(logq) * (logq - logp)) * dx * dx)
        assert kl_standard_normal(q) == pytest.approx(quad, abs=1e-3)


class TestVariationalRaw:
    def test_identity_init_values(self):
        q = q_from_raw(np.zeros((3, 1)), np.zeros((3, 3)), np.full((3, 1), inf.SOFTPLUS_INV_ONE))
        np.testing.assert_allclose(q.chol, np.eye(3), atol=1e-14)
        np.testing.assert_array_equal(q.mu, np.zeros(3))

    def test_raw_upper_triangle_ignored(self):
        tril = np.arange(9.0).reshape(3, 3)
        q = q_from_raw(np.zeros((3, 1)), tril, np.zeros((3, 1)))
        assert np.all(np.triu(q.chol, 1) == 0.0)
        assert q.chol[2, 0] == tril[2, 0]
        np.testing.assert_allclose(np.diag(q.chol), math.log(2.0), atol=1e-14)

    def test_posterior_validation(self):
        with pytest.raises(ParameterError):
            CoefficientPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ParameterError):
            CoefficientPosterior(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(DimensionError):
            CoefficientPosterior(np.zeros(2), np.eye(3))


def build_symbolic_instance(
    seed=0, n=6, s=4, alpha=0.5, learn_sigma=False, x=None, y=None, family="bnn"
):
    rng_np = np.random.default_rng(seed)
    x = rng_np.standard_normal((n, 1)) if x is None else x
    y = rng_np.standard_normal(n) if y is None else y
    prior = init_prior(family, 1, (3,), "tanh", Rng(seed, 0))
    tape = ad.Tape()
    params = {k: tape.leaf(a, requires_grad=True) for k, a in prior.params.items()}
    params["q_mu"] = tape.leaf(0.1 * rng_np.standard_normal((s, 1)), requires_grad=True)
    params["q_tril"] = tape.leaf(0.1 * rng_np.standard_normal((s, s)), requires_grad=True)
    params["q_diag"] = tape.leaf(0.2 * rng_np.standard_normal((s, 1)), requires_grad=True)
    if learn_sigma:
        params["log_sigma2"] = tape.leaf(np.array([[math.log(0.3)]]), requires_grad=True)
    draws = sample_functions(prior, x, s, Rng(seed, 1), tape=tape, params={
        k: params[k] for k in prior.params
    })
    lo = params["log_sigma2"] if learn_sigma else tape.constant(math.log(0.3))
    return tape, params, draws, x, y, lo


class TestGradientsIgnoreSumValues:
    """No VJP reads the forward value of a ``sum`` or ``dot``.

    So how those values round moves the reported loss but no gradient: with
    every recorded sum moved one ulp, each leaf gradient of the energy keeps
    its bits. A VJP that read a sum's value would fail here.
    """

    @staticmethod
    def _run(family, alpha, estimator, learn_sigma, seed, n):
        tape, params, draws, _, y, lo = build_symbolic_instance(
            seed=seed, n=n, alpha=alpha, learn_sigma=learn_sigma, family=family
        )
        loss, _ = energy_loss(
            tape, y, draws, params, alpha, lo, 40, *kernel_normaliser(4, estimator, PSI)
        )
        grads = ad.backward(loss)
        return {k: grads[v.nid].tobytes() for k, v in params.items()}

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["bnn", "ns"]),
        alpha=st.sampled_from([0.0, 0.5]),
        estimator=st.sampled_from(["mle", "pm"]),
        learn_sigma=st.booleans(),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 8),
    )
    def test_leaf_gradients_keep_their_bits(self, family, alpha, estimator, learn_sigma, seed, n):
        args = (family, alpha, estimator, learn_sigma, seed, n)
        want = self._run(*args)
        calls = []

        def nudged(op):
            def run(*operands):
                out = op(*operands)
                out.value = np.nextafter(out.value, np.inf)
                calls.append(op.__name__)
                return out

            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "vsum", nudged(ad.vsum))
            mp.setattr(ad, "dot", nudged(ad.dot))
            got = self._run(*args)
        assert sorted(calls) == ["dot", "dot", "vsum", "vsum"]
        assert got == want


class TestEnergyLoss:
    def scalar_reference(self, y, draws, params, alpha, sigma2, n_total, estimator="mle"):
        # the pm surrogate: features over sqrt(S - 1), noise sigma2 + psi / (S - 1)
        s = draws.num_draws
        q = q_from_raw(
            params["q_mu"].value, params["q_tril"].value, params["q_diag"].value
        )
        mean = draws.mean.value[0]
        denom = s if estimator == "mle" else s - 1
        phi = draws.deltas.value.T / math.sqrt(denom)
        if estimator == "pm":
            sigma2 += PSI / denom
        mb = len(y)
        if alpha > 0:
            terms = [
                alpha_local_term(y[i], mean[i], phi[i], q, alpha, sigma2)
                for i in range(mb)
            ]
            data = n_total / (alpha * mb) * math.fsum(terms)
        else:
            terms = [
                elbo_local_term(y[i], mean[i], phi[i], q, sigma2) for i in range(mb)
            ]
            data = n_total / mb * math.fsum(terms)
        return kl_standard_normal(q) - data

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_graph_matches_scalar_composition(self, alpha):
        tape, params, draws, x, y, lo = build_symbolic_instance(seed=7, alpha=alpha)
        for estimator in ("mle", "pm"):
            loss, info = energy_loss(
                tape, y, draws, params, alpha, lo, 50, *kernel_normaliser(4, estimator, PSI)
            )
            want = self.scalar_reference(y, draws, params, alpha, 0.3, 50, estimator)
            assert loss.value[0, 0] == pytest.approx(want, rel=1e-10), estimator
            assert info["kl"] >= -1e-12

    def test_learned_sigma_graph_matches(self):
        tape, params, draws, x, y, lo = build_symbolic_instance(seed=8, learn_sigma=True)
        for estimator in ("mle", "pm"):
            loss, _ = energy_loss(
                tape, y, draws, params, 0.5, lo, 30, *kernel_normaliser(4, estimator, PSI)
            )
            want = self.scalar_reference(y, draws, params, 0.5, 0.3, 30, estimator)
            assert loss.value[0, 0] == pytest.approx(want, rel=1e-10), estimator

    def test_loss_affine_in_total_count(self):
        tape, params, draws, x, y, lo = build_symbolic_instance(seed=9)
        vals = []
        for n_total in (100, 200, 300):
            loss, _ = energy_loss(tape, y, draws, params, 0.5, lo, n_total, 4, 0.0)
            vals.append(loss.value[0, 0])
        np.testing.assert_allclose(vals[0] + vals[2], 2 * vals[1], rtol=1e-12)

    def test_fresh_draws_change_the_loss(self):
        rng = Rng(3, 2)
        rng_np = np.random.default_rng(12)
        x = rng_np.standard_normal((5, 1))
        y = rng_np.standard_normal(5)
        prior = init_prior("bnn", 1, (3,), "tanh", Rng(0, 0))
        vals = []
        for _ in range(2):
            tape = ad.Tape()
            params = {k: tape.leaf(a, requires_grad=True) for k, a in prior.params.items()}
            params["q_mu"] = tape.leaf(np.zeros((4, 1)), requires_grad=True)
            params["q_tril"] = tape.leaf(np.zeros((4, 4)), requires_grad=True)
            params["q_diag"] = tape.leaf(
                np.full((4, 1), inf.SOFTPLUS_INV_ONE), requires_grad=True
            )
            draws = sample_functions(
                prior, x, 4, rng, tape=tape,
                params={k: params[k] for k in prior.params},
            )
            lo = tape.constant(math.log(0.3))
            loss, _ = energy_loss(tape, y, draws, params, 0.5, lo, 5, 4, 0.0)
            vals.append(loss.value[0, 0])
        assert vals[0] != vals[1]

    def test_full_energy_gradients_match_finite_differences(self):
        # every leaf, both families, alpha in {0.5, 1}, against central
        # differences on the scalar loss
        for family in ("bnn", "ns"):
            for alpha in (0.5, 1.0):
                self._check_family(family, alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_pm_energy_gradients_match_finite_differences(self, alpha):
        # the pm ridge enters the noise as log(sigma2 + rho), learned sigma2 included
        self._check_family("bnn", alpha, "pm")

    def _check_family(self, family, alpha, estimator="mle"):
        # fixed seeds: hash() is salted per process, and unlucky instances
        # put finite-difference roundoff above the gate on ~1e-6 gradients
        seed = 40 + {"bnn": 0, "ns": 2}[family] + (alpha == 1.0)
        rng_np = np.random.default_rng(seed)
        n, s = 5, 5
        x = rng_np.standard_normal((n, 1))
        y = rng_np.standard_normal(n)
        prior = init_prior(family, 1, (3,), "tanh", Rng(1, 0), noise_dim=2)
        base = dict(prior.params)
        base["q_mu"] = 0.2 * rng_np.standard_normal((s, 1))
        base["q_tril"] = 0.2 * rng_np.standard_normal((s, s))
        base["q_diag"] = 0.2 * rng_np.standard_normal((s, 1))
        base["log_sigma2"] = np.array([[math.log(0.4)]])
        prior_names = list(prior.params)

        def loss_of(arrs):
            tape = ad.Tape()
            leaves = {k: tape.leaf(a, requires_grad=True) for k, a in arrs.items()}
            draws = sample_functions(
                prior, x, s, Rng(2, 0), tape=tape,
                params={k: leaves[k] for k in prior_names},
            )
            loss, _ = energy_loss(
                tape, y, draws, leaves, alpha, leaves["log_sigma2"], 25,
                *kernel_normaliser(s, estimator, PSI),
            )
            return tape, leaves, loss

        tape, leaves, loss = loss_of(base)
        grads = ad.backward(loss)
        h = 1e-5
        worst = 0.0
        for name, arr in base.items():
            g = grads[leaves[name].nid]
            for idx in np.ndindex(*arr.shape):
                hi = {k: v.copy() for k, v in base.items()}
                lo_ = {k: v.copy() for k, v in base.items()}
                hi[name][idx] += h
                lo_[name][idx] -= h
                num = (
                    loss_of(hi)[2].value[0, 0] - loss_of(lo_)[2].value[0, 0]
                ) / (2 * h)
                worst = max(worst, abs(g[idx] - num) / (abs(g[idx]) + 1e-8))
        assert worst <= 1e-4

    def test_batch_size_mismatch(self):
        tape, params, draws, x, y, lo = build_symbolic_instance(seed=13)
        with pytest.raises(DimensionError):
            energy_loss(tape, y[:-1], draws, params, 0.5, lo, 30, 4, 0.0)

    def test_numeric_draws_rejected(self):
        rng_np = np.random.default_rng(14)
        x = rng_np.standard_normal((4, 1))
        prior = init_prior("bnn", 1, (3,), "tanh", Rng(0, 0))
        draws = sample_functions(prior, x, 3, Rng(1, 1))
        tape = ad.Tape()
        with pytest.raises(ContractError):
            energy_loss(tape, np.zeros(4), draws, {}, 0.5, tape.constant(0.0), 4, 3, 0.0)


def _warm_adam_state(params: dict, steps: int = 4) -> AdamState:
    """A state after ``steps`` accepted updates, every moment entry nonzero."""
    rng = np.random.default_rng(22)
    state = AdamState.zeros(params)
    for _ in range(steps):
        grads = {k: rng.standard_normal(a.shape) for k, a in params.items()}
        params = adam_step(params, grads, state, 0.1)
    assert state.t == steps and state.m.all() and state.v.all()
    return state


def _adam_snapshot(state: AdamState):
    return state.t, state.m.tobytes(), state.v.tobytes()


class TestAdam:
    def test_matches_reference_implementation(self):
        # independent transcription of the published update rule
        rng = np.random.default_rng(20)
        p = {"a": rng.standard_normal((2, 2)), "b": rng.standard_normal((3, 1))}
        ref_p = {k: v.copy() for k, v in p.items()}
        ref_m = {k: np.zeros_like(v) for k, v in p.items()}
        ref_v = {k: np.zeros_like(v) for k, v in p.items()}
        state = AdamState.zeros(p)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for t in range(1, 8):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            p = adam_step(p, grads, state, lr)
            for k in ref_p:
                ref_m[k] = b1 * ref_m[k] + (1 - b1) * grads[k]
                ref_v[k] = b2 * ref_v[k] + (1 - b2) * grads[k] ** 2
                mhat = ref_m[k] / (1 - b1**t)
                vhat = ref_v[k] / (1 - b2**t)
                ref_p[k] = ref_p[k] - lr * mhat / (np.sqrt(vhat) + eps)
        for k in p:
            np.testing.assert_allclose(p[k], ref_p[k], rtol=1e-12)

    def test_minimizes_quadratic(self):
        p = {"x": np.array([[5.0]])}
        state = AdamState.zeros(p)
        for _ in range(400):
            p = adam_step(p, {"x": 2 * p["x"]}, state, 0.1)
        assert abs(p["x"][0, 0]) < 1e-3

    def test_key_mismatch(self):
        p = {"x": np.zeros((1, 1))}
        with pytest.raises(ContractError):
            adam_step(p, {"y": np.zeros((1, 1))}, AdamState.zeros(p), 0.1)

    def test_infinite_learning_rate_rejected(self):
        # an inf rate moved every entry with a nonzero gradient to -inf; the
        # moments are updated in place, so a warm state shows an early write
        p = {"x": np.ones((2, 1))}
        fresh, warm = AdamState.zeros(p), _warm_adam_state(p)
        for state in (fresh, warm):
            before = _adam_snapshot(state)
            with pytest.raises(ParameterError, match="^learning rate must be positive and finite"):
                adam_step(p, {"x": np.ones((2, 1))}, state, math.inf)
            assert _adam_snapshot(state) == before
        assert fresh.t == 0

    def test_matches_per_group_oracle_bitwise(self):
        rng = np.random.default_rng(21)
        shapes = {"w": (3, 4), "one": (1, 1), "tril": (50, 50), "col": (50, 1), "idle": (2, 5)}
        p = {k: rng.standard_normal(shape) for k, shape in shapes.items()}
        ref_p = dict(p)
        state, ref_state = AdamState.zeros(p), GroupAdamState.zeros(p)
        for step in range(20):
            grads = {
                k: rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 4)
                for k, shape in shapes.items()
            }
            grads["idle"] = np.zeros(shapes["idle"])  # a group the loss never reaches
            if step % 5 == 0:
                grads["one"] = np.zeros((1, 1))
            grads["tril"] = np.tril(grads["tril"], -1)  # zero on and above the diagonal
            p = adam_step(p, grads, state, 0.01)
            ref_p = group_adam_step(ref_p, grads, ref_state, 0.01)
            assert list(p) == list(ref_p)
            for k, shape in shapes.items():
                assert p[k].shape == shape
                assert p[k].tobytes() == ref_p[k].tobytes(), (step, k)
        assert state.t == ref_state.t == 20
        for flat, groups in ((state.m, ref_state.m), (state.v, ref_state.v)):
            assert flat.tobytes() == np.concatenate([groups[k].ravel() for k in shapes]).tobytes()

    @pytest.mark.parametrize("case", ["param keys", "grad keys", "param shape", "grad shape"])
    def test_params_or_grads_off_the_state_layout_rejected(self, case):
        p = {"a": np.zeros((2, 3)), "b": np.zeros((1, 1))}
        # a fresh state's all-zero moments would not show an in-place update
        # made before the check (b1 * 0 is 0); a warm state's do
        fresh, warm = AdamState.zeros(p), _warm_adam_state(p)
        grads = {k: np.ones_like(a) for k, a in p.items()}
        if case == "param keys":  # params and grads agree, the state does not
            p, grads = ({"a": d["a"], "c": d["b"]} for d in (p, grads))
        elif case == "grad keys":
            grads = {"a": grads["a"]}
        elif case == "param shape":  # as many entries as the state's (2,3), laid out (3,2)
            p["a"], grads["a"] = np.zeros((3, 2)), np.ones((3, 2))
        else:
            grads["b"] = np.ones((1, 2))
        err = ContractError if case.endswith("keys") else DimensionError
        for state in (fresh, warm):
            before = _adam_snapshot(state)
            with pytest.raises(err):
                adam_step(p, grads, state, 0.1)
            assert _adam_snapshot(state) == before
        assert fresh.t == 0 and not fresh.m.any() and not fresh.v.any()


def _model_sha(s: int) -> str:
    """SHA-256 of the model file a small minibatch ``ns`` fit at S=s saves."""
    ds = standardize(synth_toy(64, 4, noise="std"))
    cfg = TrainConfig(
        alpha=0.5, num_draws=s, epochs=2, batch_size=16, sigma2_mode="learned",
        prior_family="ns", hidden=(6,), noise_dim=3, seed=5,
    )
    text = canonical_json(model_to_dict(train(ds.x, ds.y, cfg)))
    return hashlib.sha256(text.encode()).hexdigest()


class TestCachedConstants:
    """The per-S constants a training step shares are read-only and leak nothing."""

    def test_read_only(self):
        for a in moment_constants(7):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_sizes_in_turn_match_fresh_processes(self):
        here = [_model_sha(s) for s in (20, 50, 20)]
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(inf.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, tests, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        fresh = {}
        for s in (20, 50):
            code = f"from test_inference import _model_sha; print(_model_sha({s}))"
            out = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env,
                check=True,
            )
            fresh[s] = out.stdout.strip()
        assert here == [fresh[20], fresh[50], fresh[20]]


# a value of each kind a setting may be given: a value of its type (drawn
# three times as often as each other kind), a numpy scalar, an integral float
# for an integer, a string and a list
_CHOICES = ["fixed", "learned", "grid", "mle", "pm", "bnn", "ns", "tanh", "exact", "auto"]


def _kinds(valid, *others):
    return st.sampled_from([valid] * 3 + list(others)).flatmap(lambda kind: kind)


def _setting(default):
    if isinstance(default, tuple):
        items = st.lists(_setting(default[0]), max_size=3)
        return _kinds(items, items.map(tuple), _setting(default[0]))
    if isinstance(default, str):
        valid = st.sampled_from(_CHOICES)
        return _kinds(valid, valid.map(np.str_), st.sampled_from(["", "TANH", "\u00e9"]),
                      valid.map(lambda v: [v]))
    if isinstance(default, int):
        valid = st.integers(0, 30)
        return _kinds(valid, valid.map(np.int64), valid.map(float), valid.map(str),
                      valid.map(lambda v: [v]), st.sampled_from([2**70, 10**400, -1, True, None]))
    valid = st.floats(0.0, 2.0) | st.integers(0, 2)
    return _kinds(valid, valid.map(np.float64), valid.map(np.float32), valid.map(str),
                  valid.map(lambda v: [v]),
                  st.sampled_from([1e308, 5e-324, -0.0, 10**400, math.nan, math.inf, True]))


_SETTINGS = st.lists(
    st.sampled_from([f.name for f in fields(TrainConfig)]).flatmap(
        lambda k: st.tuples(st.just(k), _setting(getattr(TrainConfig, k)))
    ),
    max_size=4,
).map(dict)


class TestTrainConfig:
    # each trained and saved a model that load_model rejected, or raised a
    # bare TypeError in train or save_model
    @pytest.mark.parametrize("key, value", [
        ("num_draws", 5.0), ("epochs", 2.5), ("alpha", "0.5"), ("hidden", (3.0,)),
        ("num_draws", np.int64(5)), ("hidden", 5),
    ])
    def test_mistyped_library_setting_is_rejected_when_built(self, key, value):
        cfg = dict(epochs=2, num_draws=5, hidden=(3,))
        with pytest.raises(ParameterError, match=f"^{key} must be "):
            TrainConfig(**{**cfg, key: value})
        with pytest.raises(ParameterError, match=f"^{key} must be "):
            replace(TrainConfig(**cfg), **{key: value})

    @settings(max_examples=300, deadline=None)
    @given(kwargs=_SETTINGS)
    def test_every_config_that_builds_round_trips_through_json(self, kwargs):
        try:
            cfg = TrainConfig(**kwargs)
        except ParameterError:
            return
        assert isinstance(cfg.hidden, tuple) and isinstance(cfg.sigma2_grid, tuple)
        text = json.dumps(cfg.to_dict(), allow_nan=False)
        back = TrainConfig.from_dict(json.loads(text))
        assert back == cfg
        assert json.dumps(back.to_dict(), allow_nan=False) == text

    # each built, then failed in train's init_prior
    @pytest.mark.parametrize("key, value, family", [
        ("activation", "sigmoid", "bnn"), ("hidden", (0,), "bnn"), ("hidden", (-3,), "bnn"),
        ("noise_dim", 0, "ns"), ("noise_halfwidth", -1.0, "ns"), ("noise_halfwidth", 1e308, "ns"),
    ])
    def test_a_prior_setting_no_prior_takes_is_rejected_when_built(self, key, value, family):
        with pytest.raises(ParameterError, match=f"^{key} "):
            TrainConfig(prior_family=family, **{key: value})

    def test_a_bnn_config_leaves_its_unread_noise_settings_unchecked(self):
        cfg = TrainConfig(epochs=1, num_draws=2, hidden=(3,), noise_dim=0, noise_halfwidth=-1.0)
        x, y = tiny_data()
        assert len(train(x, y, cfg).loss_trace) == 1

    def test_round_trip(self):
        cfg = TrainConfig(alpha=0.25, hidden=(7,), sigma2_mode="fixed")
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="learningrate"):
            TrainConfig.from_dict({"learningrate": 0.1})

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(alpha=1.5)
        with pytest.raises(ParameterError):
            TrainConfig(num_draws=1)
        with pytest.raises(ParameterError):
            TrainConfig(sigma2=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(sigma2_mode="annealed")
        with pytest.raises(ParameterError):
            TrainConfig(sigma2_grid=())

    def test_nan_settings_rejected_in_library_calls(self):
        # each compared as `x <= 0` or `x < 0`, which NaN passes
        for bad in (
            lambda: TrainConfig(learning_rate=math.nan),
            lambda: TrainConfig(learning_rate=math.inf),
            lambda: TrainConfig(sigma2_grid=(0.1, math.nan)),
            lambda: TrainConfig(estimator="pm", psi=math.nan),
            lambda: kernel_normaliser(10, "pm", psi=math.nan),
            lambda: Rng(0).permutation(-1),  # returned an empty array
            lambda: adam_step({}, {}, AdamState.zeros({}), math.nan),  # NaN parameters
        ):
            with pytest.raises(ParameterError):
                bad()


def tiny_data(seed=0, n=12):
    rng = np.random.default_rng(seed)
    x = np.linspace(-1, 1, n).reshape(-1, 1)
    y = np.sin(2 * x[:, 0]) + 0.05 * rng.standard_normal(n)
    return x, y


class TestTrain:
    CFG = dict(
        alpha=0.5, num_draws=4, epochs=25, learning_rate=0.02,
        sigma2_mode="fixed", sigma2=0.05, hidden=(4,), seed=3,
    )

    def test_loss_decreases_and_is_deterministic(self):
        x, y = tiny_data()
        m1 = train(x, y, TrainConfig(**self.CFG))
        m2 = train(x, y, TrainConfig(**self.CFG))
        assert m1.loss_trace[-1] < m1.loss_trace[0]
        assert m1.loss_trace == m2.loss_trace
        assert m1.prior.params.keys() == m2.prior.params.keys()
        for k, v in m1.prior.params.items():
            assert v.tobytes() == m2.prior.params[k].tobytes()
        assert m1.q.mu.tobytes() == m2.q.mu.tobytes()
        assert m1.q.chol.tobytes() == m2.q.chol.tobytes()
        assert m1.sigma2 == m2.sigma2

    def test_epoch_prefix_is_stable(self):
        # running longer must not change the early epochs (stream separation)
        x, y = tiny_data()
        short = train(x, y, TrainConfig(**{**self.CFG, "epochs": 3}))
        long = train(x, y, TrainConfig(**{**self.CFG, "epochs": 6}))
        assert long.loss_trace[:3] == short.loss_trace

    def test_learned_sigma_moves(self):
        x, y = tiny_data()
        cfg = TrainConfig(**{**self.CFG, "sigma2_mode": "learned", "sigma2": 0.5})
        m = train(x, y, cfg)
        assert m.sigma2 != 0.5
        assert m.sigma2 > 0

    def test_minibatching_runs(self):
        x, y = tiny_data(n=13)
        cfg = TrainConfig(**{**self.CFG, "batch_size": 5, "epochs": 4})
        m = train(x, y, cfg)
        assert len(m.loss_trace) == 4
        assert np.isfinite(m.loss_trace).all()

    def test_ns_family_trains(self):
        x, y = tiny_data()
        cfg = TrainConfig(
            **{**self.CFG, "prior_family": "ns", "noise_dim": 3, "epochs": 10}
        )
        m = train(x, y, cfg)
        assert m.prior.family == "ns"
        assert np.isfinite(m.loss_trace).all()

    def test_grid_mode_rejected_here(self):
        x, y = tiny_data()
        with pytest.raises(ContractError):
            train(x, y, TrainConfig(**{**self.CFG, "sigma2_mode": "grid"}))

    def test_shape_mismatch(self):
        x, y = tiny_data()
        with pytest.raises(DimensionError):
            train(x, y[:-1], TrainConfig(**self.CFG))

    def test_callback_sees_every_epoch(self):
        x, y = tiny_data()
        seen = []
        train(
            x, y, TrainConfig(**{**self.CFG, "epochs": 5}),
            callback=lambda e, l: seen.append((e, l)),
        )
        assert [e for e, _ in seen] == list(range(5))

    @pytest.mark.parametrize(
        "family, alpha, failure",
        [
            (
                "bnn", 0.0,
                "w_log_scale_0 out of range: exp(w_log_scale_0) = inf (parameters: w_log_scale_0, "
                "b_log_scale_0, w_log_scale_1, b_log_scale_1, w_log_scale_2, b_log_scale_2, "
                "q_diag, log_sigma2)",
            ),
            (
                "ns", 0.0,
                "q_diag out of range: softplus(q_diag) = 0.0 (parameters: q_diag, log_sigma2)",
            ),
            (
                "ns", 0.5,
                "log_sigma2 out of range: exp(log_sigma2) = inf (parameters: log_sigma2)",
            ),
        ],
        # each id names the op the diverged values would fail in the next step
        ids=[
            "bnn-0.0-exp: produced a non-finite value",
            "ns-0.0-log: non-positive operand",
            "ns-0.5-exp: produced a non-finite value",
        ],
    )
    def test_diverging_run_names_the_parameter(self, family, alpha, failure):
        # the toy protocol's data and config at a learning rate that diverges
        # in the first Adam step; the message names that step and the groups
        # it sent out of range
        ds = standardize(synth_toy(300, 0, "std"))
        cfg = TrainConfig(prior_family=family, alpha=alpha, learning_rate=1e3, epochs=3)
        with pytest.raises(NumericalError) as exc:
            train(ds.x, ds.y, cfg)
        assert str(exc.value) == f"epoch 0, batch at 0: the Adam update took {failure}"

    @pytest.mark.parametrize(
        "sigma2, sigma2_mode, groups",
        [
            (0.1, "learned", "q_diag, log_sigma2"),
            # a noise far above the data's pushes log_sigma2 down by ~lr
            (100.0, "learned", "q_diag, log_sigma2"),
            (0.1, "fixed", "q_diag"),
        ],
        # each id names the group the case takes out of range besides the
        # BNN log-scales, which come first in the message
        ids=[
            "0.1-learned-log_sigma2 out of range",
            "100.0-learned-log_sigma2 out of range",
            "0.1-fixed-q_diag out of range",
        ],
    )
    def test_diverging_last_update_names_the_parameter(self, sigma2, sigma2_mode, groups):
        # one epoch: the only Adam step diverges, and no forward pass follows
        # it; its check is the one every step's update passes
        ds = standardize(synth_toy(300, 0, "std"))
        cfg = TrainConfig(
            alpha=0.0, sigma2=sigma2, sigma2_mode=sigma2_mode, learning_rate=1e3, epochs=1
        )
        with pytest.raises(NumericalError) as exc:
            train(ds.x, ds.y, cfg)
        assert str(exc.value) == (
            "epoch 0, batch at 0: the Adam update took w_log_scale_0 out of range: "
            "exp(w_log_scale_0) = inf (parameters: w_log_scale_0, b_log_scale_0, "
            f"w_log_scale_1, b_log_scale_1, w_log_scale_2, b_log_scale_2, {groups})"
        )

    def test_step_peak_memory_is_one_forward_tape(self):
        # a full-batch BNN step at N=2000, S=20 peaks at about 9 MB, with its
        # forward tape alive; a backward pass that kept every node's gradient
        # and VJP to its end, with the previous step's tape alive, peaked
        # near 25 MB
        ds = standardize(synth_toy(2000, 0, "std"))
        cfg = TrainConfig(prior_family="bnn", num_draws=20, epochs=2, seed=1)
        tracemalloc.start()
        try:
            train(ds.x, ds.y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_ns_step_peak_memory_is_linear_in_n(self):
        # a full-batch neural-sampler step at N=2000, S=20 peaks at about
        # 17 MB, all of it in (S*N)-row layers; one N x N array is 32 MB
        ds = standardize(synth_toy(2000, 0, "std"))
        cfg = TrainConfig(prior_family="ns", num_draws=20, epochs=2, seed=1)
        tracemalloc.start()
        try:
            train(ds.x, ds.y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 21e6

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_step_peak_memory_doubles_at_most_with_n(self, family):
        # full-batch steps at S=20 peak at 1.90-1.99x their N=1000 peak at
        # N=2000; one N x N array in the step would take the ratio past 3
        peaks = []
        for n in (1000, 2000):
            ds = standardize(synth_toy(n, 0, "std"))
            cfg = TrainConfig(prior_family=family, num_draws=20, epochs=2, seed=1)
            tracemalloc.start()
            try:
                train(ds.x, ds.y, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.2 * peaks[0]

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_step_tape_size_does_not_depend_on_n(self, family, monkeypatch):
        # a step records a fixed graph over whole-batch arrays; a route that
        # recorded per point, or per pair of points, would grow with N
        sizes = []
        real_backward = ad.backward

        def spy(loss):
            sizes.append(len(loss.tape))
            return real_backward(loss)

        monkeypatch.setattr(ad, "backward", spy)
        for n in (20, 400):
            ds = standardize(synth_toy(n, 0, "std"))
            cfg = TrainConfig(prior_family=family, num_draws=5, epochs=1, hidden=(4, 4), seed=1)
            train(ds.x, ds.y, cfg)
        assert len(sizes) == 2 and sizes[0] == sizes[1]

    def test_failed_step_replays_once_on_an_eager_tape(self, monkeypatch):
        # targets near 1e200 make the residual's square overflow in the first
        # step's forward pass; every earlier value is finite
        passes = []
        real_pass = inf._pass

        def spy(lazy, *args):
            passes.append(lazy)
            return real_pass(lazy, *args)

        monkeypatch.setattr(inf, "_pass", spy)
        x, y = tiny_data()
        train(x, y, TrainConfig(**{**self.CFG, "epochs": 3}))
        assert passes == [True, True, True]
        passes.clear()
        with pytest.raises(NumericalError) as exc:
            train(x, 1e200 * y, TrainConfig(**self.CFG))
        assert passes == [True, False]
        assert str(exc.value) == (
            "epoch 0, batch at 0: mul: produced a non-finite value "
            "(parameters: w_mean_0, w_log_scale_0, b_mean_0, b_log_scale_0, w_mean_1, "
            "w_log_scale_1, b_mean_1, b_log_scale_1, q_mu)"
        )

    def test_failure_outside_the_tape_names_no_parameter(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("draws: broken")

        monkeypatch.setattr(inf, "sample_functions", fail)
        x, y = tiny_data()
        with pytest.raises(NumericalError) as exc:
            train(x, y, TrainConfig(**self.CFG))
        assert str(exc.value) == "epoch 0, batch at 0: draws: broken"


class TestLazyStepMatchesEager:
    """A training step runs on a lazy tape and replays eagerly if that fails.

    For any finite parameters and batch, the step gives what one eager pass
    gives: the same loss and every gradient bit for bit, or the same
    message. One input or group may reach 1e300, so many examples overflow
    mid-pass: in an exp of a log-scale or of log sigma^2, a matmul, a
    residual's square, or a softplus that underflows into a log.
    """

    @staticmethod
    def _outcome(step, *args):
        try:
            loss, grads, draws = step(*args)
        except NumericalError as err:
            return str(err)
        grads = {k: g.tobytes() for k, g in grads.items()}
        return np.float64(loss).tobytes(), grads, draws.values.value.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["bnn", "ns"]),
        activation=st.sampled_from(["tanh", "relu"]),
        alpha=st.sampled_from([0.0, 0.5]),
        estimator=st.sampled_from(["mle", "pm"]),
        learn_sigma=st.booleans(),
        s=st.integers(2, 5),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        # log10 magnitudes of x, y and each parameter group in turn; at most
        # one of them, ``blow``, is raised far enough to overflow
        scales=st.lists(st.sampled_from([-1, 0, 0, 1, 2]), min_size=24, max_size=24),
        blow=st.one_of(
            st.none(), st.tuples(st.integers(0, 23), st.sampled_from([3, 155, 200, 300]))
        ),
    )
    def test_same_loss_and_gradients_or_message(
        self, family, activation, alpha, estimator, learn_sigma, s, n, seed, scales, blow
    ):
        rng_np = np.random.default_rng(seed)
        if blow is not None:
            scales[blow[0]] = blow[1]
        mags = iter(10.0 ** np.array(scales, dtype=float))
        x = next(mags) * rng_np.standard_normal((n, 2))
        y = next(mags) * rng_np.standard_normal(n)
        config = TrainConfig(
            prior_family=family, activation=activation, alpha=alpha, estimator=estimator,
            psi=PSI, num_draws=s, hidden=(3, 2), noise_dim=2, seed=seed,
            sigma2_mode="learned" if learn_sigma else "fixed", sigma2=0.3,
        )
        prior = init_prior(family, 2, config.hidden, activation, Rng(seed, 0), noise_dim=2)
        shapes = {k: a.shape for k, a in prior.params.items()}
        shapes.update(q_mu=(s, 1), q_tril=(s, s), q_diag=(s, 1))
        if learn_sigma:
            shapes["log_sigma2"] = (1, 1)
        params = {k: next(mags) * rng_np.standard_normal(shape) for k, shape in shapes.items()}
        n_total = n + 3
        got_rng, want_rng = Rng(seed, 2), Rng(seed, 2)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = self._outcome(inf._step, prior, params, x, y, n_total, config, got_rng)
            want = self._outcome(
                inf._pass, False, prior, params, x, y, n_total, config, want_rng
            )
        event("finite" if isinstance(want, tuple) else want.split(":")[0])
        assert got == want
        # a replay starts from the lazy pass's draws and leaves the stream
        # where one pass leaves it
        assert got_rng.standard_normal(3).tobytes() == want_rng.standard_normal(3).tobytes()
