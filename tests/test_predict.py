import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from vip import autodiff as ad
from vip import predict as pr
from vip.data import standardize, synth_toy
from vip.errors import DimensionError, NotPositiveDefiniteError, NumericalError, ParameterError
from vip.inference import (
    SOFTPLUS_INV_ONE,
    CoefficientPosterior,
    TrainConfig,
    TrainedModel,
    energy_loss,
    train,
)
from vip.numkit import STREAM_PREDICT, Rng, cholesky
from vip.predict import (
    exact_coefficient_posterior,
    exact_posterior,
    nll_rmse,
    posterior_predict,
    predict_features,
)
from vip.priors import FunctionDraws, init_prior, sample_functions

from oracles import cov, draws_from_matrix, standard_posterior

LOG_2PI = math.log(2 * math.pi)


class TestExactCoefficientPosterior:
    def test_scalar_hand_case(self):
        # B=[[1]], y=[2], sigma2=1: A=2, mu=1, Sigma=1/2
        q = exact_coefficient_posterior(np.array([[1.0]]), np.array([2.0]), 1.0)
        assert q.mu[0] == pytest.approx(1.0)
        assert cov(q)[0, 0] == pytest.approx(0.5)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, s = int(rng.integers(3, 12)), int(rng.integers(1, 6))
            b = rng.standard_normal((n, s))
            y = rng.standard_normal(n)
            sig2 = 0.1 + rng.random()
            q = exact_coefficient_posterior(b, y, sig2)
            a = b.T @ b + sig2 * np.eye(s)
            np.testing.assert_allclose(q.mu, np.linalg.solve(a, b.T @ y), atol=1e-10)
            np.testing.assert_allclose(cov(q), sig2 * np.linalg.inv(a), atol=1e-10)

    def test_no_data_returns_prior(self):
        q = exact_coefficient_posterior(np.zeros((0, 3)), np.zeros(0), 0.7)
        np.testing.assert_allclose(q.mu, np.zeros(3), atol=1e-14)
        np.testing.assert_allclose(cov(q), np.eye(3), atol=1e-12)

    def test_small_noise_approaches_least_squares(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        q = exact_coefficient_posterior(b, y, 1e-10)
        ols = np.linalg.lstsq(b, y, rcond=None)[0]
        np.testing.assert_allclose(q.mu, ols, atol=1e-6)
        assert np.abs(cov(q)).max() < 1e-8

    def test_posterior_contracts_feature_variance(self):
        # phi^T Sigma phi <= phi^T phi for every direction (Sigma <= I)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n, s = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            b = rng.standard_normal((n, s))
            q = exact_coefficient_posterior(b, rng.standard_normal(n), 0.05 + rng.random())
            phi = rng.standard_normal(s)
            assert phi @ cov(q) @ phi <= phi @ phi + 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), s=st.integers(1, 25), n=st.integers(0, 300),
        rank=st.integers(1, 25), centred=st.booleans(), log10_sigma2=st.floats(-14.0, 1.0),
    )
    # centred full-rank draws at sigma2 = 1e-14: A factors, and the second
    # factorisation, of sigma2 W^T W, used to fail
    @example(seed=3, s=20, n=300, rank=20, centred=True, log10_sigma2=-14.0)
    # cond(A) = 1.2e17: A factors, while np.linalg.inv(A) raises "Singular
    # matrix", so the oracle solves by the factor
    @example(seed=16, s=5, n=12, rank=5, centred=True, log10_sigma2=-14.0)
    def test_succeeds_wherever_a_factors_and_matches_dense_oracle(
        self, seed, s, n, rank, centred, log10_sigma2
    ):
        # B of rank at most min(rank, S); centred rows (across the S columns,
        # as prediction's draw deviations are) make B^T B singular as well
        rng = np.random.default_rng(seed)
        r = min(rank, s)
        b = rng.standard_normal((n, r)) @ rng.standard_normal((r, s))
        if centred:
            b -= b.mean(axis=1, keepdims=True)
        y = rng.standard_normal(n)
        sigma2 = 10.0**log10_sigma2
        a = b.T @ b + sigma2 * np.eye(s)
        try:
            factor = cholesky(a.copy())
        except NotPositiveDefiniteError:
            return
        q = exact_coefficient_posterior(b, y, sigma2)
        # both sides carry forward errors of order cond(A) eps
        tol = 64 * np.linalg.cond(a) * np.finfo(float).eps
        a_inv = cho_solve((factor, True), np.eye(s))
        bty = b.T @ y
        err_mu = np.linalg.norm(q.mu - cho_solve((factor, True), bty))
        assert err_mu <= tol * np.linalg.norm(a_inv, 2) * np.linalg.norm(bty)
        err_cov = np.linalg.norm(cov(q) - sigma2 * a_inv)
        assert err_cov <= tol * np.linalg.norm(sigma2 * a_inv)

    def test_factors_once(self, monkeypatch):
        # one exact prediction factors the S x S matrix A and nothing else
        model, x, _ = small_model()
        real, shapes = pr.cholesky, []

        def counted(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(pr, "cholesky", counted)
        posterior_predict(model, x, mode="exact")
        assert shapes == [(5, 5)]


def widened(prior):
    # widen BNN init scales so small-S kernels stay well conditioned
    return prior.with_params(
        {k: v + math.log(10.0) if "log_scale" in k else v for k, v in prior.params.items()}
    )


def joint_draws(seed=0, n_train=6, n_test=3, s=8):
    """Training-row and test-row draws of one set of S functions, each drawn
    from the same fresh stream, as posterior_predict draws them."""
    prior = widened(init_prior("bnn", 1, (4,), "tanh", Rng(seed, 0)))
    x = np.linspace(-2, 2, n_train + n_test).reshape(-1, 1)
    dt = sample_functions(prior, x[:n_train], s, Rng(seed, 1))
    return dt, sample_functions(prior, x[n_train:], s, Rng(seed, 1))


def dense_oracle(joint, n, y, sigma2, estimator="mle", psi=0.0):
    """The dense GP conditional on the first n columns of a joint draw set.

    Plain numpy: K = (Delta^T Delta + ridge I) / denom over all joint
    columns, then np.linalg.solve on Kff + sigma2 I.
    """
    s, cols = joint.num_draws, joint.num_points
    if estimator == "mle":
        denom, ridge = s, 0.0
    else:
        denom, ridge = s - 1, psi
    d = joint.deltas
    k = (d.T @ d + ridge * np.eye(cols)) / denom
    kff, ksf, kss = k[:n, :n], k[n:, :n], k[n:, n:]
    a = kff + sigma2 * np.eye(n)
    mean = joint.mean[0, n:] + ksf @ np.linalg.solve(a, y - joint.mean[0, :n])
    var_f = np.diag(kss) - np.einsum("kn,nk->k", ksf, np.linalg.solve(a, ksf.T))
    return mean, var_f


def fixed_model(prior, x, y, sigma2, num_draws, seed=0, **cfg):
    """A trained model as prediction reads it: the standard q and a fixed sigma2."""
    config = TrainConfig(num_draws=num_draws, sigma2_mode="fixed", sigma2=sigma2, seed=seed, **cfg)
    q = standard_posterior(num_draws)
    return TrainedModel(prior, q, sigma2, config, [], x, y)


def columns(draws, cols):
    """The given columns of a numeric draw set, its mean and deltas as they are."""
    return FunctionDraws(draws.values[:, cols], draws.mean[:, cols], draws.deltas[:, cols])


def predict_on(joint, n, y, sigma2, **cfg):
    """posterior_predict's exact route on a given joint draw set: its first n
    columns are the training rows' draws and the rest the test rows'."""
    x = np.zeros((joint.num_points, 1))
    model = fixed_model(None, x[:n], y, sigma2, joint.num_draws, **cfg)
    train, test = columns(joint, slice(0, n)), columns(joint, slice(n, None))
    with mock.patch.object(
        pr, "sample_functions", lambda prior, x, *rest: train if x is model.train_x else test
    ):
        return posterior_predict(model, x[n:], mode="exact")


class TestPredictDense:
    """The exact route's predictions are the dense GP conditional of the kernel.

    posterior_predict serves it through the rank-S coefficient posterior;
    these tests check it against the dense formulas in plain numpy.
    """

    def test_matches_hand_gp_formulas(self):
        rng = np.random.default_rng(3)
        joint = draws_from_matrix(rng.standard_normal((7, 6)))
        y = rng.standard_normal(4)
        sig2 = 0.3
        got = predict_on(joint, 4, y, sig2)
        k = joint.deltas.T @ joint.deltas / joint.num_draws
        kff, ksf, kss = k[:4, :4], k[4:, :4], k[4:, 4:]
        a_inv = np.linalg.inv(kff + sig2 * np.eye(4))
        mean = joint.mean[0, 4:] + ksf @ a_inv @ (y - joint.mean[0, :4])
        cov = kss - ksf @ a_inv @ ksf.T
        np.testing.assert_allclose(got.mean, mean, atol=1e-10)
        np.testing.assert_allclose(got.var_f, np.diag(cov), atol=1e-10)
        np.testing.assert_allclose(got.var_y, got.var_f + sig2, atol=1e-14)

    def test_reduces_to_prior_far_from_data(self):
        # kernel row of an unrelated test point ~ 0 -> prediction ~ prior moments
        rng = np.random.default_rng(4)
        d = rng.standard_normal((10, 3))
        d[:, 2] = rng.standard_normal(10) * 2.0
        f = d + 5.0
        joint = draws_from_matrix(f)
        joint.deltas[:, 2] -= joint.deltas[:, 2].mean()
        joint.deltas[:, :2] = np.linalg.qr(joint.deltas[:, :2])[0] * 3
        joint.deltas[:, 2] -= joint.deltas[:, :2] @ (
            np.linalg.lstsq(joint.deltas[:, :2], joint.deltas[:, 2], rcond=None)[0]
        )
        got = predict_on(joint, 2, np.array([4.0, 6.0]), 0.1)
        prior_var = float(joint.deltas[:, 2] @ joint.deltas[:, 2]) / joint.num_draws
        assert got.mean[0] == pytest.approx(joint.mean[0, 2], abs=1e-8)
        assert got.var_f[0] == pytest.approx(prior_var, abs=1e-8)

    def test_interpolates_at_tiny_noise(self):
        dt, _ = joint_draws(seed=5, n_train=5, n_test=0, s=12)
        joint = draws_from_matrix(np.hstack([dt.values, dt.values]))
        y = np.sin(np.arange(5.0))
        got = predict_on(joint, 5, y, 1e-10)
        np.testing.assert_allclose(got.mean, y, atol=1e-4)

    def test_adding_a_training_point_never_increases_variance(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            s = int(rng.integers(4, 10))
            n = int(rng.integers(2, 6))
            f = rng.standard_normal((s, n + 3))
            y = rng.standard_normal(n + 1)
            # the same two test columns after n, then n + 1, training columns
            small = predict_on(draws_from_matrix(np.delete(f, n, axis=1)), n, y[:n], 0.2)
            big = predict_on(draws_from_matrix(f), n + 1, y, 0.2)
            assert np.all(big.var_f <= small.var_f + 1e-8)

    def test_pm_ridge_inflates_variance(self):
        dt, ds = joint_draws(seed=7)
        joint = draws_from_matrix(np.hstack([dt.values, ds.values]))
        y = np.zeros(dt.num_points)
        plain = predict_on(joint, dt.num_points, y, 0.1, estimator="pm", psi=0.0)
        ridged = predict_on(joint, dt.num_points, y, 0.1, estimator="pm", psi=0.5)
        assert np.all(ridged.var_f >= plain.var_f - 1e-12)
        assert ridged.var_f.max() > plain.var_f.max()

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(2, 12),
        n=st.integers(1, 12),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        sigma2=st.floats(0.05, 1.0),
        psi=st.floats(0.0, 2.0),
    )
    @example(s=12, n=3, k=2, seed=1, sigma2=0.1, psi=0.5)
    @example(s=3, n=12, k=2, seed=1, sigma2=0.1, psi=0.5)
    def test_pm_exact_mode_matches_dense_oracle(self, family, s, n, k, seed, sigma2, psi):
        # S > N and S <= N
        prior = widened(init_prior(family, 1, (4,), "tanh", Rng(seed, 0), noise_dim=2))
        x = np.linspace(-2, 2, n + k).reshape(-1, 1)
        y = np.random.default_rng(seed).standard_normal(n)
        model = fixed_model(prior, x[:n], y, sigma2, s, seed, estimator="pm", psi=psi)
        got = posterior_predict(model, x[n:], mode="exact")
        joint = sample_functions(prior, x, s, Rng(seed, STREAM_PREDICT))
        mean, var_f = dense_oracle(joint, n, y, sigma2, "pm", psi)
        np.testing.assert_allclose(got.mean, mean, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(got.var_f, var_f, rtol=1e-8, atol=1e-8)
        np.testing.assert_array_equal(got.var_y, got.var_f + sigma2)

    def test_target_length_checked(self):
        dt, _ = joint_draws(seed=9)
        b = dt.deltas.T / math.sqrt(dt.num_draws)
        with pytest.raises(DimensionError):
            exact_coefficient_posterior(b, np.zeros(dt.num_points - 1), 0.1)


class TestWoodburyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        s=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
        sig2=st.floats(0.05, 1.0),
    )
    def test_dense_and_reduced_agree(self, n, k, s, seed, sig2):
        # S > N: more coefficients than training points; S <= N: Kff has rank < N
        dt, ds = joint_draws(seed=seed, n_train=n, n_test=k, s=s)
        y = np.random.default_rng(seed).standard_normal(n)
        joint = draws_from_matrix(np.hstack([dt.values, ds.values]))
        mean, var_f = dense_oracle(joint, n, y, sig2)
        b = dt.deltas.T / math.sqrt(dt.num_draws)
        q = exact_coefficient_posterior(b, y - dt.mean[0], sig2)
        red = predict_features(ds, q, sig2, dt.num_draws, 0.0)
        np.testing.assert_allclose(red.mean, mean, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(red.var_f, var_f, rtol=1e-8, atol=1e-8)

    def test_elbo_at_exact_posterior_equals_log_marginal(self):
        # conjugate check stitching training loss, exact posterior and the
        # function-space marginal together: at q = posterior and alpha = 0,
        # loss = -log N(y; m*, B B^T + sigma2 I)
        n, s, sig2 = 5, 3, 0.2
        prior = init_prior("bnn", 1, (3,), "tanh", Rng(4, 0))
        x = np.linspace(-1, 1, n).reshape(-1, 1)
        numeric = sample_functions(prior, x, s, Rng(5, 0))
        b = numeric.deltas.T / math.sqrt(s)
        y = np.sin(2 * x[:, 0])
        resid = y - numeric.mean[0]
        q = exact_coefficient_posterior(b, resid, sig2)

        tape = ad.Tape()
        leaves = {k: tape.leaf(a, requires_grad=True) for k, a in prior.params.items()}
        draws = sample_functions(prior, x, s, Rng(5, 0), tape=tape, params=leaves)
        diag = np.diag(q.chol)
        leaves["q_mu"] = tape.leaf(q.mu.reshape(-1, 1), requires_grad=True)
        leaves["q_tril"] = tape.leaf(np.tril(q.chol, -1), requires_grad=True)
        leaves["q_diag"] = tape.leaf(
            np.log(np.expm1(diag)).reshape(-1, 1), requires_grad=True
        )
        loss, _ = energy_loss(tape, y, draws, leaves, 0.0, tape.constant(math.log(sig2)), n, s, 0.0)

        kyy = b @ b.T + sig2 * np.eye(n)
        sign, logdet = np.linalg.slogdet(kyy)
        log_marginal = -0.5 * (n * LOG_2PI + logdet + resid @ np.linalg.solve(kyy, resid))
        assert loss.value[0, 0] == pytest.approx(-log_marginal, rel=1e-8)

        # and no other q does better than the exact posterior at alpha=0
        rng = np.random.default_rng(0)
        for _ in range(5):
            t2 = ad.Tape()
            l2 = {k: t2.leaf(a, requires_grad=True) for k, a in prior.params.items()}
            d2 = sample_functions(prior, x, s, Rng(5, 0), tape=t2, params=l2)
            l2["q_mu"] = t2.leaf(rng.standard_normal((s, 1)), requires_grad=True)
            l2["q_tril"] = t2.leaf(0.3 * rng.standard_normal((s, s)), requires_grad=True)
            l2["q_diag"] = t2.leaf(rng.standard_normal((s, 1)), requires_grad=True)
            other, _ = energy_loss(t2, y, d2, l2, 0.0, t2.constant(math.log(sig2)), n, s, 0.0)
            assert other.value[0, 0] >= loss.value[0, 0] - 1e-10


class TestPredictFeatures:
    def test_standard_q_reproduces_prior_moments(self):
        _, ds = joint_draws(seed=10)
        s = ds.num_draws
        got = predict_features(ds, standard_posterior(s), 0.1, s, 0.0)
        np.testing.assert_allclose(got.mean, ds.mean[0], atol=1e-12)
        want_var = np.einsum("sk,sk->k", ds.deltas, ds.deltas) / s
        np.testing.assert_allclose(got.var_f, want_var, atol=1e-12)

    def test_dimension_mismatch(self):
        _, ds = joint_draws(seed=11, s=6)
        with pytest.raises(DimensionError):
            predict_features(ds, standard_posterior(5), 0.1, 6, 0.0)


class TestVarianceFloor:
    def test_tiny_negative_clamped(self):
        pred = pr._finish(np.zeros(2), np.array([1e-12, -5e-11]), 0.3)
        assert pred.var_f[1] == 0.0
        assert pred.var_y[1] == pytest.approx(0.3)

    def test_large_negative_raises(self):
        with pytest.raises(NumericalError):
            pr._finish(np.zeros(1), np.array([-1e-6]), 0.3)


class TestNllRmse:
    def test_hand_case(self):
        pred = pr.PredictiveDistribution(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), 1.0
        )
        out = nll_rmse(pred, np.array([2.0]))
        assert out["nll"] == pytest.approx(0.5 * LOG_2PI + 2.0, rel=1e-12)
        assert out["rmse"] == pytest.approx(2.0)

    def test_destandardization(self):
        class Stats:
            target_mean = 1.0
            target_std = 2.0

        pred = pr.PredictiveDistribution(
            np.array([0.0]), np.array([0.0]), np.array([1.0]), 1.0
        )
        out = nll_rmse(pred, np.array([3.0]), stats=Stats())
        want_nll = 0.5 * (LOG_2PI + math.log(4.0)) + 4.0 / 8.0
        assert out["nll"] == pytest.approx(want_nll, rel=1e-12)
        assert out["rmse"] == pytest.approx(2.0)

    def test_perfect_prediction_nll_floor(self):
        pred = pr.PredictiveDistribution(
            np.zeros(3), np.zeros(3), np.full(3, 0.01), 0.01
        )
        out = nll_rmse(pred, np.zeros(3))
        assert out["nll"] == pytest.approx(0.5 * (LOG_2PI + math.log(0.01)))
        assert out["rmse"] == 0.0

    def test_length_mismatch(self):
        pred = pr.PredictiveDistribution(np.zeros(2), np.zeros(2), np.ones(2), 1.0)
        with pytest.raises(DimensionError):
            nll_rmse(pred, np.zeros(3))


def small_model(**over):
    rng = np.random.default_rng(0)
    x = np.linspace(-1, 1, 14).reshape(-1, 1)
    y = np.cos(3 * x[:, 0]) + 0.05 * rng.standard_normal(14)
    cfg = dict(
        alpha=0.5, num_draws=5, epochs=20, learning_rate=0.02,
        sigma2_mode="fixed", sigma2=0.05, hidden=(4,), seed=2,
    )
    cfg.update(over)
    return train(x, y, TrainConfig(**cfg)), x, y


class TestPosteriorPredict:
    def test_exact_mode_matches_manual_pipeline(self):
        # the plain averaged kernel: features at 1/sqrt(S), noise sigma2, bit for bit
        model, x, y = small_model()
        xt = np.linspace(-1.5, 1.5, 6).reshape(-1, 1)
        got = posterior_predict(model, xt, mode="exact")
        s = model.config.num_draws
        dt = sample_functions(model.prior, x, s, Rng(model.config.seed, STREAM_PREDICT))
        ds = sample_functions(model.prior, xt, s, Rng(model.config.seed, STREAM_PREDICT))
        b = dt.deltas.T / math.sqrt(s)
        q = exact_coefficient_posterior(b, model.train_y - dt.mean[0], model.sigma2)
        want = predict_features(ds, q, model.sigma2, s, 0.0)
        for field in ("mean", "var_f", "var_y"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        joint = sample_functions(model.prior, np.vstack([x, xt]), s, Rng(model.config.seed, STREAM_PREDICT))
        mean, var_f = dense_oracle(joint, 14, model.train_y, model.sigma2)
        np.testing.assert_allclose(got.mean, mean, atol=1e-8)
        np.testing.assert_allclose(got.var_f, var_f, atol=1e-8)

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_both_routes_predict_from_the_same_test_draws(self, family):
        # (50, 50) hidden units: wide enough that BLAS rounds a row of X @ W
        # by the row count of X, so a q drawn jointly with the test rows moves
        prior = init_prior(family, 1, (50, 50), "tanh", Rng(3, 0), noise_dim=2)
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = np.sin(2 * x[:, 0])
        model = fixed_model(prior, x, y, 0.1, 6, seed=3)
        q = exact_posterior(model)
        for k in (1, 17):
            xt = np.linspace(-2.5, 2.5, k).reshape(-1, 1)
            seen = {}
            for mode in ("exact", "learned"):
                with mock.patch.object(pr, "predict_features", wraps=pr.predict_features) as spy:
                    posterior_predict(model, xt, mode=mode)
                (seen[mode],) = [c.args for c in spy.call_args_list]
            for field in ("values", "mean", "deltas"):
                a, b = (getattr(seen[m][0], field) for m in ("exact", "learned"))
                assert a.shape[-1] == k and a.tobytes() == b.tobytes()
            assert seen["exact"][1].mu.tobytes() == q.mu.tobytes()
            assert seen["exact"][1].chol.tobytes() == q.chol.tobytes()
            assert seen["learned"][1] is model.q

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    @pytest.mark.parametrize("mode", ["exact", "learned"])
    def test_no_test_rows_give_an_empty_prediction(self, family, mode):
        prior = init_prior(family, 1, (4,), "tanh", Rng(1, 0), noise_dim=2)
        x = np.linspace(-2, 2, 8).reshape(-1, 1)
        model = fixed_model(prior, x, np.cos(x[:, 0]), 0.1, 5, seed=1)
        draws = sample_functions(prior, np.zeros((0, 1)), 5, Rng(1, STREAM_PREDICT))
        assert (draws.values.shape, draws.mean.shape, draws.deltas.shape) == (
            (5, 0), (1, 0), (5, 0)
        )
        got = posterior_predict(model, np.zeros((0, 1)), mode=mode)
        assert len(got) == 0
        assert got.mean.shape == got.var_f.shape == got.var_y.shape == (0,)

    def test_learned_mode_runs_and_is_deterministic(self):
        model, x, y = small_model()
        xt = np.array([[0.2], [0.4]])
        a = posterior_predict(model, xt, mode="learned")
        b = posterior_predict(model, xt, mode="learned")
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.var_y, b.var_y)

    def test_auto_resolves_to_exact_at_desk_scale(self):
        model, x, y = small_model()
        xt = np.array([[0.0]])
        auto = posterior_predict(model, xt)  # coeff_mode auto by default
        exact = posterior_predict(model, xt, mode="exact")
        np.testing.assert_array_equal(auto.mean, exact.mean)

    def test_pm_estimator_routes_through_dense(self):
        # a trained pm model predicts the dense conditional of its kernel
        model, x, y = small_model(estimator="pm", psi=0.1)
        xt = np.array([[0.3], [1.4]])
        out = posterior_predict(model, xt, mode="exact")
        joint = sample_functions(model.prior, np.vstack([x, xt]), 5, Rng(model.config.seed, STREAM_PREDICT))
        mean, var_f = dense_oracle(joint, 14, model.train_y, model.sigma2, "pm", 0.1)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(out.var_f, var_f, rtol=1e-8, atol=1e-8)

    def test_pm_learned_mode_uses_the_pm_features(self):
        model, x, y = small_model(estimator="pm", psi=0.3)
        xt = np.array([[0.3], [1.4]])
        got = posterior_predict(model, xt, mode="learned")
        s = model.config.num_draws
        draws = sample_functions(model.prior, xt, s, Rng(model.config.seed, STREAM_PREDICT))
        want = predict_features(draws, model.q, model.sigma2, s - 1, 0.3)
        for field in ("mean", "var_f", "var_y"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_pm_and_mle_train_different_q(self):
        pm, _, _ = small_model(estimator="pm", psi=0.3)
        mle, _, _ = small_model()
        assert not np.array_equal(pm.q.mu, mle.q.mu)
        assert not np.array_equal(pm.q.chol, mle.q.chol)

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    @pytest.mark.parametrize("estimator", ["mle", "pm"])
    @pytest.mark.parametrize("mode", ["exact", "learned"])
    @settings(max_examples=15, deadline=None)
    @given(
        s=st.integers(2, 8),
        n=st.integers(1, 8),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        psi=st.floats(0.0, 2.0),
    )
    def test_a_row_does_not_depend_on_its_neighbours(
        self, family, estimator, mode, s, n, k, seed, psi
    ):
        prior = init_prior(family, 1, (4,), "tanh", Rng(seed, 0), noise_dim=2)
        x = np.linspace(-2, 2, n + k).reshape(-1, 1)
        rng = np.random.default_rng(seed)
        model = fixed_model(
            prior, x[:n], rng.standard_normal(n), 0.1, s, seed, estimator=estimator, psi=psi
        )
        model.q = CoefficientPosterior(
            rng.standard_normal(s), np.tril(rng.standard_normal((s, s)), -1) + np.eye(s)
        )
        together = posterior_predict(model, x[n:], mode=mode)
        for i in range(k):
            alone = posterior_predict(model, x[n + i : n + i + 1], mode=mode)
            for field in ("mean", "var_y"):
                want = getattr(together, field)[i]
                assert getattr(alone, field)[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_exact_peak_memory_doubles_at_most_with_n(self, family):
        # 1,000 rows from an S=20 model peak at 1.90-1.97x their N=1000 peak
        # with N=2000 training points, where the training rows' draws set the
        # peak; an N x N array would take it past 3
        xt = np.linspace(-3.0, 3.0, 1000).reshape(-1, 1)
        peaks = []
        for n in (1000, 2000):
            ds = standardize(synth_toy(n, 0, "std"))
            model = train(ds.x, ds.y, TrainConfig(prior_family=family, num_draws=20, epochs=0))
            tracemalloc.start()
            try:
                posterior_predict(model, xt, mode="exact")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.2 * peaks[0]

    def test_bad_mode(self):
        model, x, y = small_model()
        with pytest.raises(ParameterError):
            posterior_predict(model, np.array([[0.0]]), mode="mcmc")

    def test_feature_dim_mismatch(self):
        model, x, y = small_model()
        with pytest.raises(DimensionError):
            posterior_predict(model, np.zeros((2, 3)))
