import math
import tracemalloc

import numpy as np
import pytest

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
from vip.numkit import Rng
from vip.priors import init_prior, kernel_normaliser, sample_functions

from oracles import (
    alpha_local_term,
    cov,
    elbo_local_term,
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


def build_symbolic_instance(seed=0, n=6, s=4, alpha=0.5, learn_sigma=False, x=None, y=None):
    rng_np = np.random.default_rng(seed)
    x = rng_np.standard_normal((n, 1)) if x is None else x
    y = rng_np.standard_normal(n) if y is None else y
    prior = init_prior("bnn", 1, (3,), "tanh", Rng(seed, 0))
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

    def test_loss_invariant_to_batch_row_order(self):
        rng_np = np.random.default_rng(10)
        x = rng_np.standard_normal((8, 1))
        y = rng_np.standard_normal(8)
        perm = rng_np.permutation(8)

        def run(xb, yb):
            tape, params, draws, _, _, lo = build_symbolic_instance(
                seed=11, n=8, x=xb, y=yb
            )
            loss, _ = energy_loss(tape, yb, draws, params, 0.5, lo, 40, 4, 0.0)
            return loss.value[0, 0]

        assert run(x, y) == run(x[perm], y[perm])

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


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(alpha=0.25, hidden=(7,), sigma2_mode="fixed")
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="learningrate"):
            TrainConfig.from_dict({"learningrate": 0.1})

    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(alpha=1.5).validate()
        with pytest.raises(ParameterError):
            TrainConfig(num_draws=1).validate()
        with pytest.raises(ParameterError):
            TrainConfig(sigma2=0.0).validate()
        with pytest.raises(ParameterError):
            TrainConfig(sigma2_mode="annealed").validate()
        with pytest.raises(ParameterError):
            TrainConfig(sigma2_grid=()).validate()


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
        for (ka, va), (kb, vb) in zip(
            sorted(m1.final_params.items()), sorted(m2.final_params.items())
        ):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

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
            ("bnn", 0.0, "exp: produced a non-finite value (parameters: w_log_scale_0)"),
            ("ns", 0.0, "log: non-positive operand (parameters: q_diag)"),
            ("ns", 0.5, "exp: produced a non-finite value (parameters: log_sigma2)"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverging_run_names_the_parameter(self, family, alpha, failure):
        # the toy protocol's data and config at a learning rate that diverges
        # in the first Adam step; the message names the leaf behind the op
        ds = standardize(synth_toy(300, 0, "std"))
        cfg = TrainConfig(prior_family=family, alpha=alpha, learning_rate=1e3, epochs=3)
        with pytest.raises(NumericalError) as exc:
            train(ds.x, ds.y, cfg)
        assert str(exc.value) == f"epoch 1, batch at 0: {failure}"

    @pytest.mark.parametrize(
        "sigma2, sigma2_mode, message",
        [
            (0.1, "learned", "log_sigma2 out of range: exp(log_sigma2) = inf"),
            # a noise far above the data's pushes log_sigma2 down by ~lr
            (100.0, "learned", "log_sigma2 out of range: exp(log_sigma2) = 0.0"),
            (0.1, "fixed", "q_diag out of range: softplus(q_diag) = 0.0"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverging_last_update_names_the_parameter(self, sigma2, sigma2_mode, message):
        # one epoch: the only Adam step diverges, and no forward pass follows it
        ds = standardize(synth_toy(300, 0, "std"))
        cfg = TrainConfig(
            alpha=0.0, sigma2=sigma2, sigma2_mode=sigma2_mode, learning_rate=1e3, epochs=1
        )
        with pytest.raises(NumericalError) as exc:
            train(ds.x, ds.y, cfg)
        name = message.split()[0]
        assert str(exc.value) == f"the last update took {message} (parameters: {name})"

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

    def test_failure_outside_the_tape_names_no_parameter(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("draws: broken")

        monkeypatch.setattr(inf, "sample_functions", fail)
        x, y = tiny_data()
        with pytest.raises(NumericalError) as exc:
            train(x, y, TrainConfig(**self.CFG))
        assert str(exc.value) == "epoch 0, batch at 0: draws: broken"

