import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vip import autodiff as ad
from vip import priors
from vip.errors import ContractError, DimensionError, ParameterError
from vip.numkit import Rng
from vip.priors import (
    Prior,
    init_prior,
    kernel_normaliser,
    sample_functions,
)

from oracles import draws_from_matrix, empirical_kernel_matrix


def toy_bnn(seed=0, sizes=(1, 5, 1)):
    return init_prior("bnn", sizes[0], sizes[1:-1], "tanh", Rng(seed, 0))


def linear_bnn(w_mean, w_log_scale, b_mean, b_log_scale):
    """f(x) = w x + b with w ~ N(w_mean, exp(w_log_scale)^2), b likewise."""
    values = {
        "w_mean_0": w_mean, "w_log_scale_0": w_log_scale,
        "b_mean_0": b_mean, "b_log_scale_0": b_log_scale,
    }
    return Prior("bnn", (1, 1), "tanh", {k: np.full((1, 1), v) for k, v in values.items()})


def taped_draws(prior, x, s, rng):
    """S draws recorded on a fresh tape, differentiable in the prior's parameter leaves."""
    tape = ad.Tape()
    params = {k: tape.leaf(a, requires_grad=True) for k, a in prior.params.items()}
    return sample_functions(prior, x, s, rng, tape=tape, params=params)


class TestSampleShapes:
    def test_shapes_and_centering(self):
        prior = toy_bnn()
        x = np.linspace(-1, 1, 7).reshape(-1, 1)
        draws = sample_functions(prior, x, 6, Rng(1, 2))
        assert draws.values.shape == (6, 7)
        assert draws.mean.shape == (1, 7)
        assert draws.deltas.shape == (6, 7)
        np.testing.assert_allclose(draws.deltas.mean(axis=0), np.zeros(7), atol=1e-12)
        np.testing.assert_allclose(draws.values.mean(axis=0), draws.mean[0], atol=1e-12)

    def test_deterministic(self):
        prior = toy_bnn()
        x = np.linspace(-1, 1, 5).reshape(-1, 1)
        a = sample_functions(prior, x, 4, Rng(3, 0)).values
        b = sample_functions(prior, x, 4, Rng(3, 0)).values
        np.testing.assert_array_equal(a, b)

    def test_too_few_draws(self):
        with pytest.raises(ParameterError):
            sample_functions(toy_bnn(), np.zeros((3, 1)), 1, Rng(0))

    def test_input_dim_mismatch(self):
        with pytest.raises(DimensionError):
            sample_functions(toy_bnn(), np.zeros((3, 2)), 4, Rng(0))

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["bnn", "ns"]),
        activation=st.sampled_from(["tanh", "relu"]),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        s=st.integers(2, 7),
        n=st.integers(1, 9),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_numeric_and_symbolic_paths_agree_bitwise(
        self, family, activation, hidden, s, n, d, seed
    ):
        prior = init_prior(family, d, hidden, activation, Rng(seed, 0), noise_dim=2)
        x = Rng(seed, 1).standard_normal(n * d).reshape(n, d)
        numeric = sample_functions(prior, x, s, Rng(seed, 2))
        symbolic = taped_draws(prior, x, s, Rng(seed, 2))
        for got, want in (
            (symbolic.values.value, numeric.values),
            (symbolic.mean.value, numeric.mean),
            (symbolic.deltas.value, numeric.deltas),
        ):
            assert got.tobytes() == want.tobytes()


class TestNumericMoments:
    """Numeric draws form the reference moments of their values, and, since
    their S may be many thousands, with no S x S array; this class runs
    before the S = 20,000 draw below."""

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_peak_is_linear_in_s_and_below_one_s_by_s_array(self, family):
        priors.moment_constants.cache_clear()
        prior = init_prior(family, 1, (10, 10), "tanh", Rng(0, 0))
        x = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
        peaks = {}
        for s in (2000, 4000):
            tracemalloc.start()
            try:
                sample_functions(prior, x, s, Rng(1, 2))
                peaks[s] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 20.6 MB (bnn) and 7.1 MB (ns) at S = 4,000, each 2.0x its S = 2,000 peak
        assert peaks[4000] < 4000 * 4000 * 8
        assert peaks[4000] <= 2.2 * peaks[2000]

    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_moments_are_those_of_the_values(self, family):
        prior = init_prior(family, 2, (4,), "tanh", Rng(0, 0), noise_dim=2)
        draws = sample_functions(prior, Rng(0, 1).standard_normal(14).reshape(7, 2), 5, Rng(0, 2))
        want = draws_from_matrix(draws.values)
        assert draws.mean.tobytes() == want.mean.tobytes()
        assert draws.deltas.tobytes() == want.deltas.tobytes()


class TestBnnDistribution:
    def test_linear_layer_moments(self):
        # f(x) = w x + b with w, b ~ N(0,1): Var f(x) = x^2 + 1,
        # Cov(f(1), f(2)) = 1*2 + 1 = 3
        prior = linear_bnn(0.0, 0.0, 0.0, 0.0)
        x = np.array([[1.0], [2.0]])
        draws = sample_functions(prior, x, 20_000, Rng(11, 0))
        cov = draws.deltas.T @ draws.deltas / draws.num_draws
        np.testing.assert_allclose(np.diag(cov), [2.0, 5.0], atol=0.2)
        assert cov[0, 1] == pytest.approx(3.0, abs=0.2)
        assert abs(draws.mean).max() < 0.05

    def test_tiny_scale_collapses_to_mean_function(self):
        prior = linear_bnn(2.0, -40.0, 0.5, -40.0)
        x = np.array([[0.0], [1.0], [-1.0]])
        draws = sample_functions(prior, x, 8, Rng(0, 0))
        expected = (2.0 * x + 0.5)[:, 0]
        for row in draws.values:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_prior_means_participate(self):
        # shifting a bias mean shifts every draw by the same constant
        prior = toy_bnn(seed=4)
        x = np.array([[0.3]])
        base = sample_functions(prior, x, 6, Rng(2, 0)).values
        shifted_prior = prior.with_params(
            {
                name: (arr + 1.0 if name == "b_mean_1" else arr)
                for name, arr in prior.params.items()
            }
        )
        shifted = sample_functions(shifted_prior, x, 6, Rng(2, 0)).values
        np.testing.assert_allclose(shifted - base, np.ones_like(base), atol=1e-12)


class TestNeuralSampler:
    def test_zero_halfwidth_freezes_draws(self):
        prior = init_prior("ns", 1, (4,), "tanh", Rng(1, 0), noise_dim=3, noise_halfwidth=0.0)
        x = np.linspace(0, 1, 5).reshape(-1, 1)
        draws = sample_functions(prior, x, 5, Rng(9, 0))
        for row in draws.values[1:]:
            np.testing.assert_array_equal(row, draws.values[0])
        np.testing.assert_allclose(draws.deltas, 0.0, atol=1e-12)

    def test_positive_halfwidth_varies(self):
        prior = init_prior("ns", 1, (4,), "tanh", Rng(1, 0), noise_dim=3, noise_halfwidth=1.0)
        x = np.linspace(0, 1, 5).reshape(-1, 1)
        draws = sample_functions(prior, x, 5, Rng(9, 0))
        assert not np.array_equal(draws.values[0], draws.values[1])

    def test_relu_family(self):
        prior = init_prior("ns", 2, (6,), "relu", Rng(2, 0))
        draws = sample_functions(prior, np.zeros((3, 2)), 4, Rng(0, 0))
        assert np.all(np.isfinite(draws.values))

    def test_validation(self):
        with pytest.raises(ParameterError):
            init_prior("ns", 1, (4,), "tanh", Rng(0), noise_dim=0)
        with pytest.raises(ParameterError):
            init_prior("ns", 1, (4,), "tanh", Rng(0), noise_halfwidth=-1.0)
        with pytest.raises(ParameterError):
            init_prior("mixture", 1, (4,), "tanh", Rng(0))
        with pytest.raises(ParameterError):
            Prior("bnn", (1, 4, 2), "tanh", {})  # vector-valued output
        with pytest.raises(ParameterError):
            init_prior("bnn", 1, (4,), "sigmoid", Rng(0))


def _ns_per_draw(prior, x, s, rng, tape=None, params=None):
    """The per-draw neural-sampler loop that the batched pass replaced.

    Each draw takes its own ``noise_dim`` uniforms, runs the network over
    [x, z_s] and, on a tape, is stacked into S x N with a basis-vector matmul.
    """
    n, nd, a = x.shape[0], prior.noise_dim, prior.noise_halfwidth
    n_layers = len(prior.layer_sizes) - 1
    if tape is None:
        p = dict(prior.params)
        act = np.tanh if prior.activation == "tanh" else (lambda h: np.where(h > 0.0, h, 0.0))
    else:
        p = params
        act = ad.vtanh if prior.activation == "tanh" else ad.relu
    f = np.empty((s, n)) if tape is None else None
    for k in range(s):
        z = rng.uniform(nd, -a, a) if a != 0.0 else np.zeros(nd)
        h = np.hstack([x, np.broadcast_to(z, (n, nd))])
        if tape is None:
            for l in range(n_layers):
                h = h @ p[f"w_{l}"] + p[f"b_{l}"]
                h = act(h) if l + 1 < n_layers else h
            f[k] = h[:, 0]
            continue
        h = tape.constant(h)
        for l in range(n_layers):
            h = ad.broadcast_add_row(ad.matmul(h, p[f"w_{l}"]), p[f"b_{l}"])
            h = act(h) if l + 1 < n_layers else h
        basis = np.zeros((s, 1))
        basis[k, 0] = 1.0
        term = ad.matmul(tape.constant(basis), ad.transpose(h))
        f = term if f is None else ad.add(f, term)
    return f


def _close(got, want, ulps=64):
    """Equal up to BLAS summation order: a few ulp of the largest entry."""
    tol = ulps * np.finfo(float).eps * max(float(np.abs(want).max()), 1.0)
    return float(np.abs(got - want).max()) <= tol


_ns_cases = dict(
    activation=st.sampled_from(["tanh", "relu"]),
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    s=st.integers(2, 50),
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    halfwidth=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


def _ns_case(activation, hidden, d, n, halfwidth, seed):
    prior = init_prior(
        "ns", d, hidden, activation, Rng(seed, 0), noise_dim=3, noise_halfwidth=halfwidth
    )
    return prior, Rng(seed, 1).standard_normal(n * d).reshape(n, d)


class TestBatchedDraws:
    """Neural-sampler draws run as one pass; BNN noise comes from one request."""

    @settings(max_examples=40, deadline=None)
    @given(**_ns_cases)
    def test_ns_inputs_are_the_per_draw_inputs_stacked(
        self, activation, hidden, s, n, d, halfwidth, seed
    ):
        prior, x = _ns_case(activation, hidden, d, n, halfwidth, seed)
        rng_one, rng_each = Rng(seed, 2), Rng(seed, 2)
        got = priors._ns_inputs(prior, x, s, rng_one)
        want = np.vstack([
            np.hstack([x, np.broadcast_to(
                rng_each.uniform(3, -halfwidth, halfwidth) if halfwidth else np.zeros(3), (n, 3)
            )])
            for _ in range(s)
        ])
        assert got.tobytes() == want.tobytes()
        assert rng_one.uniform(5).tobytes() == rng_each.uniform(5).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**_ns_cases)
    def test_ns_draws_match_the_per_draw_loop(self, activation, hidden, s, n, d, halfwidth, seed):
        # One GEMM over S*N rows may round differently from S GEMMs over N:
        # OpenBLAS picks its kernel by shape (gemv for one row, a small-matrix
        # kernel below a size threshold), so the match is to a few ulp.
        prior, x = _ns_case(activation, hidden, d, n, halfwidth, seed)
        want = _ns_per_draw(prior, x, s, Rng(seed, 2))
        rng_num, rng_tape = Rng(seed, 2), Rng(seed, 2)
        numeric = sample_functions(prior, x, s, rng_num)
        taped = taped_draws(prior, x, s, rng_tape)
        assert numeric.values.shape == (s, n)
        assert _close(numeric.values, want)
        assert taped.values.value.tobytes() == numeric.values.tobytes()
        assert taped.deltas.value.tobytes() == numeric.deltas.tobytes()
        assert rng_num.uniform(1)[0] == rng_tape.uniform(1)[0]

    @settings(max_examples=30, deadline=None)
    @given(**_ns_cases)
    def test_ns_gradients_match_the_per_draw_loop(
        self, activation, hidden, s, n, d, halfwidth, seed
    ):
        prior, x = _ns_case(activation, hidden, d, n, halfwidth, seed)
        w = Rng(seed, 3).standard_normal(s * n).reshape(s, n)

        def grads(batched):
            tape = ad.Tape()
            params = {k: tape.leaf(a, requires_grad=True) for k, a in prior.params.items()}
            if batched:
                f = sample_functions(prior, x, s, Rng(seed, 2), tape=tape, params=params).values
            else:
                f = _ns_per_draw(prior, x, s, Rng(seed, 2), tape=tape, params=params)
            loss = ad.add(ad.dot(ad.vtanh(f), tape.constant(w)), ad.vsum(ad.mul(f, f)))
            g = ad.backward(loss)
            return {k: g[v.nid] for k, v in params.items()}

        got, want = grads(True), grads(False)
        for name, g in want.items():
            scale = float(np.abs(g).max())
            assert float(np.abs(got[name] - g).max()) <= 1e-12 * scale, name

    def test_ns_tape_size_does_not_depend_on_s(self):
        prior, x = _ns_case("tanh", (10, 10), 1, 32, 1.0, 0)
        sizes = set()
        for s in (2, 20, 50, 200):
            sizes.add(len(taped_draws(prior, x, s, Rng(0, 2)).values.tape))
        # 6 parameter leaves, input, 3 x (matmul, add_row), 2 tanh, reshape,
        # then the mean and the centred residuals (3 constants, 2 matmuls, sub)
        assert sizes == {6 + 1 + 6 + 2 + 1 + 5}

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4).map(lambda l: [*l[:-1], 1]),
        s=st.integers(1, 7),
        lead=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bnn_eps_come_from_one_request_in_per_draw_order(self, sizes, s, lead, seed):
        prior = toy_bnn(seed, sizes)
        rng_one, rng_each = Rng(seed, 2), Rng(seed, 2)
        # an odd lead leaves a Box-Muller spare that the next request must use first
        rng_one.standard_normal(lead)
        rng_each.standard_normal(lead)
        got = priors._bnn_draw_eps(prior, s, rng_one)
        assert len(got) == s
        for eps in got:
            for (ew, eb), fi, fo in zip(eps, sizes[:-1], sizes[1:]):
                assert ew.tobytes() == rng_each.standard_normal(fi * fo).tobytes()
                assert ew.shape == (fi, fo)
                assert eb.tobytes() == rng_each.standard_normal(fo).tobytes()
                assert eb.shape == (1, fo)
        assert rng_one.standard_normal(3).tobytes() == rng_each.standard_normal(3).tobytes()


class TestEmpiricalKernel:
    def test_hand_worked_two_draws(self):
        draws = draws_from_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(draws.mean, [[1.0, 1.0]])
        k = empirical_kernel_matrix(draws)
        np.testing.assert_allclose(k, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_posterior_mean_variant(self):
        # denominator S - 1 = 1
        draws = draws_from_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        k = empirical_kernel_matrix(draws, "pm", psi=0.1)
        np.testing.assert_allclose(k, [[2.1, -2.0], [-2.0, 2.1]], atol=1e-15)

    def test_pm_denominator_guard(self):
        # S - 1 at any number of points, so a column's kernel ignores the others
        rng = np.random.default_rng(0)
        f = rng.standard_normal((6, 5))
        assert kernel_normaliser(6, "pm", 0.3) == (5, 0.3)
        assert kernel_normaliser(6, "mle", 0.3) == (6, 0.0)
        whole = empirical_kernel_matrix(draws_from_matrix(f), "pm", psi=0.3)
        for j in range(5):
            alone = empirical_kernel_matrix(draws_from_matrix(f[:, [j]]), "pm", psi=0.3)
            assert alone[0, 0] == pytest.approx(whole[j, j], rel=1e-14)
        with pytest.raises(ParameterError):
            kernel_normaliser(6, "pm", psi=-1.0)
        with pytest.raises(ParameterError):
            kernel_normaliser(6, "bayes")

    def test_kernel_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            draws = draws_from_matrix(rng.standard_normal((8, 5)))
            for est, psi in (("mle", 0.0), ("pm", 0.3)):
                k = empirical_kernel_matrix(draws, est, psi=psi)
                np.testing.assert_allclose(k, k.T, atol=1e-15)
                evals = np.linalg.eigvalsh((k + k.T) / 2)
                assert evals.min() >= -1e-10

    def test_one_unit_tanh_kernel_matches_direct_monte_carlo(self):
        # g(x) = tanh(w.x + b), w, b ~ N(0,1): the centered second-moment
        # estimate must approach E[g(x1) g(x2)] (the mean is 0 by symmetry)
        d = 3
        x = np.array([[0.4, -0.2, 0.1], [-0.3, 0.5, 0.2]])
        s = 20_000
        r = Rng(21, 0)
        w = r.standard_normal(s * d).reshape(s, d)
        b = r.standard_normal(s).reshape(s, 1)
        draws = draws_from_matrix(np.tanh(w @ x.T + b))
        oracle_rng = np.random.default_rng(99)
        w2 = oracle_rng.standard_normal((200_000, d))
        b2 = oracle_rng.standard_normal((200_000, 1))
        g = np.tanh(w2 @ x.T + b2)
        oracle = float(np.mean(g[:, 0] * g[:, 1]))
        assert empirical_kernel_matrix(draws)[0, 1] == pytest.approx(oracle, abs=0.05)


class TestSliceColumns:
    def test_slice_keeps_joint_normalization(self):
        rng = np.random.default_rng(2)
        joint = draws_from_matrix(rng.standard_normal((5, 8)))
        left = joint.slice_columns(0, 3)
        np.testing.assert_array_equal(left.deltas, joint.deltas[:, :3])
        np.testing.assert_array_equal(left.mean, joint.mean[:, :3])

    def test_slice_bounds(self):
        joint = draws_from_matrix(np.zeros((2, 4)) + np.arange(4.0))
        with pytest.raises(ParameterError):
            joint.slice_columns(2, 5)

    def test_symbolic_slice_rejected(self):
        draws = taped_draws(toy_bnn(), np.zeros((3, 1)), 4, Rng(0, 0))
        with pytest.raises(ContractError):
            draws.slice_columns(0, 1)


class TestGradientFlow:
    def test_draws_differentiate_through_prior_scales(self):
        x = np.linspace(-1, 1, 4).reshape(-1, 1)
        prior = toy_bnn(seed=8, sizes=(1, 3, 1))
        names = list(prior.params)

        def loss_for(params_arrays):
            tape = ad.Tape()
            leaves = {n: tape.leaf(a, requires_grad=True) for n, a in params_arrays.items()}
            draws = sample_functions(prior, x, 3, Rng(13, 0), tape=tape, params=leaves)
            return tape, leaves, ad.vsum(ad.mul(draws.values, draws.values))

        base = dict(prior.params)
        tape, leaves, loss = loss_for(base)
        grads = ad.backward(loss)
        h = 1e-6
        for name in names:
            g = grads[leaves[name].nid]
            assert np.any(g != 0.0) or "log_scale" not in name
            for idx in np.ndindex(*base[name].shape):
                hi = {k: v.copy() for k, v in base.items()}
                lo = {k: v.copy() for k, v in base.items()}
                hi[name][idx] += h
                lo[name][idx] -= h
                _, _, lhi = loss_for(hi)
                _, _, llo = loss_for(lo)
                num = (lhi.value[0, 0] - llo.value[0, 0]) / (2 * h)
                assert abs(g[idx] - num) / (abs(g[idx]) + 1e-6) < 1e-4

    def test_param_name_mismatch_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ContractError):
            sample_functions(
                toy_bnn(),
                np.zeros((2, 1)),
                3,
                Rng(0),
                tape=tape,
                params={"bogus": tape.leaf(0.0, requires_grad=True)},
            )

    def test_taped_draw_without_params_rejected(self):
        # a taped draw differentiates in leaves the caller made; it makes none
        tape = ad.Tape()
        with pytest.raises(ContractError) as exc:
            sample_functions(toy_bnn(), np.zeros((2, 1)), 3, Rng(0), tape=tape)
        assert str(exc.value) == "a taped draw needs params: a leaf for each prior parameter"
        assert len(tape) == 0


class TestPriorLayout:
    def test_param_names_in_layer_order(self):
        bnn = toy_bnn(sizes=(2, 4, 1))
        assert list(bnn.params) == [
            f"{p}_{l}" for l in (0, 1) for p in ("w_mean", "w_log_scale", "b_mean", "b_log_scale")
        ]
        ns = init_prior("ns", 2, (4,), "tanh", Rng(0), noise_dim=3)
        assert list(ns.params) == ["w_0", "b_0", "w_1", "b_1"]
        assert ns.layer_sizes == (5, 4, 1) and ns.input_dim == 2

    def test_params_checked_against_the_layout(self):
        params = dict(toy_bnn(sizes=(2, 3, 1)).params)
        with pytest.raises(DimensionError):
            Prior("bnn", (2, 3, 1), "tanh", {**params, "w_mean_1": np.zeros((1, 3))})
        with pytest.raises(ParameterError):
            Prior("bnn", (2, 3, 1), "tanh", {k: v for k, v in params.items() if k != "b_mean_0"})
        with pytest.raises(ParameterError):
            Prior("ns", (2, 3, 1), "tanh", params, noise_dim=1)
        with pytest.raises(ParameterError):
            Prior("bnn", (2, 3, 1), "tanh", params, noise_dim=1)
        with pytest.raises(ParameterError):
            Prior("bnn", (2, 3, 1), "tanh", params, noise_halfwidth=1.0)

    def test_non_integer_layer_size_rejected(self):
        # a layer size of 3.7 used to be read as 3
        params = dict(toy_bnn(sizes=(2, 3, 1)).params)
        with pytest.raises(ParameterError, match="prior.layer_sizes must be a list of integers"):
            Prior("bnn", (2, 3.7, 1), "tanh", params)
