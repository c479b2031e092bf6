import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vip import baseline_gp, numkit
from vip.baseline_gp import (
    GpFit,
    RbfKernel,
    _train_gram,
    gp_fit_grid,
    gp_log_marginal,
    gp_predict,
)
from vip.bench import (
    DEFAULT_GP_LENGTHSCALES,
    DEFAULT_GP_SIGMA2S,
    DEFAULT_GP_SIGNAL_VARIANCES,
)
from vip.errors import NotPositiveDefiniteError, ParameterError

LOG_2PI = math.log(2 * math.pi)


def _per_cell_log_marginal(kernel, x, y, sigma2):
    """The log marginal as each grid cell computed it from (kernel, x): its
    own Gram at the cell's signal variance, symmetrised, jittered in a copy,
    with the same retry."""
    kff = kernel.gram(x, x)
    n = x.shape[0]
    a = kff + kff.T
    a /= 2.0
    diag = a.diagonal() + sigma2
    a.flat[:: n + 1] = diag + baseline_gp._JITTER
    try:
        la = numkit.cholesky(a)
    except NotPositiveDefiniteError:
        a.flat[:: n + 1] = diag + baseline_gp._JITTER_RETRY
        la = numkit.cholesky(a)
    alpha = scipy.linalg.solve_triangular(la, y, lower=True, check_finite=False)
    return float(
        -0.5 * (alpha @ alpha) - np.sum(np.log(np.diag(la))) - 0.5 * n * LOG_2PI
    )


class TestKernel:
    def test_diagonal_is_signal_variance(self):
        k = RbfKernel(0.7, 2.5)
        x = np.random.default_rng(0).standard_normal((6, 3))
        g = k.gram(x, x)
        np.testing.assert_allclose(np.diag(g), 2.5, rtol=1e-12)
        np.testing.assert_allclose(g, g.T, atol=1e-12)

    def test_hand_value(self):
        k = RbfKernel(1.0, 1.0)
        g = k.gram(np.array([[0.0]]), np.array([[1.0]]))
        assert g[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_lengthscale_widens_correlation(self):
        xa, xb = np.array([[0.0]]), np.array([[2.0]])
        near = RbfKernel(5.0, 1.0).gram(xa, xb)[0, 0]
        far = RbfKernel(0.5, 1.0).gram(xa, xb)[0, 0]
        assert near > far

    def test_gram_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal((12, 2))
            g = RbfKernel(0.8, 1.3).gram(x, x)
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_validation(self):
        with pytest.raises(ParameterError):
            RbfKernel(0.0, 1.0)
        with pytest.raises(ParameterError):
            RbfKernel(1.0, -2.0)


class TestTrainMatrix:
    @staticmethod
    def _reference(x, ls, sv, sigma2, jitter):
        # the Gram and jittered training matrix written out as plain
        # expressions, one temporary per operation
        sq = (
            np.sum(x * x, axis=1)[:, None]
            + np.sum(x * x, axis=1)[None, :]
            - 2.0 * x @ x.T
        )
        np.maximum(sq, 0.0, out=sq)
        kff = sv * np.exp(-0.5 * sq / (ls**2))
        n = x.shape[0]
        base = (kff + kff.T) / 2.0 + sigma2 * np.eye(n)
        return base + jitter * np.eye(n)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        ls=st.floats(0.05, 5.0),
        sv=st.floats(0.05, 5.0),
        sigma2=st.floats(1e-6, 2.0),
        retry=st.booleans(),
    )
    def test_bitwise_equal_to_plain_expression(self, n, d, seed, ls, sv, sigma2, retry):
        x = np.random.default_rng(seed).standard_normal((n, d))
        seen = []

        def recording_cholesky(a):
            seen.append(a.copy())
            if retry and len(seen) == 1:
                raise NotPositiveDefiniteError(0, -1.0)
            return np.linalg.cholesky(a)

        with mock.patch.object(baseline_gp, "cholesky", recording_cholesky):
            baseline_gp._train_chol(_train_gram(RbfKernel(ls, sv), x), sigma2)
        jitters = [baseline_gp._JITTER] + [baseline_gp._JITTER_RETRY] * retry
        assert len(seen) == len(jitters)
        for a, jitter in zip(seen, jitters):
            assert a.tobytes() == self._reference(x, ls, sv, sigma2, jitter).tobytes()


class TestGpPredict:
    def test_single_point_interpolation_limit(self):
        k = RbfKernel(1.0, 1.0)
        x, y = np.array([[0.3]]), np.array([1.7])
        pred = gp_predict(k, x, y, 1e-12, x)
        assert pred.mean[0] == pytest.approx(1.7, abs=1e-6)
        assert pred.var_f[0] == pytest.approx(0.0, abs=1e-6)

    def test_reverts_to_prior_far_away(self):
        k = RbfKernel(0.5, 1.8)
        x, y = np.zeros((3, 1)) + [[0.0], [0.1], [0.2]], np.array([1.0, 2.0, 3.0])
        pred = gp_predict(k, x, y, 0.1, np.array([[50.0]]))
        assert pred.mean[0] == pytest.approx(0.0, abs=1e-10)
        assert pred.var_f[0] == pytest.approx(1.8, abs=1e-10)

    def test_two_point_hand_instance(self):
        # lengthscale 1, signal 1, X = {0, 1}, y = (1, 2), sigma2 = 0.5,
        # x* = 0.5; the 2x2 inverse written out by hand (including the
        # 1e-10 jitter the implementation adds)
        r = math.exp(-0.5)
        ks = math.exp(-0.125)
        a = 1.0 + 0.5 + 1e-10
        det = a * a - r * r
        inv = np.array([[a, -r], [-r, a]]) / det
        kvec = np.array([ks, ks])
        y = np.array([1.0, 2.0])
        want_mean = kvec @ inv @ y
        want_var = 1.0 - kvec @ inv @ kvec
        pred = gp_predict(
            RbfKernel(1.0, 1.0), np.array([[0.0], [1.0]]), y, 0.5, np.array([[0.5]])
        )
        assert pred.mean[0] == pytest.approx(want_mean, abs=1e-10)
        assert pred.var_f[0] == pytest.approx(want_var, abs=1e-10)

    def test_variance_bounded_by_signal(self):
        rng = np.random.default_rng(2)
        k = RbfKernel(0.6, 1.1)
        x = rng.standard_normal((15, 2))
        y = rng.standard_normal(15)
        xt = rng.standard_normal((40, 2)) * 2
        pred = gp_predict(k, x, y, 0.05, xt)
        assert np.all(pred.var_f >= 0.0)
        assert np.all(pred.var_f <= 1.1 + 1e-8)

    def test_matches_dense_formulas(self):
        rng = np.random.default_rng(3)
        k = RbfKernel(0.9, 0.7)
        x = rng.standard_normal((10, 1))
        y = rng.standard_normal(10)
        xt = rng.standard_normal((4, 1))
        pred = gp_predict(k, x, y, 0.2, xt)
        kff = k.gram(x, x) + (0.2 + 1e-10) * np.eye(10)
        ksf = k.gram(xt, x)
        inv = np.linalg.inv(kff)
        np.testing.assert_allclose(pred.mean, ksf @ inv @ y, atol=1e-9)
        np.testing.assert_allclose(
            pred.var_f, np.diag(k.gram(xt, xt) - ksf @ inv @ ksf.T), atol=1e-9
        )


    def test_factors_the_gram_the_grid_scored(self):
        # three input columns and a signal variance that is not a power of
        # two: prediction factors, bit for bit, the jittered sv * unit that
        # the grid cell scored
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal((400, 3)), rng.standard_normal(400)
        seen = []

        def recording_cholesky(a):
            seen.append(a.copy())
            return numkit.cholesky(a)

        with mock.patch.object(baseline_gp, "cholesky", recording_cholesky):
            gp_predict(RbfKernel(0.9, 0.7), x, y, 0.1, x[:5])
            gp_log_marginal(0.7 * _train_gram(RbfKernel(0.9, 1.0), x), y, 0.1)
        assert len(seen) == 2
        assert seen[0].tobytes() == seen[1].tobytes()


class TestLogMarginal:
    def test_scalar_hand_value(self):
        # N=1, k(x,x)=1, sigma2=1, y=0: -0.5 log(4 pi)
        k = RbfKernel(1.0, 1.0)
        got = gp_log_marginal(_train_gram(k, np.array([[0.0]])), np.array([0.0]), 1.0)
        assert got == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal(n)
            k = RbfKernel(0.5 + rng.random(), 0.5 + rng.random())
            sig2 = 0.1 + rng.random()
            got = gp_log_marginal(_train_gram(k, x), y, sig2)
            cov = k.gram(x, x) + (sig2 + 1e-10) * np.eye(n)
            sign, logdet = np.linalg.slogdet(cov)
            want = -0.5 * (y @ np.linalg.solve(cov, y) + logdet + n * LOG_2PI)
            assert got == pytest.approx(want, abs=1e-8)

    def test_zero_targets_leave_only_log_det(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 1))
        k = RbfKernel(1.0, 1.0)
        got = gp_log_marginal(_train_gram(k, x), np.zeros(6), 0.3)
        cov = k.gram(x, x) + (0.3 + 1e-10) * np.eye(6)
        want = -0.5 * (np.linalg.slogdet(cov)[1] + 6 * LOG_2PI)
        assert got == pytest.approx(want, abs=1e-10)

    def test_exchangeable_under_row_permutation(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        k = RbfKernel(0.8, 1.2)
        base = gp_log_marginal(_train_gram(k, x), y, 0.2)
        for _ in range(5):
            perm = rng.permutation(12)
            assert gp_log_marginal(_train_gram(k, x[perm]), y[perm], 0.2) == pytest.approx(
                base, abs=1e-10
            )

    @pytest.mark.parametrize("failures", [0, 1, 2])
    def test_leaves_kff_unchanged(self, failures):
        # the jittered diagonal is written into kff for the factorisation,
        # then restored, on the retry path and when the retry fails too
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((7, 2)), rng.standard_normal(7)
        kff = _train_gram(RbfKernel(0.7, 1.3), x)
        before = kff.tobytes()
        calls = []

        def flaky_cholesky(a):
            calls.append(a.diagonal().copy())
            if len(calls) <= failures:
                raise NotPositiveDefiniteError(0, -1.0)
            return numkit.cholesky(a)

        with mock.patch.object(baseline_gp, "cholesky", flaky_cholesky):
            if failures == 2:
                with pytest.raises(NotPositiveDefiniteError):
                    gp_log_marginal(kff, y, 0.2)
            else:
                gp_log_marginal(kff, y, 0.2)
        assert kff.tobytes() == before
        assert len(calls) == min(failures + 1, 2)
        jitters = [baseline_gp._JITTER, baseline_gp._JITTER_RETRY]
        for diag, jitter in zip(calls, jitters):
            assert diag.tobytes() == ((np.diag(kff) + 0.2) + jitter).tobytes()

    def test_gram_must_match_targets(self):
        with pytest.raises(ParameterError):
            gp_log_marginal(np.eye(3), np.zeros(2), 0.1)
        with pytest.raises(ParameterError):
            gp_log_marginal(np.ones(3), np.zeros(3), 0.1)


class TestGridFit:
    def test_single_cell(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 1))
        y = rng.standard_normal(8)
        fit = gp_fit_grid(x, y, [0.7], [1.3], [0.2])
        assert fit.kernel.lengthscale == 0.7
        assert fit.kernel.signal_variance == 1.3
        assert fit.sigma2 == 0.2
        assert fit.log_marginal == pytest.approx(
            gp_log_marginal(_train_gram(fit.kernel, x), y, 0.2)
        )

    def test_argmax_over_grid(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 1))
        y = np.sin(2 * x[:, 0]) + 0.1 * rng.standard_normal(20)
        ls_grid, sv_grid, s2_grid = [0.2, 0.5, 1.0, 2.0], [0.5, 1.0], [0.01, 0.1, 1.0]
        fit = gp_fit_grid(x, y, ls_grid, sv_grid, s2_grid)
        best = max(
            gp_log_marginal(_train_gram(RbfKernel(l, v), x), y, s)
            for l in ls_grid
            for v in sv_grid
            for s in s2_grid
        )
        assert fit.log_marginal == pytest.approx(best, rel=1e-12)

    def test_recovers_known_lengthscale(self):
        # data drawn from an RBF GP with lengthscale 1: selection lands
        # within one grid step in at least 9 of 10 seeded runs
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = np.sort(rng.uniform(-4, 4, 60)).reshape(-1, 1)
            k = RbfKernel(1.0, 1.0).gram(x, x) + 1e-8 * np.eye(60)
            f = np.linalg.cholesky(k) @ rng.standard_normal(60)
            y = f + 0.1 * rng.standard_normal(60)
            fit = gp_fit_grid(x, y, grid, [0.5, 1.0, 2.0], [0.01, 0.1])
            if fit.kernel.lengthscale in (0.5, 1.0, 2.0):
                hits += 1
        assert hits >= 9

    def test_pure_noise_prefers_large_noise_cell(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            x = rng.standard_normal((50, 1))
            y = rng.standard_normal(50)  # no signal at all
            fit = gp_fit_grid(x, y, [0.5, 1.0], [0.1, 1.0], [0.01, 1.0])
            if fit.sigma2 == 1.0:
                hits += 1
        assert hits >= 9

    def test_tie_break_smallest_lengthscale_then_sigma2(self):
        # constant-zero targets with a fixed signal variance: the marginal
        # only depends on the log determinant... not constant across cells,
        # so force ties with a degenerate single-point dataset instead
        x, y = np.array([[0.0]]), np.array([0.0])
        fit = gp_fit_grid(x, y, [2.0, 1.0], [1.0], [0.5, 0.5 + 0.0])
        # with one point the marginal ignores the lengthscale entirely
        assert fit.kernel.lengthscale == 1.0
        assert fit.sigma2 == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            gp_fit_grid(np.zeros((2, 1)), np.zeros(2), [], [1.0], [0.1])


def _is_power_of_two(v):
    return math.frexp(v)[0] == 0.5


class TestGridMatchesPerCellOracle:
    """The shared unit Gram against the per-cell composition it replaced.

    Scaling an exactly symmetric Gram by sv commutes with the symmetrising
    average when no entry rounds: always with one input column (the Gram is
    already symmetric), and with sv a power of two while no entry is
    subnormal. Elsewhere the two differ in the last bits.
    """

    # BLAS returns x @ x.T with asymmetric last bits only from a few hundred
    # rows on, so n reaches 320
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 320),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lengthscales=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
        signal_variances=st.one_of(
            st.lists(st.integers(-3, 3).map(lambda e: 2.0**e), min_size=1, max_size=3),
            st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3),
        ),
        sigma2s=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=3),
    )
    def test_fit_equals_the_per_cell_oracle(
        self, n, d, seed, lengthscales, signal_variances, sigma2s
    ):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((n, d)), rng.standard_normal(n)
        fit = gp_fit_grid(x, y, lengthscales, signal_variances, sigma2s)
        cells, want = {}, None
        for ls in sorted(lengthscales):
            for sig2 in sorted(sigma2s):
                for sv in sorted(signal_variances):
                    lm = _per_cell_log_marginal(RbfKernel(ls, sv), x, y, sig2)
                    cells[ls, sv, sig2] = lm
                    if want is None or lm > want.log_marginal:
                        want = GpFit(RbfKernel(ls, sv), sig2, lm)
        units = [RbfKernel(ls, 1.0).gram(x, x) for ls in lengthscales]
        subnormal = any(
            np.any((u != 0.0) & (u < np.finfo(float).tiny)) for u in units
        )
        if d == 1 or (all(map(_is_power_of_two, signal_variances)) and not subnormal):
            assert fit == want
            assert fit.log_marginal.hex() == want.log_marginal.hex()
        else:
            # a near tie may pick another cell; its score is still the oracle's
            got = cells[fit.kernel.lengthscale, fit.kernel.signal_variance, fit.sigma2]
            assert fit.log_marginal == pytest.approx(got, rel=1e-13)
            assert fit.log_marginal == pytest.approx(want.log_marginal, rel=1e-13)


def test_grid_peak_memory_is_three_gram_arrays():
    # one unit Gram, the scaled cell Gram and its Cholesky factor; a copy of
    # the cell Gram inside gp_log_marginal would make it four
    n = 400
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal((n, 2)), rng.standard_normal(n)
    tracemalloc.start()
    try:
        gp_fit_grid(
            x, y, DEFAULT_GP_LENGTHSCALES, DEFAULT_GP_SIGNAL_VARIANCES, DEFAULT_GP_SIGMA2S
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 3 * n * n * 8
