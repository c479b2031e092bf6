import math
from dataclasses import replace

import numpy as np
import pytest

import vip.bench as bench
from vip import baseline_gp, numkit
from vip import predict as pr
from vip.bench import gp_baseline_protocol, grid_search_sigma2, run_protocol
from vip.data import Dataset, apply_stats, compute_stats, load_csv
from vip.errors import ParameterError
from vip.inference import TrainConfig, train
from vip.modelfile import canonical_json

TINY = dict(epochs=4, num_draws=4, hidden=(3,), sigma2_mode="fixed")


def _standardized(seed, n=60, noise_var=0.1):
    """1-d data whose standardized noise variance is close to noise_var."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3, 3, n))
    f = np.sin(1.5 * x)
    f = f / f.std() * math.sqrt(1.0 - noise_var)
    y = f + math.sqrt(noise_var) * rng.standard_normal(n)
    ds = Dataset(x.reshape(-1, 1), y)
    return apply_stats(ds, compute_stats(ds))


class TestGridSearch:
    def test_single_element_grid_trains_once(self, monkeypatch):
        calls = []
        real_train = bench.train

        def counting_train(*a, **k):
            calls.append(1)
            return real_train(*a, **k)

        monkeypatch.setattr(bench, "train", counting_train)
        ds = _standardized(0, n=30)
        res = grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=(0.3,), seed=1))
        assert res.sigma2 == 0.3
        assert len(calls) == 1

    def test_two_element_grid_trains_twice(self, monkeypatch):
        calls = []
        real_train = bench.train

        def counting_train(*a, **k):
            calls.append(1)
            return real_train(*a, **k)

        monkeypatch.setattr(bench, "train", counting_train)
        ds = _standardized(1, n=30)
        grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=(0.1, 0.5), seed=1))
        assert len(calls) == 2

    def test_tie_breaks_to_smallest(self, monkeypatch):
        monkeypatch.setattr(bench, "nll_rmse", lambda *a, **k: {"nll": 1.0, "rmse": 1.0})
        ds = _standardized(2, n=30)
        res = grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=(0.5, 0.05, 0.1), seed=3))
        assert res.sigma2 == 0.05

    def test_validation(self):
        ds = _standardized(3, n=30)
        with pytest.raises(ParameterError):
            grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=()))
        with pytest.raises(ParameterError):
            grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=(0.1, -0.2)))

    def test_recovers_noise_level_within_one_step(self):
        # standardized noise variance is ~0.1 by construction; the selected
        # value should land within one grid step of it in >= 80% of runs
        cfg = TrainConfig(
            epochs=200, num_draws=10, hidden=(10,), sigma2_mode="fixed", sigma2=0.1,
            sigma2_grid=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0),
        )
        hits = 0
        for seed in range(10):
            ds = _standardized(100 + seed, n=150)
            res = grid_search_sigma2(ds, replace(cfg, seed=seed))
            if res.sigma2 in (0.05, 0.1, 0.25):
                hits += 1
        assert hits >= 8

    def test_final_model_trained_at_selected_value(self):
        ds = _standardized(4, n=40)
        res = grid_search_sigma2(ds, TrainConfig(**TINY, sigma2_grid=(0.05, 0.5), seed=7))
        assert res.sigma2 in (0.05, 0.5)
        assert res.config.sigma2_mode == "fixed"
        assert res.config.sigma2 == res.sigma2


class TestRunProtocol:
    def test_toy_schema_and_split_count(self):
        cfg = TrainConfig(**TINY)
        rep = run_protocol("toy", cfg, splits=3, seed=5, toy_n=40)
        assert set(rep) == {
            "protocol", "splits", "seed",
            "nll_mean", "nll_se", "rmse_mean", "rmse_se", "per_split",
        }
        assert rep["protocol"] == "toy"
        assert len(rep["per_split"]) == 3
        for k, p in enumerate(rep["per_split"]):
            assert p["split"] == k
            assert set(p) == {"split", "seed", "sigma2", "nll", "rmse"}

    def test_deterministic_bytes(self):
        cfg = TrainConfig(**TINY)
        a = canonical_json(run_protocol("toy", cfg, splits=2, seed=9, toy_n=30))
        b = canonical_json(run_protocol("toy", cfg, splits=2, seed=9, toy_n=30))
        assert a == b
        c = canonical_json(run_protocol("toy", cfg, splits=2, seed=10, toy_n=30))
        assert a != c

    def test_extra_splits_leave_earlier_ones_alone(self):
        cfg = TrainConfig(**TINY)
        two = run_protocol("toy", cfg, splits=2, seed=3, toy_n=30)
        three = run_protocol("toy", cfg, splits=3, seed=3, toy_n=30)
        assert two["per_split"] == three["per_split"][:2]

    def test_uci_style_split_protocol(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        y = x[:, 0] + 0.1 * rng.standard_normal(50)
        lines = "\n".join(f"{a},{b},{c}" for (a, b), c in zip(x, y))
        p = tmp_path / "d.csv"
        p.write_text(lines + "\n")
        data = load_csv(str(p))
        rep = run_protocol("uci", TrainConfig(**TINY), data=data, splits=2, seed=1)
        assert len(rep["per_split"]) == 2
        assert np.isfinite(rep["nll_mean"])

    def test_interp_protocol(self):
        rng = np.random.default_rng(1)
        x = np.linspace(-3, 3, 80)
        data = Dataset(x.reshape(-1, 1), np.sin(x) + 0.05 * rng.standard_normal(80))
        rep = run_protocol(
            "interp", TrainConfig(**TINY), data=data, splits=2, seed=2,
            n_segments=2, segment_len=8,
        )
        assert len(rep["per_split"]) == 2

    def test_grid_mode_routes_through_search(self):
        cfg = TrainConfig(
            epochs=4, num_draws=4, hidden=(3,), sigma2_mode="grid",
            sigma2_grid=(0.1, 0.5),
        )
        rep = run_protocol("toy", cfg, splits=1, seed=4, toy_n=40)
        assert rep["per_split"][0]["sigma2"] in (0.1, 0.5)

    def test_bad_args(self):
        cfg = TrainConfig(**TINY)
        with pytest.raises(ParameterError):
            run_protocol("cv", cfg)
        with pytest.raises(ParameterError):
            run_protocol("uci", cfg, data=None)
        with pytest.raises(ParameterError):
            run_protocol("toy", cfg, splits=0)

    @pytest.mark.parametrize("run", [
        lambda **kw: run_protocol("toy", TrainConfig(**TINY), **kw),
        lambda **kw: gp_baseline_protocol("toy", **kw),
    ], ids=["run_protocol", "gp_baseline_protocol"])
    def test_misspelt_option_is_named(self, run):
        # the options are read from a table by name, so an unknown one must
        # fail rather than fall through to its default
        with pytest.raises(ParameterError, match="^unknown protocol options: toy_m$"):
            run(toy_m=3)

    def test_metrics_reported_on_original_scale(self):
        # targets shifted far from zero: standardized-scale rmse would be
        # near 1, original-scale rmse near the raw residual size
        rng = np.random.default_rng(5)
        x = np.linspace(-2, 2, 60)
        y = 100.0 + 5.0 * x + 0.1 * rng.standard_normal(60)
        data = Dataset(x.reshape(-1, 1), y)
        rep = run_protocol(
            "uci",
            TrainConfig(epochs=150, num_draws=8, hidden=(6,), sigma2_mode="fixed"),
            data=data, splits=1, seed=6,
        )
        assert rep["rmse_mean"] < 3.0  # raw units, not standardized


class TestGpBaseline:
    def test_schema(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-3, 3, 50)
        data = Dataset(x.reshape(-1, 1), np.sin(x) + 0.1 * rng.standard_normal(50))
        rep = gp_baseline_protocol("uci", data=data, splits=2, seed=1)
        assert rep["model"] == "gp_rbf_baseline"
        assert len(rep["per_split"]) == 2
        for p in rep["per_split"]:
            assert {"lengthscale", "signal_variance", "sigma2", "log_marginal"} <= set(p)

    def test_toy_protocol_beats_trivial_predictor(self):
        rep = gp_baseline_protocol("toy", splits=2, seed=2, toy_n=120)
        # predicting the mean would give rmse near the target std (~0.5);
        # a fitted GP on 120 clean-ish points does far better
        assert rep["rmse_mean"] < 0.3

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = np.linspace(-2, 2, 40)
        data = Dataset(x.reshape(-1, 1), np.cos(x) + 0.1 * rng.standard_normal(40))
        a = canonical_json(gp_baseline_protocol("uci", data=data, splits=2, seed=3))
        b = canonical_json(gp_baseline_protocol("uci", data=data, splits=2, seed=3))
        assert a == b


def _toy_exact(family, estimator):
    cfg = TrainConfig(**TINY, prior_family=family, estimator=estimator,
                      psi=0.3 if estimator == "pm" else 0.0)
    run_protocol("toy", cfg, splits=1, seed=2, toy_n=60)


def _learned():
    ds = _standardized(2, n=30)
    pr.posterior_predict(train(ds.x, ds.y, TrainConfig(**TINY)), ds.x, mode="learned")


def _exact_three_features():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 3))
    y = np.sin(x.sum(axis=1)) + 0.1 * rng.standard_normal(40)
    pr.posterior_predict(train(x, y, TrainConfig(**TINY)), x, mode="exact")


def _gp_eight_columns():
    # 270 training rows of 8 columns: a Gram whose inner products came from
    # a general product would have asymmetric last bits at this shape
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 8))
    data = Dataset(x, np.sin(x[:, 0]) + 0.1 * rng.standard_normal(300))
    gp_baseline_protocol("uci", data=data, splits=1)


@pytest.mark.parametrize(
    "path, min_calls",
    [
        *[
            pytest.param(lambda f=f, e=e: _toy_exact(f, e), 1, id=f"toy-{f}-{e}")
            for f in ("bnn", "ns") for e in ("mle", "pm")
        ],
        pytest.param(_exact_three_features, 1, id="exact-3-features"),
        # the learned route factors nothing today; it runs here so that a
        # factorisation added to it is checked too
        pytest.param(_learned, 0, id="learned"),
        pytest.param(
            lambda: grid_search_sigma2(
                _standardized(0, n=30), TrainConfig(**TINY, sigma2_grid=(0.1, 0.5), seed=1)
            ),
            1, id="sigma2-grid",
        ),
        pytest.param(
            lambda: gp_baseline_protocol("toy", splits=1, toy_n=60), 1, id="gp-baseline"
        ),
        pytest.param(_gp_eight_columns, 1, id="gp-baseline-8-columns"),
    ],
)
def test_every_factored_matrix_is_exactly_symmetric(monkeypatch, path, min_calls):
    # numkit.cholesky reads only the lower triangle, as LAPACK does, so each
    # caller must build its matrix symmetric bit for bit
    real = numkit.cholesky
    symmetric = []

    def checked(a):
        symmetric.append(np.array_equal(a, a.T))
        return real(a)

    for module in (numkit, pr, baseline_gp):
        monkeypatch.setattr(module, "cholesky", checked)
    path()
    assert len(symmetric) >= min_calls and all(symmetric)
