import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vip.data import Dataset, compute_stats, standardize, synth_toy
from vip.errors import ContractError, ModelFileError
from vip.inference import TrainConfig, train
from vip.modelfile import (
    FORMAT_VERSION,
    canonical_json,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from vip.numkit import STREAM_PREDICT, Rng
from vip.predict import posterior_predict, predict_features
from vip.priors import init_prior, kernel_normaliser, sample_functions


def _small_model(seed=0, family="bnn"):
    ds = standardize(synth_toy(20, seed=3))
    cfg = TrainConfig(
        epochs=3,
        num_draws=4,
        hidden=(3,),
        prior_family=family,
        sigma2_mode="fixed",
        seed=seed,
    )
    return train(ds.x, ds.y, cfg, stats=ds.stats)


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        s = canonical_json({"b": 1, "a": [1.5, 2]})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")
        assert json.loads(s) == {"a": [1.5, 2], "b": 1}

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_stable_bytes(self):
        d = {"z": 0.1, "a": {"k": [3, 2, 1]}}
        assert canonical_json(d) == canonical_json(json.loads(canonical_json(d)))


class TestRoundTrip:
    @pytest.mark.parametrize("family", ["bnn", "ns"])
    def test_save_load_save_byte_identical(self, tmp_path, family):
        m = _small_model(family=family)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, tmp_path):
        m = _small_model()
        p = tmp_path / "m.json"
        save_model(m, str(p))
        m2 = load_model(str(p))
        assert m2.sigma2 == m.sigma2
        assert m2.config.seed == m.config.seed
        assert m2.config.to_dict() == m.config.to_dict()
        np.testing.assert_array_equal(m2.q.mu, m.q.mu)
        np.testing.assert_array_equal(m2.q.chol, m.q.chol)
        np.testing.assert_array_equal(m2.train_x, m.train_x)
        np.testing.assert_array_equal(m2.train_y, m.train_y)
        assert m2.stats.target_std == m.stats.target_std

    def test_a_replaced_config_seed_is_the_seed_saved_loaded_and_predicted_from(self, tmp_path):
        # the model once held its own copy of the seed: this model predicted
        # from stream 0 and saved a file that failed to load
        m = _small_model()
        m = replace(m, config=replace(m.config, seed=5))
        x = np.linspace(-1.0, 1.0, 6).reshape(-1, 1)
        draws = sample_functions(m.prior, x, 4, Rng(5, STREAM_PREDICT))
        want = predict_features(draws, m.q, m.sigma2, *kernel_normaliser(4, "mle"))
        p = tmp_path / "m.json"
        save_model(m, str(p))
        loaded = load_model(str(p))
        assert json.loads(p.read_text())["config"]["seed"] == loaded.config.seed == 5
        for model in (m, loaded):
            got = posterior_predict(model, x, mode="learned")
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.var_y.tobytes() == want.var_y.tobytes()

    @pytest.mark.parametrize("existing", [None, b"a model saved earlier\n"], ids=["new", "existing"])
    def test_failed_save_leaves_the_file_as_it_was(self, tmp_path, existing):
        m = _small_model()
        m.train_y = m.train_y.copy()
        m.train_y[0] = np.inf
        p = tmp_path / "m.json"
        if existing is not None:
            p.write_bytes(existing)
        with pytest.raises(ValueError):
            save_model(m, str(p))
        assert (p.read_bytes() if p.exists() else None) == existing

    # the file keeps the prior's settings only in the config and train.x's
    # width, so a model whose prior has others would load as another model
    @pytest.mark.parametrize("edit", [
        {"config": {"activation": "relu"}}, {"config": {"hidden": (4,)}},
        {"config": {"prior_family": "ns", "noise_dim": 2}}, {"train_x": np.zeros((20, 2))},
    ], ids=["activation", "hidden", "family", "train.x"])
    def test_model_whose_prior_does_not_have_its_config_settings_is_not_saved(self, tmp_path,
                                                                               edit):
        m = _small_model()
        m = replace(m, config=replace(m.config, **edit.get("config", {})),
                    train_x=edit.get("train_x", m.train_x))
        p = tmp_path / "m.json"
        with pytest.raises(ContractError, match="the model's prior does not have its config's"):
            save_model(m, str(p))
        assert not p.exists()

    def test_float_values_bitwise_exact(self, tmp_path):
        # json repr of a double parses back to the identical double
        m = _small_model(seed=9)
        p = tmp_path / "m.json"
        save_model(m, str(p))
        m2 = load_model(str(p))
        for (ka, va), (kb, vb) in zip(
            sorted(m.prior.params.items()), sorted(m2.prior.params.items())
        ):
            assert ka == kb
            np.testing.assert_array_equal(np.asarray(va), np.asarray(vb))


def _carrying(prior):
    """_small_model() with ``prior`` in place of its own, a config that
    describes it, train.x as wide as its inputs and no stats, so the model
    file fits the prior's arrays."""
    m = _small_model()
    config = replace(m.config, prior_family=prior.family, hidden=prior.layer_sizes[1:-1],
                     activation=prior.activation)
    if prior.family == "ns":
        config = replace(config, noise_dim=prior.noise_dim, noise_halfwidth=prior.noise_halfwidth)
    return replace(m, prior=prior, config=config, stats=None,
                   train_x=np.zeros((m.train_x.shape[0], prior.input_dim)))


class TestBlocks:
    # the prior and stats blocks, written and read only through the whole model
    def test_prior_round_trip_bnn(self):
        prior = init_prior("bnn", 2, (4,), "tanh", Rng(3, 0))
        back = model_from_dict(model_to_dict(_carrying(prior))).prior
        x = np.zeros((3, 2)) + [[0.1, -0.2]]
        a = sample_functions(prior, x, 4, Rng(5, 5)).values
        b = sample_functions(back, x, 4, Rng(5, 5)).values
        np.testing.assert_array_equal(a, b)

    def test_prior_round_trip_ns(self):
        prior = init_prior("ns", 2, (3,), "relu", Rng(4, 0), noise_dim=2, noise_halfwidth=0.5)
        back = model_from_dict(model_to_dict(_carrying(prior))).prior
        x = np.zeros((3, 2))
        np.testing.assert_array_equal(
            sample_functions(prior, x, 4, Rng(6, 0)).values,
            sample_functions(back, x, 4, Rng(6, 0)).values,
        )

    def test_prior_block_maps_each_parameter_name_to_its_matrix(self):
        m = _small_model(family="ns")
        prior = model_to_dict(m)["prior"]
        assert sorted(prior) == sorted(m.prior.params) == ["b_0", "b_1", "w_0", "w_1"]
        assert prior["w_0"] == m.prior.params["w_0"].tolist()

    def test_unknown_prior_family(self):
        d = model_to_dict(_small_model())
        d["config"]["prior_family"] = "gp"
        with pytest.raises(ModelFileError, match="config: unknown prior_family 'gp'"):
            model_from_dict(d)

    def test_prior_layer_array_count_checked(self):
        d = model_to_dict(_carrying(init_prior("bnn", 2, (4,), "tanh", Rng(0, 0))))
        d["prior"]["b_mean_2"] = [[0.0]]
        with pytest.raises(ModelFileError, match=r"a bnn prior with layers \(2, 4, 1\)"):
            model_from_dict(d)

    def test_stats_round_trip(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((40, 1)) * 3 + 1, rng.standard_normal(40) * 5
        s = compute_stats(Dataset(x, y))
        s2 = model_from_dict(model_to_dict(replace(_small_model(), stats=s))).stats
        np.testing.assert_array_equal(s.feature_means, s2.feature_means)
        assert s.target_std == s2.target_std


class TestRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["bnn", "ns"]),
        activation=st.sampled_from(["tanh", "relu"]),
        hidden=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        num_draws=st.integers(2, 5),
        sigma2_mode=st.sampled_from(["fixed", "learned"]),
        estimator=st.sampled_from(["mle", "pm"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_model_from_dict_round_trip_is_byte_stable(
        self, family, activation, hidden, num_draws, sigma2_mode, estimator, seed
    ):
        ds = standardize(synth_toy(12, seed=seed % 1000))
        cfg = TrainConfig(
            epochs=2, num_draws=num_draws, hidden=tuple(hidden), activation=activation,
            prior_family=family, sigma2_mode=sigma2_mode, estimator=estimator,
            noise_dim=2, seed=seed,
        )
        text = canonical_json(model_to_dict(train(ds.x, ds.y, cfg, stats=ds.stats)))
        again = canonical_json(model_to_dict(model_from_dict(json.loads(text))))
        assert again == text


class TestValidation:
    def test_version_checked(self, tmp_path):
        m = _small_model()
        d = model_to_dict(m)
        assert FORMAT_VERSION == 3 and sorted(d) == [
            "config", "format_version", "prior", "q", "sigma2", "stats", "train"
        ]
        for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):
            d["format_version"] = version
            with pytest.raises(ModelFileError, match=f"unsupported format_version {version}, "):
                model_from_dict(d)

    def test_missing_field(self):
        with pytest.raises(ModelFileError) as e:
            model_from_dict({"format_version": FORMAT_VERSION})
        assert "missing" in str(e.value)

    def test_not_an_object(self):
        with pytest.raises(ModelFileError):
            model_from_dict([1, 2, 3])

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{not json")
        with pytest.raises(ModelFileError):
            load_model(str(p))

    def test_unknown_config_key_rejected(self, tmp_path):
        m = _small_model()
        d = model_to_dict(m)
        d["config"]["learning_rte"] = 0.1
        with pytest.raises(Exception):
            model_from_dict(d)

    def test_train_x_width_checked_against_the_prior_arrays(self):
        # train.x gives the prior's input width, so its first weights must fit it
        d = model_to_dict(_small_model())
        d["train"]["x"] = [row + [0.0] for row in d["train"]["x"]]
        with pytest.raises(ModelFileError, match=r"prior\.w_mean_0 must be \(2, 3\), got \(1, 3\)"):
            model_from_dict(d)

    def test_train_y_length_checked_against_train_x(self):
        d = model_to_dict(_small_model())
        d["train"]["y"].append(0.0)
        with pytest.raises(ModelFileError, match=r"train\.y .*train\.x has 20 rows"):
            model_from_dict(d)

    def test_q_dimension_checked_against_num_draws(self):
        d = model_to_dict(_small_model())
        d["config"]["num_draws"] = 5
        with pytest.raises(ModelFileError, match=r"q has dimension 4, config\.num_draws is 5"):
            model_from_dict(d)
