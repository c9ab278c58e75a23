"""Classifier training, grid search, and persistence contracts."""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdapred.errors import (
    ConfigurationError,
    DegenerateDataError,
    DivergenceError,
    IntegrityError,
)
from gdapred.learn import (
    CLASSIFIER_KINDS,
    DEFAULT_GRIDS,
    GaussianNaiveBayes,
    GridSpec,
    MLPClassifier,
    RandomForestClassifier,
    grid_search,
    load_model,
    make_classifier,
    stratified_kfold,
)
from gdapred.learn import forest
from gdapred.learn.forest import _dense_ranks, _level_splits

from helpers import mlp_gradient_error, oracle_forest, oracle_gini_best_split


def separable_1d(n=30, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    neg = -margin - rng.random(n)
    pos = margin + rng.random(n)
    X = np.concatenate([neg, pos]).reshape(-1, 1)
    y = np.array([0] * n + [1] * n)
    return X, y


class TestRandomForest:
    def test_single_tree_separable(self):
        X, y = separable_1d()
        model = RandomForestClassifier(n_trees=1, seed=0).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_probability_contract(self):
        X, y = separable_1d()
        proba = RandomForestClassifier(n_trees=5, seed=1).fit(X, y).predict_proba(X)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_unanimous_forest_probability_one(self):
        X, y = separable_1d()
        model = RandomForestClassifier(n_trees=7, seed=2).fit(X, y)
        pos = model.predict_proba(np.array([[5.0]]))[0, 1]
        assert pos == 1.0

    def test_accuracy_nondecreasing_in_tree_count(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 4))
        y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
        accs = []
        for n_trees in (1, 5, 25, 100):
            model = RandomForestClassifier(n_trees=n_trees, seed=9).fit(X, y)
            accs.append((model.predict(X) == y).mean())
        assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))

    def test_single_label_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(DegenerateDataError):
            RandomForestClassifier().fit(X, [1, 1, 1, 1])

    def test_nan_features_rejected(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(X, [0, 1])

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0).astype(int)
        a = RandomForestClassifier(n_trees=10, seed=3).fit(X, y)
        b = RandomForestClassifier(n_trees=10, seed=3).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    @pytest.mark.parametrize("params", [
        {"n_trees": 0}, {"n_trees": -2}, {"max_depth": 0}, {"max_depth": -1},
        {"min_samples_split": 1}, {"max_features": 3},
        {"max_features": "log2"}], ids=str)
    def test_bad_hyperparameters_rejected(self, params):
        with pytest.raises(ConfigurationError):
            RandomForestClassifier(**params)


class TestLevelWiseForest:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 60), n_features=st.integers(1, 8),
           levels=st.sampled_from([0, 1, 2, 3]), n_trees=st.integers(1, 4),
           max_depth=st.sampled_from([None, 1, 3]),
           min_samples_split=st.integers(2, 5),
           max_features=st.sampled_from(["sqrt", None]),
           group_rows=st.sampled_from([forest._GROUP_ROWS, 1, 70]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_node_oracle(self, n, n_features, levels, n_trees,
                                    max_depth, min_samples_split, max_features,
                                    group_rows, seed):
        # levels 1 makes every feature constant, 2 and 3 tie values, 0
        # draws continuous ones; about a quarter of the features are constant
        rng = np.random.default_rng(seed)
        if levels:
            X = rng.integers(0, levels, size=(n, n_features)).astype(np.float64)
        else:
            X = rng.normal(size=(n, n_features))
        X[:, rng.random(n_features) < 0.25] = 1.0
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        params = {"n_trees": n_trees, "max_depth": max_depth,
                  "max_features": max_features,
                  "min_samples_split": min_samples_split, "seed": seed % 1000}
        # a small group size grows one fit's trees in several groups
        with mock.patch.object(forest, "_GROUP_ROWS", group_rows):
            trees = RandomForestClassifier(**params).fit(X, y).trees_
        assert trees == oracle_forest(X, y, **params)


def _gini_best_split(X, y, feature_indices):
    """The forest's level-wise split search on one node holding every
    row of ``X``, in the oracle's (feature, threshold, gini) form."""
    f, t, w = _level_splits(X, _dense_ranks(X), y, np.arange(y.size),
                            np.array([0]), np.asarray(feature_indices)[None, :])
    if f[0] < 0:
        return (None, None, np.inf)
    return (int(f[0]), float(t[0]), float(w[0]))


class TestGiniBestSplit:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 30), n_features=st.integers(1, 6),
           levels=st.sampled_from([1, 2, 3, 0]), seed=st.integers(0, 2**32 - 1))
    @example(n=1, n_features=3, levels=0, seed=0)
    @example(n=5, n_features=4, levels=1, seed=0)
    def test_matches_per_feature_loop(self, n, n_features, levels, seed):
        # levels 1 makes every feature constant, 2 and 3 force tied values,
        # 0 draws continuous values
        rng = np.random.default_rng(seed)
        if levels:
            X = rng.integers(0, levels, size=(n, n_features)).astype(np.float64)
        else:
            X = rng.normal(size=(n, n_features))
        y = rng.integers(0, 2, size=n)
        k = int(rng.integers(1, n_features + 1))
        features = np.sort(rng.choice(n_features, size=k, replace=False))
        assert _gini_best_split(X, y, features) == oracle_gini_best_split(X, y, features)

    def test_ties_keep_first_sampled_feature(self):
        # both features split the labels perfectly at the same threshold
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        assert _gini_best_split(X, y, np.array([0, 1])) == (0, 0.5, 0.0)
        assert _gini_best_split(X, y, np.array([1])) == (1, 0.5, 0.0)

    def test_rounding_level_gain_keeps_first_feature(self):
        # both features reach Gini 1/3; feature 1's value rounds 6e-17 lower
        X = np.array([[3.0, 1.0], [0.0, 0.0], [1.0, 3.0], [3.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        assert _gini_best_split(X, y, np.array([1]))[2] < 1.0 / 3.0
        assert _gini_best_split(X, y, np.array([0, 1])) == (0, 0.5, 1.0 / 3.0)

    def test_no_candidate_split(self):
        y = np.array([0, 1, 0])
        assert _gini_best_split(np.ones((3, 2)), y, np.array([0, 1]))[0] is None
        assert _gini_best_split(np.ones((1, 2)), y[:1], np.array([0, 1]))[0] is None


class TestGaussianNaiveBayes:
    def test_equal_likelihoods_follow_prior(self):
        # identical class distributions, 2:1 prior for label 1
        X = np.array([[0.0], [0.0], [0.0]])
        y = np.array([0, 1, 1])
        model = GaussianNaiveBayes().fit(X, y)
        assert model.predict(np.array([[0.0]]))[0] == 1

    def test_symmetric_likelihoods_equal_priors(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = GaussianNaiveBayes().fit(X, y)
        proba = model.predict_proba(np.array([[0.0]]))
        assert proba[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6))
        y = (X[:, 2] > 0).astype(int)
        perm = rng.permutation(6)
        direct = GaussianNaiveBayes().fit(X, y).predict_proba(X)
        permuted = GaussianNaiveBayes().fit(X[:, perm], y).predict_proba(X[:, perm])
        assert np.allclose(direct, permuted, atol=1e-12)

    def test_constant_features_survive(self):
        X = np.array([[1.0, -2.0], [1.0, 3.0], [1.0, -1.0], [1.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        proba = GaussianNaiveBayes().fit(X, y).predict_proba(X)
        assert np.all(np.isfinite(proba))

    def test_probability_contract(self):
        X, y = separable_1d()
        proba = GaussianNaiveBayes().fit(X, y).predict_proba(X)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("value", [-1e-9, np.nan, np.inf, True, "1e-9"],
                             ids=repr)
    def test_bad_var_smoothing_rejected(self, value):
        with pytest.raises(ConfigurationError, match="var_smoothing"):
            GaussianNaiveBayes(var_smoothing=value)

    def test_zero_var_smoothing_allowed(self):
        X, y = separable_1d()
        proba = GaussianNaiveBayes(var_smoothing=0).fit(X, y).predict_proba(X)
        assert np.all(np.isfinite(proba))


class TestMlp:
    def test_xor_with_four_hidden_units(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = MLPClassifier(hidden_layers=(4,), learning_rate=0.05,
                              epochs=5000, batch_size=4, seed=0).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_gradient_check_random_points(self):
        worst = max(mlp_gradient_error((2, 8, 1), seed=s) for s in range(20))
        assert worst < 1e-4

    def test_zero_network_zero_input_hidden_gradients(self):
        from gdapred.learn.mlp import _backward
        params = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1))]
        grads = _backward(params, np.zeros((2, 3)), np.array([1.0, 0.0]))
        assert np.all(grads[0][0] == 0.0)
        assert np.all(grads[0][1] == 0.0)

    def test_converged_gradient_is_small(self):
        X, y = separable_1d(n=10)
        model = MLPClassifier(hidden_layers=(4,), learning_rate=0.5,
                              epochs=20000, batch_size=20, seed=0).fit(X, y)
        from gdapred.learn.mlp import _backward
        grads = _backward(model.params_, X, y.astype(float))
        norm = np.sqrt(sum(float(np.sum(g**2) + np.sum(b**2)) for g, b in grads))
        assert norm < 1e-6

    def test_seed_determinism(self):
        X, y = separable_1d(n=15)
        a = MLPClassifier(epochs=20, seed=4).fit(X, y)
        b = MLPClassifier(epochs=20, seed=4).fit(X, y)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_probability_contract_extreme_inputs(self):
        X, y = separable_1d(n=15)
        model = MLPClassifier(hidden_layers=(4,), epochs=50, seed=1).fit(X, y)
        wild = np.array([[1e6], [-1e6], [0.0]])
        proba = model.predict_proba(wild)
        assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_typed(self):
        X, y = separable_1d()
        with pytest.raises(DivergenceError,
                           match=r"non-finite weights at epoch \d+ \(learning_rate=1e\+200\)"):
            MLPClassifier(learning_rate=1e200, epochs=20, seed=0).fit(X, y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_fit_leaves_the_model_unfitted(self):
        X, y = separable_1d()
        model = MLPClassifier(learning_rate=1e200, epochs=20, seed=0)
        with pytest.raises(DivergenceError):
            model.fit(X, y)
        with pytest.raises(ValueError, match="not fitted"):
            model.predict_proba(X)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("epochs", -1), ("epochs", 2.5), ("epochs", True),
        ("batch_size", 0), ("batch_size", 8.0),
        ("hidden_layers", (0,)), ("hidden_layers", (4, -1)),
        ("hidden_layers", (2.5,)), ("hidden_layers", 100),
        ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("learning_rate", "0.01"),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", np.nan),
        ("seed", -1), ("seed", 1.5)], ids=repr)
    def test_bad_hyperparameters_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            MLPClassifier(**{name: value})

    def test_hidden_layers_kept_as_a_tuple(self):
        assert MLPClassifier(hidden_layers=[4, 2]).hidden_layers == (4, 2)
        model = make_classifier("mlp", {"hidden_layers": [3]})
        assert model.get_params()["hidden_layers"] == (3,)
        assert MLPClassifier(hidden_layers=[]).hidden_layers == ()


class TestGridSearch:
    def data(self, n=40, seed=13):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(int)
        return X, y

    def test_single_combination_selected(self):
        X, y = self.data()
        grid = GridSpec({"n_trees": [5]}, fold_count=3)
        make = functools.partial(make_classifier, "random_forest")
        best, model = grid_search(make, X, y, grid, seed=0)
        assert best == {"n_trees": 5}
        assert model.n_trees == 5

    def test_dominant_combination_wins(self):
        X, y = self.data(n=60)

        def make(params, seed):
            if params["useful"]:
                return make_classifier("random_forest", {"n_trees": 20}, seed)
            return _ConstantFeatureForest(seed)  # dominated on every fold

        grid = GridSpec({"useful": [False, True]}, fold_count=3)
        best, _ = grid_search(make, X, y, grid, seed=0)
        assert best == {"useful": True}

    def test_tie_takes_first_declared(self):
        X, y = self.data()

        def make(params, seed):
            # the flavour is a label only, so every fold scores a tie
            return make_classifier("random_forest", {"n_trees": 5}, seed)

        grid = GridSpec({"flavour": ["first", "second"]}, fold_count=3)
        best, _ = grid_search(make, X, y, grid, seed=0)
        assert best == {"flavour": "first"}

    def test_fold_with_single_label_rejected(self):
        X = np.ones((5, 1))
        y = np.array([1, 0, 0, 0, 0])
        with pytest.raises(DegenerateDataError):
            stratified_kfold(y, 2, seed=0)

    def test_fold_count_beyond_label_counts_allocates_nothing(self):
        # checked before one list per fold exists
        with pytest.raises(DegenerateDataError, match="1000000000 stratified folds"):
            stratified_kfold(np.array([0, 1] * 3), 10**9, seed=0)

    def test_folds_are_stratified_and_partition(self):
        y = np.array([1] * 9 + [0] * 6)
        folds = stratified_kfold(y, 3, seed=1)
        assert sorted(i for f in folds for i in f) == list(range(15))
        for fold in folds:
            assert sum(y[fold]) == 3
            assert len(fold) == 5


class _ConstantFeatureForest:
    """Predicts 0.5 everywhere; used to plant a dominated grid arm."""

    def __init__(self, seed):
        self.seed = seed

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.zeros(X.shape[0], dtype=np.int64)

    def predict_proba(self, X):
        return np.full((X.shape[0], 2), 0.5)


class TestLabelValidation:
    def test_fractional_labels_rejected(self):
        from gdapred.validation import as_labels
        assert as_labels([0.0, 1.0, 1]).tolist() == [0, 1, 1]
        with pytest.raises(ValueError, match="binary"):
            as_labels([0.5, 1.0])


#: valid hyperparameters of each kind, small enough to fit quickly
VALID_PARAMS = {
    "random_forest": st.fixed_dictionaries({
        "n_trees": st.integers(1, 4), "max_depth": st.none() | st.integers(1, 4),
        "max_features": st.sampled_from(["sqrt", None]),
        "min_samples_split": st.integers(2, 6), "seed": st.integers(0, 2**32)}),
    "gaussian_nb": st.fixed_dictionaries({"var_smoothing": st.floats(0.0, 1e3)}),
    "mlp": st.fixed_dictionaries({
        "hidden_layers": st.lists(st.integers(1, 5), max_size=2),
        "learning_rate": st.floats(1e-4, 0.5), "epochs": st.integers(1, 5),
        "batch_size": st.integers(1, 40), "momentum": st.floats(0.0, 0.95),
        "seed": st.integers(0, 2**32)}),
}


class TestPersistence:
    def roundtrip(self, model, X, tmp_path):
        path = tmp_path / "model.json"
        model.save(path)
        back = load_model(path)
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))
        assert back.get_params() == model.get_params()

    def test_forest(self, tmp_path):
        X, y = separable_1d()
        self.roundtrip(RandomForestClassifier(n_trees=4, seed=1).fit(X, y), X, tmp_path)

    def test_nb(self, tmp_path):
        X, y = separable_1d()
        self.roundtrip(GaussianNaiveBayes().fit(X, y), X, tmp_path)

    def test_mlp(self, tmp_path):
        X, y = separable_1d()
        model = MLPClassifier(hidden_layers=(4,), epochs=50, seed=2).fit(X, y)
        self.roundtrip(model, X, tmp_path)


class TestModelFiles:
    @pytest.mark.parametrize("kind", sorted(VALID_PARAMS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_roundtrip_over_valid_hyperparameters(self, kind, data,
                                                  tmp_path_factory):
        params = data.draw(VALID_PARAMS[kind])
        X, y = separable_1d(n=10, margin=0.2, seed=3)
        model = make_classifier(kind, params).fit(X, y)
        path = tmp_path_factory.mktemp("model") / "model.json"
        model.save(path)
        back = load_model(path)
        assert back.get_params() == model.get_params()
        grid = np.linspace(-3.0, 3.0, 61).reshape(-1, 1)
        assert np.array_equal(back.predict_proba(grid), model.predict_proba(grid))

    @pytest.mark.parametrize("damage, match", [
        (lambda p: p.update(kind="xgboost"), "unknown classifier kind 'xgboost'"),
        (lambda p: p["hyperparameters"].update(bogus=1), "bogus"),
        (lambda p: p["hyperparameters"].update(n_trees=0), "n_trees"),
        (lambda p: p.pop("parameters"), "lacks the key 'parameters'"),
        (lambda p: p["parameters"].pop("trees"), "lacks the key 'trees'"),
    ], ids=["kind", "unknown-hyperparameter", "bad-hyperparameter",
            "no-parameters", "no-trees"])
    def test_damaged_or_foreign_file_is_integrity_error(self, tmp_path, damage,
                                                        match):
        X, y = separable_1d()
        path = tmp_path / "model.json"
        RandomForestClassifier(n_trees=2, seed=1).fit(X, y).save(path)
        payload = json.loads(path.read_text())
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError, match=match) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_file_that_is_not_json_is_integrity_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "mlp"')
        with pytest.raises(IntegrityError, match="model.json"):
            load_model(path)


#: quick hyperparameters of each kind
FAST_PARAMS = {"random_forest": {"n_trees": 3}, "gaussian_nb": {},
               "mlp": {"hidden_layers": (4,), "epochs": 3}}


@pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
class TestClassifierContract:
    """What `BinaryClassifier` checks and keeps for every kind."""

    def assert_unfitted(self, model, tmp_path):
        with pytest.raises(ValueError, match="not fitted"):
            model.predict_proba(np.zeros((1, 1)))
        with pytest.raises(ValueError, match="not fitted"):
            model.save(tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_unfitted_model_neither_predicts_nor_saves(self, kind, tmp_path):
        self.assert_unfitted(make_classifier(kind, FAST_PARAMS[kind]), tmp_path)

    def test_single_label_fit_rejected(self, kind, tmp_path):
        model = make_classifier(kind, FAST_PARAMS[kind])
        with pytest.raises(DegenerateDataError, match="single label"):
            model.fit(np.ones((4, 1)), [1, 1, 1, 1])
        self.assert_unfitted(model, tmp_path)

    def test_wrong_width_rejected(self, kind):
        X, y = separable_1d(n=10)
        model = make_classifier(kind, FAST_PARAMS[kind]).fit(X, y)
        with pytest.raises(ValueError, match="feature dimension mismatch: "
                                             "trained with 1, got 3"):
            model.predict_proba(np.zeros((2, 3)))

    def test_fit_that_raised_leaves_the_model_unfitted(self, kind, tmp_path):
        X, y = separable_1d(n=10)
        model = make_classifier(kind, FAST_PARAMS[kind]).fit(X, y)
        with mock.patch.object(type(model), "_fit",
                               side_effect=DivergenceError("planted")):
            with pytest.raises(DivergenceError, match="planted"):
                model.fit(X, y)
        self.assert_unfitted(model, tmp_path)

    def test_saved_width_round_trips(self, kind, tmp_path):
        X, y = separable_1d(n=10)
        make_classifier(kind, FAST_PARAMS[kind]).fit(
            np.hstack([X, X]), y).save(tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text())[
            "parameters"]["n_features"] == 2
        assert load_model(tmp_path / "model.json").n_features_ == 2


class TestDispatcher:
    def test_kinds_and_params_come_from_the_classes(self):
        assert CLASSIFIER_KINDS == {"random_forest": RandomForestClassifier,
                                    "gaussian_nb": GaussianNaiveBayes,
                                    "mlp": MLPClassifier}
        model = RandomForestClassifier(n_trees=9)
        assert list(model.get_params().items()) == [
            ("n_trees", 9), ("max_depth", None), ("max_features", "sqrt"),
            ("min_samples_split", 2), ("seed", 0)]
        assert repr(model) == ("RandomForestClassifier(n_trees=9, max_depth=None, "
                               "max_features='sqrt', min_samples_split=2, seed=0)")
        # equality is identity, as for any fitted model
        assert model != RandomForestClassifier(n_trees=9)
        assert make_classifier("mlp", seed=4).seed == 4
        assert make_classifier("mlp", {"seed": 2}, seed=4).seed == 2

    @pytest.mark.parametrize("kind", sorted(DEFAULT_GRIDS))
    def test_every_default_grid_combination_constructs(self, kind):
        for params in GridSpec(DEFAULT_GRIDS[kind]).combinations():
            model = make_classifier(kind, params)
            for name, value in params.items():
                assert getattr(model, name) == value

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_classifier("xgboost")

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_feature_dimension_checked_at_predict(self):
        X, y = separable_1d()
        model = GaussianNaiveBayes().fit(X, y)
        with pytest.raises(ValueError, match="dimension"):
            model.predict_proba(np.zeros((2, 3)))
