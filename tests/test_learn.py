"""Classifier training, grid search, and persistence contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdapred.errors import DegenerateDataError, DivergenceError
from gdapred.learn import (
    GaussianNaiveBayes,
    GridSpec,
    MLPClassifier,
    RandomForestClassifier,
    fit,
    grid_search,
    load_model,
    make_classifier,
    mlp_gradient_check,
    stratified_kfold,
)
from gdapred.learn.forest import _gini_best_split

from helpers import oracle_gini_best_split


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


class TestMlp:
    def test_xor_with_four_hidden_units(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = MLPClassifier(hidden_layers=(4,), learning_rate=0.05,
                              epochs=5000, batch_size=4, seed=0).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_gradient_check_random_points(self):
        worst = max(mlp_gradient_check((2, 8, 1), seed=s) for s in range(20))
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


class TestGridSearch:
    def data(self, n=40, seed=13):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(int)
        return X, y

    def test_single_combination_selected(self):
        X, y = self.data()
        grid = GridSpec({"n_trees": [5]}, fold_count=3)
        best, model = grid_search("random_forest", X, y, grid, seed=0)
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


class TestDispatcher:
    def test_fit_by_kind(self):
        X, y = separable_1d()
        model = fit("gaussian_nb", X, y)
        assert (model.predict(X) == y).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_classifier("xgboost")

    def test_get_set_params(self):
        model = RandomForestClassifier(n_trees=9)
        assert model.get_params()["n_trees"] == 9
        model.set_params(n_trees=3)
        assert model.n_trees == 3
        with pytest.raises(ValueError):
            model.set_params(bogus=1)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError, match="not fitted"):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_clone_copies_params_not_state(self):
        X, y = separable_1d()
        model = RandomForestClassifier(n_trees=3, seed=5).fit(X, y)
        twin = model.clone()
        assert twin.get_params() == model.get_params()
        assert not hasattr(twin, "trees_")

    def test_feature_dimension_checked_at_predict(self):
        X, y = separable_1d()
        model = GaussianNaiveBayes().fit(X, y)
        with pytest.raises(ValueError, match="dimension"):
            model.predict_proba(np.zeros((2, 3)))
