"""Ensemble strategies: hand-worked rounds, equivalences, plan reuse."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from rfloc.core import _child_rng, _child_seed, validate_dataset
from rfloc.ensemble import (
    AdaBoostR2,
    BaggingEnsemble,
    ExtraTrees,
    GradientBoosting,
    HistGradientBoosting,
    RandomForest,
    StackingEnsemble,
    build_stacking_plan,
    gradient_boost_fit,
    quantile_bin_edges,
    stacking_fit_from_plan,
    weighted_median,
)
from rfloc.regressors import CartRegressor, Model, cart_fit, fit_on_dataset, knn_fit

from conftest import toy_dataset
from test_regressors import _grown_splits


def _dataset(X, Y):
    X = np.asarray(X, dtype=np.float64)
    return validate_dataset(X, Y, tuple(float(i + 1) for i in range(X.shape[1])))


class _FixedModel:
    """Duck-typed base member returning a fixed function of the features."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, X):
        return self.fn(np.asarray(X, dtype=np.float64))


class TestWeightedMedian:
    def test_odd_uniform(self):
        preds = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        assert weighted_median(preds, np.ones(3))[0, 0] == 2.0

    def test_heavy_member_wins(self):
        preds = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        assert weighted_median(preds, np.array([3.0, 1.0, 1.0]))[0, 0] == 1.0

    def test_even_tie_takes_lower(self):
        preds = np.array([1.0, 3.0]).reshape(2, 1, 1)
        assert weighted_median(preds, np.ones(2))[0, 0] == 1.0

    def test_per_output_independence(self):
        preds = np.array([[[1.0, 30.0]], [[2.0, 20.0]], [[3.0, 10.0]]])
        out = weighted_median(preds, np.ones(3))
        assert np.array_equal(out, [[2.0, 20.0]])

    def test_matches_plain_median_uniform_weights(self, rng):
        preds = rng.normal(size=(7, 5, 3))
        got = weighted_median(preds, np.ones(7))
        assert np.allclose(got, np.median(preds, axis=0))


class TestAdaBoost:
    @staticmethod
    def _bad_row_member(row):
        # a member that errs by exactly 1 m on the given row and is perfect elsewhere
        def fn(Q):
            out = np.zeros((len(Q), 3))
            out[Q[:, 0] == row, 0] = 1.0
            return out

        return _FixedModel(fn)

    def test_hand_worked_round(self):
        train = _dataset(np.arange(5.0)[:, None], np.zeros((5, 3)))
        builder = lambda ds, seed: self._bad_row_member(0.0)
        m = fit_on_dataset(AdaBoostR2(builder, n_estimators=10, seed=0), train)
        # round 0: uniform weights, one relative loss of 1 -> avg loss 1/5
        assert m.avg_losses_[0] == pytest.approx(0.2, rel=1e-12)
        assert m.member_weights_[0] == pytest.approx(math.log(4.0), rel=1e-12)
        # round 1 sees avg loss 0.5 (row 0 now weighs 0.5) and stops; the round is discarded
        assert len(m.members_) == 1
        # reweighting: the bad row keeps 0.2, the others shrink by beta=0.25, so
        # after normalising row 1 weighs 0.125: a second member erring only there
        # has that average loss
        members = iter([self._bad_row_member(0.0), self._bad_row_member(1.0)])
        m = fit_on_dataset(AdaBoostR2(lambda ds, seed: next(members), n_estimators=2), train)
        assert m.avg_losses_[1] == 0.125
        assert m.member_weights_[1] == pytest.approx(math.log(7.0), rel=1e-12)

    def test_perfect_member_stops_with_unit_weight(self):
        X = np.arange(4.0)[:, None]
        Y = np.column_stack([X[:, 0], np.zeros(4), np.zeros(4)])
        builder = lambda ds, seed: _FixedModel(
            lambda Q: np.column_stack([Q[:, 0], np.zeros(len(Q)), np.zeros(len(Q))])
        )
        m = fit_on_dataset(AdaBoostR2(builder, n_estimators=10), _dataset(X, Y))
        assert len(m.members_) == 1
        assert m.member_weights_[0] == 1.0
        assert m.avg_losses_ == [0.0]

    def test_hopeless_first_round_is_kept(self):
        X = np.arange(4.0)[:, None]
        Y = np.tile([1.0, 0.0, 0.0], (4, 1))
        builder = lambda ds, seed: _FixedModel(lambda Q: np.zeros((len(Q), 3)))
        m = fit_on_dataset(AdaBoostR2(builder, n_estimators=10), _dataset(X, Y))
        assert len(m.members_) == 1
        assert m.avg_losses_[0] >= 0.5
        assert np.array_equal(m.predict(X), np.zeros((4, 3)))

    def test_boosting_tree_reduces_error(self, rng):
        ds = toy_dataset(n=80, m=4, seed=5)
        builder = lambda sub, seed: cart_fit(sub, max_depth=3)
        boosted = fit_on_dataset(AdaBoostR2(builder, n_estimators=15, seed=0), ds)
        single = cart_fit(ds, max_depth=3)
        e_b = np.linalg.norm(boosted.predict(ds.features) - ds.labels, axis=1).mean()
        e_s = np.linalg.norm(single.predict(ds.features) - ds.labels, axis=1).mean()
        assert e_b <= e_s

    def test_failing_base_is_reported(self):
        def bad(ds, seed):
            raise RuntimeError("boom")

        with pytest.raises(ValueError, match="round 0"):
            fit_on_dataset(AdaBoostR2(bad), toy_dataset(n=10, m=2))


class TestGradientBoosting:
    def test_single_stage_hand_value(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([0.0, 1.0])
        m = GradientBoosting(n_estimators=1, learning_rate=0.1).fit(X, Y)
        # mean 0.5 plus 0.1 of the fully fit residual +-0.5
        assert m.predict([[1.0]])[0, 0] == pytest.approx(0.55)
        assert m.predict([[0.0]])[0, 0] == pytest.approx(0.45)

    def test_rmse_path_decays_geometrically(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([0.0, 1.0])
        m = GradientBoosting(n_estimators=5, learning_rate=0.1).fit(X, Y)
        want = [0.5 * 0.9 ** (k + 1) for k in range(5)]
        assert np.allclose(m.train_rmse_path, want)

    def test_zero_stages_predicts_the_mean(self, rng):
        ds = toy_dataset(n=30, m=3, seed=1)
        m = gradient_boost_fit(ds, n_estimators=0)
        assert np.allclose(m.predict(ds.features[:4]), ds.labels.mean(axis=0))

    def test_multioutput_shape_and_improvement(self):
        ds = toy_dataset(n=60, m=4, seed=2)
        m = gradient_boost_fit(ds, n_estimators=30)
        assert m.predict(ds.features[:7]).shape == (7, 3)
        assert m.train_rmse_path[-1] < m.train_rmse_path[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientBoosting(n_estimators=-1)
        for cls in (GradientBoosting, HistGradientBoosting):
            with pytest.raises(ValueError, match="n_estimators must be an integer, got 2.5"):
                cls(n_estimators=2.5)
            with pytest.raises(ValueError, match="n_estimators must be an integer, got True"):
                cls(n_estimators=True)
        assert GradientBoosting(n_estimators=np.int64(3)).n_estimators == 3


    def test_predict_walks_the_stage_trees_without_rechecking_the_query(self, monkeypatch):
        ds = toy_dataset(n=40, m=3, seed=6)
        m = fit_on_dataset(GradientBoosting(n_estimators=4, learning_rate=0.3), ds)
        want = np.tile(m._base_value, (5, 1))
        for j, trees in enumerate(m._trees):
            for tree in trees:
                want[:, j] += m.learning_rate * tree.predict(ds.features[:5])[:, 0]
        calls = []
        real = CartRegressor.predict
        monkeypatch.setattr(CartRegressor, "predict", lambda self, X: calls.append(1) or real(self, X))
        assert np.array_equal(m.predict(ds.features[:5]), want)
        assert calls == []


class TestHistGradientBoosting:
    def test_bin_counts_few_distinct_values(self, rng):
        X = rng.integers(0, 10, size=(200, 1)).astype(np.float64)
        assert len(np.unique(X)) == 10
        Y = np.column_stack([X[:, 0], X[:, 0], X[:, 0]])
        m = HistGradientBoosting(n_estimators=2).fit(X, Y)
        assert m.bin_counts == [10]

    def test_lossless_binning_equals_plain_boosting(self, rng):
        X = rng.integers(0, 12, size=(150, 3)).astype(np.float64)
        Y = rng.normal(size=(150, 3)) + X.sum(axis=1, keepdims=True)
        a = HistGradientBoosting(n_estimators=10).fit(X, Y).predict(X)
        b = GradientBoosting(n_estimators=10).fit(X, Y).predict(X)
        assert np.array_equal(a, b)

    def test_bins_capped_on_continuous_data(self, rng):
        X = rng.normal(size=(3000, 1))
        Y = np.tile(X, (1, 3))
        m = fit_on_dataset(HistGradientBoosting(n_estimators=1, max_bins=16), _dataset(X, Y))
        assert m.bin_counts[0] <= 16

    def test_validation(self):
        with pytest.raises(ValueError):
            HistGradientBoosting(max_bins=1)
        with pytest.raises(ValueError):
            HistGradientBoosting(max_bins=257)

    def test_is_gradient_boosting_on_bin_codes(self):
        assert issubclass(HistGradientBoosting, GradientBoosting)
        with pytest.raises(ValueError, match="n_estimators must be >= 0, got -1"):
            HistGradientBoosting(n_estimators=-1)


class TestQuantileBinEdges:
    def test_few_distinct_values_use_midpoints(self):
        edges = quantile_bin_edges(np.array([1.0, 2.0, 4.0, 2.0, 1.0]), 256)
        assert np.array_equal(edges, [1.5, 3.0])

    def test_many_values_capped_and_increasing(self, rng):
        col = rng.normal(size=5000)
        edges = quantile_bin_edges(col, 32)
        assert len(edges) <= 31
        assert np.all(np.diff(edges) > 0)

    def test_heavy_ties_collapse(self):
        col = np.concatenate([np.zeros(990), np.arange(10.0)])
        edges = quantile_bin_edges(col, 8)
        assert np.all(np.diff(edges) > 0)


def _recording_knn(subs):
    """A 1-nn member builder that appends each member's training Dataset to subs."""

    def build(sub, seed):
        subs.append(sub)
        return knn_fit(sub, k=1)

    return build


def _member_rows(forest, n, r):
    """The training rows of a fitted forest's member r: its seeded bootstrap
    draw, or every row once."""
    return _child_rng(forest.seed, r, 0).integers(0, n, size=n) if forest.bootstrap else np.arange(n)


class TestBagging:
    def test_mean_of_constant_members(self):
        ds = toy_dataset(n=10, m=2, seed=0)
        consts = iter([0.0, 2.0])

        def builder(sub, seed):
            c = next(consts)
            return _FixedModel(lambda Q, c=c: np.full((len(Q), 3), c))

        m = fit_on_dataset(BaggingEnsemble(builder, n_estimators=2), ds)
        assert np.array_equal(m.predict(ds.features[:3]), np.ones((3, 3)))

    def test_bootstrap_indices_resample_with_replacement(self):
        ds = toy_dataset(n=50, m=2, seed=1)
        subs = []
        m = fit_on_dataset(BaggingEnsemble(_recording_knn(subs), n_estimators=5), ds)
        assert len(subs) == len(m.members_) == 5
        for r, sub in enumerate(subs):
            idx = _child_rng(0, r, 0).integers(0, 50, size=50)
            assert np.array_equal(sub.features, ds.features[idx])
            assert np.array_equal(sub.labels, ds.labels[idx])
            assert len(np.unique(idx)) < 50  # replacement virtually guarantees repeats
        assert not np.array_equal(subs[0].features, subs[1].features)

    def test_no_bootstrap_uses_every_row_once(self):
        ds = toy_dataset(n=20, m=2, seed=2)
        subs = []
        m = fit_on_dataset(BaggingEnsemble(_recording_knn(subs), n_estimators=2, bootstrap=False), ds)
        assert len(subs) == 2
        for sub in subs:
            assert np.array_equal(sub.features, ds.features)
            assert np.array_equal(sub.labels, ds.labels)
        single = knn_fit(ds, k=1)
        assert np.allclose(m.predict(ds.features[:5]), single.predict(ds.features[:5]))

    def test_seeded_determinism(self):
        ds = toy_dataset(n=30, m=3, seed=3)
        tree = lambda sub, seed: cart_fit(sub, max_depth=2)
        a = fit_on_dataset(BaggingEnsemble(tree, n_estimators=4, seed=9), ds)
        b = fit_on_dataset(BaggingEnsemble(tree, n_estimators=4, seed=9), ds)
        assert np.array_equal(a.predict(ds.features), b.predict(ds.features))


def _tree(sub, seed):
    return cart_fit(sub, max_depth=2)


# one small instance of each builder ensemble
_BUILDER_ENSEMBLES = (
    lambda: AdaBoostR2(_tree, n_estimators=3, seed=1),
    lambda: BaggingEnsemble(_tree, n_estimators=3, seed=1),
    lambda: StackingEnsemble([_tree, _tree], _tree, seed=1),
    lambda: RandomForest(n_estimators=3, max_features=2, seed=1),
    lambda: ExtraTrees(n_estimators=3, seed=1),
)


class TestArrayFit:
    def test_array_fit_matches_dataset_fit(self):
        ds = toy_dataset(n=30, m=3, seed=15)
        X, Y = np.array(ds.features), np.array(ds.labels)
        for make in _BUILDER_ENSEMBLES:
            on_arrays = make().fit(X, Y)
            on_dataset = fit_on_dataset(make(), _dataset(X, Y))
            assert np.array_equal(on_arrays.predict(X), on_dataset.predict(X))

    def test_each_fit_checks_its_inputs_once(self, monkeypatch):
        ds = toy_dataset(n=30, m=3, seed=15)
        checked = []
        fit_inputs = Model._fit_inputs
        monkeypatch.setattr(
            Model, "_fit_inputs", lambda self, X, Y: checked.append(self) or fit_inputs(self, X, Y)
        )
        fits = (lambda m: m.fit(np.array(ds.features), np.array(ds.labels)),
                lambda m: fit_on_dataset(m, ds))
        for make in _BUILDER_ENSEMBLES:
            for fit in fits:
                model = make()
                fit(model)
                assert sum(c is model for c in checked) == 1, type(model).__name__

    @pytest.mark.parametrize("kind", ["abr", "bagging-dtr", "rfr", "ert", "stacking"])
    @pytest.mark.parametrize("outputs", [None, 2], ids=["1-D", "2-column"])
    def test_labels_of_any_width(self, rng, kind, outputs):
        X = rng.normal(size=(40, 3))
        Y = X @ rng.normal(size=(3, outputs or 1))
        if outputs is None:
            Y = Y[:, 0]
        tree = lambda sub, seed: cart_fit(sub, max_depth=2)
        make = {
            "abr": lambda: AdaBoostR2(tree, n_estimators=3, seed=1),
            "bagging-dtr": lambda: BaggingEnsemble(tree, n_estimators=3, seed=1),
            "rfr": lambda: RandomForest(n_estimators=2, seed=1),
            "ert": lambda: ExtraTrees(n_estimators=2, seed=1),
            "stacking": lambda: StackingEnsemble([tree, tree], tree, seed=1),
        }[kind]
        model = make().fit(X, Y)
        width = outputs or 1
        assert model.n_outputs == width
        assert model.predict(X[:5]).shape == (5, width)
        # a 1-D label fits as its one column
        want = make().fit(X, Y.reshape(40, width)).predict(X)
        assert np.array_equal(model.predict(X), want)


class TestForests:
    def test_forest_averages_its_members(self, rng):
        ds = toy_dataset(n=60, m=4, seed=4)
        m = fit_on_dataset(RandomForest(n_estimators=5, seed=1), ds)
        member_mean = np.mean([t.predict(ds.features[:6]) for t in m.members_], axis=0)
        assert np.allclose(m.predict(ds.features[:6]), member_mean)

    @staticmethod
    def _member_splits(forest, ds):
        """Every member's splits as the reference tree on its rows grew them."""
        logs = []
        for r, tree in enumerate(forest.members_):
            idx = _member_rows(forest, ds.n, r)
            logs += _grown_splits(tree, ds.features[idx], ds.labels[idx])
        return logs

    def test_max_features_drawn_at_every_split(self):
        ds = toy_dataset(n=60, m=5, seed=5)
        m = fit_on_dataset(RandomForest(n_estimators=4, max_features=2, seed=0), ds)
        logs = self._member_splits(m, ds)
        assert logs
        assert all(len(rec.candidate_features) == 2 for rec in logs)

    def test_extra_trees_thresholds_inside_node_range(self):
        ds = toy_dataset(n=60, m=4, seed=6)
        m = fit_on_dataset(ExtraTrees(n_estimators=4, seed=0), ds)
        logs = self._member_splits(m, ds)
        assert logs
        for rec in logs:
            lo, hi = rec.value_range
            assert lo < rec.threshold < hi

    def test_extra_trees_skip_bootstrap(self):
        ds = toy_dataset(n=40, m=3, seed=7)
        m = fit_on_dataset(ExtraTrees(n_estimators=3, seed=0), ds)
        assert m.bootstrap is False
        # members differ only through their random thresholds
        a, b = m.members_[0], m.members_[1]
        assert a.split_log != b.split_log

    def test_forest_seeds_change_the_model(self):
        ds = toy_dataset(n=50, m=3, seed=8)
        a = fit_on_dataset(RandomForest(n_estimators=3, seed=0), ds)
        b = fit_on_dataset(RandomForest(n_estimators=3, seed=1), ds)
        assert not np.array_equal(a.predict(ds.features), b.predict(ds.features))

    def test_kinds(self):
        assert RandomForest().kind == "rfr"
        assert ExtraTrees().kind == "ert"

    def test_forests_bag_seeded_cart_trees(self):
        ds = toy_dataset(n=40, m=4, seed=9)
        for forest, random_thresholds in (
            (fit_on_dataset(RandomForest(n_estimators=3, max_features=2, seed=5), ds), False),
            (fit_on_dataset(ExtraTrees(n_estimators=3, max_features=2, seed=5), ds), True),
        ):
            assert isinstance(forest, BaggingEnsemble)
            assert all(type(t) is CartRegressor for t in forest.members_)
            for r, tree in enumerate(forest.members_):
                idx = _member_rows(forest, ds.n, r)
                alone = CartRegressor(
                    max_features=2, random_thresholds=random_thresholds, seed=_child_seed(5, r, 1)
                ).fit(ds.features[idx], ds.labels[idx])
                assert np.array_equal(tree.predict(ds.features), alone.predict(ds.features))

    def test_fitted_forest_holds_only_its_node_arrays(self, rng):
        # a fitted tree is its node arrays and a forest keeps no per-member
        # row indices; a 400-int candidate tuple per split would hold 4.7 MB
        X = rng.normal(size=(300, 400))
        Y = rng.normal(size=(300, 3))
        tracemalloc.start()
        try:
            forest = RandomForest(n_estimators=3, seed=0).fit(X, Y)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for t in forest.members_
                     for a in (t._feature, t._threshold, t._left, t._right, t._value, t.train_leaf))
        assert held < arrays + (32 << 10), f"held {held} bytes, node arrays {arrays}"

    def test_member_errors_name_the_member(self):
        with pytest.raises(ValueError, match=r"bagging member 0: max_features must be in \[1, 2\]"):
            fit_on_dataset(RandomForest(n_estimators=2, max_features=3), toy_dataset(n=10, m=2))


class TestStacking:
    def _builders(self, n):
        return [lambda sub, seed: knn_fit(sub, k=1) for _ in range(n)]

    def test_meta_width_three_per_base(self):
        ds = toy_dataset(n=40, m=3, seed=9)
        m = fit_on_dataset(
            StackingEnsemble(self._builders(10), lambda sub, seed: knn_fit(sub, k=1)), ds
        )
        assert m.meta_features_.shape == (40, 30)

    def test_fold_plan_partitions_rows(self):
        ds = toy_dataset(n=43, m=3, seed=10)
        m = fit_on_dataset(
            StackingEnsemble(self._builders(2), lambda sub, seed: knn_fit(sub, k=1)), ds
        )
        assert len(m.fold_plan) == 5
        holds = np.concatenate([h for _, h in m.fold_plan])
        assert np.array_equal(np.sort(holds), np.arange(43))
        for keep, hold in m.fold_plan:
            assert np.array_equal(np.sort(np.concatenate([keep, hold])), np.arange(43))

    def test_meta_rows_are_out_of_fold(self):
        ds = toy_dataset(n=30, m=3, seed=11)
        m = fit_on_dataset(
            StackingEnsemble(self._builders(1), lambda sub, seed: knn_fit(sub, k=1)), ds
        )
        keep, hold = m.fold_plan[0]
        refit = knn_fit(ds.subset(keep), k=1)
        assert np.array_equal(m.meta_features_[hold], refit.predict(ds.features[hold]))

    def test_predict_composes_full_bases_and_final(self):
        ds = toy_dataset(n=30, m=3, seed=12)
        m = fit_on_dataset(
            StackingEnsemble(self._builders(2), lambda sub, seed: cart_fit(sub, max_depth=2)), ds
        )
        Q = ds.features[:5]
        meta = np.hstack([b.predict(Q) for b in m.full_bases_])
        assert np.array_equal(m.predict(Q), m.final_.predict(meta))

    def test_plan_reuse_matches_direct_fit(self):
        ds = toy_dataset(n=35, m=3, seed=13)
        builders = self._builders(2)
        final = lambda sub, seed: cart_fit(sub, max_depth=2)
        plan = build_stacking_plan(ds, builders, seed=4)
        via_plan = stacking_fit_from_plan(ds, plan, final, seed=4)
        direct = fit_on_dataset(StackingEnsemble(builders, final, seed=4), ds)
        Q = ds.features[:8]
        assert np.array_equal(via_plan.predict(Q), direct.predict(Q))
        assert via_plan.base_builders == plan.base_builders == builders
        assert via_plan.frequencies_mhz == ds.frequencies_mhz

    def test_a_plan_gives_the_model_its_fold_count(self):
        ds = toy_dataset(n=30, m=3, seed=16)
        final = lambda sub, seed: knn_fit(sub, k=1)
        plan = build_stacking_plan(ds, self._builders(2), n_folds=3, seed=4)
        via_plan = stacking_fit_from_plan(ds, plan, final, seed=4)
        assert via_plan.n_folds == len(via_plan.fold_plan) == 3
        direct = fit_on_dataset(StackingEnsemble(self._builders(2), final, n_folds=3, seed=4), ds)
        assert np.array_equal(via_plan.predict(ds.features), direct.predict(ds.features))

    def test_the_final_gets_the_float_placeholder_band(self):
        ds = toy_dataset(n=30, m=3, seed=17)
        stack = fit_on_dataset(StackingEnsemble(self._builders(2), lambda sub, seed: cart_fit(sub)), ds)
        band = stack.final_.frequencies_mhz
        assert band == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert [type(f) for f in band] == [float] * 6

    # a fold count or seed of another type is refused in test_parameter_checks.py
    @pytest.mark.parametrize("n_folds", [1, 0])
    def test_a_plan_needs_two_folds(self, n_folds):
        ds = toy_dataset(n=10, m=3, seed=18)
        with pytest.raises(ValueError, match=f"n_folds must be >= 2, got {n_folds}"):
            build_stacking_plan(ds, self._builders(1), n_folds=n_folds)

    def test_validation(self):
        ds = toy_dataset(n=6, m=2, seed=14)
        with pytest.raises(ValueError):
            StackingEnsemble([], lambda sub, seed: None)
        with pytest.raises(ValueError):
            StackingEnsemble(self._builders(1), lambda sub, seed: None, n_folds=1)
        with pytest.raises(ValueError):
            build_stacking_plan(toy_dataset(n=3, m=2), self._builders(1), n_folds=5)

    def test_failing_base_names_fold(self):
        def bad(sub, seed):
            raise RuntimeError("nope")

        with pytest.raises(ValueError, match="fold 0"):
            fit_on_dataset(StackingEnsemble([bad], lambda sub, seed: None), toy_dataset(n=20, m=2))


class TestConstructorChecks:
    """Counts and the learning rate are checked when an ensemble is built,
    with the same helpers EnsembleSpec uses."""

    def test_bad_values_are_named(self):
        tree = lambda sub, seed: cart_fit(sub)
        cases = [
            (lambda: AdaBoostR2(tree, n_estimators=-3), "n_estimators must be >= 1, got -3"),
            (lambda: AdaBoostR2(tree, n_estimators=2.5), "n_estimators must be an integer, got 2.5"),
            (lambda: BaggingEnsemble(tree, n_estimators=0), "n_estimators must be >= 1, got 0"),
            (lambda: RandomForest(n_estimators=0), "n_estimators must be >= 1, got 0"),
            (lambda: ExtraTrees(n_estimators=True), "n_estimators must be an integer, got True"),
            (lambda: GradientBoosting(learning_rate=-1), "learning_rate must be in (0, 1], got -1"),
            (lambda: GradientBoosting(learning_rate=1.5), "learning_rate must be in (0, 1], got 1.5"),
            (lambda: HistGradientBoosting(learning_rate=0.0), "learning_rate must be in (0, 1], got 0.0"),
            (lambda: HistGradientBoosting(max_bins=2.5), "max_bins must be an integer, got 2.5"),
            (lambda: StackingEnsemble([tree], tree, n_folds=2.5), "n_folds must be an integer, got 2.5"),
            (lambda: GradientBoosting(max_depth=2.5), "max_depth must be an integer, got 2.5"),
            (lambda: GradientBoosting(max_depth=True), "max_depth must be an integer, got True"),
            (lambda: HistGradientBoosting(max_depth="3"), "max_depth must be an integer, got '3'"),
            (lambda: HistGradientBoosting(max_depth=-1), "max_depth must be >= 0, got -1"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_edge_values_stay_valid(self):
        GradientBoosting(n_estimators=0, learning_rate=1.0, max_depth=0)
        HistGradientBoosting(max_depth=None)
        HistGradientBoosting(max_bins=2)
        HistGradientBoosting(max_bins=np.int64(256))
        StackingEnsemble([lambda sub, seed: None], lambda sub, seed: None, n_folds=np.int64(2))


def _split_features(tree):
    return {r.feature for r in tree.split_log}


class TestUsedFeatures:
    """An ensemble reads the union of the columns its members read."""

    @staticmethod
    def _data(rng):
        X = rng.normal(size=(60, 6))
        X[:, 4] = -2.0  # constant: no tree splits on it
        return _dataset(X, X[:, :3] * 2.0 + rng.normal(size=(60, 3)) * 0.1)

    def test_boosting_reads_the_union_of_its_stage_trees(self, rng):
        ds = self._data(rng)
        for cls in (GradientBoosting, HistGradientBoosting):
            m = fit_on_dataset(cls(n_estimators=3, max_depth=1), ds)
            want = set().union(*(_split_features(t) for trees in m._trees for t in trees))
            assert list(m.used_features()) == sorted(want), cls.__name__
            assert 4 not in want
        assert fit_on_dataset(GradientBoosting(n_estimators=0), ds).used_features().size == 0

    def test_member_ensembles_read_the_union_of_their_members(self, rng):
        ds = self._data(rng)
        stump = lambda sub, seed: cart_fit(sub, max_depth=1)
        for m in (
            fit_on_dataset(AdaBoostR2(stump, n_estimators=4, seed=1), ds),
            fit_on_dataset(BaggingEnsemble(stump, n_estimators=4, seed=1), ds),
            fit_on_dataset(RandomForest(n_estimators=3, max_features=2, seed=1), ds),
            fit_on_dataset(ExtraTrees(n_estimators=3, seed=1), ds),
        ):
            want = set().union(*(_split_features(t) for t in m.members_))
            assert list(m.used_features()) == sorted(want), m.kind
            assert 4 not in want

    def test_stacking_reads_its_full_bases_not_its_final(self, rng):
        ds = self._data(rng)
        stump = lambda sub, seed: cart_fit(sub, max_depth=1)
        m = fit_on_dataset(StackingEnsemble([stump, stump], lambda sub, seed: cart_fit(sub), n_folds=2), ds)
        want = set().union(*(_split_features(t) for t in m.full_bases_))
        assert list(m.used_features()) == sorted(want)
        assert 4 not in want
        knn = fit_on_dataset(StackingEnsemble([stump, lambda sub, seed: knn_fit(sub)], stump, n_folds=2), ds)
        assert list(knn.used_features()) == list(range(6))
