"""Base regressors: hand-checked values, brute-force oracles, invariants."""

import dataclasses
import hashlib
import re
import tracemalloc
import typing

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from rfloc import core, regressors, simulate
from rfloc.core import validate_dataset
from rfloc.ensemble import (
    AdaBoostR2,
    BaggingEnsemble,
    ExtraTrees,
    GradientBoosting,
    HistGradientBoosting,
    RandomForest,
    StackingEnsemble,
)
from rfloc.regressors import (
    CartRegressor,
    GprRegressor,
    KnnRegressor,
    LinearSvr,
    MlpRegressor,
    Model,
    NotFittedError,
    SplitRecord,
    cart_fit,
    column_order,
    fit_on_dataset,
    knn_fit,
    mlp_loss_and_grads,
)

from conftest import toy_dataset

_tree = lambda sub, seed: cart_fit(sub, max_depth=2)

# one small, unfitted instance of every base and ensemble class
MAKERS = {
    "knr": lambda: KnnRegressor(k=1),
    "dtr": lambda: CartRegressor(),
    "gpr": lambda: GprRegressor(),
    "svr": lambda: LinearSvr(epochs=2),
    "mlp": lambda: MlpRegressor(hidden_units=4, epochs=2),
    "abr": lambda: AdaBoostR2(_tree, n_estimators=2),
    "gbr": lambda: GradientBoosting(n_estimators=2),
    "hgbr": lambda: HistGradientBoosting(n_estimators=2),
    "bagging": lambda: BaggingEnsemble(_tree, n_estimators=2),
    "rfr": lambda: RandomForest(n_estimators=2),
    "ert": lambda: ExtraTrees(n_estimators=2),
    "stacking": lambda: StackingEnsemble([_tree], _tree, n_folds=2),
}


class TestModelContract:
    def test_predict_before_fit_raises(self):
        for cls in (KnnRegressor, CartRegressor, GprRegressor, LinearSvr, MlpRegressor):
            with pytest.raises(NotFittedError, match="not fitted"):
                cls().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_every_class_raises_before_fit(self, name):
        model = MAKERS[name]()
        assert model.n_features is None
        with pytest.raises(NotFittedError, match=f"{type(model).__name__} is not fitted"):
            model.predict(np.zeros((1, 3)))

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_used_features_needs_a_fit_and_names_sorted_columns(self, name):
        with pytest.raises(NotFittedError, match="is not fitted"):
            MAKERS[name]().used_features()
        ds = toy_dataset(n=12, m=3, seed=2)
        used = fit_on_dataset(MAKERS[name](), ds).used_features()
        assert used.dtype.kind == "i"
        assert np.array_equal(used, np.unique(used))
        assert set(used) <= {0, 1, 2}
        if name in ("knr", "gpr", "svr", "mlp"):
            assert np.array_equal(used, [0, 1, 2])

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_every_class_rejects_bad_training_sets(self, name):
        make = MAKERS[name]
        empty = validate_dataset(np.zeros((0, 3)), np.zeros((0, 3)), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=f"cannot fit {type(make()).__name__} on an empty"):
            make().fit(empty.features, empty.labels)
        with pytest.raises(ValueError, match="empty training set"):
            fit_on_dataset(make(), empty)
        with pytest.raises(ValueError, match="12 feature rows vs 11 label rows"):
            make().fit(np.zeros((12, 3)), np.zeros((11, 3)))
        X, Y = np.zeros((12, 3)), np.zeros((12, 3))
        X[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite features value nan at row 4, column 1"):
            make().fit(X, Y)
        X[4, 1] = 0.0
        Y[7, 2] = -np.inf
        with pytest.raises(ValueError, match="non-finite labels value -inf at row 7, column 2"):
            make().fit(X, Y)

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_every_class_rejects_a_query_of_another_width(self, name):
        ds = toy_dataset(n=12, m=3, seed=2)
        fitted = fit_on_dataset(MAKERS[name](), ds)
        assert fitted.predict(ds.features[:2]).shape == (2, 3)
        with pytest.raises(ValueError, match="query must have width 3, got 4"):
            fitted.predict(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="query must have width 3, got 2"):
            fitted.predict(np.zeros((2, 2)))
        assert (fitted.n_features, fitted.n_outputs) == (3, 3)
        # a non-finite query is refused once, at the model the caller asked
        cls = type(fitted).__name__
        for value, r, c in ((np.nan, 1, 2), (np.inf, 0, 0), (-np.inf, 2, 1)):
            Q = ds.features[:3].copy()
            Q[r, c] = value
            with pytest.raises(ValueError, match=re.escape(
                    f"{cls}: non-finite query value {value} at row {r}, column {c}")):
                fitted.predict(Q)

    def test_one_dimensional_labels_become_one_column(self):
        X = np.arange(6.0)[:, None]
        for cls in (KnnRegressor, CartRegressor, GprRegressor, LinearSvr, MlpRegressor):
            model = cls(k=1) if cls is KnnRegressor else cls()
            assert model.fit(X, X[:, 0] * 2.0).predict(X[:2]).shape == (2, 1), cls.__name__

    @pytest.mark.parametrize("make", [lambda: KnnRegressor(k=1), GprRegressor], ids=["knr", "gpr"])
    def test_later_writes_to_the_training_arrays_do_not_move_the_model(self, make):
        X = np.arange(10.0).reshape(5, 2)
        Y = np.arange(15.0).reshape(5, 3)
        model = make().fit(X, Y)
        before = model.predict(X[4:].copy())
        assert np.allclose(before, [[12.0, 13.0, 14.0]])
        X[:] = 0.0
        Y[:] = 0.0
        assert np.array_equal(model.predict(np.array([[8.0, 9.0]])), before)

    def test_predict_rejects_bad_query(self):
        m = KnnRegressor(k=1).fit(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            m.predict(np.zeros(2))
        with pytest.raises(ValueError):
            m.predict(np.zeros((0, 2)))

    def test_fit_on_dataset_records_band_and_time(self):
        ds = toy_dataset(n=20, m=4, seed=1)
        m = knn_fit(ds, k=3)
        assert m.frequencies_mhz == ds.frequencies_mhz
        assert m.fit_time_s >= 0.0


class TestKnn:
    def _two_points(self):
        X = np.array([[0.0], [10.0]])
        Y = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        return X, Y

    def test_nearest_single(self):
        X, Y = self._two_points()
        m = KnnRegressor(k=1).fit(X, Y)
        assert np.array_equal(m.predict([[1.0]]), [[0.0, 0.0, 0.0]])

    def test_two_neighbor_average(self):
        X, Y = self._two_points()
        m = KnnRegressor(k=2).fit(X, Y)
        assert np.allclose(m.predict([[1.0]]), [[0.5, 0.5, 0.5]])

    def test_distance_tie_goes_to_lower_row(self):
        X = np.array([[0.0], [2.0]])
        Y = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = KnnRegressor(k=1).fit(X, Y)
        assert m.predict([[1.0]])[0, 0] == 1.0

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            X = rng.normal(size=(30, 4))
            Y = rng.normal(size=(30, 3))
            Q = rng.normal(size=(8, 4))
            m = KnnRegressor(k=5).fit(X, Y)
            got = m.predict(Q)
            for qi, q in enumerate(Q):
                d = np.linalg.norm(X - q, axis=1)
                idx = np.argsort(d, kind="stable")[:5]
                assert np.allclose(got[qi], Y[idx].mean(axis=0), atol=1e-12)

    def test_inverse_distance_weights(self):
        X = np.array([[0.0], [3.0]])
        Y = np.array([[3.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
        m = KnnRegressor(k=2, weighting="inverse-distance").fit(X, Y)
        # weights 1/1 and 1/2 normalize to 2/3 and 1/3
        assert m.predict([[1.0]])[0, 0] == pytest.approx(3.0 * 2 / 3 + 6.0 / 3)

    def test_inverse_distance_exact_match_wins(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        m = KnnRegressor(k=2, weighting="inverse-distance").fit(X, Y)
        assert m.predict([[1.0]])[0, 0] == 9.0

    @staticmethod
    def _stable_argsort_predict(X, Y, Q, k, weighting):
        """KNN prediction from a full stable argsort of each query's distances."""
        d = cdist(Q, X)
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        neigh_y = Y[nearest]
        if weighting == "uniform":
            return neigh_y.mean(axis=1)
        neigh_d = np.take_along_axis(d, nearest, axis=1)
        exact = neigh_d == 0.0
        with np.errstate(divide="ignore"):
            w = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, neigh_d))
        has_exact = exact.any(axis=1)
        w[has_exact] = exact[has_exact].astype(np.float64)
        w /= w.sum(axis=1, keepdims=True)
        return (w[:, :, None] * neigh_y).sum(axis=1)

    @pytest.mark.parametrize("weighting", ["uniform", "inverse-distance"])
    @pytest.mark.parametrize("k", [1, 4, 60])
    def test_ties_at_the_kth_distance_match_a_stable_argsort(self, rng, k, weighting):
        # Rows on a small integer grid repeat, and so do continuous rows drawn
        # as a bootstrap draws them, so many sit at equal distances; distinct
        # labels make any other choice among tied rows visible.
        X = rng.integers(0, 4, size=(60, 2)).astype(np.float64)
        Y = rng.normal(size=(60, 3))
        Q = rng.integers(0, 8, size=(200, 2)) / 2.0
        B = rng.normal(size=(60, 2))[rng.integers(0, 60, 60)]
        # the bootstrap rows' queries include 50 of them, exact matches
        for X, Q in ((X, Q), (B, np.vstack([rng.normal(size=(150, 2)), B[:50]]))):
            d = cdist(Q, X)
            kth = np.sort(d, axis=1)[:, k - 1 : k]
            beyond = (d <= kth).sum(axis=1) > k
            assert k == 60 or 0 < beyond.sum() < len(Q)  # tied and untied queries
            got = KnnRegressor(k=k, weighting=weighting).fit(X, Y).predict(Q)
            assert np.array_equal(got, self._stable_argsort_predict(X, Y, Q, k, weighting))

    def test_predict_takes_the_queries_in_bounded_blocks(self, rng, monkeypatch):
        # 1800 x 4200 queries once held two full query x train arrays (115 MiB)
        X = rng.normal(size=(4200, 5))
        Y = rng.normal(size=(4200, 3))
        Q = rng.normal(size=(1800, 5))
        full = 8 * Q.shape[0] * X.shape[0]
        # plain rows, and the same rows repeated as a bootstrap draws them
        for X in (X, X[rng.integers(0, 4200, 4200)]):
            m = KnnRegressor().fit(X, Y)
            tracemalloc.start()
            try:
                got = m.predict(Q)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * full, f"peak {peak / full:.2f} query x train float64 arrays"
            with monkeypatch.context() as mp:
                for rows_per_block in (1, 7, Q.shape[0]):
                    mp.setattr(regressors, "_KNN_BLOCK", rows_per_block * X.shape[0])
                    assert np.array_equal(m.predict(Q), got)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KnnRegressor(k=0)
        with pytest.raises(ValueError):
            KnnRegressor(weighting="gaussian")
        with pytest.raises(ValueError):
            KnnRegressor(k=5).fit(np.zeros((3, 1)), np.zeros((3, 3)))


class TestCart:
    def test_one_dimensional_step(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        Y = np.array([[0.0], [0.0], [1.0], [1.0]])
        m = CartRegressor(max_depth=1).fit(X, Y)
        assert len(m.split_log) == 1
        assert m.split_log[0].feature == 0
        assert m.split_log[0].threshold == 5.5
        assert np.allclose(m.predict([[3.0], [8.0]]), [[0.0], [1.0]])

    def test_constant_labels_single_leaf(self):
        X = np.arange(6.0)[:, None]
        Y = np.full((6, 3), 2.5)
        m = CartRegressor().fit(X, Y)
        assert m.node_count == 1
        assert m.split_log == []
        assert np.allclose(m.predict([[100.0]]), [[2.5, 2.5, 2.5]])

    def test_depth_zero_predicts_the_mean(self):
        X = np.arange(4.0)[:, None]
        Y = np.array([[0.0], [1.0], [2.0], [9.0]])
        m = CartRegressor(max_depth=0).fit(X, Y)
        assert m.predict([[2.0]])[0, 0] == pytest.approx(3.0)

    def test_memorizes_distinct_rows(self, rng):
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 3))
        m = CartRegressor().fit(X, Y)
        assert np.allclose(m.predict(X), Y, atol=1e-12)

    def test_first_split_matches_exhaustive_search(self, rng):
        for _ in range(8):
            X = rng.normal(size=(14, 3))
            Y = rng.normal(size=(14, 2))
            m = CartRegressor(max_depth=1).fit(X, Y)
            rec = m.split_log[0]

            def sse(rows):
                Yr = Y[rows]
                return ((Yr - Yr.mean(axis=0)) ** 2).sum()

            best_gain, best = 0.0, None
            total = sse(np.arange(len(X)))
            for f in range(3):
                vs = np.unique(X[:, f])
                for a, b in zip(vs[:-1], vs[1:]):
                    thr = (a + b) / 2.0
                    left = np.nonzero(X[:, f] <= thr)[0]
                    right = np.nonzero(X[:, f] > thr)[0]
                    gain = total - sse(left) - sse(right)
                    if gain > best_gain:
                        best_gain, best = gain, (f, thr)
            assert (rec.feature, rec.threshold) == best

    def test_equal_gain_ties_go_to_the_lowest_feature(self, rng):
        # 40 identical columns over 300 rows: every split ties on all of
        # them, across more candidates than the split scan takes at once
        v = rng.normal(size=(300, 1))
        X = np.tile(v, (1, 40))
        Y = np.hstack([v, -v, v * v]) + rng.normal(scale=0.1, size=(300, 3))
        m = CartRegressor(max_depth=4).fit(X, Y)
        assert len(m.split_log) > 1
        assert {r.feature for r in m.split_log} == {0}

    def test_predict_matches_a_row_by_row_walk(self, rng):
        X = rng.normal(size=(120, 4))
        Y = rng.normal(size=(120, 3))
        m = CartRegressor(min_samples_leaf=3).fit(X, Y)
        Q = np.vstack([rng.normal(size=(30, 4)), X[:10]])

        def walk(q):
            node = 0
            while m._feature[node] >= 0:
                go_left = q[m._feature[node]] <= m._threshold[node]
                node = m._left[node] if go_left else m._right[node]
            return m._value[node]

        assert np.array_equal(m.predict(Q), np.array([walk(q) for q in Q]))

    def test_min_samples_leaf_limits_thresholds(self):
        X = np.arange(6.0)[:, None]
        Y = X.copy()
        m = CartRegressor(max_depth=1, min_samples_leaf=3).fit(X, Y)
        # only the 3/3 split is admissible
        assert m.split_log[0].threshold == 2.5

    def test_adjacent_double_midpoint_guard(self):
        lo, hi = 1.0, float(np.nextafter(1.0, 2.0))
        X = np.array([[lo], [hi]])
        Y = np.array([[0.0], [1.0]])
        m = CartRegressor().fit(X, Y)
        # the exact midpoint rounds up to hi; the split must still separate
        assert m.split_log[0].threshold == lo
        assert np.allclose(m.predict(X), Y)

    def test_max_features_candidate_count(self, rng):
        X = rng.normal(size=(60, 5))
        Y = rng.normal(size=(60, 3))
        log = _grown_splits(CartRegressor(max_features=2, seed=7).fit(X, Y), X, Y)
        assert log
        assert all(len(r.candidate_features) == 2 for r in log)
        assert any(r.candidate_features != log[0].candidate_features for r in log)

    def test_random_thresholds_stay_inside_value_range(self, rng):
        for seed in range(4):
            X = rng.normal(size=(50, 4))
            Y = rng.normal(size=(50, 3))
            log = _grown_splits(CartRegressor(random_thresholds=True, seed=seed).fit(X, Y), X, Y)
            assert log
            for r in log:
                lo, hi = r.value_range
                assert lo < r.threshold < hi

    def test_used_features_are_the_split_features(self, rng):
        X = rng.normal(size=(80, 6))
        X[:, 2] = 1.5  # constant: no split can use it
        m = CartRegressor(max_depth=3).fit(X, rng.normal(size=(80, 3)))
        assert np.array_equal(m.used_features(), sorted({r.feature for r in m.split_log}))
        assert 2 not in m.used_features()
        assert CartRegressor(max_depth=0).fit(X, X[:, :3]).used_features().size == 0

    def test_split_log_is_the_internal_nodes_in_preorder(self, rng):
        X = rng.normal(size=(80, 4))
        m = CartRegressor(min_samples_leaf=4).fit(X, rng.normal(size=(80, 3)))
        preorder, stack = [], [0]
        while stack:
            node = stack.pop()
            preorder.append(node)
            if m._feature[node] >= 0:
                stack += [m._right[node], m._left[node]]
        assert preorder == list(range(m.node_count))  # nodes are numbered in preorder
        inner = [node for node in preorder if m._feature[node] >= 0]
        assert len(inner) > 7  # more splits than a tree of depth 3 holds
        want = [SplitRecord(int(m._feature[k]), float(m._threshold[k])) for k in inner]
        assert m.split_log == want
        assert all(type(r.feature) is int and type(r.threshold) is float for r in m.split_log)

    def test_split_log_needs_a_fit(self):
        with pytest.raises(NotFittedError, match="CartRegressor is not fitted"):
            CartRegressor().split_log

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CartRegressor(max_depth=-1)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match=re.escape(f"max_depth must be an integer, got {bad!r}")):
                CartRegressor(max_depth=bad)
        with pytest.raises(ValueError, match="max_depth must be >= 0, got -1"):
            CartRegressor(max_depth=-1)
        assert CartRegressor(max_depth=np.int64(2)).max_depth == 2
        with pytest.raises(ValueError):
            CartRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            CartRegressor(max_features=9).fit(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            CartRegressor().fit(np.zeros((0, 2)), np.zeros((0, 3)))


def _reference_midpoint_split(X, Yn, rows, feats, min_samples_leaf):
    """The midpoint scan before the presorted kernel: each node stably
    argsorts its own rows, a block of features at a time."""
    k = rows.size
    tot1 = Yn.sum(axis=0)
    tot2 = (Yn * Yn).sum(axis=0)
    sse_node = float((tot2 - tot1 * tot1 / k).sum())
    if sse_node <= 0.0:
        return None
    n_left = np.arange(1, k)
    n_right = k - n_left
    size_ok = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    if not size_ok.any():
        return None
    best = None
    best_gain = 0.0
    block = max(1, (1 << 14) // (k * Yn.shape[1]))
    for start in range(0, len(feats), block):
        fb = feats[start : start + block]
        V = X[rows[:, None], fb]
        order = np.argsort(V, axis=0, kind="stable")
        vs = np.take_along_axis(V, order, axis=0)
        Ys = Yn[order]
        c1 = np.cumsum(Ys, axis=0)[:-1]
        c2 = np.cumsum(Ys * Ys, axis=0)[:-1]
        sse_l = (c2 - c1 * c1 / n_left[:, None, None]).sum(axis=2)
        s1r = tot1 - c1
        s2r = tot2 - c2
        sse_r = (s2r - s1r * s1r / n_right[:, None, None]).sum(axis=2)
        gain = sse_node - sse_l - sse_r
        ok = (vs[:-1] != vs[1:]) & size_ok[:, None]
        gain = np.where(ok, gain, -np.inf)
        js = np.argmax(gain, axis=0)
        col_gain = gain[js, np.arange(len(fb))]
        col_gain[np.isnan(col_gain)] = -np.inf
        c = int(np.argmax(col_gain))
        if col_gain[c] > best_gain:
            best_gain = float(col_gain[c])
            j = js[c]
            thr = (vs[j, c] + vs[j + 1, c]) / 2.0
            if thr >= vs[j + 1, c]:
                thr = vs[j, c]
            best = (int(fb[c]), float(thr))
    return best


class _GrownSplit(typing.NamedTuple):
    """One split as _reference_cart grew it: what won, which features were
    candidates, and the (min, max) of the winner over the node's rows."""

    feature: int
    threshold: float
    candidate_features: tuple
    value_range: tuple


def _reference_cart(X, Y, log=None, **params):
    """A CartRegressor grown by the per-node-argsort kernel (the reference
    the presorted kernel must match bit for bit). log, when given, is a list
    that gets a _GrownSplit for every split, in node order."""
    tree = CartRegressor(**params)
    X, Y = tree._fit_inputs(X, Y)
    m = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []
    rng = np.random.default_rng(tree.seed)
    stack = [(np.arange(X.shape[0]), 0, -1, 0)]
    while stack:
        rows, depth, parent, side = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        if parent >= 0:
            (left if side == 0 else right)[parent] = node
        Yn = Y[rows]
        value.append(Yn.mean(axis=0))
        if tree.max_depth is not None and depth >= tree.max_depth:
            continue
        if rows.size < 2 * tree.min_samples_leaf or rows.size < 2:
            continue
        if tree.max_features is not None and tree.max_features < m:
            feats = np.sort(rng.choice(m, size=tree.max_features, replace=False))
        else:
            feats = np.arange(m)
        if tree.random_thresholds:
            tot1 = Yn.sum(axis=0)
            tot2 = (Yn * Yn).sum(axis=0)
            sse_node = float((tot2 - tot1 * tot1 / rows.size).sum())
            split = None if sse_node <= 0.0 else tree._best_random_split(
                X, Yn, rows, feats, rng, tot1, tot2, sse_node)
        else:
            split = _reference_midpoint_split(X, Yn, rows, feats, tree.min_samples_leaf)
        if split is None:
            continue
        f, thr = split
        mask = X[rows, f] <= thr
        if mask.all() or not mask.any():
            continue
        if log is not None:
            v = X[rows, f]
            log.append(_GrownSplit(f, thr, tuple(feats.tolist()), (float(v.min()), float(v.max()))))
        feature[node] = f
        threshold[node] = thr
        stack.append((rows[~mask], depth + 1, node, 1))
        stack.append((rows[mask], depth + 1, node, 0))
    tree._feature = np.array(feature, dtype=np.intp)
    tree._threshold = np.array(threshold)
    tree._left = np.array(left, dtype=np.intp)
    tree._right = np.array(right, dtype=np.intp)
    tree._value = np.array(value)
    return tree._mark_fitted(m, Y.shape[1])


def _grown_splits(tree, X, Y):
    """The _GrownSplit log of the reference tree for tree's parameters,
    after checking that tree is that reference tree."""
    log = []
    params = ("max_depth", "min_samples_leaf", "max_features", "random_thresholds", "seed")
    _assert_same_tree(tree, _reference_cart(X, Y, log=log, **{k: getattr(tree, k) for k in params}))
    assert [(g.feature, g.threshold) for g in log] == [(r.feature, r.threshold) for r in tree.split_log]
    return log


def _reference_gbr(X, Y, Q, n_estimators, learning_rate=0.1, max_depth=3):
    """Gradient boosting on reference trees, each stage moving F by the
    tree's prediction on X: (predictions at Q, train_rmse_path)."""
    F = np.tile(Y.mean(axis=0), (X.shape[0], 1))
    out = np.tile(Y.mean(axis=0), (Q.shape[0], 1))
    path = []
    trees = [[] for _ in range(Y.shape[1])]
    for _ in range(n_estimators):
        for j in range(Y.shape[1]):
            tree = _reference_cart(X, (Y[:, j] - F[:, j])[:, None], max_depth=max_depth)
            trees[j].append(tree)
            F[:, j] += learning_rate * tree.predict(X)[:, 0]
        path.append(float(np.sqrt(np.mean(np.sum((Y - F) ** 2, axis=1)))))
    for j in range(Y.shape[1]):
        for tree in trees[j]:
            out[:, j] += learning_rate * tree.predict(Q)[:, 0]
    return out, path


def _kernel_case(name, rng):
    """(X, Y, CartRegressor params) for one bit-identity case."""
    if name == "tie-heavy-grid":
        # 2400 rows x 3 outputs scan two features per block; column 6 copies
        # column 1, so their gains tie across blocks, and stay equal only if
        # both columns add their tied rows in the same (row) order
        X = rng.integers(0, 5, size=(2400, 7)).astype(np.float64)
        X[:, 6] = X[:, 1]
        return X, rng.normal(size=(2400, 3)), {}
    if name == "mixed-columns":
        X = rng.normal(size=(600, 6))
        X[:, ::2] = rng.integers(0, 6, size=(600, 3))
        return X, rng.normal(size=(600, 3)), {"max_depth": 7}
    if name == "adjacent-doubles-min-leaf":
        lo, hi = 1.0, float(np.nextafter(1.0, 2.0))
        X = np.column_stack([rng.choice([lo, hi, 2.0], size=90), rng.normal(size=90)])
        return X, rng.normal(size=(90, 2)), {"min_samples_leaf": 4}
    if name == "max-features-seeded":
        return rng.normal(size=(300, 8)), rng.normal(size=(300, 3)), {"max_features": 3, "seed": 11}
    if name == "bootstrap-duplicates":
        X = np.round(rng.normal(size=(400, 4)), 1)
        Y = rng.normal(size=(400, 3))
        idx = rng.integers(0, 400, size=400)
        assert np.unique(idx).size < 400
        return X[idx], Y[idx], {}
    if name in ("eight-outputs", "nine-outputs"):
        # numpy sums 8 or more outputs in an unrolled pairwise order, not left
        # to right; output scales far apart make the two orders round apart
        d = 8 if name == "eight-outputs" else 9
        Y = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-6, 7, size=d)
        return rng.normal(size=(300, 4)), Y, {}
    if name == "eight-outputs-wide-root":
        # the root's block holds more than _BLOCK elements over its outputs,
        # which a tree of fewer outputs scans an output at a time
        Y = rng.normal(size=(2000, 8)) * 10.0 ** rng.integers(-6, 7, size=8)
        assert 8 * 1999 * 5 > regressors._BLOCK
        return rng.normal(size=(2000, 5)), Y, {"max_depth": 5}
    if name.startswith("mixed-block"):
        # one scan block holds tie-free columns 1 and 4 and tied columns of
        # four values: most of the block's prefixes end inside a run of
        # equal values, so it takes the gains only at candidates
        X = rng.integers(0, 4, size=(500, 6)).astype(np.float64)
        X[:, [1, 4]] = rng.normal(size=(500, 2))
        if name == "mixed-block-grid-labels":  # label-constant nodes read one shared curve
            return X, rng.uniform(0.0, 5.0, size=(4, 3))[rng.integers(0, 4, size=500)], {}
        return X, rng.normal(size=(500, 3)) + X[:, :1], {"max_depth": 8}
    if name == "tie-free-adjacent-doubles":
        # column 0 never repeats a value, and the labels step where it moves
        # from a to the next double b, whose midpoint rounds up to b
        a = float(np.nextafter(1.0, 2.0))
        b = float(np.nextafter(a, 2.0))
        v = np.concatenate([np.linspace(0.0, 0.9, 40), [a, b], np.linspace(1.1, 2.0, 38)])
        X = np.column_stack([rng.permutation(v), rng.normal(size=80)])
        Y = np.where(X[:, :1] > a, 10.0, 0.0) + 0.01 * rng.normal(size=(80, 2))
        return X, Y, {}
    if name == "one-output":
        # the shape of every gradient-boosting tree
        X = rng.normal(size=(500, 5))
        X[:, 1] = rng.integers(0, 8, size=500)
        return X, rng.normal(size=(500, 1)) + X[:, 1:2], {}
    if name == "wide-root-one-feature-per-block":
        # the root's rows fill a whole scan block, so it scans one feature
        # per block; the deep nodes scan every feature in one block
        n = regressors._BLOCK // 2 + 1
        assert regressors._BLOCK // n == 1
        return rng.normal(size=(n, 12)), rng.normal(size=(n, 3)), {"max_depth": 9}
    if name == "tie-across-blocks":
        # the root scans two features per block, and column 6 copies the
        # most informative column 1 in a later block: the tie goes to 1
        n = regressors._BLOCK // 3 + 1
        assert regressors._BLOCK // n == 2
        X = rng.integers(0, 5, size=(n, 7)).astype(np.float64)
        X[:, 6] = X[:, 1]
        return X, rng.normal(size=(n, 3)) + X[:, 1:2], {"max_depth": 4}
    if name == "few-values-min-leaf-3":
        X = rng.integers(0, 4, size=(400, 5)).astype(np.float64)
        return X, rng.normal(size=(400, 3)) + X[:, :1], {"min_samples_leaf": 3}
    if name == "infinite-gains":
        # labels near 5e152: every square and total stays finite, but some
        # prefix sums square past the largest double, so the gain is +inf
        X = rng.normal(size=(200, 3))
        return X, np.sign(X[:, :1] + rng.normal(size=(200, 1))) * 5e152, {}
    if name == "overflowing-squares":
        # two labels near 1e160 square to inf: every gain at a node that holds
        # them is NaN, and a NaN gain drops its feature, so the root stays a leaf
        Y = rng.normal(size=(100, 3))
        Y[[10, 20], 0] = [1e160, -1e160]
        return rng.normal(size=(100, 4)), Y, {}
    if name.startswith("grid-labels"):
        # labels from four positions on continuous features: most splits
        # divide nodes whose labels are all equal, on rounding residue
        Y = rng.uniform(0.0, 5.0, size=(4, 3))[rng.integers(0, 4, size=600)]
        params = {"grid-labels": {}, "grid-labels-min-leaf-3": {"min_samples_leaf": 3},
                  "grid-labels-max-features-seeded": {"max_features": 2, "seed": 5}}[name]
        return rng.normal(size=(600, 6)), Y, params
    if name == "signed-zero-labels":
        # 0.0 and -0.0 are equal labels with other bits: a node holding both
        # is not label-constant, and its [Y | Y*Y] prefix sums can differ
        grid = np.array([[0.0, 2.46, 0.7], [-0.0, 2.46, 0.7], [1.3, -0.0, 0.1]])
        return rng.normal(size=(300, 4)), grid[rng.integers(0, 3, size=300)], {}
    if name == "equal-labels":
        # the same label on every row still grows 9 nodes on rounding residue
        return rng.normal(size=(200, 3)), np.tile([2.46, 1.3, 0.7], (200, 1)), {}
    if name == "equal-labels-top-tied-in-column-0":
        # Every feature shares the root's gain curve, whose top level holds
        # two positions. Column 0 repeats its value across both, so it has no
        # split there and column 1 wins at the first of them.
        Y = np.tile([1.1, 1.1, 1.1], (200, 1))
        top = _top_positions(Y)
        assert top.size == 2
        X = rng.normal(size=(200, 4))
        v = np.sort(X[:, 0])
        for j in top:
            v[j + 1] = v[j]
        X[:, 0] = rng.permutation(v)
        return X, Y, {}
    assert name == "random-thresholds"
    return rng.normal(size=(200, 5)), rng.normal(size=(200, 3)), {
        "random_thresholds": True, "max_features": 2, "seed": 4}


def _top_positions(Y):
    """The positions j of the highest gain of _equal_label_gains(Y)."""
    gain = _equal_label_gains(Y)
    return np.flatnonzero(gain == gain.max())


def _equal_label_gains(Y):
    """The root's gain curve when every label row of Y is the same: the gain
    of the left side of j + 1 rows, j = 0 .. n - 2, as the reference scan
    computes it for any feature."""
    k = Y.shape[0]
    n_left = np.arange(1, k)[:, None]
    tot1, tot2 = Y.sum(axis=0), (Y * Y).sum(axis=0)
    c1, c2 = np.cumsum(Y, axis=0)[:-1], np.cumsum(Y * Y, axis=0)[:-1]
    sse_l = (c2 - c1 * c1 / n_left).sum(axis=1)
    s1r = tot1 - c1
    sse_r = (tot2 - c2 - s1r * s1r / (k - n_left)).sum(axis=1)
    return float((tot2 - tot1 * tot1 / k).sum()) - sse_l - sse_r


def _label_constant_splits(tree, labels):
    """How many of tree's splits divide training rows whose label rows are all
    equal (bitwise, when labels is Y's uint64 view). Nodes are in preorder,
    so a subtree is a range of nodes."""
    end = np.arange(1, tree.node_count + 1)
    for node in range(tree.node_count - 1, -1, -1):
        if tree._feature[node] >= 0:
            end[node] = end[tree._right[node]]
    count = 0
    for node in np.flatnonzero(tree._feature >= 0):
        under = labels[(tree.train_leaf >= node) & (tree.train_leaf < end[node])]
        count += bool((under == under[0]).all())
    return count


def _assert_same_tree(got, want):
    for name in ("_feature", "_threshold", "_left", "_right", "_value"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.split_log == want.split_log


# cases whose trees split label-constant nodes, which share one gain curve
LABEL_CONSTANT_CASES = ("grid-labels", "grid-labels-min-leaf-3", "grid-labels-max-features-seeded",
                        "signed-zero-labels", "equal-labels", "equal-labels-top-tied-in-column-0")


class TestPresortedCart:
    @pytest.mark.parametrize("case", ["tie-heavy-grid", "mixed-columns", "adjacent-doubles-min-leaf",
                                      "max-features-seeded", "bootstrap-duplicates",
                                      "random-thresholds", "eight-outputs", "nine-outputs",
                                      "one-output", "wide-root-one-feature-per-block",
                                      "eight-outputs-wide-root", "mixed-block",
                                      "mixed-block-grid-labels", "tie-free-adjacent-doubles",
                                      "tie-across-blocks", "few-values-min-leaf-3",
                                      pytest.param("infinite-gains", marks=pytest.mark.filterwarnings(
                                          "ignore:overflow encountered")),
                                      *LABEL_CONSTANT_CASES])
    def test_tree_is_bit_identical_to_per_node_sorting(self, rng, case):
        X, Y, params = _kernel_case(case, rng)
        got = CartRegressor(**params).fit(X, Y)
        want = _reference_cart(X, Y, **params)
        assert got.node_count > 3
        _assert_same_tree(got, want)
        # the leaf each training row reached during fit is the one predict finds
        assert np.array_equal(got._value[got.train_leaf], got.predict(X))

    @pytest.mark.parametrize("case", LABEL_CONSTANT_CASES)
    def test_label_constant_cases_split_label_constant_nodes(self, rng, case):
        X, Y, params = _kernel_case(case, rng)
        tree = CartRegressor(**params).fit(X, Y)
        assert _label_constant_splits(tree, Y.view(np.uint64)) > 0
        if case == "signed-zero-labels":  # and some nodes hold equal labels of other bits
            assert _label_constant_splits(tree, Y) > _label_constant_splits(tree, Y.view(np.uint64))
        if case == "equal-labels":
            assert tree.node_count == 9
        if case == "equal-labels-top-tied-in-column-0":
            root = tree.split_log[0]
            at = np.count_nonzero(X[:, root.feature] <= root.threshold) - 1
            assert (root.feature, at) == (1, _top_positions(Y)[0])

    @pytest.mark.parametrize("case", ["mixed-block", "mixed-block-grid-labels"])
    def test_one_block_mixes_tied_and_tie_free_columns(self, rng, case):
        X, Y, params = _kernel_case(case, rng)
        _, tied = column_order(X)
        assert tied.tolist() == [True, False, True, True, False, True]
        assert X.size <= regressors._BLOCK  # the root scans every column in one block
        tree = CartRegressor(**params).fit(X, Y)
        assert {0, 1, 4} <= set(tree.used_features().tolist())

    def test_tie_free_winner_between_adjacent_doubles_keeps_the_lower_value(self, rng):
        X, Y, params = _kernel_case("tie-free-adjacent-doubles", rng)
        a = float(np.nextafter(1.0, 2.0))
        b = float(np.nextafter(a, 2.0))
        assert (a + b) / 2.0 == b  # the midpoint rounds up
        assert not column_order(X)[1][0]
        got = CartRegressor(**params).fit(X, Y)
        _assert_same_tree(got, _reference_cart(X, Y, **params))
        assert got.split_log[0] == regressors.SplitRecord(0, a)

    @pytest.mark.parametrize("outputs", [1, 3, 7, 8, 9])
    @pytest.mark.parametrize("k", [40, 1500], ids=["small-block", "wide-block"])
    def test_gains_match_the_reference_arithmetic_bit_for_bit(self, rng, outputs, k):
        # a wide block holds more than _BLOCK elements over its outputs; below
        # 8 outputs it is scored an output at a time
        Y = rng.normal(size=(k, outputs)) * 10.0 ** rng.integers(-6, 7, size=outputs)
        cols = np.array([rng.permutation(k)[: k - 1] for _ in range(12)])
        assert (outputs * cols.size > regressors._BLOCK) == (k == 1500 and outputs > 1)
        YZ = np.empty((outputs, k), dtype=np.complex128)
        YZ.real, YZ.imag = Y.T, (Y * Y).T
        tot1, tot2 = Y.sum(axis=0), (Y * Y).sum(axis=0)
        sse_node = float((tot2 - tot1 * tot1 / k).sum())
        n_left = np.arange(1, k, dtype=np.float64)
        # the per-node-argsort kernel's arithmetic, outputs last
        c1, c2 = np.cumsum(Y[cols], axis=1), np.cumsum(Y[cols] ** 2, axis=1)
        s1r, s2r = tot1 - c1, tot2 - c2
        want = (sse_node - (c2 - c1 * c1 / n_left[:, None]).sum(axis=2)
                - (s2r - s1r * s1r / (k - n_left)[:, None]).sum(axis=2))
        got = regressors._gains(YZ, cols, 0, tot1, tot2, n_left, k - n_left, sse_node)
        assert got.tobytes() == want.tobytes()
        at = np.flatnonzero(rng.random(cols.size) < 0.1)  # the few-candidates scan
        j_at = at % (k - 1)
        got = regressors._gains(YZ, cols, at, tot1, tot2, n_left[j_at], k - n_left[j_at], sse_node)
        assert got.tobytes() == want.ravel()[at].tobytes()

    def test_complex_cumsum_is_two_real_cumsums(self):
        # The scan sums labels and squares as the parts of one complex cumsum.
        # Cancellation, signed zeros, subnormals, overflow and NaN would each
        # show any other order or rounding of the two lanes.
        big = 1.7976931348623157e308
        re_ = [1e16, 1.0, -1e16, 1.0, -0.0, -0.0, 0.0, 5e-324, 5e-324, -1e-300, big, big,
               -np.inf, 3.0]
        im = [-0.0, -0.0, 0.1, 0.2, 0.3, -1e16, 1e16, 1e-320, -big, -big, 1e308, np.inf, 1.0,
              np.nan]
        parts = np.array([re_, im])
        rng = np.random.default_rng(3)
        noise = rng.normal(size=(2, 3, 4, 500)) * 10.0 ** rng.integers(-300, 300, size=(2, 3, 4, 500))
        for a, b in [(parts[0], parts[1]), (parts[1], parts[0]), (noise[0], noise[1])]:
            z = np.empty(a.shape, dtype=np.complex128)
            z.real, z.imag = a, b
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.cumsum(a, axis=-1), np.cumsum(b, axis=-1)
                got = np.cumsum(z, axis=-1)
                np.cumsum(z, axis=-1, out=z)  # in place, as the scan takes it
            for c in (got, z):
                assert c.real.tobytes() == want[0].tobytes()
                assert c.imag.tobytes() == want[1].tobytes()

    def test_overflowing_squares_keep_the_root_a_leaf(self, rng):
        X, Y, params = _kernel_case("overflowing-squares", rng)
        with np.errstate(over="ignore", invalid="ignore"):
            got = CartRegressor(**params).fit(X, Y)
            want = _reference_cart(X, Y, **params)
        assert got.node_count == 1 and not got.split_log
        _assert_same_tree(got, want)

    @pytest.mark.parametrize("outputs", [1, 2, 3, 7, 8, 9, 20])
    def test_output_sums_match_numpy_bit_for_bit(self, rng, outputs):
        # magnitudes far apart, so any other order of the additions shows
        shape = (300, 4, outputs)
        s1 = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        s2 = s1 * s1 + rng.random(size=shape)
        count = np.arange(1, 301)[:, None, None]
        want = (s2 - s1 * s1 / count).sum(axis=2)
        e = np.moveaxis(s2 - s1 * s1 / count, 2, 0).copy()  # outputs first, as the scan holds them
        assert np.array_equal(regressors._sum_outputs(e), want)

    def test_a_shared_order_is_read_not_written(self, rng):
        X = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
        Y = rng.normal(size=(200, 1))
        order, tied = column_order(X)
        assert order.dtype == np.uint8 and order.shape == (3, 200)
        assert tied.tolist() == [True, True, True]
        before = order.copy()
        a = CartRegressor(max_depth=3).fit(X, Y, order=(order, tied))
        assert np.array_equal(order, before)
        b = CartRegressor(max_depth=3).fit(X, Y)
        assert np.array_equal(a._threshold, b._threshold, equal_nan=True)
        with pytest.raises(ValueError, match=r"order has shape \(3, 199\), expected \(3, 200\)"):
            CartRegressor().fit(X, Y, order=(order[:, 1:], tied))

    @pytest.mark.parametrize("lossless", [False, True], ids=["gbr", "lossless-hgbr"])
    def test_boosting_is_bit_identical_to_per_node_sorting(self, rng, lossless):
        # few distinct values, like the stacking meta-features: every node
        # takes the scan that computes gains only at candidate thresholds
        X = rng.integers(0, 20, size=(500, 4)).astype(np.float64)
        Y = rng.normal(size=(500, 3)) + X[:, :1]
        Q = rng.integers(0, 20, size=(50, 4)).astype(np.float64)
        cls = HistGradientBoosting if lossless else GradientBoosting
        model = cls(n_estimators=8).fit(X, Y)
        want, path = _reference_gbr(X, Y, Q, n_estimators=8)
        assert np.array_equal(model.predict(Q), want)
        assert model.train_rmse_path == path

    @pytest.mark.parametrize("case", ["tie-heavy-integers", "signed-zeros", "4200x400", "uint32-rows"])
    def test_column_order_is_the_stable_argsort(self, rng, case):
        if case == "tie-heavy-integers":
            # tied and untied columns share a block: only the tied ones re-sort
            X = rng.normal(size=(3000, 10))
            X[:, ::3] = rng.integers(0, 4, size=(3000, 4))
        elif case == "signed-zeros":
            # -0.0 and 0.0 tie, so they keep row order
            X = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(500, 6))
            X[:, 5] = rng.normal(size=500)
        elif case == "4200x400":
            X = rng.normal(size=(4200, 400))
        else:
            X = rng.normal(size=(70_000, 3))
            X[:, 1] = rng.integers(0, 50, size=70_000)
        got, tied = column_order(X)
        assert got.dtype == np.min_scalar_type(X.shape[0] - 1)
        assert np.array_equal(got, np.argsort(X, axis=0, kind="stable").T)
        # a column is flagged exactly when its sorted values do not strictly increase
        vs = np.sort(X, axis=0)
        assert np.array_equal(tied, ~(vs[:-1] < vs[1:]).all(axis=0))
        flagged = {"tie-heavy-integers": [j % 3 == 0 for j in range(10)],
                   "signed-zeros": [True] * 5 + [False],
                   "4200x400": [False] * 400, "uint32-rows": [False, True, False]}
        assert tied.tolist() == flagged[case]

    def test_fit_holds_one_small_order_array(self, rng):
        # The order is uint16 at n = 4200 and is sorted a block of columns at
        # a time; an intp order, or one built by a full argsort, fails this.
        n, m = 4200, 400
        X = rng.normal(size=(n, m))
        Y = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            CartRegressor(max_depth=2).fit(X, Y)  # the root holds the largest scan
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        order_bytes = n * m * 2
        # room for the split scan's float64 temporaries: twelve of _BLOCK = 2**15
        # elements (the root's [Y | Y*Y] gather alone is 6 * 2**15)
        scan_bytes = 24 * 8 * (1 << 14)
        assert peak < order_bytes + scan_bytes, f"peak {peak / 1e6:.2f} MB"


class TestGpr:
    def test_interpolates_training_points(self, rng):
        X = rng.uniform(0, 3, size=(25, 2))
        Y = np.stack([np.sin(X[:, 0]), np.cos(X[:, 1]), X[:, 0] * X[:, 1]], axis=1)
        m = GprRegressor(length_scale=1.0).fit(X, Y)
        assert np.allclose(m.predict(X), Y, atol=1e-5)

    def test_far_field_reverts_to_label_mean(self, rng):
        X = rng.uniform(0, 1, size=(10, 2))
        Y = rng.normal(size=(10, 3))
        m = GprRegressor(length_scale=0.5).fit(X, Y)
        far = m.predict([[100.0, 100.0]])
        assert np.allclose(far, Y.mean(axis=0), atol=1e-9)

    def test_matches_direct_linear_solve(self, rng):
        X = rng.normal(size=(18, 3))
        Y = rng.normal(size=(18, 3))
        Q = rng.normal(size=(6, 3))
        ls, sv, jit = 1.3, 2.0, 1e-8
        m = GprRegressor(length_scale=ls, signal_variance=sv, noise_jitter=jit).fit(X, Y)

        def kern(A, B):
            sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
            return sv * np.exp(-sq / (2.0 * ls**2))

        K = kern(X, X) + jit * np.eye(len(X))
        alpha = np.linalg.solve(K, Y - Y.mean(axis=0))
        want = kern(Q, X) @ alpha + Y.mean(axis=0)
        assert np.allclose(m.predict(Q), want, atol=1e-8)

    def test_jitter_escalates_on_singular_kernel(self):
        X = np.zeros((50, 2))
        Y = np.tile([1.0, 2.0, 3.0], (50, 1))
        m = GprRegressor(noise_jitter=1e-18).fit(X, Y)
        assert m.effective_jitter > m.noise_jitter
        assert np.allclose(m.predict([[0.0, 0.0]]), [[1.0, 2.0, 3.0]], atol=1e-5)

    @staticmethod
    def _out_of_place_fit(X, Y, Q, ls, sv, jit):
        """GPR with a fresh n x n array per step: alpha, the jitter used, predictions."""
        n = len(X)
        K = sv * np.exp(-cdist(X, X, "sqeuclidean") / (2 * ls**2))
        for _ in range(4):
            try:
                L = cholesky(K + jit * np.eye(n), lower=True)
                break
            except LinAlgError:
                jit *= 10.0
        y_mean = Y.mean(axis=0)
        z = solve_triangular(L, Y - y_mean, lower=True)
        alpha = solve_triangular(L.T, z, lower=False)
        Kq = sv * np.exp(-cdist(Q, X, "sqeuclidean") / (2 * ls**2))
        return alpha, jit, Kq @ alpha + y_mean

    @pytest.mark.parametrize("case", ["random", "jitter-escalates"])
    def test_in_place_kernel_is_bit_identical(self, rng, case):
        if case == "random":
            X = rng.normal(size=(120, 4))
            Y = rng.normal(size=(120, 3))
            Q = rng.normal(size=(30, 4))
            ls, sv, jit = 1.3, 2.0, 1e-8
        else:
            X = np.zeros((50, 2))
            Y = np.tile([1.0, 2.0, 3.0], (50, 1))
            Q = np.array([[0.0, 0.0], [1.0, -1.0]])
            ls, sv, jit = 1.0, 1.0, 1e-18
        m = GprRegressor(length_scale=ls, signal_variance=sv, noise_jitter=jit).fit(X, Y)
        alpha, jitter, pred = self._out_of_place_fit(X, Y, Q, ls, sv, jit)
        assert m.effective_jitter == jitter
        assert (jitter > jit) == (case == "jitter-escalates")
        assert np.array_equal(m._alpha, alpha)
        assert np.array_equal(m.predict(Q), pred)
        K = m._kernel(X, X)
        assert np.array_equal(K, K.T)

    def test_reference_room_fit_is_bit_identical(self, small_room_split):
        m = GprRegressor().fit(small_room_split.train.features, small_room_split.train.labels)
        got = (_sha256(m._alpha), _sha256(m.predict(small_room_split.test.features)))
        assert got in GPR_ROOM_SHA256

    def test_fit_holds_about_one_kernel_matrix(self, rng):
        # tracemalloc sees numpy's and f2py's buffers; a fit that builds its
        # kernel out of place peaks near three n x n float64 arrays.
        n = 1000
        X = rng.normal(size=(n, 5))
        Y = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            GprRegressor().fit(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n, f"peak {peak / (8 * n * n):.2f} n x n arrays"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GprRegressor(length_scale=0.0)
        with pytest.raises(ValueError):
            GprRegressor(signal_variance=-1.0)
        with pytest.raises(ValueError):
            GprRegressor(noise_jitter=0.0)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_room_split():
    """Reference room, seed 0, 10 samples per position: 420 x 5 training rows."""
    scenario, config, positions = simulate.make_reference_scenario(0)
    config = dataclasses.replace(config, samples_per_position=10)
    data = simulate.generate_dataset(scenario, config, positions)
    return core.train_test_split(data, 0.7, 1)


# Digests of fits made before the svr and mlp loops were rewritten; a rewrite
# must keep every bit. mlp's matmuls make them depend on the BLAS kernels.
SVR_ROOM_SHA256 = "4e55cc5c295774265646625a50bda353433ea94b64365b30412b5de3ea4e04d4"
MLP_ROOM_SHA256 = "05f0f54691a0da7644bfcbc4fb95df377e248846df10237544cf6d00ba8d0d2e"
MLP_ROOM_LOSS_SHA256 = "c8f1edeb9ff530703e721dc058b350f169848af7b0da69e7f0aca3241aaace8b"
# (alpha, predictions on the test rows): OpenBLAS factors a 420 x 420 kernel
# with one thread or with several, and the two round apart
GPR_ROOM_SHA256 = {
    ("5dccc0711735a53eeeafdeaebb8aa2133d7b2c694c49fed6bb149f5294d88fc0",
     "acfdf805938302559fbde62697405a096b873e20a42f445da619939385877dea"),
    ("49b509309f4f5c8a4a745c03d31f29f224115800953396ae607029433db613ec",
     "e9d8a1b2a1839480a4d81dd079719b0f72d28e5f25173b1f619cb69382e063a3"),
}


class TestLinearSvr:
    def test_recovers_linear_map(self, rng):
        X = rng.uniform(-1, 1, size=(80, 2))
        W = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, -2.0]])
        Y = X @ W + np.array([1.0, 0.0, -1.0])
        m = LinearSvr(epochs=200).fit(X, Y)
        err = m.predict(X) - Y
        assert np.sqrt((err**2).mean()) < 0.15

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 3))
        a = LinearSvr().fit(X, Y)
        b = LinearSvr().fit(X, Y)
        assert np.array_equal(a._W, b._W)
        assert np.array_equal(a._b, b._b)

    def test_constant_feature_is_safe(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 7.0)])
        Y = np.tile(np.arange(10.0)[:, None], (1, 3))
        pred = LinearSvr().fit(X, Y).predict(X)
        assert np.all(np.isfinite(pred))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinearSvr(epsilon=-0.1)
        with pytest.raises(ValueError):
            LinearSvr(reg_c=0.0)
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            LinearSvr(epochs=0)
        with pytest.raises(ValueError, match="learning_rate must be > 0, got -1"):
            LinearSvr(learning_rate=-1)

    @pytest.mark.parametrize("width", [1, 2, 5, 16, 17, 32, 33, 40, 64])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 5.0])
    @pytest.mark.parametrize("learning_rate", [0.01, 0.3])
    def test_list_and_array_descents_are_bit_identical(self, width, epsilon, learning_rate):
        rng = np.random.default_rng(width)
        n = regressors._SVR_LIST_ROWS + 44  # a full block of rows and a partial one
        X = rng.normal(size=(n, width)) * rng.uniform(0.1, 10.0, size=width)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        Y = Xs @ rng.normal(size=(width, 3)) + rng.normal(size=(n, 3))
        for d in range(3):
            args = (Xs, Y[:, d], 3, learning_rate, 1.0 / n, epsilon, d)
            w_list, b_list = regressors._svr_descent_lists(*args)
            w_array, b_array = regressors._svr_descent_array(*args)
            assert w_list.tobytes() == w_array.tobytes()
            assert np.float64(b_list).tobytes() == np.float64(b_array).tobytes()

    @pytest.mark.parametrize("epsilon, branches", [(0.0, {"up", "down"}),
                                                   (1e3, {"decay"}),
                                                   (2.0, {"up", "down", "decay"})])
    def test_epsilon_selects_the_kernel_branches(self, rng, epsilon, branches):
        # replays the numpy descent's steps, recording which update each took
        n, width = 300, 5
        lr, lam = 0.3, 1.0 / n
        Xs = rng.normal(size=(n, width))
        y = Xs @ rng.normal(size=width) * 3.0 + rng.normal(size=n)
        w, bd, seen = np.zeros(width), 0.0, set()
        for x, target in zip(Xs, y):
            err = target - (float(w @ x) + bd)
            if err > epsilon:
                seen.add("up")
                w += lr * (x - lam * w)
                bd += lr
            elif err < -epsilon:
                seen.add("down")
                w -= lr * (x + lam * w)
                bd -= lr
            else:
                seen.add("decay")
                w -= lr * lam * w
        assert seen == branches
        w_list, b_list = regressors._svr_descent_lists(Xs, y, 1, lr, lam, epsilon, 0)
        assert w_list.tobytes() == w.tobytes()
        assert np.float64(b_list).tobytes() == np.float64(bd).tobytes()

    def test_one_kernel_is_built_per_width(self, rng, monkeypatch):
        built = []
        monkeypatch.setattr(regressors, "exec", lambda *a: built.append(a) or exec(*a),
                            raising=False)
        regressors._svr_epoch_kernel.cache_clear()
        X = rng.normal(size=(20, 7))
        LinearSvr(epochs=2).fit(X, rng.normal(size=(20, 3)))
        LinearSvr(epochs=1).fit(X * 2.0, rng.normal(size=(20, 3)))
        assert len(built) == 1
        assert regressors._svr_epoch_kernel(7) is regressors._svr_epoch_kernel(7)
        assert regressors._svr_epoch_kernel(8) is not regressors._svr_epoch_kernel(7)
        assert len(built) == 2

    @pytest.mark.parametrize("width", [2.0, True, False, 0, -3, "4", None])
    def test_kernel_refuses_a_bad_width_before_exec(self, monkeypatch, width):
        # with widths 1 and 2 cached, True and 2.0 must still reach the check
        regressors._svr_epoch_kernel(1), regressors._svr_epoch_kernel(2)
        built = []
        monkeypatch.setattr(regressors, "exec", lambda *a: built.append(a), raising=False)
        with pytest.raises(ValueError, match=r"^width must be"):
            regressors._svr_epoch_kernel(width)
        assert built == []

    @pytest.mark.parametrize("width, loop", [(32, "_svr_descent_lists"),
                                             (33, "_svr_descent_array")])
    def test_fit_takes_the_list_descent_up_to_the_cutoff(self, rng, monkeypatch, width, loop):
        called = []
        real = getattr(regressors, loop)
        monkeypatch.setattr(regressors, loop, lambda *a: called.append(a[-1]) or real(*a))
        LinearSvr(epochs=1).fit(rng.normal(size=(20, width)), rng.normal(size=(20, 3)))
        assert called == [0, 1, 2]

    def test_reference_room_fit_is_bit_identical(self, small_room_split):
        train = small_room_split.train
        m = LinearSvr().fit(train.features, train.labels)
        assert _sha256(m._W, m._b) == SVR_ROOM_SHA256

    @pytest.mark.parametrize("width", [3, 20])
    @pytest.mark.parametrize("learning_rate, reg_c", [(0.01, 1e-5), (10.0, 1e-3)])
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_divergence_raises_with_column_and_epoch(self, rng, width, learning_rate, reg_c):
        X = rng.normal(size=(50, width))
        Y = rng.normal(size=(50, 3))
        with pytest.raises(ValueError, match=r"diverged .* output column 0 at epoch \d+"):
            LinearSvr(learning_rate=learning_rate, reg_c=reg_c).fit(X, Y)


class TestMlp:
    def test_gradients_match_finite_differences(self, rng):
        m, h, d, n = 3, 4, 2, 6
        W1 = rng.normal(size=(m, h)) * 0.7
        b1 = rng.normal(size=h) * 0.3
        W2 = rng.normal(size=(h, d)) * 0.7
        b2 = rng.normal(size=d) * 0.3
        Xs = rng.normal(size=(n, m))
        Y = rng.normal(size=(n, d))
        params = [W1, b1, W2, b2]
        _, grads = mlp_loss_and_grads(tuple(params), Xs, Y)
        eps = 1e-6
        for pi, p in enumerate(params):
            flat = p.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                lp, _ = mlp_loss_and_grads(tuple(params), Xs, Y)
                flat[j] = orig - eps
                lm, _ = mlp_loss_and_grads(tuple(params), Xs, Y)
                flat[j] = orig
                numeric = (lp - lm) / (2 * eps)
                assert grads[pi].ravel()[j] == pytest.approx(numeric, abs=1e-5)

    def test_from_parameters_forward_pass(self):
        W1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        b1 = np.array([-0.5, 0.0])
        W2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b2 = np.array([0.0, 0.0, 1.0])
        m = MlpRegressor.from_parameters(W1, b1, W2, b2)
        # relu(x - (0.5, 0)) routed through identity columns
        assert np.allclose(m.predict([[1.0, -2.0]]), [[0.5, 0.0, 1.0]])

    def test_standardization_applied_at_predict(self):
        W1 = np.array([[1.0]])
        b1 = np.array([0.0])
        W2 = np.array([[1.0, 0.0, 0.0]])
        b2 = np.zeros(3)
        m = MlpRegressor.from_parameters(W1, b1, W2, b2, x_mean=[10.0], x_std=[2.0])
        assert m.predict([[14.0]])[0, 0] == pytest.approx(2.0)

    def test_training_reduces_loss(self, rng):
        X = rng.uniform(-1, 1, size=(60, 2))
        Y = np.stack([X[:, 0], X[:, 1], X.sum(axis=1)], axis=1)
        m = MlpRegressor(hidden_units=16, epochs=200, learning_rate=0.05, seed=0).fit(X, Y)
        assert m.loss_history[-1] < m.loss_history[0] * 0.1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_raises_with_epoch(self, rng):
        X = rng.normal(size=(20, 2))
        Y = rng.normal(size=(20, 3)) * 100
        with pytest.raises(ValueError, match="epoch"):
            MlpRegressor(hidden_units=8, epochs=500, learning_rate=1e6).fit(X, Y)

    def test_fit_is_seeded(self, rng):
        X = rng.normal(size=(20, 2))
        Y = rng.normal(size=(20, 3))
        a = MlpRegressor(hidden_units=8, epochs=20, seed=3).fit(X, Y)
        b = MlpRegressor(hidden_units=8, epochs=20, seed=3).fit(X, Y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="hidden_units must be >= 1, got 0"):
            MlpRegressor(hidden_units=0)
        with pytest.raises(ValueError, match="epochs must be >= 1, got -1"):
            MlpRegressor(epochs=-1)
        with pytest.raises(ValueError, match="learning_rate must be > 0, got 0.0"):
            MlpRegressor(learning_rate=0.0)

    def test_reference_room_fit_is_bit_identical(self, small_room_split):
        train = small_room_split.train
        m = MlpRegressor(hidden_units=32, epochs=30, seed=1).fit(train.features, train.labels)
        assert _sha256(m.W1, m.b1, m.W2, m.b2) == MLP_ROOM_SHA256
        assert _sha256(np.array(m.loss_history)) == MLP_ROOM_LOSS_SHA256

    def test_work_buffers_give_the_same_bits(self, rng):
        n, m, h, k = 40, 5, 12, 3
        params = (rng.normal(size=(m, h)), rng.normal(size=h), rng.normal(size=(h, k)),
                  rng.normal(size=k))
        Xs = rng.normal(size=(n, m))
        Y = rng.normal(size=(n, k))
        loss, grads = mlp_loss_and_grads(params, Xs, Y)
        work = regressors._mlp_work(n, h, k)
        for _ in range(2):  # a reused, already written work gives the same again
            loss_w, grads_w = mlp_loss_and_grads(params, Xs, Y, work)
            assert loss_w == loss
            for g, g_w in zip(grads, grads_w):
                assert g.tobytes() == g_w.tobytes()
                assert not any(np.shares_memory(g_w, buf) for buf in work.values())

    @pytest.mark.parametrize("change, message", [
        ({"b1": np.zeros(5)}, r"b1 must have shape \(4,\), got \(5,\)"),
        ({"x_mean": np.zeros(7)}, r"x_mean must have shape \(3,\), got \(7,\)"),
        ({"x_std": np.zeros(3)}, r"x_std must be finite and > 0, got 0.0 at index \(0,\)"),
        ({"x_std": [1.0, np.inf, 1.0]}, r"x_std must be finite and > 0, got inf at index \(1,\)"),
        ({"W2": np.ones((5, 3))}, r"W2 must have shape \(4, k\) with k >= 1, got \(5, 3\)"),
        ({"W1": np.ones(3)}, r"W1 must be a non-empty \(m, h\) matrix, got shape \(3,\)"),
        ({"b2": [0.0, np.nan, 0.0]}, r"b2 must be finite, got nan at index \(1,\)"),
    ])
    def test_from_parameters_rejects_bad_parameters(self, change, message):
        params = {"W1": np.ones((3, 4)), "b1": np.zeros(4), "W2": np.ones((4, 3)),
                  "b2": np.zeros(3)}
        params.update(change)
        with pytest.raises(ValueError, match=message):
            MlpRegressor.from_parameters(**params)


def test_cart_fit_wrapper_passes_depth():
    ds = toy_dataset(n=30, m=3, seed=2)
    m = cart_fit(ds, max_depth=2)
    assert isinstance(m, CartRegressor)
    assert m.node_count <= 7
