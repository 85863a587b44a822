"""Base regressors: hand-checked values, brute-force oracles, invariants."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from rfloc import regressors
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
        with pytest.raises(ValueError, match="fit on 3 features, got a query with 4"):
            fitted.predict(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="fit on 3 features, got a query with 2"):
            fitted.predict(np.zeros((2, 2)))
        assert (fitted.n_features, fitted.n_outputs) == (3, 3)

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
        # Rows on a small integer grid repeat, so many sit at equal distances;
        # distinct labels make any other choice among tied rows visible.
        X = rng.integers(0, 4, size=(60, 2)).astype(np.float64)
        Y = rng.normal(size=(60, 3))
        Q = rng.integers(0, 8, size=(200, 2)) / 2.0
        d = cdist(Q, X)
        kth = np.sort(d, axis=1)[:, k - 1 : k]
        beyond = (d <= kth).sum(axis=1) > k
        assert k == 60 or 0 < beyond.sum() < len(Q)  # both paths run
        got = KnnRegressor(k=k, weighting=weighting).fit(X, Y).predict(Q)
        assert np.array_equal(got, self._stable_argsort_predict(X, Y, Q, k, weighting))

    def test_predict_takes_the_queries_in_bounded_blocks(self, rng, monkeypatch):
        # 1800 x 4200 queries once held two full query x train arrays (115 MiB)
        X = rng.normal(size=(4200, 5))
        Y = rng.normal(size=(4200, 3))
        Q = rng.normal(size=(1800, 5))
        m = KnnRegressor().fit(X, Y)
        tracemalloc.start()
        try:
            got = m.predict(Q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = 8 * Q.shape[0] * X.shape[0]
        assert peak < 0.5 * full, f"peak {peak / full:.2f} query x train float64 arrays"
        for rows_per_block in (1, 7, Q.shape[0]):
            monkeypatch.setattr(regressors, "_KNN_BLOCK", rows_per_block * X.shape[0])
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
        m = CartRegressor(max_features=2, seed=7).fit(X, Y)
        assert m.split_log
        assert all(len(r.candidate_features) == 2 for r in m.split_log)
        assert any(r.candidate_features != m.split_log[0].candidate_features for r in m.split_log)

    def test_random_thresholds_stay_inside_value_range(self, rng):
        for seed in range(4):
            X = rng.normal(size=(50, 4))
            Y = rng.normal(size=(50, 3))
            m = CartRegressor(random_thresholds=True, seed=seed).fit(X, Y)
            assert m.split_log
            for r in m.split_log:
                lo, hi = r.value_range
                assert lo < r.threshold < hi

    def test_used_features_are_the_split_features(self, rng):
        X = rng.normal(size=(80, 6))
        X[:, 2] = 1.5  # constant: no split can use it
        m = CartRegressor(max_depth=3).fit(X, rng.normal(size=(80, 3)))
        assert np.array_equal(m.used_features(), sorted({r.feature for r in m.split_log}))
        assert 2 not in m.used_features()
        assert CartRegressor(max_depth=0).fit(X, X[:, :3]).used_features().size == 0

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
            best = (int(fb[c]), float(thr), float(vs[0, c]), float(vs[-1, c]))
    return best


def _reference_cart(X, Y, **params):
    """A CartRegressor grown by the per-node-argsort kernel (the reference
    the presorted kernel must match bit for bit)."""
    tree = CartRegressor(**params)
    X, Y = tree._fit_inputs(X, Y)
    m = X.shape[1]
    feature, threshold, left, right, value, log = [], [], [], [], [], []
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
            split = tree._best_random_split(X, Yn, rows, feats, rng)
        else:
            split = _reference_midpoint_split(X, Yn, rows, feats, tree.min_samples_leaf)
        if split is None:
            continue
        f, thr, lo, hi = split
        mask = X[rows, f] <= thr
        if mask.all() or not mask.any():
            continue
        log.append(SplitRecord(int(f), float(thr), tuple(int(c) for c in feats), (lo, hi)))
        feature[node] = int(f)
        threshold[node] = float(thr)
        stack.append((rows[~mask], depth + 1, node, 1))
        stack.append((rows[mask], depth + 1, node, 0))
    tree.split_log = log
    tree._feature = np.array(feature, dtype=np.intp)
    tree._threshold = np.array(threshold)
    tree._left = np.array(left, dtype=np.intp)
    tree._right = np.array(right, dtype=np.intp)
    tree._value = np.array(value)
    return tree._mark_fitted(m, Y.shape[1])


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
    assert name == "random-thresholds"
    return rng.normal(size=(200, 5)), rng.normal(size=(200, 3)), {
        "random_thresholds": True, "max_features": 2, "seed": 4}


class TestPresortedCart:
    @pytest.mark.parametrize("case", ["tie-heavy-grid", "mixed-columns", "adjacent-doubles-min-leaf",
                                      "max-features-seeded", "bootstrap-duplicates",
                                      "random-thresholds"])
    def test_tree_is_bit_identical_to_per_node_sorting(self, rng, case):
        X, Y, params = _kernel_case(case, rng)
        got = CartRegressor(**params).fit(X, Y)
        want = _reference_cart(X, Y, **params)
        assert got.node_count > 3
        for name in ("_feature", "_threshold", "_left", "_right", "_value"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert got.split_log == want.split_log
        # the leaf each training row reached during fit is the one predict finds
        assert np.array_equal(got._value[got.train_leaf], got.predict(X))

    @pytest.mark.parametrize("outputs", [1, 2, 3, 7, 8, 9, 20])
    def test_output_sums_match_numpy_bit_for_bit(self, rng, outputs):
        # magnitudes far apart, so any other order of the additions shows
        shape = (300, 4, outputs)
        s1 = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        s2 = s1 * s1 + rng.random(size=shape)
        count = np.arange(1, 301)[:, None, None]
        want = (s2 - s1 * s1 / count).sum(axis=2)
        assert np.array_equal(regressors._sse(s1, s2, count), want)

    def test_a_shared_order_is_read_not_written(self, rng):
        X = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
        Y = rng.normal(size=(200, 1))
        order = column_order(X)
        assert order.dtype == np.uint8 and order.shape == (3, 200)
        before = order.copy()
        a = CartRegressor(max_depth=3).fit(X, Y, order=order)
        assert np.array_equal(order, before)
        b = CartRegressor(max_depth=3).fit(X, Y)
        assert np.array_equal(a._threshold, b._threshold, equal_nan=True)
        with pytest.raises(ValueError, match=r"order has shape \(3, 199\), expected \(3, 200\)"):
            CartRegressor().fit(X, Y, order=order[:, 1:])

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
        scan_bytes = 24 * 8 * (1 << 14)  # the split scan's 2**14-element float64 temporaries
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


def test_cart_fit_wrapper_passes_depth():
    ds = toy_dataset(n=30, m=3, seed=2)
    m = cart_fit(ds, max_depth=2)
    assert isinstance(m, CartRegressor)
    assert m.node_count <= 7
