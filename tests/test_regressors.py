"""Base regressors: hand-checked values, brute-force oracles, invariants."""

import numpy as np
import pytest

from rfloc.regressors import (
    CartRegressor,
    GprRegressor,
    KnnRegressor,
    LinearSvr,
    MlpRegressor,
    Model,
    NotFittedError,
    cart_fit,
    knn_fit,
    mlp_loss_and_grads,
)

from conftest import toy_dataset


class TestModelContract:
    def test_predict_before_fit_raises(self):
        for cls in (KnnRegressor, CartRegressor, GprRegressor, LinearSvr, MlpRegressor):
            with pytest.raises(NotFittedError, match="not fitted"):
                cls().predict(np.zeros((1, 2)))

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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CartRegressor(max_depth=-1)
        with pytest.raises(ValueError):
            CartRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            CartRegressor(max_features=9).fit(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            CartRegressor().fit(np.zeros((0, 2)), np.zeros((0, 3)))


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


def test_cart_fit_wrapper_passes_depth():
    ds = toy_dataset(n=30, m=3, seed=2)
    m = cart_fit(ds, max_depth=2)
    assert isinstance(m, CartRegressor)
    assert m.node_count <= 7
