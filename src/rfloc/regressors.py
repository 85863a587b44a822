"""From-scratch base regressors behind one fit/predict contract.

Every estimator maps an (n, m) spectrum feature matrix to (n, 3) coordinate
predictions. Fitted models are immutable in practice (no method mutates state
after fit) and safe to share across threads for predict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from .core import Dataset, _check_count, _check_real


class NotFittedError(RuntimeError):
    pass


class Model:
    """Base fit/predict contract shared by all estimators and ensembles.

    A fit converts and checks its inputs with _fit_inputs and ends with
    _mark_fitted; a model is fitted once n_features is set. predict accepts
    only non-empty 2-D queries of the fitted width. used_features names the
    columns its predictions read: all of them, unless a subclass can tell.
    """

    kind = "model"

    def __init__(self):
        self.fit_time_s = 0.0
        self.frequencies_mhz = None  # set when fit from a Dataset
        self.n_features = None
        self.n_outputs = None

    def fit(self, features, labels):
        raise NotImplementedError

    def fit_dataset(self, train: Dataset):
        """Fit on a Dataset; ensembles whose members need Dataset rows override this."""
        return self.fit(train.features, train.labels)

    def _fit_inputs(self, features, labels) -> tuple[np.ndarray, np.ndarray]:
        """Training arrays as float64, a 1-D label as one column; raises
        ValueError naming the class on a bad shape, an empty set or a
        non-finite value (with its row and column)."""
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        name = type(self).__name__
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError(
                f"{name}: features and labels must be 2-D, got shapes {X.shape} and {Y.shape}"
            )
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"{name}: {X.shape[0]} feature rows vs {Y.shape[0]} label rows")
        if X.shape[0] == 0:
            raise ValueError(f"cannot fit {name} on an empty training set")
        for what, A in (("features", X), ("labels", Y)):
            finite = np.isfinite(A)
            if not finite.all():
                r, c = np.argwhere(~finite)[0]
                raise ValueError(
                    f"{name}: non-finite {what} value {A[r, c]} at row {r}, column {c}"
                )
        return X, Y

    def _mark_fitted(self, n_features: int, n_outputs: int):
        self.n_features = n_features
        self.n_outputs = n_outputs
        return self

    def _check_fitted(self) -> None:
        if self.n_features is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")

    def predict(self, features) -> np.ndarray:
        self._check_fitted()
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"query features must be 2-D, got ndim={features.ndim}")
        if features.shape[0] == 0:
            raise ValueError("empty query")
        if features.shape[1] != self.n_features:
            raise ValueError(
                f"{type(self).__name__} was fit on {self.n_features} features, "
                f"got a query with {features.shape[1]}"
            )
        return self._predict(features)

    def _predict(self, features) -> np.ndarray:
        raise NotImplementedError

    def used_features(self) -> np.ndarray:
        """The sorted indices of the columns a prediction can depend on: two
        queries that differ only in other columns get the same prediction."""
        self._check_fitted()
        return self._used_features()

    def _used_features(self) -> np.ndarray:
        return np.arange(self.n_features)


def fit_on_dataset(model: Model, train: Dataset) -> Model:
    """Fit a model on a Dataset, recording wall-clock fit time and the band."""
    t0 = time.perf_counter()
    model.fit_dataset(train)
    model.fit_time_s = time.perf_counter() - t0
    model.frequencies_mhz = train.frequencies_mhz
    return model


# Query x train elements per block of a KNN predict.
_KNN_BLOCK = 1 << 20


class KnnRegressor(Model):
    """k-nearest-neighbor regression under Euclidean feature distance.

    Distance ties are broken by lower training-row index. With
    weighting="inverse-distance" an exact feature match (distance zero)
    restricts the prediction to the zero-distance neighbors.
    """

    kind = "knr"

    def __init__(self, k: int = 5, weighting: str = "uniform"):
        super().__init__()
        _check_count("k", k, 1)
        if weighting not in ("uniform", "inverse-distance"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.k = k
        self.weighting = weighting

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds training size n={X.shape[0]}")
        # copies: a later write to the caller's arrays must not move the model
        self._X = X.copy()
        self._Y = Y.copy()
        return self._mark_fitted(X.shape[1], Y.shape[1])

    def _predict(self, features):
        # Queries a block of rows at a time, so the query x train distance
        # and index arrays stay near _KNN_BLOCK elements; rows are independent.
        block = max(1, _KNN_BLOCK // self._X.shape[0])
        out = np.empty((features.shape[0], self._Y.shape[1]))
        for start in range(0, features.shape[0], block):
            out[start : start + block] = self._predict_block(features[start : start + block])
        return out

    def _predict_block(self, features):
        d = cdist(features, self._X)
        k = self.k
        # The k smallest by argpartition, ordered by (distance, row index).
        cand = np.sort(np.argpartition(d, k - 1, axis=1)[:, :k], axis=1)
        order = np.argsort(np.take_along_axis(d, cand, axis=1), axis=1, kind="stable")
        nearest = np.take_along_axis(cand, order, axis=1)
        # A row with more than k distances at or below its k-th (or a NaN k-th)
        # has no unique k nearest: the stable full sort picks the lowest rows.
        kth = np.take_along_axis(d, nearest[:, -1:], axis=1)
        tied = np.count_nonzero(d <= kth, axis=1) != k
        if tied.any():
            nearest[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
        neigh_y = self._Y[nearest]  # (q, k, d)
        if self.weighting == "uniform":
            return neigh_y.mean(axis=1)
        neigh_d = np.take_along_axis(d, nearest, axis=1)
        exact = neigh_d == 0.0
        with np.errstate(divide="ignore"):
            w = np.where(exact, 0.0, 1.0 / np.where(exact, 1.0, neigh_d))
        has_exact = exact.any(axis=1)
        w[has_exact] = exact[has_exact].astype(np.float64)
        w /= w.sum(axis=1, keepdims=True)
        return (w[:, :, None] * neigh_y).sum(axis=1)


@dataclass(frozen=True)
class SplitRecord:
    """One internal split as grown: which features were candidates and what won."""

    feature: int
    threshold: float
    candidate_features: tuple[int, ...]
    value_range: tuple[float, float]  # (min, max) of the chosen feature at the node


# Elements per block of the tree kernel's sort, scan and partition steps; it
# bounds their temporaries (a larger scan block once raised band-select's
# peak RSS from 119 to 201 MB).
_BLOCK = 1 << 14


def column_order(X: np.ndarray) -> np.ndarray:
    """The stable ascending order of every column of X, as an (m, n) array.

    Row f lists the row indices of X sorted by X[:, f], ties in row order. The
    dtype is the smallest unsigned one that holds n - 1, and the columns are
    sorted a block at a time, so no (n, m) intp array is ever held.
    """
    n, m = X.shape
    order = np.empty((m, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    block = max(1, _BLOCK // n)
    for start in range(0, m, block):
        order[start : start + block] = np.argsort(
            X[:, start : start + block], axis=0, kind="stable"
        ).T
    return order


def _sse(s1, s2, count):
    """Squared error about the mean, summed over the last axis (the outputs),
    from the sums s1 and s2 of count values and of their squares.

    numpy sums fewer than 8 values in order, so adding the outputs one by one
    gives the same bits as .sum(axis=-1), about ten times faster on the
    scan's short trailing axis.
    """
    e = s2 - s1 * s1 / count
    if e.shape[-1] >= 8:
        return e.sum(axis=-1)
    total = e[..., 0].copy()
    for i in range(1, e.shape[-1]):
        total += e[..., i]
    return total


class CartRegressor(Model):
    """Greedy binary regression tree on variance reduction.

    The split criterion is the reduction in total squared error summed over
    output dimensions. Candidate thresholds are midpoints between consecutive
    distinct sorted feature values; equal-gain ties go to the lower feature
    index, then the lower threshold. With max_features set, each split draws a
    fresh random feature subset; with random_thresholds, each candidate
    feature gets one uniform threshold inside its value range instead of the
    full midpoint scan.

    The midpoint scan sorts each column once per fit (column_order) and
    stably partitions that order at every split, so each node sees its rows
    in ascending value order, ties in row order, without sorting. After fit,
    train_leaf holds the leaf each training row reached.
    """

    kind = "dtr"

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        random_thresholds: bool = False,
        seed: int | None = None,
    ):
        super().__init__()
        for name, value, minimum in (("max_depth", max_depth, 0), ("max_features", max_features, 1),
                                     ("seed", seed, 0)):
            if value is not None:
                _check_count(name, value, minimum)
        _check_count("min_samples_leaf", min_samples_leaf, 1)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_thresholds = random_thresholds
        self.seed = seed
        self.split_log: list[SplitRecord] = []

    def fit(self, features, labels, *, order=None):
        """Grow the tree. order, when given, is column_order(features) and is
        only read: a caller that fits many trees on one X sorts it once."""
        X, Y = self._fit_inputs(features, labels)
        n, m = X.shape
        if self.max_features is not None and not 1 <= self.max_features <= m:
            raise ValueError(f"max_features must be in [1, {m}], got {self.max_features}")
        if self.random_thresholds:
            order = None  # one random threshold per feature: no sorted scan
        elif order is None:
            order = column_order(X)
        elif order.shape != (m, n):
            raise ValueError(f"order has shape {order.shape}, expected {(m, n)}")
        else:
            order = order.copy()  # partitioned in place below
        self.split_log = []
        self._feature = []
        self._threshold = []
        self._left = []
        self._right = []
        self._value = []
        train_leaf = np.empty(n, dtype=np.intp)
        goes_left = np.zeros(n, dtype=bool)
        rng = np.random.default_rng(self.seed)
        # Explicit preorder stack (left child first) instead of recursion:
        # near-duplicate rows can produce trees deeper than Python's
        # recursion limit. A node's rows are ascending and own the positions
        # lo:lo + rows.size of every row of order.
        stack = [(np.arange(n), 0, 0, -1, 0)]
        while stack:
            rows, lo, depth, parent, side = stack.pop()
            node = self._new_node()
            train_leaf[rows] = node  # a split's children overwrite it
            if parent >= 0:
                if side == 0:
                    self._left[parent] = node
                else:
                    self._right[parent] = node
            Yn = Y[rows]
            self._value[node] = Yn.mean(axis=0)
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if rows.size < 2 * self.min_samples_leaf or rows.size < 2:
                continue
            if self.max_features is not None and self.max_features < m:
                feats = np.sort(rng.choice(m, size=self.max_features, replace=False))
            else:
                feats = np.arange(m)
            if self.random_thresholds:
                split = self._best_random_split(X, Yn, rows, feats, rng)
            else:
                split = self._best_midpoint_split(X, Y, Yn, order[:, lo : lo + rows.size], feats)
            if split is None:
                continue
            f, thr, vlo, vhi = split
            mask = X[rows, f] <= thr
            if mask.all() or not mask.any():
                continue  # degenerate split; keep the node as a leaf
            self.split_log.append(
                SplitRecord(int(f), float(thr), tuple(int(c) for c in feats), (vlo, vhi))
            )
            self._feature[node] = int(f)
            self._threshold[node] = float(thr)
            n_left = int(np.count_nonzero(mask))
            # only a child that can split reads its segment of the order
            deeper = self.max_depth is None or depth + 1 < self.max_depth
            larger = max(n_left, rows.size - n_left)
            if order is not None and deeper and larger >= max(2, 2 * self.min_samples_leaf):
                goes_left[rows] = mask
                _partition(order[:, lo : lo + rows.size], goes_left, n_left)
            stack.append((rows[~mask], lo + n_left, depth + 1, node, 1))
            stack.append((rows[mask], lo, depth + 1, node, 0))
        self._feature = np.array(self._feature, dtype=np.intp)
        self._threshold = np.array(self._threshold)
        self._left = np.array(self._left, dtype=np.intp)
        self._right = np.array(self._right, dtype=np.intp)
        self._value = np.array(self._value)
        self.train_leaf = train_leaf.astype(np.min_scalar_type(self.node_count - 1))
        return self._mark_fitted(m, Y.shape[1])

    def _new_node(self):
        self._feature.append(-1)
        self._threshold.append(np.nan)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(None)
        return len(self._feature) - 1

    def _best_midpoint_split(self, X, Y, Yn, seg, feats):
        """The best (feature, threshold, min, max) over feats, or None; seg is
        the node's part of the column order (its rows, sorted per feature)."""
        k = Yn.shape[0]
        tot1 = Yn.sum(axis=0)
        tot2 = (Yn * Yn).sum(axis=0)
        sse_node = float((tot2 - tot1 * tot1 / k).sum())
        if sse_node <= 0.0:
            return None
        # A prefix of j+1 sorted rows is a candidate left side when the value
        # changes after it and both sides keep min_samples_leaf rows.
        n_left = np.arange(1, k)
        n_right = k - n_left
        size_ok = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not size_ok.any():
            return None
        best = None
        best_gain = 0.0
        # All candidate features of a block at once, one column each; the
        # block keeps the (rows, features, outputs) temporaries near _BLOCK.
        block = max(1, _BLOCK // (k * Yn.shape[1]))
        for start in range(0, len(feats), block):
            fb = feats[start : start + block]
            idx = seg[fb].T  # (k, features): each column's rows in value order
            vs = X[idx, fb]
            Ys = Y.take(idx, axis=0)  # (k, features, outputs)
            c1 = np.cumsum(Ys, axis=0)[:-1]
            c2 = np.cumsum(Ys * Ys, axis=0)[:-1]
            ok = (vs[:-1] != vs[1:]) & size_ok[:, None]
            if 2 * np.count_nonzero(ok) < ok.size:
                # Few distinct values: the gain arithmetic only at candidates.
                at = np.flatnonzero(ok)  # position j of feature c is j * len(fb) + c
                c1 = c1.reshape(-1, c1.shape[2]).take(at, axis=0)
                c2 = c2.reshape(-1, c2.shape[2]).take(at, axis=0)
                nl = n_left.take(at // len(fb))[:, None]
                cand = sse_node - _sse(c1, c2, nl)
                cand -= _sse(tot1 - c1, tot2 - c2, k - nl)
                gain = np.full(ok.size, -np.inf)
                gain[at] = cand
                gain = gain.reshape(ok.shape)
            else:
                sse_l = _sse(c1, c2, n_left[:, None, None])
                sse_r = _sse(tot1 - c1, tot2 - c2, n_right[:, None, None])
                gain = np.where(ok, sse_node - sse_l - sse_r, -np.inf)
            js = np.argmax(gain, axis=0)  # first max: lowest threshold wins ties
            col_gain = gain[js, np.arange(len(fb))]
            col_gain[np.isnan(col_gain)] = -np.inf  # a NaN gain never wins a feature
            c = int(np.argmax(col_gain))  # first max: lowest feature wins ties
            if col_gain[c] > best_gain:
                best_gain = float(col_gain[c])
                j = js[c]
                thr = (vs[j, c] + vs[j + 1, c]) / 2.0
                if thr >= vs[j + 1, c]:
                    # midpoint of adjacent doubles can round up to the higher
                    # value; fall back to the lower one so "<= thr" still
                    # separates the two groups
                    thr = vs[j, c]
                best = (int(fb[c]), float(thr), float(vs[0, c]), float(vs[-1, c]))
        return best

    def _best_random_split(self, X, Yn, rows, feats, rng):
        k = rows.size
        tot1 = Yn.sum(axis=0)
        tot2 = (Yn * Yn).sum(axis=0)
        sse_node = float((tot2 - tot1 * tot1 / k).sum())
        if sse_node <= 0.0:
            return None
        best = None
        best_gain = 0.0
        for f in feats:
            v = X[rows, f]
            lo = float(v.min())
            hi = float(v.max())
            if lo == hi:
                continue  # constant feature: empty threshold range
            thr = float(rng.uniform(lo, hi))
            if not lo < thr < hi:
                continue
            mask = v <= thr
            n_left = int(mask.sum())
            n_right = k - n_left
            if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                continue
            s1l = Yn[mask].sum(axis=0)
            s2l = (Yn[mask] * Yn[mask]).sum(axis=0)
            sse_l = float((s2l - s1l * s1l / n_left).sum())
            s1r = tot1 - s1l
            s2r = tot2 - s2l
            sse_r = float((s2r - s1r * s1r / n_right).sum())
            gain = sse_node - sse_l - sse_r
            if gain > best_gain:
                best_gain = gain
                best = (int(f), thr, lo, hi)
        return best

    def _predict(self, features):
        # Move every query row down one level per pass until all sit in leaves.
        node = np.zeros(features.shape[0], dtype=np.intp)
        active = np.arange(features.shape[0])
        while active.size:
            cur = node[active]
            f = self._feature[cur]
            inner = f >= 0
            active, cur, f = active[inner], cur[inner], f[inner]
            go_left = features[active, f] <= self._threshold[cur]
            node[active] = np.where(go_left, self._left[cur], self._right[cur])
        return self._value[node]

    def _used_features(self):
        return np.unique(self._feature[self._feature >= 0])

    @property
    def node_count(self) -> int:
        return len(self._feature)


def _partition(seg, goes_left, n_left):
    """Stably partition every row of seg (node positions of the column order)
    in place: the rows with goes_left set first, each side in its old order."""
    k = seg.shape[1]
    block = max(1, _BLOCK // k)
    for start in range(0, seg.shape[0], block):
        part = seg[start : start + block]
        left = goes_left.take(part).ravel()
        # compress reads row-major, so each row keeps its order on both sides
        lhs, rhs = part.compress(left), part.compress(~left)
        part[:, :n_left] = lhs.reshape(-1, n_left)
        part[:, n_left:] = rhs.reshape(-1, k - n_left)


class GprRegressor(Model):
    """Gaussian-process regression with a squared-exponential kernel.

    k(a, b) = signal_variance * exp(-||a - b||^2 / (2 * length_scale^2)).
    Labels are centered by their training mean (added back at predict), so
    far-field queries revert to that mean. The three outputs share one
    Cholesky factor of K + jitter*I; if the factorization fails the jitter is
    escalated by x10 up to three times before giving up.
    """

    kind = "gpr"

    def __init__(
        self,
        length_scale: float = 1.0,
        signal_variance: float = 1.0,
        noise_jitter: float = 1e-8,
    ):
        super().__init__()
        _check_real("length_scale", length_scale, lambda v: v > 0, "> 0")
        _check_real("signal_variance", signal_variance, lambda v: v > 0, "> 0")
        _check_real("noise_jitter", noise_jitter, lambda v: v > 0, "> 0")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_jitter = noise_jitter

    def _kernel(self, A, B):
        """The kernel matrix, computed in the cdist buffer with no n x n temporaries."""
        K = cdist(A, B, "sqeuclidean")
        np.negative(K, out=K)
        np.divide(K, 2.0 * self.length_scale**2, out=K)
        np.exp(K, out=K)
        np.multiply(K, self.signal_variance, out=K)
        return K

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        jitter = self.noise_jitter
        L = None
        for _ in range(4):
            K = self._kernel(X, X)
            K.flat[:: K.shape[0] + 1] += jitter
            try:
                # K is exactly symmetric, so K.T is the Fortran-ordered copy
                # LAPACK wants; potrf writes L over it.
                L = cholesky(K.T, lower=True, overwrite_a=True)
                break
            except LinAlgError:
                del K  # potrf wrote over it; free it before the rebuild
                jitter *= 10.0
        if L is None:
            raise ValueError(
                f"kernel matrix is singular even after jitter escalation to {jitter / 10.0:g}"
            )
        self._y_mean = Y.mean(axis=0)
        z = solve_triangular(L, Y - self._y_mean, lower=True)
        self._alpha = solve_triangular(L.T, z, lower=False)
        self._X = X.copy()  # the caller's array may change after fit
        self.effective_jitter = jitter
        return self._mark_fitted(X.shape[1], Y.shape[1])

    def _predict(self, features):
        Kq = self._kernel(features, self._X)
        return Kq @ self._alpha + self._y_mean


def _check_schedule(epochs, learning_rate) -> None:
    """Raise ValueError naming a training schedule that would not train."""
    _check_count("epochs", epochs, 1)
    _check_real("learning_rate", learning_rate, lambda v: v > 0, "> 0")


class LinearSvr(Model):
    """Linear support-vector regression via epoch-ordered subgradient descent.

    One independent w.x + b model per output, trained on the epsilon-
    insensitive loss with an L2 penalty (lambda = 1 / (reg_c * n)). Features
    are standardized internally by training statistics. Samples are visited
    in index order every epoch, so training is fully deterministic.
    """

    kind = "svr"

    def __init__(
        self,
        epsilon: float = 0.1,
        reg_c: float = 1.0,
        epochs: int = 60,
        learning_rate: float = 0.01,
    ):
        super().__init__()
        _check_real("epsilon", epsilon, lambda v: v >= 0, ">= 0")
        _check_real("reg_c", reg_c, lambda v: v > 0, "> 0")
        _check_schedule(epochs, learning_rate)
        self.epsilon = epsilon
        self.reg_c = reg_c
        self.epochs = epochs
        self.learning_rate = learning_rate

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        n, m = X.shape
        self._x_mean = X.mean(axis=0)
        sd = X.std(axis=0)
        self._x_std = np.where(sd == 0.0, 1.0, sd)
        Xs = (X - self._x_mean) / self._x_std

        lam = 1.0 / (self.reg_c * n)
        lr = self.learning_rate
        eps = self.epsilon
        W = np.zeros((m, Y.shape[1]))
        b = np.zeros(Y.shape[1])
        for d in range(Y.shape[1]):
            w = np.zeros(m)
            bd = 0.0
            yd = Y[:, d]
            for _ in range(self.epochs):
                for i in range(n):
                    x = Xs[i]
                    err = yd[i] - (float(w @ x) + bd)
                    if err > eps:
                        w += lr * (x - lam * w)
                        bd += lr
                    elif err < -eps:
                        w -= lr * (x + lam * w)
                        bd -= lr
                    else:
                        w -= lr * lam * w
            W[:, d] = w
            b[d] = bd
        self._W = W
        self._b = b
        return self._mark_fitted(m, Y.shape[1])

    def _predict(self, features):
        Xs = (features - self._x_mean) / self._x_std
        return Xs @ self._W + self._b


def mlp_loss_and_grads(params, Xs, Y):
    """MSE loss (mean over all entries) and its gradients for a ReLU net.

    params is (W1, b1, W2, b2); Xs is assumed already standardized.
    Exposed at module level so gradients can be finite-difference checked.
    """
    W1, b1, W2, b2 = params
    n = Xs.shape[0]
    Z = Xs @ W1 + b1
    A = np.maximum(Z, 0.0)
    out = A @ W2 + b2
    err = out - Y
    loss = float((err * err).mean())
    scale = 2.0 / err.size
    d_out = scale * err
    gW2 = A.T @ d_out
    gb2 = d_out.sum(axis=0)
    dA = d_out @ W2.T
    dZ = dA * (Z > 0.0)
    gW1 = Xs.T @ dZ
    gb1 = dZ.sum(axis=0)
    return loss, (gW1, gb1, gW2, gb2)


class MlpRegressor(Model):
    """One-hidden-layer ReLU network trained by full-batch gradient descent.

    Weights start uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the
    seed; biases start at zero. Inputs are standardized by training
    statistics; outputs are linear. Raises on divergence (non-finite loss),
    naming the epoch.
    """

    kind = "mlp"

    def __init__(
        self,
        hidden_units: int = 100,
        epochs: int = 300,
        learning_rate: float = 0.05,
        seed: int = 0,
    ):
        super().__init__()
        _check_count("hidden_units", hidden_units, 1)
        _check_count("seed", seed, 0)
        _check_schedule(epochs, learning_rate)
        self.hidden_units = hidden_units
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed

    @classmethod
    def from_parameters(cls, W1, b1, W2, b2, x_mean=None, x_std=None):
        """Build a fitted model from explicit parameters (test hook)."""
        model = cls(hidden_units=W1.shape[1])
        model.W1 = np.asarray(W1, dtype=np.float64)
        model.b1 = np.asarray(b1, dtype=np.float64)
        model.W2 = np.asarray(W2, dtype=np.float64)
        model.b2 = np.asarray(b2, dtype=np.float64)
        model._x_mean = np.zeros(W1.shape[0]) if x_mean is None else np.asarray(x_mean)
        model._x_std = np.ones(W1.shape[0]) if x_std is None else np.asarray(x_std)
        return model._mark_fitted(model.W1.shape[0], model.W2.shape[1])

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        m = X.shape[1]
        self._x_mean = X.mean(axis=0)
        sd = X.std(axis=0)
        self._x_std = np.where(sd == 0.0, 1.0, sd)
        Xs = (X - self._x_mean) / self._x_std

        h = self.hidden_units
        rng = np.random.default_rng(self.seed)
        r1 = 1.0 / math.sqrt(m)
        r2 = 1.0 / math.sqrt(h)
        W1 = rng.uniform(-r1, r1, size=(m, h))
        b1 = np.zeros(h)
        W2 = rng.uniform(-r2, r2, size=(h, Y.shape[1]))
        b2 = np.zeros(Y.shape[1])

        lr = self.learning_rate
        self.loss_history = []
        for epoch in range(self.epochs):
            loss, (gW1, gb1, gW2, gb2) = mlp_loss_and_grads((W1, b1, W2, b2), Xs, Y)
            if not np.isfinite(loss):
                raise ValueError(f"MLP training diverged (non-finite loss) at epoch {epoch}")
            self.loss_history.append(loss)
            W1 -= lr * gW1
            b1 -= lr * gb1
            W2 -= lr * gW2
            b2 -= lr * gb2
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2
        return self._mark_fitted(m, Y.shape[1])

    def _predict(self, features):
        Xs = (features - self._x_mean) / self._x_std
        A = np.maximum(Xs @ self.W1 + self.b1, 0.0)
        return A @ self.W2 + self.b2


# perfbench's traced run times base fits by wrapping these names; the
# constructors hold every default.
def knn_fit(train: Dataset, **kwargs) -> KnnRegressor:
    return fit_on_dataset(KnnRegressor(**kwargs), train)


def cart_fit(train: Dataset, **kwargs) -> CartRegressor:
    return fit_on_dataset(CartRegressor(**kwargs), train)


def gpr_fit(train: Dataset, **kwargs) -> GprRegressor:
    return fit_on_dataset(GprRegressor(**kwargs), train)


def svr_fit(train: Dataset, **kwargs) -> LinearSvr:
    return fit_on_dataset(LinearSvr(**kwargs), train)


def mlp_fit(train: Dataset, **kwargs) -> MlpRegressor:
    return fit_on_dataset(MlpRegressor(**kwargs), train)
