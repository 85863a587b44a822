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

from .core import Dataset


class NotFittedError(RuntimeError):
    pass


class Model:
    """Base fit/predict contract shared by all estimators and ensembles."""

    kind = "model"

    def __init__(self):
        self.fit_time_s = 0.0
        self.frequencies_mhz = None  # set when fit from a Dataset
        self.n_outputs = 3
        self._fitted = False

    def fit(self, features, labels):
        raise NotImplementedError

    def fit_dataset(self, train: Dataset):
        """Fit on a Dataset; ensembles whose members need Dataset rows override this."""
        return self.fit(train.features, train.labels)

    def predict(self, features) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"query features must be 2-D, got ndim={features.ndim}")
        if features.shape[0] == 0:
            raise ValueError("empty query")
        return self._predict(features)

    def _predict(self, features) -> np.ndarray:
        raise NotImplementedError


def fit_on_dataset(model: Model, train: Dataset) -> Model:
    """Fit a model on a Dataset, recording wall-clock fit time and the band."""
    t0 = time.perf_counter()
    model.fit_dataset(train)
    model.fit_time_s = time.perf_counter() - t0
    model.frequencies_mhz = train.frequencies_mhz
    return model


class KnnRegressor(Model):
    """k-nearest-neighbor regression under Euclidean feature distance.

    Distance ties are broken by lower training-row index. With
    weighting="inverse-distance" an exact feature match (distance zero)
    restricts the prediction to the zero-distance neighbors.
    """

    kind = "knr"

    def __init__(self, k: int = 5, weighting: str = "uniform"):
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weighting not in ("uniform", "inverse-distance"):
            raise ValueError(f"unknown weighting {weighting!r}")
        self.k = k
        self.weighting = weighting

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds training size n={X.shape[0]}")
        self._X = X
        self._Y = Y
        self.n_outputs = Y.shape[1]
        self._fitted = True
        return self

    def _predict(self, features):
        d = cdist(features, self._X)
        nearest = np.argsort(d, axis=1, kind="stable")[:, : self.k]
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


class CartRegressor(Model):
    """Greedy binary regression tree on variance reduction.

    The split criterion is the reduction in total squared error summed over
    output dimensions. Candidate thresholds are midpoints between consecutive
    distinct sorted feature values; equal-gain ties go to the lower feature
    index, then the lower threshold. With max_features set, each split draws a
    fresh random feature subset; with random_thresholds, each candidate
    feature gets one uniform threshold inside its value range instead of the
    full midpoint scan.
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
        if max_depth is not None and max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_thresholds = random_thresholds
        self.seed = seed
        self.split_log: list[SplitRecord] = []

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty training set")
        if Y.ndim == 1:
            Y = Y[:, None]
        m = X.shape[1]
        if self.max_features is not None and not 1 <= self.max_features <= m:
            raise ValueError(f"max_features must be in [1, {m}], got {self.max_features}")
        self.n_outputs = Y.shape[1]
        self.split_log = []
        self._feature = []
        self._threshold = []
        self._left = []
        self._right = []
        self._value = []
        rng = np.random.default_rng(self.seed)
        # Explicit preorder stack (left child first) instead of recursion:
        # near-duplicate rows can produce trees deeper than Python's
        # recursion limit.
        stack = [(np.arange(X.shape[0]), 0, -1, 0)]
        while stack:
            rows, depth, parent, side = stack.pop()
            node = self._new_node()
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
                split = self._best_midpoint_split(X, Yn, rows, feats)
            if split is None:
                continue
            f, thr, lo, hi = split
            mask = X[rows, f] <= thr
            if mask.all() or not mask.any():
                continue  # degenerate split; keep the node as a leaf
            self.split_log.append(
                SplitRecord(int(f), float(thr), tuple(int(c) for c in feats), (lo, hi))
            )
            self._feature[node] = int(f)
            self._threshold[node] = float(thr)
            stack.append((rows[~mask], depth + 1, node, 1))
            stack.append((rows[mask], depth + 1, node, 0))
        self._feature = np.array(self._feature, dtype=np.intp)
        self._threshold = np.array(self._threshold)
        self._left = np.array(self._left, dtype=np.intp)
        self._right = np.array(self._right, dtype=np.intp)
        self._value = np.array(self._value)
        self._fitted = True
        return self

    def _new_node(self):
        self._feature.append(-1)
        self._threshold.append(np.nan)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(None)
        return len(self._feature) - 1

    def _best_midpoint_split(self, X, Yn, rows, feats):
        k = rows.size
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
        # block keeps the (rows, features, outputs) temporaries near 2**14.
        block = max(1, (1 << 14) // (k * Yn.shape[1]))
        for start in range(0, len(feats), block):
            fb = feats[start : start + block]
            V = X[rows[:, None], fb]
            order = np.argsort(V, axis=0, kind="stable")
            vs = np.take_along_axis(V, order, axis=0)
            Ys = Yn[order]  # (k, features, outputs)
            c1 = np.cumsum(Ys, axis=0)[:-1]
            c2 = np.cumsum(Ys * Ys, axis=0)[:-1]
            sse_l = (c2 - c1 * c1 / n_left[:, None, None]).sum(axis=2)
            s1r = tot1 - c1
            s2r = tot2 - c2
            sse_r = (s2r - s1r * s1r / n_right[:, None, None]).sum(axis=2)
            gain = sse_node - sse_l - sse_r
            ok = (vs[:-1] != vs[1:]) & size_ok[:, None]
            gain = np.where(ok, gain, -np.inf)
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

    @property
    def node_count(self) -> int:
        return len(self._feature)


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
        if length_scale <= 0 or signal_variance <= 0:
            raise ValueError("length_scale and signal_variance must be > 0")
        if noise_jitter <= 0:
            raise ValueError(f"noise_jitter must be > 0, got {noise_jitter}")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise_jitter = noise_jitter

    def _kernel(self, A, B):
        sq = cdist(A, B, "sqeuclidean")
        return self.signal_variance * np.exp(-sq / (2.0 * self.length_scale**2))

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot fit GPR on an empty training set")
        K = self._kernel(X, X)
        jitter = self.noise_jitter
        L = None
        for _ in range(4):
            try:
                L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
                break
            except LinAlgError:
                jitter *= 10.0
        if L is None:
            raise ValueError(
                f"kernel matrix is singular even after jitter escalation to {jitter / 10.0:g}"
            )
        self._y_mean = Y.mean(axis=0)
        z = solve_triangular(L, Y - self._y_mean, lower=True)
        self._alpha = solve_triangular(L.T, z, lower=False)
        self._X = X
        self.n_outputs = Y.shape[1]
        self.effective_jitter = jitter
        self._fitted = True
        return self

    def _predict(self, features):
        Kq = self._kernel(features, self._X)
        return Kq @ self._alpha + self._y_mean


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
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        if reg_c <= 0:
            raise ValueError(f"reg_c must be > 0, got {reg_c}")
        self.epsilon = epsilon
        self.reg_c = reg_c
        self.epochs = epochs
        self.learning_rate = learning_rate

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        n, m = X.shape
        if n == 0:
            raise ValueError("cannot fit SVR on an empty training set")
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
        self.n_outputs = Y.shape[1]
        self._fitted = True
        return self

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
        if hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {hidden_units}")
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
        model.n_outputs = model.W2.shape[1]
        model._fitted = True
        return model

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        n, m = X.shape
        if n == 0:
            raise ValueError("cannot fit MLP on an empty training set")
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
        self.n_outputs = Y.shape[1]
        self._fitted = True
        return self

    def _predict(self, features):
        Xs = (features - self._x_mean) / self._x_std
        A = np.maximum(Xs @ self.W1 + self.b1, 0.0)
        return A @ self.W2 + self.b2


def knn_fit(train: Dataset, k: int = 5, weighting: str = "uniform") -> KnnRegressor:
    return fit_on_dataset(KnnRegressor(k=k, weighting=weighting), train)


def cart_fit(train: Dataset, max_depth: int | None = None, min_samples_leaf: int = 1) -> CartRegressor:
    return fit_on_dataset(
        CartRegressor(max_depth=max_depth, min_samples_leaf=min_samples_leaf), train
    )


def gpr_fit(
    train: Dataset,
    length_scale: float = 1.0,
    signal_variance: float = 1.0,
    noise_jitter: float = 1e-8,
) -> GprRegressor:
    return fit_on_dataset(
        GprRegressor(
            length_scale=length_scale,
            signal_variance=signal_variance,
            noise_jitter=noise_jitter,
        ),
        train,
    )


def svr_fit(
    train: Dataset,
    epsilon: float = 0.1,
    reg_c: float = 1.0,
    epochs: int = 60,
    learning_rate: float = 0.01,
) -> LinearSvr:
    return fit_on_dataset(
        LinearSvr(epsilon=epsilon, reg_c=reg_c, epochs=epochs, learning_rate=learning_rate),
        train,
    )


def mlp_fit(
    train: Dataset,
    hidden_units: int = 100,
    epochs: int = 300,
    learning_rate: float = 0.05,
    seed: int = 0,
) -> MlpRegressor:
    return fit_on_dataset(
        MlpRegressor(
            hidden_units=hidden_units, epochs=epochs, learning_rate=learning_rate, seed=seed
        ),
        train,
    )


def predict(model: Model, features) -> np.ndarray:
    """Uniform prediction entry point: (q, m) features -> (q, 3) coordinates."""
    return model.predict(features)
