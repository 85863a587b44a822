"""From-scratch base regressors behind one fit/predict contract.

Every estimator maps an (n, m) spectrum feature matrix to (n, 3) coordinate
predictions. Fitted models are immutable in practice (no method mutates state
after fit) and safe to share across threads for predict.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from .core import Dataset, _check_count, _check_real, _matrix


class NotFittedError(RuntimeError):
    pass


class Model:
    """Base fit/predict contract shared by all estimators and ensembles.

    A fit converts and checks its inputs with _fit_inputs and ends with
    _mark_fitted; a model is fitted once n_features is set. predict accepts
    only non-empty, finite 2-D queries of the fitted width (_query) and hands
    them to _predict; an ensemble hands its members the checked query through
    their _predict. used_features names the columns its predictions read: all
    of them, unless a subclass can tell.
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
        ValueError naming the class on an array that is not 2-D or holds a
        non-finite value (as _matrix), on a row-count mismatch, or on an
        empty set."""
        name = type(self).__name__
        X = _matrix(name, "features", features)
        Y = np.asarray(labels, dtype=np.float64)
        Y = _matrix(name, "labels", Y[:, None] if Y.ndim == 1 else Y)
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"{name}: {X.shape[0]} feature rows vs {Y.shape[0]} label rows")
        if X.shape[0] == 0:
            raise ValueError(f"cannot fit {name} on an empty training set")
        return X, Y

    def _mark_fitted(self, n_features: int, n_outputs: int):
        self.n_features = n_features
        self.n_outputs = n_outputs
        return self

    def _check_fitted(self) -> None:
        if self.n_features is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")

    def predict(self, features) -> np.ndarray:
        return self._predict(self._query(features))

    def _query(self, features) -> np.ndarray:
        """The query as float64; raises ValueError naming the class on one that
        is not 2-D, not of the fitted width or non-finite (as _matrix), or
        empty."""
        self._check_fitted()
        features = _matrix(type(self).__name__, "query", features, self.n_features)
        if features.shape[0] == 0:
            raise ValueError("empty query")
        return features

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


# Query x train elements per block of a KNN predict. At worst (all distances
# equal, every row a candidate) its candidate arrays take a few int64 blocks.
_KNN_BLOCK = 1 << 20


class KnnRegressor(Model):
    """k-nearest-neighbor regression under Euclidean feature distance.

    The k nearest are the first k by (distance, row index) of the rows at
    or below the k-th distance. With weighting="inverse-distance" a query
    with an exact match (distance zero) averages its zero-distance neighbors.
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
        # queries are independent: blocks keep each query x train array near _KNN_BLOCK
        block = max(1, _KNN_BLOCK // self._X.shape[0])
        out = np.empty((features.shape[0], self._Y.shape[1]))
        for start in range(0, features.shape[0], block):
            out[start : start + block] = self._predict_block(features[start : start + block])
        return out

    def _predict_block(self, features):
        d = cdist(features, self._X)
        n, k = d.shape[1], self.k
        # flat candidate positions run query by query, each in row order, so
        # one stable (query, distance) sort puts each query's k nearest first
        kth = np.partition(d, k - 1, axis=1)[:, k - 1].copy()
        pos = np.flatnonzero(d <= kth[:, None])
        cand_d = d.ravel()[pos]
        order = np.lexsort((cand_d, pos // n))
        sel = order[np.searchsorted(pos, np.arange(0, d.size, n))[:, None] + np.arange(k)]
        neigh_y = self._Y[pos[sel] % n]  # (q, k, d)
        if self.weighting == "uniform":
            return neigh_y.mean(axis=1)
        neigh_d = cand_d[sel]
        exact = neigh_d == 0.0
        with np.errstate(divide="ignore"):
            w = np.where(exact.any(axis=1, keepdims=True), exact, 1 / neigh_d)
        w /= w.sum(axis=1, keepdims=True)
        return (w[:, :, None] * neigh_y).sum(axis=1)


@dataclass(frozen=True)
class SplitRecord:
    """One internal split of a fitted tree: a row goes left when its feature is <= threshold."""

    feature: int
    threshold: float


# Elements per block of the tree kernel's sort, scan and partition steps: a
# block of features holds about _BLOCK of a node's rows in all, so the scan's
# gather of one output's labels and squares holds about 2 * _BLOCK floats (a
# larger scan block once raised band-select's peak RSS from 119 to 201 MB). On
# two cores the 400-bin band-select dtr fit took 1.60, 1.41, 1.45 and 1.39 s
# (medians of 10 in-process rounds) at 2**13 to 2**16, and 1.40 against 1.39 s
# at 2**14 and 2**15 over 20 more. At 2**15 band-select's peak RSS read
# 119.5-124.3 MB over five seeds (the old scan at 2**14: 119.4-125.0; bimodal
# on both). 2**16 would double the 400-bin root scan's temporaries, past the
# allowance of test_fit_holds_one_small_order_array.
_BLOCK = 1 << 15


def column_order(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable ascending order of every column of X, as an (m, n) array,
    and a bool per column: True when its sorted values do not strictly
    increase (a tie or a NaN).

    Row f of the order lists the row indices of X sorted by X[:, f], ties in
    row order. Its dtype is the smallest unsigned one that holds n - 1, and
    the columns are sorted a block at a time, so no (n, m) intp array is ever
    held. Each block takes numpy's default (unstable, faster) argsort; a
    flagged column is sorted again stably. An unflagged column has one
    ascending order, so both sorts give it the same permutation, and every
    node's rows of it hold distinct values: each of their prefixes ends where
    the value changes.
    """
    n, m = X.shape
    order = np.empty((m, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    tied = np.empty(m, dtype=bool)
    block = max(1, _BLOCK // n)
    for start in range(0, m, block):
        cols = np.ascontiguousarray(X[:, start : start + block].T)
        idx = np.argsort(cols, axis=1)
        vs = np.take_along_axis(cols, idx, axis=1)
        t = tied[start : start + block] = ~(vs[:, :-1] < vs[:, 1:]).all(axis=1)
        if t.any():
            idx[t] = np.argsort(cols[t], axis=1, kind="stable")
        order[start : start + block] = idx
    return order, tied


def _sum_outputs(e):
    """e summed over its first axis (the outputs), with the bits of numpy's
    .sum over a contiguous last axis; below 8 outputs the sum is built in e[0].

    numpy adds fewer than 8 values in order, so adding the rows one by one
    matches it; from 8 on it sums in an unrolled pairwise order, which a
    contiguous copy with the outputs last reproduces.
    """
    if e.shape[0] >= 8:
        return np.ascontiguousarray(np.moveaxis(e, 0, -1)).sum(axis=-1)
    total = e[0]
    for i in range(1, e.shape[0]):
        total += e[i]
    return total


def _side_errors(S1, S2, tot1, tot2, n_left, n_right):
    """Squared error of each candidate left side and of its right side, from
    its prefix sums S1 of the labels and S2 of their squares (outputs first,
    n_left rows each) and the node's totals (n_left + n_right rows). Each
    output's squared error is s2 - s1 * s1 / count; S1 and S2 are overwritten
    with the left and the right ones, an output at a time.
    """
    right = np.empty_like(S1[0])
    for s1, s2, t1, t2 in zip(S1, S2, tot1, tot2):
        np.subtract(t1, s1, out=right)
        s1 *= s1
        s1 /= n_left
        np.subtract(s2, s1, out=s1)
        np.subtract(t2, s2, out=s2)
        right *= right
        right /= n_right
        s2 -= right


def _gains(YZ, cols, at, tot1, tot2, n_left, n_right, sse_node):
    """Variance-reduction gain of candidate left sides: YZ is the fit's
    (outputs, n) label table y + 1j * y*y, cols each feature's rows in value
    order (one row of cols per feature), at either the first candidate prefix
    lo (an int: every later prefix is scored too) or the candidates' flat
    positions in the (features, rows) prefix sums, and the rest the node's
    sums, counts and squared error (n_left + n_right rows).

    The table is gathered in cols' order and summed along the rows: a complex
    add is the two real adds, so one cumsum gives the label sums and the
    square sums with the bits of two. A block of more than _BLOCK elements
    over all outputs is gathered, summed and scored an output at a time, and
    the outputs' errors are added in output order, as numpy's .sum adds fewer
    than 8; 8 or more outputs, or a smaller block, take all outputs at once.
    """
    d = len(tot1)
    step = d if d >= 8 or d * cols.size <= _BLOCK else 1
    for i in range(0, d, step):
        S = YZ[i : i + step].take(cols, axis=1)
        np.cumsum(S, axis=-1, out=S)
        S = S[..., at:] if np.isscalar(at) else S.reshape(step, -1).take(at, axis=1)
        # contiguous copies: in-place arithmetic on the strided parts is slower
        S1, S2 = S.real.copy(), S.imag.copy()
        del S
        _side_errors(S1, S2, tot1[i : i + step], tot2[i : i + step], n_left, n_right)
        if i:
            gain_left += S1[0]
            gain_right += S2[0]
        else:
            gain_left, gain_right = _sum_outputs(S1), _sum_outputs(S2)
        del S1, S2  # freed before the next output is gathered
    np.subtract(sse_node, gain_left, out=gain_left)
    gain_left -= gain_right
    return gain_left


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
    in ascending value order, ties in row order, without sorting. A node
    scans its features a block at a time, features-major: it gathers the
    fit's label table, one complex row y + 1j * y*y per output, in each
    feature's order and takes one cumsum along the rows, which sums the
    labels in the real parts and their squares in the imaginary parts with
    the bits of two real cumsums. A wide block is gathered, summed and scored
    an output at a time. A column whose sorted values never repeat has a
    candidate threshold after every row at every node, so its values are read
    only for the winner's threshold; only a column with a tie is gathered to
    mask the prefixes that end inside a run of equal values. A node splits
    while its squared error is above 0, so a node whose label rows are all
    equal still splits on rounding residue; there every feature gathers the
    same rows, so one cumsum gives the gain curve of all of them, and the
    node's scan reads that curve instead of gathering and summing each
    feature's rows. After fit, train_leaf holds the leaf each training row
    reached.
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

    def fit(self, features, labels, *, order=None):
        """Grow the tree. order, when given, is column_order(features), the
        column order and its tie flags, and is only read: a caller that fits
        many trees on one X sorts it once."""
        X, Y = self._fit_inputs(features, labels)
        n, m = X.shape
        if self.max_features is not None and not 1 <= self.max_features <= m:
            raise ValueError(f"max_features must be in [1, {m}], got {self.max_features}")
        if self.random_thresholds:
            order = None  # one random threshold per feature: no sorted scan
        elif order is None:
            order, tied = column_order(X)
        else:
            order, tied = order
            if order.shape != (m, n):
                raise ValueError(f"order has shape {order.shape}, expected {(m, n)}")
            order = order.copy()  # partitioned in place below
        feature, threshold, left, right, value = [], [], [], [], []
        train_leaf = np.empty(n, dtype=np.intp)
        goes_left = np.zeros(n, dtype=bool)
        rng = np.random.default_rng(self.seed)
        # the labels and their squares, one complex row per output
        YZ = None
        if order is not None:
            YZ = np.empty((Y.shape[1], n), dtype=np.complex128)
            YZ.real, YZ.imag = Y.T, (Y * Y).T
        # Explicit preorder stack (left child first) instead of recursion:
        # near-duplicate rows can produce trees deeper than Python's
        # recursion limit. A node's rows are ascending and own the positions
        # lo:lo + rows.size of every row of order.
        stack = [(np.arange(n), 0, 0, -1, 0)]
        while stack:
            rows, lo, depth, parent, side = stack.pop()
            node = len(feature)
            Yn = Y[rows]
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            value.append(Yn.mean(axis=0))
            train_leaf[rows] = node  # a split's children overwrite it
            if parent >= 0:
                (left if side == 0 else right)[parent] = node
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if rows.size < 2 * self.min_samples_leaf or rows.size < 2:
                continue
            if self.max_features is not None and self.max_features < m:
                feats = np.sort(rng.choice(m, size=self.max_features, replace=False))
            else:
                feats = np.arange(m)
            # a node with no squared error left stays a leaf; the check follows
            # its draw of feats, or every seeded max_features tree would change
            tot1 = Yn.sum(axis=0)
            tot2 = (Yn * Yn).sum(axis=0)
            sse_node = float((tot2 - tot1 * tot1 / rows.size).sum())
            if sse_node <= 0.0:
                continue
            if self.random_thresholds:
                split = self._best_random_split(X, Yn, rows, feats, rng, tot1, tot2, sse_node)
            else:
                # bitwise, so 0.0 and -0.0 differ; unequal end rows settle
                # most nodes without a pass over all of them
                bits = Yn.view(np.uint64)
                constant = Yn[0].tobytes() == Yn[-1].tobytes() and bool((bits == bits[0]).all())
                split = self._best_midpoint_split(X, YZ, order[:, lo : lo + rows.size], feats,
                                                  tied, tot1, tot2, sse_node, constant)
            if split is None:
                continue
            f, thr = split
            mask = X[rows, f] <= thr
            if mask.all() or not mask.any():
                continue  # degenerate split; keep the node as a leaf
            feature[node] = f
            threshold[node] = thr
            n_left = int(np.count_nonzero(mask))
            # only a child that can split reads its segment of the order
            deeper = self.max_depth is None or depth + 1 < self.max_depth
            larger = max(n_left, rows.size - n_left)
            if order is not None and deeper and larger >= max(2, 2 * self.min_samples_leaf):
                goes_left[rows] = mask
                _partition(order[:, lo : lo + rows.size], goes_left, n_left)
            stack.append((rows[~mask], lo + n_left, depth + 1, node, 1))
            stack.append((rows[mask], lo, depth + 1, node, 0))
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._value = np.array(value)
        self.train_leaf = train_leaf.astype(np.min_scalar_type(self.node_count - 1))
        return self._mark_fitted(m, Y.shape[1])

    def _best_midpoint_split(self, X, YZ, seg, feats, tied, tot1, tot2, sse_node, constant):
        """The best (feature, threshold) over feats, or None; seg is the
        node's part of the column order (its rows, sorted per feature), YZ
        the fit's (outputs, n) table y + 1j * y*y, tied the columns' tie
        flags, tot1, tot2 and sse_node the node's sums of the labels and their
        squares and its squared error, and constant whether the node's label
        rows are all bitwise equal."""
        k = seg.shape[1]
        # The prefix of j+1 sorted rows is a candidate left side when the
        # value changes after it; lo:hi are the j that leave both sides
        # min_samples_leaf rows (the caller ensures k >= 2 * min_samples_leaf).
        lo, hi = self.min_samples_leaf - 1, k - self.min_samples_leaf
        n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)  # float: no cast per divide
        n_right = k - n_left
        shared = None
        if constant:
            # Every feature gathers k copies of one label row, so all share
            # one gain curve: a feature's gain at j is the curve's where its
            # value changes after j. The scan below then skips the gather,
            # cumsum and gains, and drops a NaN gain's feature as always.
            cols = np.repeat(seg[0, :1].astype(np.intp), hi)[None]
            shared = _gains(YZ, cols, lo, tot1, tot2, n_left, n_right, sse_node)[0]
            if shared.max() <= 0.0:  # False when the curve holds a NaN
                return None
        best = None
        best_gain = 0.0
        # A block of features at a time, each a contiguous row of the scan:
        # one output's (features, rows) complex prefix sums hold 2 * _BLOCK floats.
        block = max(1, _BLOCK // k)
        for start in range(0, len(feats), block):
            fb = feats[start : start + block]
            idx = seg[fb]  # (features, k): each feature's rows in value order
            ok = None  # a column without a tie has a candidate at every j
            has_tie = tied[fb]
            if has_tie.any():
                ok = np.ones((len(fb), hi - lo), dtype=bool)
                vs = X[idx[has_tie], fb[has_tie, None]]
                ok[has_tie] = vs[:, lo:hi] != vs[:, lo + 1 : hi + 1]
                del vs
            if shared is not None:
                # without a tie, every feature of the block has the shared
                # curve, so the first of them stands for all
                gain = shared[None] if ok is None else np.where(ok, shared, -np.inf)
            else:
                # prefixes past hi are never a left side; intp once, not at
                # every output's take
                cols = idx[:, :hi].astype(np.intp)
                if ok is not None and 2 * np.count_nonzero(ok) < ok.size:
                    # Few distinct values: the gain arithmetic only at candidates.
                    at = np.flatnonzero(ok)  # position j of feature c is c * (hi - lo) + j - lo
                    c_at, j_at = np.divmod(at, hi - lo)
                    gain = np.full(ok.shape, -np.inf)
                    gain.ravel()[at] = _gains(YZ, cols, c_at * hi + lo + j_at, tot1, tot2,
                                              n_left.take(j_at), n_right.take(j_at), sse_node)
                else:
                    gain = _gains(YZ, cols, lo, tot1, tot2, n_left, n_right, sse_node)
                    if ok is not None:
                        gain[~ok] = -np.inf
                del cols
            js = np.argmax(gain, axis=1)  # first max: lowest threshold wins ties
            col_gain = gain[np.arange(len(gain)), js]
            col_gain[np.isnan(col_gain)] = -np.inf  # a NaN gain never wins a feature
            c = int(np.argmax(col_gain))  # first max: lowest feature wins ties
            if col_gain[c] > best_gain:
                best_gain = float(col_gain[c])
                j = lo + js[c]
                a, b = X[idx[c, j : j + 2], fb[c]]
                thr = (a + b) / 2.0
                if thr >= b:
                    # midpoint of adjacent doubles can round up to the higher
                    # value; fall back to the lower one so "<= thr" still
                    # separates the two groups
                    thr = a
                best = (int(fb[c]), float(thr))
            del gain
        return best

    def _best_random_split(self, X, Yn, rows, feats, rng, tot1, tot2, sse_node):
        """The best (feature, threshold) over feats, each feature with one
        uniform threshold strictly inside its range at the node, or None."""
        k = rows.size
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
                best = (int(f), thr)
        return best

    def _predict(self, features):
        return self._value[self._leaves(features)]

    def _leaves(self, X, rows=None, column=-1, column_rows=None, tested=None):
        """The leaf each of X[rows] (each row of X by default) reaches. Every
        query moves down one level per pass, left when its value <= the node's
        threshold; at a node that tests column, query k reads
        X[column_rows[k], column] instead. tested, when given, is a list that
        gets feature * len(X) + row for every node a query passes on its way."""
        node = np.zeros(len(X) if rows is None else rows.size, dtype=np.intp)
        active = np.arange(node.size)
        while active.size:
            cur = node[active]
            f = self._feature[cur]
            inner = f >= 0
            active, cur, f = active[inner], cur[inner], f[inner]
            r = active if rows is None else rows[active]
            if column_rows is not None:
                r = np.where(f == column, column_rows[active], r)
            if tested is not None:
                tested.append(f * X.shape[0] + r)
            go_left = X[r, f] <= self._threshold[cur]
            node[active] = np.where(go_left, self._left[cur], self._right[cur])
        return node

    def permuted_predictions(self, features, shuffles):
        """For each (column, perms) of shuffles, yield (column, P), an array of
        shape (len(perms), n, outputs) whose P[r] is predict of a copy of
        features with that column replaced by features[perms[r], column].
        A perm entry that is not an integer in [0, n) raises ValueError naming
        the column, the value and its (repeat, position).

        A prediction reads only the features tested on the row's path, so
        the rows whose path never tests the column keep their prediction. The
        query is routed once to find, for each column, the rows whose path
        tests it, and only those rows go down the tree again, all repeats
        together. Permutation importance (Breiman, 2001) scores a tree with
        it.
        """
        X = self._query(features)
        n, m = X.shape
        tested = []
        base = self._value[self._leaves(X, tested=tested)]
        # sorted feature * n + row of every (feature, row) on a query's path
        tested = np.unique(np.concatenate(tested))
        starts = np.searchsorted(tested, np.arange(m + 1) * n)
        for j, perms in shuffles:
            _check_count("column", j, 0, m - 1)
            perms = np.asarray(perms)
            if perms.ndim != 2 or perms.shape[1] != n:
                raise ValueError(f"perms of column {j} must have shape (repeats, {n}), "
                                 f"got {perms.shape}")
            integer = perms.dtype.kind in "iu"
            bad = (perms < 0) | (perms >= n) if integer else np.ones(perms.shape, bool)
            if bad.any():
                r, i = np.argwhere(bad)[0]
                raise ValueError(f"perms of column {j} must hold integer row indices in [0, {n}), "
                                 f"got {perms[r, i]} at (repeat {r}, position {i})")
            rows = tested[starts[j] : starts[j + 1]] - j * n
            P = np.repeat(base[None], len(perms), axis=0)
            if rows.size:
                leaves = self._leaves(X, np.tile(rows, len(perms)), j, perms[:, rows].ravel())
                P[:, rows] = self._value[leaves].reshape(len(perms), rows.size, -1)
            yield j, P

    def _used_features(self):
        return np.unique(self._feature[self._feature >= 0])

    @property
    def node_count(self) -> int:
        return len(self._feature)

    @property
    def split_log(self) -> list[SplitRecord]:
        """The internal splits in node order, read off the node arrays. Nodes
        are numbered in preorder, the order fit grows them."""
        self._check_fitted()
        inner = self._feature >= 0
        return [SplitRecord(f, t) for f, t in zip(self._feature[inner].tolist(),
                                                  self._threshold[inner].tolist())]


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
        # -d / c and d / -c round alike: IEEE division is sign-symmetric
        np.divide(K, -2.0 * self.length_scale**2, out=K)
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
                # LAPACK wants; potrf writes L over it. K is finite (exp of
                # finite distances), so the finiteness scans are skipped here
                # and below: L comes from a successful potrf.
                L = cholesky(K.T, lower=True, overwrite_a=True, check_finite=False)
                break
            except LinAlgError:
                del K  # potrf wrote over it; free it before the rebuild
                jitter *= 10.0
        if L is None:
            raise ValueError(
                f"kernel matrix is singular even after jitter escalation to {jitter / 10.0:g}"
            )
        self._y_mean = Y.mean(axis=0)
        z = solve_triangular(L, Y - self._y_mean, lower=True, check_finite=False)
        self._alpha = solve_triangular(L.T, z, lower=False, check_finite=False)
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


# Widest input whose svr descent runs on the generated per-width kernel.
# One epoch of one output on 4200 rows (2-core Xeon VM, 5 timings each) took
# 2.9-3.2 ms on the kernel against 22-25 ms on numpy rows at 5 columns,
# 6.3-7.3 against 24-26 ms at 16, 14-16 against 23-24 ms at 32, and the
# ranges met at 40 (17-19 against 16-23 ms); at 64 numpy's `w @ x` was ahead
# (22-25 against 24-30 ms). The two loops gave bit-identical weights at every
# width tried, 1 to 64.
_SVR_LIST_WIDTH = 32

# Rows converted to Python floats at a time. A row's floats take about five
# times its numpy bytes, and converting all 4200 reference-room rows at once
# left a 1 MiB allocator arena behind after the fit, which raised
# room-stack's peak RSS by about 0.8 MB; per block it stayed at the old one.
_SVR_LIST_ROWS = 256


def _check_descent(w, bd, column, epoch) -> None:
    """Raise ValueError when an svr descent has left the finite numbers."""
    if not (math.isfinite(bd) and all(map(math.isfinite, w))):
        raise ValueError(
            f"LinearSvr training diverged (non-finite weights) for output column "
            f"{column} at epoch {epoch}"
        )


def _svr_epoch_source(m) -> str:
    """Python source of one svr descent epoch over inputs of width m.

    The weights live in the locals w0..w{m-1} and each row is unpacked into
    x0..x{m-1}, so a step builds no list. The dot product runs left to
    right from 0.0 and each update keeps the numpy expression's operation
    order, so the weights are bit-identical to _svr_descent_array. Raises
    ValueError unless m is an int >= 1; the source depends on nothing else.
    """
    _check_count("width", m, 1)
    idx = range(m)
    ws = ", ".join(f"w{i}" for i in idx)
    xs = ", ".join(f"x{i}" for i in idx)
    dot = " + ".join(["0.0", *(f"w{i} * x{i}" for i in idx)])

    def update(expr):
        return "\n".join(f"                w{i} = {expr.format(i=i)}" for i in idx)

    return f"""\
def epoch(Xs, targets, w, bd, lr, lam, decay, eps, block):
    {ws}, = w
    for start in range(0, Xs.shape[0], block):
        rows = Xs[start : start + block].tolist()
        for ({xs},), target in zip(rows, targets[start : start + block]):
            s = {dot}
            err = target - (s + bd)
            if err > eps:
{update("w{i} + lr * (x{i} - lam * w{i})")}
                bd += lr
            elif err < -eps:
{update("w{i} - lr * (x{i} + lam * w{i})")}
                bd -= lr
            else:
{update("w{i} - decay * w{i}")}
    return ({ws},), bd
"""


@functools.lru_cache(maxsize=None, typed=True)
def _svr_epoch_kernel(m):
    """The compiled epoch of _svr_epoch_source(m), built once per width.

    LinearSvr.fit asks only for widths up to _SVR_LIST_WIDTH, so the cache
    holds at most that many kernels.
    """
    namespace: dict = {}
    exec(compile(_svr_epoch_source(m), f"<svr epoch, width {m}>", "exec"), namespace)
    return namespace["epoch"]


def _svr_descent_lists(Xs, y, epochs, lr, lam, eps, column):
    """One output's subgradient descent on Python floats: (w, b).

    Each epoch runs the generated kernel for Xs's width, so a narrow row pays
    no numpy call overhead and the weights are bit-identical to the numpy
    loop. Rows are converted _SVR_LIST_ROWS at a time.
    """
    epoch_pass = _svr_epoch_kernel(Xs.shape[1])
    targets = y.tolist()
    decay = lr * lam
    w = (0.0,) * Xs.shape[1]
    bd = 0.0
    for epoch in range(epochs):
        w, bd = epoch_pass(Xs, targets, w, bd, lr, lam, decay, eps, _SVR_LIST_ROWS)
        _check_descent(w, bd, column, epoch)
    return np.array(w), bd


def _svr_descent_array(Xs, y, epochs, lr, lam, eps, column):
    """One output's subgradient descent on numpy rows: (w, b)."""
    w = np.zeros(Xs.shape[1])
    bd = 0.0
    for epoch in range(epochs):
        for i in range(Xs.shape[0]):
            x = Xs[i]
            err = y[i] - (float(w @ x) + bd)
            if err > eps:
                w += lr * (x - lam * w)
                bd += lr
            elif err < -eps:
                w -= lr * (x + lam * w)
                bd -= lr
            else:
                w -= lr * lam * w
        _check_descent(w, bd, column, epoch)
    return w, bd


class LinearSvr(Model):
    """Linear support-vector regression via epoch-ordered subgradient descent.

    One independent w.x + b model per output, trained on the epsilon-
    insensitive loss with an L2 penalty (lambda = 1 / (reg_c * n)). Features
    are standardized internally by training statistics. Samples are visited
    in index order every epoch, so training is fully deterministic. Raises
    ValueError on divergence (a non-finite weight or bias at the end of an
    epoch), naming the output column and the epoch.
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
        descend = _svr_descent_lists if m <= _SVR_LIST_WIDTH else _svr_descent_array
        W = np.zeros((m, Y.shape[1]))
        b = np.zeros(Y.shape[1])
        for d in range(Y.shape[1]):
            W[:, d], b[d] = descend(
                Xs, Y[:, d], self.epochs, self.learning_rate, lam, self.epsilon, d
            )
        self._W = W
        self._b = b
        return self._mark_fitted(m, Y.shape[1])

    def _predict(self, features):
        Xs = (features - self._x_mean) / self._x_std
        return Xs @ self._W + self._b


def _mlp_work(n, h, k):
    """Buffers for mlp_loss_and_grads on n rows, h hidden units, k outputs."""
    return {
        "Z": np.empty((n, h)),
        "A": np.empty((n, h)),
        "dA": np.empty((n, h)),
        "mask": np.empty((n, h), dtype=bool),
        "err": np.empty((n, k)),
    }


def mlp_loss_and_grads(params, Xs, Y, work=None):
    """MSE loss (mean over all entries) and its gradients for a ReLU net.

    params is (W1, b1, W2, b2); Xs is assumed already standardized.
    Exposed at module level so gradients can be finite-difference checked.
    work, from _mlp_work, holds the per-row intermediates and is overwritten;
    without it the call makes its own. The returned arrays never alias it.
    """
    W1, b1, W2, b2 = params
    if work is None:
        work = _mlp_work(Xs.shape[0], W1.shape[1], W2.shape[1])
    Z, A, dA, mask, err = work["Z"], work["A"], work["dA"], work["mask"], work["err"]
    np.matmul(Xs, W1, out=Z)
    np.add(Z, b1, out=Z)
    np.maximum(Z, 0.0, out=A)
    np.matmul(A, W2, out=err)
    np.add(err, b2, out=err)
    np.subtract(err, Y, out=err)
    loss = float((err * err).mean())
    d_out = np.multiply(err, 2.0 / err.size, out=err)
    gW2 = A.T @ d_out
    gb2 = d_out.sum(axis=0)
    np.matmul(d_out, W2.T, out=dA)
    dZ = np.multiply(dA, np.greater(Z, 0.0, out=mask), out=dA)
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
        """Build a fitted model from explicit parameters (test hook).

        W1 is (m, h), b1 (h,), W2 (h, k), b2 (k,), and x_mean and x_std
        (m,); x_mean and x_std default to no standardization. Raises
        ValueError naming a parameter of another shape, a non-finite entry
        or an x_std entry that is not > 0.
        """
        W1 = np.asarray(W1, dtype=np.float64)
        W2 = np.asarray(W2, dtype=np.float64)
        if W1.ndim != 2 or 0 in W1.shape:
            raise ValueError(f"W1 must be a non-empty (m, h) matrix, got shape {W1.shape}")
        m, h = W1.shape
        if W2.ndim != 2 or W2.shape[0] != h or W2.shape[1] == 0:
            raise ValueError(f"W2 must have shape ({h}, k) with k >= 1, got {W2.shape}")
        k = W2.shape[1]
        model = cls(hidden_units=h)
        for attr, name, value, shape in (
            ("W1", "W1", W1, (m, h)),
            ("b1", "b1", b1, (h,)),
            ("W2", "W2", W2, (h, k)),
            ("b2", "b2", b2, (k,)),
            ("_x_mean", "x_mean", np.zeros(m) if x_mean is None else x_mean, (m,)),
            ("_x_std", "x_std", np.ones(m) if x_std is None else x_std, (m,)),
        ):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            bad = ~np.isfinite(value)
            need = "finite"
            if name == "x_std":
                bad |= value <= 0.0
                need = "finite and > 0"
            if bad.any():
                at = tuple(int(i) for i in np.argwhere(bad)[0])
                raise ValueError(f"{name} must be {need}, got {value[at]} at index {at}")
            setattr(model, attr, value)
        return model._mark_fitted(m, k)

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
        work = _mlp_work(X.shape[0], h, Y.shape[1])  # reused by every epoch
        self.loss_history = []
        for epoch in range(self.epochs):
            loss, (gW1, gb1, gW2, gb2) = mlp_loss_and_grads((W1, b1, W2, b2), Xs, Y, work)
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
