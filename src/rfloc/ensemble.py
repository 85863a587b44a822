"""Ensemble strategies: adaptive boosting, gradient boosting, bagging
variants, and stacked generalization over the base regressors.

Base estimators are supplied as builder callables with signature
``builder(train: Dataset, seed: int) -> Model`` so any estimator (including
another ensemble) can serve as a member. All per-member randomness is derived
from the ensemble seed, making every strategy bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import Dataset, validate_dataset
from .regressors import CartRegressor, Model, fit_on_dataset

STRATEGIES = (
    "boosting-abr",
    "boosting-gbr",
    "boosting-hgbr",
    "bagging",
    "random-forest",
    "extra-trees",
    "stacking",
)

# Default stacking base list: the five single regressors plus the five
# ensemble regressors from the boosting/bagging comparisons.
DEFAULT_STACK_BASES = ("svr", "knr", "gpr", "dtr", "mlp", "abr", "gbr", "hgbr", "rfr", "ert")


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of one ensemble configuration.

    base and final hold model ids. boosting-abr and bagging take exactly one
    base, gbr, hgbr, random-forest and extra-trees take none, and stacking
    takes a final plus one or more bases (DEFAULT_STACK_BASES when empty).
    """

    strategy: str
    base: tuple[str, ...] = ()
    final: str | None = None
    n_estimators: int = 100
    learning_rate: float = 0.1
    max_depth: int | None = 3
    max_bins: int = 256
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 2 <= self.max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {self.max_bins}")
        if self.n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.strategy == "stacking":
            if self.final is None:
                raise ValueError("stacking requires a final estimator id")
            if not self.base:
                object.__setattr__(self, "base", DEFAULT_STACK_BASES)
            return
        if self.final is not None:
            raise ValueError(
                f"only stacking takes a final estimator id; {self.strategy} got final={self.final!r}"
            )
        if self.strategy in ("boosting-abr", "bagging"):
            if len(self.base) != 1:
                raise ValueError(
                    f"{self.strategy} takes exactly one base estimator id, got base={self.base!r}"
                )
        elif self.base:
            raise ValueError(f"{self.strategy} takes no base estimator ids, got base={self.base!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "base": list(self.base)}

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSpec":
        """Inverse of to_dict; absent keys take the field defaults."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _child_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def weighted_median(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-output weighted median across ensemble members.

    predictions has shape (rounds, queries, outputs). For each query and
    output, members are sorted by predicted value and the first member whose
    cumulative weight reaches half the total is selected.
    """
    rounds, q, d = predictions.shape
    total = weights.sum()
    out = np.empty((q, d))
    row = np.arange(q)
    for j in range(d):
        P = predictions[:, :, j].T  # (q, rounds)
        idx = np.argsort(P, axis=1, kind="stable")
        cdf = np.cumsum(weights[idx], axis=1)
        sel = np.argmax(cdf >= 0.5 * total, axis=1)
        out[:, j] = P[row, idx[row, sel]]
    return out


class _BuilderEnsemble(Model):
    """An ensemble whose members come from (train: Dataset, seed) builders.

    Subclasses implement fit_dataset; fit wraps raw arrays in a Dataset with
    placeholder frequencies 1..m.
    """

    def fit(self, features, labels):
        features = np.asarray(features, dtype=np.float64)
        return self.fit_dataset(
            validate_dataset(features, labels, np.arange(1, features.shape[1] + 1))
        )


class AdaBoostR2(_BuilderEnsemble):
    """Adaptive boosting for regression with linear loss.

    Each round resamples the training set by the current sample weights,
    fits the base estimator, and scores each sample by its Euclidean
    prediction error relative to the round's worst error. Rounds with average
    loss >= 0.5 stop the process (the round is discarded unless it is the
    first). Prediction is the per-output weighted median over rounds with
    round weights ln(1/beta).
    """

    kind = "abr"

    def __init__(self, base_builder, n_estimators: int = 50, seed: int = 0):
        super().__init__()
        self.base_builder = base_builder
        self.n_estimators = n_estimators
        self.seed = seed

    def fit_dataset(self, train: Dataset):
        n = train.n
        w = np.full(n, 1.0 / n)
        self.members_ = []
        self.member_weights_ = []
        self.avg_losses_ = []
        self.weight_history = [w.copy()]
        for r in range(self.n_estimators):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, r, 0]))
            w = w / w.sum()
            idx = rng.choice(n, size=n, replace=True, p=w)
            try:
                member = self.base_builder(train.subset(idx), _child_seed(self.seed, r, 1))
            except Exception as exc:
                raise ValueError(f"base estimator failed in boosting round {r}: {exc}") from exc
            pred = member.predict(train.features)
            err = np.linalg.norm(pred - train.labels, axis=1)
            err_max = err.max()
            if err_max == 0.0:
                self.members_.append(member)
                self.member_weights_.append(1.0)
                self.avg_losses_.append(0.0)
                break
            loss = err / err_max
            avg_loss = float(w @ loss)
            if avg_loss >= 0.5:
                if not self.members_:
                    self.members_.append(member)
                    self.member_weights_.append(1.0)
                    self.avg_losses_.append(avg_loss)
                break
            beta = avg_loss / (1.0 - avg_loss)
            self.members_.append(member)
            self.member_weights_.append(math.log(1.0 / beta))
            self.avg_losses_.append(avg_loss)
            w = w * beta ** (1.0 - loss)
            w = w / w.sum()
            self.weight_history.append(w.copy())
        self.member_weights_ = np.array(self.member_weights_)
        self.n_outputs = train.labels.shape[1]
        self._fitted = True
        return self

    def _predict(self, features):
        preds = np.stack([m.predict(features) for m in self.members_])
        return weighted_median(preds, self.member_weights_)


class GradientBoosting(Model):
    """Stagewise boosting of shallow regression trees on residuals.

    Each output dimension is boosted independently from its training mean;
    stage trees fit the current residuals and are added with shrinkage
    learning_rate. train_rmse_path records the training RMSE after every
    stage (all outputs combined).
    """

    kind = "gbr"

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int | None = 3,
    ):
        super().__init__()
        if n_estimators < 0:
            raise ValueError(f"n_estimators must be >= 0, got {n_estimators}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        d = Y.shape[1]
        self._base_value = Y.mean(axis=0)
        self._trees = [[] for _ in range(d)]
        F = np.tile(self._base_value, (X.shape[0], 1))
        self.train_rmse_path = []
        for _ in range(self.n_estimators):
            for j in range(d):
                tree = CartRegressor(max_depth=self.max_depth)
                tree.fit(X, (Y[:, j] - F[:, j])[:, None])
                self._trees[j].append(tree)
                F[:, j] += self.learning_rate * tree.predict(X)[:, 0]
            self.train_rmse_path.append(
                float(np.sqrt(np.mean(np.sum((Y - F) ** 2, axis=1))))
            )
        self.n_outputs = d
        self._fitted = True
        return self

    def _predict(self, features):
        out = np.tile(self._base_value, (features.shape[0], 1))
        for j, trees in enumerate(self._trees):
            for tree in trees:
                out[:, j] += self.learning_rate * tree.predict(features)[:, 0]
        return out


def quantile_bin_edges(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Bin edges for one feature: value midpoints when few distinct values,
    otherwise training quantiles with tied edges collapsed."""
    uniq = np.unique(col)
    if uniq.size <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    return np.unique(qs)


class HistGradientBoosting(Model):
    """Gradient boosting on quantile-binned features.

    Features are mapped to integer bin codes (edges from training quantiles,
    ties collapsed); the stage trees then only ever split on bin boundaries.
    When every feature has at most max_bins distinct values the binning is
    lossless and predictions equal plain gradient boosting exactly.
    """

    kind = "hgbr"

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int | None = 3,
        max_bins: int = 256,
    ):
        super().__init__()
        if not 2 <= max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {max_bins}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.max_bins = max_bins

    def _bin(self, X):
        codes = np.empty_like(X)
        for j, edges in enumerate(self._edges):
            codes[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return codes

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        self._edges = [quantile_bin_edges(X[:, j], self.max_bins) for j in range(X.shape[1])]
        self._booster = GradientBoosting(
            n_estimators=self.n_estimators,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
        )
        self._booster.fit(self._bin(X), labels)
        self.train_rmse_path = self._booster.train_rmse_path
        self.n_outputs = self._booster.n_outputs
        self._fitted = True
        return self

    def _predict(self, features):
        return self._booster.predict(self._bin(features))

    @property
    def bin_counts(self) -> list[int]:
        """Number of occupied bins per feature."""
        return [len(e) + 1 for e in self._edges]


class BaggingEnsemble(_BuilderEnsemble):
    """Bootstrap aggregation: seeded resamples, unweighted mean prediction."""

    kind = "bagging"

    def __init__(self, base_builder, n_estimators: int = 100, bootstrap: bool = True, seed: int = 0):
        super().__init__()
        self.base_builder = base_builder
        self.n_estimators = n_estimators
        self.bootstrap = bootstrap
        self.seed = seed

    def fit_dataset(self, train: Dataset):
        n = train.n
        self.members_ = []
        self.member_indices_ = []
        for r in range(self.n_estimators):
            if self.bootstrap:
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, r, 0]))
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            self.member_indices_.append(idx)
            try:
                self.members_.append(self.base_builder(train.subset(idx), _child_seed(self.seed, r, 1)))
            except Exception as exc:
                raise ValueError(f"base estimator failed for bagging member {r}: {exc}") from exc
        self.n_outputs = train.labels.shape[1]
        self._fitted = True
        return self

    def _predict(self, features):
        preds = np.stack([m.predict(features) for m in self.members_])
        return preds.mean(axis=0)


class _TreeForest(Model):
    """Shared machinery for random forests and extremely randomized trees."""

    def __init__(self, n_estimators, max_features, bootstrap, random_thresholds, seed):
        super().__init__()
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_thresholds = random_thresholds
        self.seed = seed

    def fit(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        Y = np.asarray(labels, dtype=np.float64)
        n = X.shape[0]
        self.members_ = []
        for r in range(self.n_estimators):
            if self.bootstrap:
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, r, 0]))
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = CartRegressor(
                max_features=self.max_features,
                random_thresholds=self.random_thresholds,
                seed=_child_seed(self.seed, r, 1),
            )
            tree.fit(X[idx], Y[idx])
            self.members_.append(tree)
        self.n_outputs = Y.shape[1] if Y.ndim > 1 else 1
        self._fitted = True
        return self

    def _predict(self, features):
        preds = np.stack([m.predict(features) for m in self.members_])
        return preds.mean(axis=0)


class RandomForest(_TreeForest):
    kind = "rfr"

    def __init__(self, n_estimators=100, max_features=None, bootstrap=True, seed=0):
        super().__init__(n_estimators, max_features, bootstrap, False, seed)


class ExtraTrees(_TreeForest):
    """Forest of trees with one uniform-random threshold per candidate
    feature, grown on the full sample (no bootstrap)."""

    kind = "ert"

    def __init__(self, n_estimators=100, max_features=None, seed=0):
        super().__init__(n_estimators, max_features, False, True, seed)


class StackingEnsemble(_BuilderEnsemble):
    """Stacked generalization with out-of-fold meta-features.

    Row i of the meta-feature matrix (width 3 * n_bases) is predicted by
    base models that never saw fold(i) during training; the final estimator
    is fit on those meta-features. Bases are refit on the full training set
    for inference. fold_plan records (train_indices, predict_indices) per
    fold for auditing.
    """

    kind = "stacking"

    def __init__(self, base_builders, final_builder, n_folds: int = 5, seed: int = 0):
        super().__init__()
        if not base_builders:
            raise ValueError("stacking requires at least one base estimator")
        if n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {n_folds}")
        self.base_builders = list(base_builders)
        self.final_builder = final_builder
        self.n_folds = n_folds
        self.seed = seed

    def fit_dataset(self, train: Dataset):
        plan = build_stacking_plan(
            train, self.base_builders, n_folds=self.n_folds, seed=self.seed
        )
        self._attach_plan(train, plan)
        return self

    def _attach_plan(self, train: Dataset, plan: "StackingPlan"):
        self.fold_plan = plan.fold_plan
        self.meta_features_ = plan.meta_features
        self.full_bases_ = plan.full_bases
        try:
            self.final_ = self.final_builder(
                Dataset(
                    features=plan.meta_features,
                    labels=train.labels,
                    frequencies_mhz=tuple(range(1, plan.meta_features.shape[1] + 1)),
                ),
                _child_seed(self.seed, 2**31),
            )
        except Exception as exc:
            raise ValueError(f"final estimator failed on meta-features: {exc}") from exc
        self.n_outputs = train.labels.shape[1]
        self._fitted = True
        return self

    def _predict(self, features):
        meta = np.hstack([m.predict(features) for m in self.full_bases_])
        return self.final_.predict(meta)


@dataclass
class StackingPlan:
    """Out-of-fold meta-features plus fully refit bases, reusable across
    different final estimators on the same base list and fold split."""

    meta_features: np.ndarray
    full_bases: list
    base_builders: list
    fold_plan: list = field(default_factory=list)
    build_time_s: float = 0.0


def build_stacking_plan(train: Dataset, base_builders, n_folds: int = 5, seed: int = 0) -> StackingPlan:
    t0 = time.perf_counter()
    n = train.n
    if n < n_folds:
        raise ValueError(f"cannot split {n} rows into {n_folds} non-empty folds")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    folds = np.array_split(rng.permutation(n), n_folds)

    n_out = train.labels.shape[1]
    meta = np.empty((n, n_out * len(base_builders)))
    fold_plan = []
    for f_idx, hold in enumerate(folds):
        keep = np.concatenate([folds[g] for g in range(n_folds) if g != f_idx])
        fold_plan.append((keep.copy(), hold.copy()))
        sub = train.subset(keep)
        for b_idx, builder in enumerate(base_builders):
            try:
                member = builder(sub, _child_seed(seed, f_idx, b_idx))
            except Exception as exc:
                raise ValueError(
                    f"base estimator {b_idx} failed on fold {f_idx} "
                    f"(fold-train size {keep.size}): {exc}"
                ) from exc
            meta[hold, b_idx * n_out : (b_idx + 1) * n_out] = member.predict(
                train.features[hold]
            )

    full_bases = []
    for b_idx, builder in enumerate(base_builders):
        try:
            full_bases.append(builder(train, _child_seed(seed, n_folds, b_idx)))
        except Exception as exc:
            raise ValueError(f"base estimator {b_idx} failed on the full training set: {exc}") from exc
    return StackingPlan(
        meta_features=meta,
        full_bases=full_bases,
        base_builders=list(base_builders),
        fold_plan=fold_plan,
        build_time_s=time.perf_counter() - t0,
    )


def stacking_fit_from_plan(
    train: Dataset, plan: StackingPlan, final_builder, n_folds: int = 5, seed: int = 0
) -> StackingEnsemble:
    """Fit a stacking model reusing a previously built plan (shared bases).

    fit_time_s is the plan's build time plus the final estimator's own fit
    time, so every model that shares a plan reports the full cost of a fit.
    """
    model = StackingEnsemble(plan.base_builders, final_builder, n_folds=n_folds, seed=seed)
    model._attach_plan(train, plan)
    model.fit_time_s = plan.build_time_s + getattr(model.final_, "fit_time_s", 0.0)
    model.frequencies_mhz = train.frequencies_mhz
    return model


def adaboost_r2_fit(train: Dataset, base_builder, n_estimators: int = 50, seed: int = 0) -> AdaBoostR2:
    return fit_on_dataset(AdaBoostR2(base_builder, n_estimators=n_estimators, seed=seed), train)


def gradient_boost_fit(
    train: Dataset,
    n_estimators: int = 100,
    learning_rate: float = 0.1,
    max_depth: int | None = 3,
) -> GradientBoosting:
    return fit_on_dataset(
        GradientBoosting(n_estimators=n_estimators, learning_rate=learning_rate, max_depth=max_depth),
        train,
    )


def hist_gradient_boost_fit(
    train: Dataset,
    n_estimators: int = 100,
    learning_rate: float = 0.1,
    max_depth: int | None = 3,
    max_bins: int = 256,
) -> HistGradientBoosting:
    return fit_on_dataset(
        HistGradientBoosting(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            max_bins=max_bins,
        ),
        train,
    )


def bagging_fit(
    train: Dataset, base_builder, n_estimators: int = 100, bootstrap: bool = True, seed: int = 0
) -> BaggingEnsemble:
    return fit_on_dataset(
        BaggingEnsemble(base_builder, n_estimators=n_estimators, bootstrap=bootstrap, seed=seed),
        train,
    )


def random_forest_fit(
    train: Dataset,
    n_estimators: int = 100,
    max_features: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
) -> RandomForest:
    return fit_on_dataset(
        RandomForest(
            n_estimators=n_estimators, max_features=max_features, bootstrap=bootstrap, seed=seed
        ),
        train,
    )


def extra_trees_fit(
    train: Dataset, n_estimators: int = 100, max_features: int | None = None, seed: int = 0
) -> ExtraTrees:
    return fit_on_dataset(
        ExtraTrees(n_estimators=n_estimators, max_features=max_features, seed=seed), train
    )


def stacking_fit(
    train: Dataset, base_builders, final_builder, n_folds: int = 5, seed: int = 0
) -> StackingEnsemble:
    return fit_on_dataset(
        StackingEnsemble(base_builders, final_builder, n_folds=n_folds, seed=seed), train
    )
