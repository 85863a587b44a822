"""Ensemble strategies: adaptive boosting, gradient boosting, bagging
variants, and stacked generalization over the base regressors.

Base estimators are supplied as builder callables with signature
``builder(train: Dataset, seed: int) -> Model`` so any estimator (including
another ensemble) can serve as a member. All per-member randomness is derived
from the ensemble seed, making every strategy bit-reproducible. STRATEGIES
maps each EnsembleSpec strategy to its class, whose constructor decides the
spec's tuning fields and base count.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import Dataset, _check_count, _check_real, _child_rng, _child_seed, validate_dataset
from .regressors import CartRegressor, Model, column_order, fit_on_dataset

# Default stacking base list: the five single regressors plus the five
# ensemble regressors from the boosting/bagging comparisons.
DEFAULT_STACK_BASES = ("svr", "knr", "gpr", "dtr", "mlp", "abr", "gbr", "hgbr", "rfr", "ert")


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


def _build(builder, train: Dataset, seed: int, where: str) -> Model:
    """builder(train, seed), re-raising any failure as ValueError prefixed with where."""
    try:
        return builder(train, seed)
    except Exception as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _used_by(models) -> np.ndarray:
    """The sorted union of the columns that models read."""
    used = [m.used_features() for m in models]
    return np.unique(np.concatenate(used)) if used else np.arange(0)


class _BuilderEnsemble(Model):
    """An ensemble whose members come from (train: Dataset, seed) builders.

    Subclasses implement _fit_members(train); fit wraps raw arrays in a
    Dataset with placeholder frequencies 1..m. A prediction reads the
    columns its members_ read.
    """

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        return self.fit_dataset(validate_dataset(X, Y, np.arange(1, X.shape[1] + 1)))

    def fit_dataset(self, train: Dataset):
        self._fit_inputs(train.features, train.labels)
        self._fit_members(train)
        return self._mark_fitted(train.m, train.labels.shape[1])

    def _fit_members(self, train: Dataset) -> None:
        raise NotImplementedError

    def _used_features(self):
        return _used_by(self.members_)


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
        _check_count("n_estimators", n_estimators, 1)
        _check_count("seed", seed, 0)
        self.base_builder = base_builder
        self.n_estimators = n_estimators
        self.seed = seed

    def _fit_members(self, train: Dataset):
        n = train.n
        w = np.full(n, 1.0 / n)
        self.members_ = []
        self.member_weights_ = []
        self.avg_losses_ = []
        self.weight_history = [w.copy()]
        for r in range(self.n_estimators):
            w = w / w.sum()
            idx = _child_rng(self.seed, r, 0).choice(n, size=n, replace=True, p=w)
            member = _build(self.base_builder, train.subset(idx), _child_seed(self.seed, r, 1),
                            f"base estimator failed in boosting round {r}")
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

    def _predict(self, features):
        preds = np.stack([m.predict(features) for m in self.members_])
        return weighted_median(preds, self.member_weights_)


class GradientBoosting(Model):
    """Stagewise boosting of shallow regression trees on residuals.

    Each output dimension is boosted independently from its training mean;
    stage trees fit the current residuals and are added with shrinkage
    learning_rate. train_rmse_path records the training RMSE after every
    stage (all outputs combined). X is sorted once per fit and every stage
    tree reuses that order; a stage moves each training row by the value of
    the leaf it reached while the tree was grown.
    """

    kind = "gbr"

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int | None = 3,
    ):
        super().__init__()
        _check_count("n_estimators", n_estimators, 0)
        _check_real("learning_rate", learning_rate, lambda v: 0 < v <= 1, "in (0, 1]")
        if max_depth is not None:
            _check_count("max_depth", max_depth, 0)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        d = Y.shape[1]
        self._base_value = Y.mean(axis=0)
        self._trees = [[] for _ in range(d)]
        F = np.tile(self._base_value, (X.shape[0], 1))
        order = column_order(X)
        self.train_rmse_path = []
        for _ in range(self.n_estimators):
            for j in range(d):
                tree = CartRegressor(max_depth=self.max_depth)
                tree.fit(X, (Y[:, j] - F[:, j])[:, None], order=order)
                self._trees[j].append(tree)
                F[:, j] += self.learning_rate * tree._value[tree.train_leaf, 0]
            self.train_rmse_path.append(
                float(np.sqrt(np.mean(np.sum((Y - F) ** 2, axis=1))))
            )
        return self._mark_fitted(X.shape[1], d)

    def _predict(self, features):
        out = np.tile(self._base_value, (features.shape[0], 1))
        for j, trees in enumerate(self._trees):
            for tree in trees:
                out[:, j] += self.learning_rate * tree._predict(features)[:, 0]
        return out

    def _used_features(self):
        # hgbr bins column by column, so its trees' columns are its own
        return _used_by(tree for trees in self._trees for tree in trees)


def quantile_bin_edges(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Bin edges for one feature: value midpoints when few distinct values,
    otherwise training quantiles with tied edges collapsed."""
    uniq = np.unique(col)
    if uniq.size <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    return np.unique(qs)


class HistGradientBoosting(GradientBoosting):
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
        _check_count("max_bins", max_bins, 2, 256)
        super().__init__(n_estimators, learning_rate, max_depth)
        self.max_bins = max_bins

    def _bin(self, X):
        codes = np.empty_like(X)
        for j, edges in enumerate(self._edges):
            codes[:, j] = np.searchsorted(edges, X[:, j], side="left")
        return codes

    def fit(self, features, labels):
        X, Y = self._fit_inputs(features, labels)
        self._edges = [quantile_bin_edges(X[:, j], self.max_bins) for j in range(X.shape[1])]
        return super().fit(self._bin(X), Y)

    def _predict(self, features):
        return super()._predict(self._bin(features))

    @property
    def bin_counts(self) -> list[int]:
        """Number of occupied bins per feature."""
        return [len(e) + 1 for e in self._edges]


class BaggingEnsemble(_BuilderEnsemble):
    """Bootstrap aggregation: seeded resamples, unweighted mean prediction."""

    kind = "bagging"

    def __init__(self, base_builder, n_estimators: int = 100, bootstrap: bool = True, seed: int = 0):
        super().__init__()
        _check_count("n_estimators", n_estimators, 1)
        _check_count("seed", seed, 0)
        self.base_builder = base_builder
        self.n_estimators = n_estimators
        self.bootstrap = bootstrap
        self.seed = seed

    def _fit_members(self, train: Dataset):
        n = train.n
        self.members_ = []
        self.member_indices_ = []
        for r in range(self.n_estimators):
            idx = _child_rng(self.seed, r, 0).integers(0, n, size=n) if self.bootstrap else np.arange(n)
            self.member_indices_.append(idx)
            member = _build(self.base_builder, train.subset(idx), _child_seed(self.seed, r, 1),
                            f"base estimator failed for bagging member {r}")
            self.members_.append(member)

    def _predict(self, features):
        preds = np.stack([m.predict(features) for m in self.members_])
        return preds.mean(axis=0)


def _cart_builder(max_features, random_thresholds):
    """Builder of one randomised CART member, seeded by its bagging seed."""
    if max_features is not None:
        _check_count("max_features", max_features, 1)
    return lambda train, seed: CartRegressor(
        max_features=max_features, random_thresholds=random_thresholds, seed=seed
    ).fit(train.features, train.labels)


class RandomForest(BaggingEnsemble):
    """Bagging of CART trees that draw max_features split candidates at every
    node (Breiman, 2001)."""

    kind = "rfr"

    def __init__(self, n_estimators: int = 100, max_features: int | None = None,
                 bootstrap: bool = True, seed: int = 0):
        super().__init__(_cart_builder(max_features, False), n_estimators, bootstrap, seed)
        self.max_features = max_features


class ExtraTrees(BaggingEnsemble):
    """Forest of trees with one uniform-random threshold per candidate
    feature, grown on the full sample (no bootstrap; Geurts et al., 2006)."""

    kind = "ert"

    def __init__(self, n_estimators: int = 100, max_features: int | None = None, seed: int = 0):
        super().__init__(_cart_builder(max_features, True), n_estimators, False, seed)
        self.max_features = max_features


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
        _check_count("n_folds", n_folds, 2)
        _check_count("seed", seed, 0)
        self.base_builders = list(base_builders)
        self.final_builder = final_builder
        self.n_folds = n_folds
        self.seed = seed

    def _fit_members(self, train: Dataset):
        self._attach_plan(
            train, build_stacking_plan(train, self.base_builders, n_folds=self.n_folds, seed=self.seed)
        )

    def _attach_plan(self, train: Dataset, plan: "StackingPlan"):
        self.fold_plan = plan.fold_plan
        self.meta_features_ = plan.meta_features
        self.full_bases_ = plan.full_bases
        width = plan.meta_features.shape[1]
        meta = Dataset(plan.meta_features, train.labels, tuple(range(1, width + 1)))
        self.final_ = _build(self.final_builder, meta, _child_seed(self.seed, 2**31),
                             "final estimator failed on meta-features")

    def _predict(self, features):
        meta = np.hstack([m.predict(features) for m in self.full_bases_])
        return self.final_.predict(meta)

    def _used_features(self):
        # the final estimator reads only the bases' predictions
        return _used_by(self.full_bases_)


STRATEGIES = {
    "boosting-abr": AdaBoostR2,
    "boosting-gbr": GradientBoosting,
    "boosting-hgbr": HistGradientBoosting,
    "bagging": BaggingEnsemble,
    "random-forest": RandomForest,
    "extra-trees": ExtraTrees,
    "stacking": StackingEnsemble,
}

# The spec fields a strategy may tune: those its class's constructor takes.
_TUNING_FIELDS = ("n_estimators", "learning_rate", "max_depth", "max_bins", "n_folds")


def _parameters(cls) -> set[str]:
    """The names of the parameters cls's constructor takes."""
    return set(inspect.signature(cls).parameters)


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of one ensemble configuration.

    strategy names a class in STRATEGIES, and the class's constructor decides
    the rest. base and final hold model ids, each checked with parse_model_id
    when the spec is built. A class that takes base_builder takes exactly one
    base, one that takes base_builders (stacking) takes a final plus one or
    more bases (DEFAULT_STACK_BASES when empty), and the others take none.
    The tuning fields a strategy reads are the ones its constructor takes;
    every other tuning field must keep its default.
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
        names = tuple(STRATEGIES)
        if self.strategy not in names:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {names}")
        _check_count("n_estimators", self.n_estimators, 1)
        _check_real("learning_rate", self.learning_rate, lambda v: 0 < v <= 1, "in (0, 1]")
        _check_count("max_bins", self.max_bins, 2, 256)
        _check_count("n_folds", self.n_folds, 2)
        if self.max_depth is not None:
            _check_count("max_depth", self.max_depth, 0)
        _check_count("seed", self.seed, 0)
        takes = _parameters(STRATEGIES[self.strategy])
        defaults = {f.name: f.default for f in fields(self)}
        for name in _TUNING_FIELDS:
            value = getattr(self, name)
            if name not in takes and value != defaults[name]:
                raise ValueError(f"{self.strategy} does not use {name}, got {name}={value!r}")
        if "base_builders" in takes:
            if self.final is None:
                raise ValueError(f"{self.strategy} requires a final estimator id")
            if not self.base:
                object.__setattr__(self, "base", DEFAULT_STACK_BASES)
        elif self.final is not None:
            raise ValueError(
                f"only stacking takes a final estimator id; {self.strategy} got final={self.final!r}"
            )
        elif "base_builder" in takes:
            if len(self.base) != 1:
                raise ValueError(
                    f"{self.strategy} takes exactly one base estimator id, got base={self.base!r}"
                )
        elif self.base:
            raise ValueError(f"{self.strategy} takes no base estimator ids, got base={self.base!r}")
        from .registry import parse_model_id

        members = self.base if self.final is None else (*self.base, self.final)
        for model_id in members:
            if not isinstance(model_id, str):
                raise ValueError(f"{self.strategy} member ids must be strings, got {model_id!r}")
            try:
                parse_model_id(model_id)
            except ValueError as exc:
                raise ValueError(f"{self.strategy} member id {model_id!r}: {exc}") from exc

    def tuning(self) -> dict:
        """The tuning fields this spec's strategy reads, by name: the ones
        its class's constructor takes."""
        takes = _parameters(STRATEGIES[self.strategy])
        return {name: getattr(self, name) for name in _TUNING_FIELDS if name in takes}

    def to_dict(self) -> dict:
        return {**asdict(self), "base": list(self.base)}

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSpec":
        """Inverse of to_dict; absent keys take the field defaults, and a key
        that is no field raises ValueError naming it."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"EnsembleSpec has no field {', '.join(map(repr, unknown))}")
        return cls(**d)


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
    folds = np.array_split(_child_rng(seed, 0).permutation(n), n_folds)

    n_out = train.labels.shape[1]
    meta = np.empty((n, n_out * len(base_builders)))
    fold_plan = []
    for f_idx, hold in enumerate(folds):
        keep = np.concatenate([folds[g] for g in range(n_folds) if g != f_idx])
        fold_plan.append((keep.copy(), hold.copy()))
        sub = train.subset(keep)
        for b_idx, builder in enumerate(base_builders):
            where = f"base estimator {b_idx} failed on fold {f_idx} (fold-train size {keep.size})"
            member = _build(builder, sub, _child_seed(seed, f_idx, b_idx), where)
            meta[hold, b_idx * n_out : (b_idx + 1) * n_out] = member.predict(
                train.features[hold]
            )

    full_bases = [
        _build(builder, train, _child_seed(seed, n_folds, b_idx),
               f"base estimator {b_idx} failed on the full training set")
        for b_idx, builder in enumerate(base_builders)
    ]
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
    model._mark_fitted(train.m, train.labels.shape[1])
    model.fit_time_s = plan.build_time_s + getattr(model.final_, "fit_time_s", 0.0)
    model.frequencies_mhz = train.frequencies_mhz
    return model


def gradient_boost_fit(train: Dataset, **kwargs) -> GradientBoosting:
    return fit_on_dataset(GradientBoosting(**kwargs), train)
