"""Passive-RF indoor positioning toolkit.

Simulates spectrum fingerprint datasets over room grids, trains from-scratch
regressors and ensembles to invert spectrum -> position, ranks frequencies by
permutation importance to drive sensor reconfiguration, and evaluates with
RMSE / R^2 / 95% circular error.
"""

from .bandselect import ImportanceReport, dddas_cycle, permutation_importance, select_rated_band
from .core import (
    Dataset,
    Position,
    SensorConfig,
    SplitDataset,
    grid_positions,
    train_test_split,
    validate_dataset,
)
from .ensemble import (
    AdaBoostR2,
    BaggingEnsemble,
    EnsembleSpec,
    ExtraTrees,
    GradientBoosting,
    HistGradientBoosting,
    RandomForest,
    StackingEnsemble,
    adaboost_r2_fit,
    bagging_fit,
    extra_trees_fit,
    gradient_boost_fit,
    hist_gradient_boost_fit,
    random_forest_fit,
    stacking_fit,
)
from .evaluate import EvalReport, benchmark, ce95, evaluate_model, r2, rmse
from .pca import PcaModel, pca_fit, pca_transform
from .regressors import (
    CartRegressor,
    GprRegressor,
    KnnRegressor,
    LinearSvr,
    MlpRegressor,
    Model,
    NotFittedError,
    cart_fit,
    gpr_fit,
    knn_fit,
    mlp_fit,
    predict,
    svr_fit,
)
from .registry import DEFAULT_STACK_BASES, builder_for, expand_model_ids, fit_model
from .simulate import (
    Scenario,
    SignatureObject,
    SoopSource,
    generate_dataset,
    make_fullband_scenario,
    make_reference_scenario,
    received_power,
    reference_grid_positions,
)

__version__ = "0.1.0"

__all__ = [
    "AdaBoostR2",
    "BaggingEnsemble",
    "CartRegressor",
    "Dataset",
    "DEFAULT_STACK_BASES",
    "EnsembleSpec",
    "EvalReport",
    "ExtraTrees",
    "GprRegressor",
    "GradientBoosting",
    "HistGradientBoosting",
    "ImportanceReport",
    "KnnRegressor",
    "LinearSvr",
    "MlpRegressor",
    "Model",
    "NotFittedError",
    "PcaModel",
    "Position",
    "RandomForest",
    "Scenario",
    "SensorConfig",
    "SignatureObject",
    "SoopSource",
    "SplitDataset",
    "StackingEnsemble",
    "adaboost_r2_fit",
    "bagging_fit",
    "benchmark",
    "builder_for",
    "cart_fit",
    "ce95",
    "dddas_cycle",
    "evaluate_model",
    "expand_model_ids",
    "extra_trees_fit",
    "fit_model",
    "generate_dataset",
    "gpr_fit",
    "gradient_boost_fit",
    "grid_positions",
    "hist_gradient_boost_fit",
    "knn_fit",
    "make_fullband_scenario",
    "make_reference_scenario",
    "mlp_fit",
    "pca_fit",
    "pca_transform",
    "permutation_importance",
    "predict",
    "r2",
    "random_forest_fit",
    "received_power",
    "reference_grid_positions",
    "rmse",
    "select_rated_band",
    "stacking_fit",
    "svr_fit",
    "train_test_split",
    "validate_dataset",
]
