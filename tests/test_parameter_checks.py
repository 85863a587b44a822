"""Every numeric constructor parameter refuses a bad number, naming it.

TABLE holds one row per numeric parameter of every public model, ensemble
and config class, plus the counts of the module-level functions
grid_positions, make_fullband_scenario, build_stacking_plan,
permutation_importance and select_rated_band. Each row is given NaN, inf,
True and "1", and a count also 2.5; each must raise ValueError naming the
parameter and the value. test_every_numeric_parameter_has_a_row fails when one of those
classes gains a numeric parameter without a row, the way
test_tracing_boundaries.py guards the traced names.
"""

import inspect
import re

import pytest

import rfloc
from rfloc import (
    AdaBoostR2,
    BaggingEnsemble,
    CartRegressor,
    Dataset,
    EnsembleSpec,
    EvalReport,
    ExtraTrees,
    GprRegressor,
    GradientBoosting,
    HistGradientBoosting,
    ImportanceReport,
    KnnRegressor,
    LinearSvr,
    MlpRegressor,
    Model,
    NotFittedError,
    PcaModel,
    Position,
    RandomForest,
    Scenario,
    SensorConfig,
    SignatureObject,
    SoopSource,
    SplitDataset,
    StackingEnsemble,
    cart_fit,
    grid_positions,
    make_fullband_scenario,
    permutation_importance,
    select_rated_band,
)
from rfloc.ensemble import build_stacking_plan

from conftest import toy_dataset

COUNT, REAL = "count", "real"
TREE = lambda train, seed: cart_fit(train)  # noqa: E731
SENSOR = dict(band_mhz=(91.2, 93.6), step_mhz=2.4, sample_rate_hz=2.4e6, samples_per_position=10)
SOURCE = dict(position=Position(1.0, 1.0, 1.0), center_frequency_mhz=91.2, bandwidth_mhz=0.2,
              tx_power_dbm=-30.0, path_loss_exponent=3.0)
BOX = dict(corner_min=Position(0.0, 0.0, 0.0), corner_max=Position(1.0, 1.0, 1.0), attenuation_db=5.0)
ROOM = dict(room_dims=(6.0, 4.0, 3.0), sources=(), objects=(), noise_sigma_db=0.3, rng_seed=0)
GRID = dict(room_dims=(6.0, 4.0, 3.0), counts=(2, 2), spacing=1.0, heights=(0.0, 1.0))
HGBR = dict(strategy="boosting-hgbr")
STACK = dict(strategy="stacking", final="dtr", base=("dtr",))
TOY = toy_dataset(n=20, m=3, seed=0)
PLAN = dict(train=TOY, base_builders=[TREE])
IMPORTANCE = dict(model=cart_fit(TOY), test=TOY)
RATED = dict(report=ImportanceReport((91.2, 93.6, 96.0), (0.3, 0.2, 0.1), 5, 0, 0.3))

# (class or function, parameter, kind, the other arguments); a tuple-valued
# parameter gets the bad value as its first element
TABLE = [
    (KnnRegressor, "k", COUNT, {}),
    (CartRegressor, "max_depth", COUNT, {}),
    (CartRegressor, "min_samples_leaf", COUNT, {}),
    (CartRegressor, "max_features", COUNT, {}),
    (CartRegressor, "seed", COUNT, {}),
    (GprRegressor, "length_scale", REAL, {}),
    (GprRegressor, "signal_variance", REAL, {}),
    (GprRegressor, "noise_jitter", REAL, {}),
    (LinearSvr, "epsilon", REAL, {}),
    (LinearSvr, "reg_c", REAL, {}),
    (LinearSvr, "epochs", COUNT, {}),
    (LinearSvr, "learning_rate", REAL, {}),
    (MlpRegressor, "hidden_units", COUNT, {}),
    (MlpRegressor, "epochs", COUNT, {}),
    (MlpRegressor, "learning_rate", REAL, {}),
    (MlpRegressor, "seed", COUNT, {}),
    (AdaBoostR2, "n_estimators", COUNT, {"base_builder": TREE}),
    (AdaBoostR2, "seed", COUNT, {"base_builder": TREE}),
    (GradientBoosting, "n_estimators", COUNT, {}),
    (GradientBoosting, "learning_rate", REAL, {}),
    (GradientBoosting, "max_depth", COUNT, {}),
    (HistGradientBoosting, "n_estimators", COUNT, {}),
    (HistGradientBoosting, "learning_rate", REAL, {}),
    (HistGradientBoosting, "max_depth", COUNT, {}),
    (HistGradientBoosting, "max_bins", COUNT, {}),
    (BaggingEnsemble, "n_estimators", COUNT, {"base_builder": TREE}),
    (BaggingEnsemble, "seed", COUNT, {"base_builder": TREE}),
    (RandomForest, "n_estimators", COUNT, {}),
    (RandomForest, "max_features", COUNT, {}),
    (RandomForest, "seed", COUNT, {}),
    (ExtraTrees, "n_estimators", COUNT, {}),
    (ExtraTrees, "max_features", COUNT, {}),
    (ExtraTrees, "seed", COUNT, {}),
    (StackingEnsemble, "n_folds", COUNT, {"base_builders": [TREE], "final_builder": TREE}),
    (StackingEnsemble, "seed", COUNT, {"base_builders": [TREE], "final_builder": TREE}),
    (EnsembleSpec, "n_estimators", COUNT, HGBR),
    (EnsembleSpec, "learning_rate", REAL, HGBR),
    (EnsembleSpec, "max_depth", COUNT, HGBR),
    (EnsembleSpec, "max_bins", COUNT, HGBR),
    (EnsembleSpec, "n_folds", COUNT, STACK),
    (EnsembleSpec, "seed", COUNT, HGBR),
    (SensorConfig, "band_mhz", REAL, SENSOR),
    (SensorConfig, "step_mhz", REAL, SENSOR),
    (SensorConfig, "sample_rate_hz", REAL, SENSOR),
    (SensorConfig, "samples_per_position", COUNT, SENSOR),
    (SensorConfig, "reconfig_index", COUNT, SENSOR),
    (Position, "x", REAL, dict(y=0.0, z=0.0)),
    (Position, "y", REAL, dict(x=0.0, z=0.0)),
    (Position, "z", REAL, dict(x=0.0, y=0.0)),
    (SoopSource, "center_frequency_mhz", REAL, SOURCE),
    (SoopSource, "bandwidth_mhz", REAL, SOURCE),
    (SoopSource, "tx_power_dbm", REAL, SOURCE),
    (SoopSource, "path_loss_exponent", REAL, SOURCE),
    (SignatureObject, "attenuation_db", REAL, BOX),
    (Scenario, "room_dims", REAL, ROOM),
    (Scenario, "noise_sigma_db", REAL, ROOM),
    (Scenario, "rng_seed", COUNT, ROOM),
    (Scenario, "noise_floor_dbm", REAL, ROOM),
    (Scenario, "noise_burst_prob", REAL, ROOM),
    (Scenario, "noise_burst_factor", REAL, ROOM),
    (Scenario, "label_error_prob", REAL, ROOM),
    (grid_positions, "counts", COUNT, GRID),
    (grid_positions, "spacing", REAL, GRID),
    (grid_positions, "heights", REAL, GRID),
    (make_fullband_scenario, "n_frequencies", COUNT, {"seed": 0}),
    (build_stacking_plan, "n_folds", COUNT, PLAN),
    (permutation_importance, "n_repeats", COUNT, IMPORTANCE),
    (select_rated_band, "top_k", COUNT, RATED),
]

CLASSES = sorted({target for target, *_ in TABLE if inspect.isclass(target)}, key=lambda c: c.__name__)
# public classes that hold results a computation returns, or no parameters
NOT_CONFIGS = {Dataset, SplitDataset, EvalReport, ImportanceReport, PcaModel, Model, NotFittedError}

BAD = [float("nan"), float("inf"), True, "1"]


def _cases():
    for target, name, kind, others in TABLE:
        for bad in BAD + ([2.5] if kind == COUNT else []):
            yield pytest.param(target, name, others, bad, id=f"{target.__name__}.{name}={bad!r}")


@pytest.mark.parametrize("target, name, others, bad", _cases())
def test_a_bad_number_is_refused_naming_parameter_and_value(target, name, others, bad):
    valid = others.get(name)
    value = (bad, *valid[1:]) if isinstance(valid, tuple) else bad
    with pytest.raises(ValueError) as info:
        target(**{**others, name: value})
    message = str(info.value)
    assert name in message and repr(bad) in message, message


def _numeric_parameters(cls) -> set[str]:
    """Parameters annotated int or float, or defaulting to a number."""
    names = set()
    for p in inspect.signature(cls).parameters.values():
        annotated = isinstance(p.annotation, str) and re.search(r"\b(int|float)\b", p.annotation)
        numeric_default = type(p.default) in (int, float)
        if annotated or numeric_default:
            names.add(p.name)
    return names


def test_every_public_class_has_rows_or_is_named_as_no_config():
    public = {obj for obj in map(vars(rfloc).get, rfloc.__all__) if inspect.isclass(obj)}
    assert public - NOT_CONFIGS == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_numeric_parameter_has_a_row(cls):
    assert _numeric_parameters(cls) == {name for target, name, *_ in TABLE if target is cls}


def test_edge_values_stay_valid():
    SensorConfig(**{**SENSOR, "samples_per_position": 0})
    Scenario(**{**ROOM, "noise_sigma_db": 0, "noise_burst_prob": 1, "noise_burst_factor": 1,
                "label_error_prob": 0.0, "noise_floor_dbm": -60})
    SoopSource(**{**SOURCE, "path_loss_exponent": 1.5})
    SignatureObject(**{**BOX, "attenuation_db": 0})
    assert type(Position(1, 2, 3).x) is float
    CartRegressor(max_depth=0, max_features=1, seed=0)
    LinearSvr(epsilon=0)


def _seeded_calls():
    """(name, call taking a seed) for every public function with a seed argument."""
    from rfloc import (benchmark, dddas_cycle, fit_model, make_reference_scenario,
                       permutation_importance, train_test_split)

    from conftest import toy_dataset

    ds = toy_dataset(n=20, m=3, seed=0)
    split = train_test_split(ds, 0.7, seed=0)
    model = fit_model("knr", split.train, seed=0)
    scenario, config, positions = make_fullband_scenario(0, 10)
    return [
        ("make_reference_scenario", make_reference_scenario),
        ("make_fullband_scenario", lambda seed: make_fullband_scenario(seed, 10)),
        ("train_test_split", lambda seed: train_test_split(ds, 0.7, seed)),
        ("fit_model", lambda seed: fit_model("knr", ds, seed=seed)),
        ("permutation_importance", lambda seed: permutation_importance(model, split.test, seed=seed)),
        ("benchmark", lambda seed: benchmark(["knr"], split, seed=seed)),
        ("build_stacking_plan", lambda seed: build_stacking_plan(ds, [TREE], n_folds=2, seed=seed)),
        ("dddas_cycle", lambda seed: dddas_cycle(scenario, config, positions, "knr", 2, seed=seed)),
    ]


@pytest.mark.parametrize("bad", [2.5, -1, True, "1", float("nan")])
def test_a_bad_seed_is_refused_naming_it(bad):
    for name, call in _seeded_calls():
        with pytest.raises(ValueError) as info:
            call(bad)
        message = str(info.value)
        assert message.startswith("seed must be") and repr(bad) in message, (name, message)


@pytest.mark.parametrize("bad, named", [
    (float("nan"), "train_fraction must be in (0, 1), got nan"),
    (True, "train_fraction must be in (0, 1), got True"),
    ("0.5", "train_fraction must be in (0, 1), got '0.5'"),
    (1.5, "train_fraction must be in (0, 1), got 1.5"),
])
def test_train_fraction_is_a_fraction(bad, named):
    from rfloc import train_test_split

    from conftest import toy_dataset

    with pytest.raises(ValueError, match=re.escape(named)):
        train_test_split(toy_dataset(n=10, m=2), bad, seed=0)


def test_a_split_leaves_both_halves_non_empty():
    from rfloc import train_test_split

    from conftest import toy_dataset

    for fraction, n_train in ((0.1, 0), (0.9, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"train_fraction {fraction} splits 3 rows into {n_train} train and {3 - n_train} test rows")):
            train_test_split(toy_dataset(n=3, m=2), fraction, seed=0)
    split = train_test_split(toy_dataset(n=3, m=2), 0.5, seed=0)
    assert (split.train.n, split.test.n) == (2, 1)
