"""Permutation ranking and sensor-band reconfiguration."""

import re

import numpy as np
import pytest

from rfloc import simulate
from rfloc.bandselect import (
    ImportanceReport,
    dddas_cycle,
    permutation_importance,
    select_rated_band,
)
from rfloc.core import SensorConfig, _child_rng, train_test_split, validate_dataset
from rfloc.evaluate import rmse
from rfloc.registry import fit_model
from rfloc.regressors import CartRegressor, fit_on_dataset, knn_fit
from rfloc.simulate import generate_dataset, make_fullband_scenario

from conftest import toy_dataset


class _ColumnModel:
    """Predicts from feature column 0 only; ignores everything else."""

    frequencies_mhz = None

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.column_stack([X[:, 0], X[:, 0], np.zeros(len(X))])


def _column_driven_dataset(n=80, m=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    Y = np.column_stack([X[:, 0], X[:, 0], np.zeros(n)])
    Y[:, 2] = rng.normal(size=n)  # keep every output column non-constant
    return validate_dataset(X, Y, tuple(float(i + 1) for i in range(m)))


class TestPermutationImportance:
    def test_ignored_columns_score_exactly_zero(self):
        ds = _column_driven_dataset()
        rep = permutation_importance(_ColumnModel(), ds, n_repeats=3, seed=0)
        assert rep.scores_m[0] > 0.1
        assert rep.scores_m[1] == 0.0
        assert rep.scores_m[2] == 0.0

    def test_baseline_matches_unshuffled_rmse(self):
        ds = _column_driven_dataset()
        model = _ColumnModel()
        rep = permutation_importance(model, ds, n_repeats=2, seed=1)
        assert rep.baseline_rmse_m == rmse(ds.labels, model.predict(ds.features))

    def test_reproducible_across_calls(self):
        ds = _column_driven_dataset()
        a = permutation_importance(_ColumnModel(), ds, n_repeats=4, seed=7)
        b = permutation_importance(_ColumnModel(), ds, n_repeats=4, seed=7)
        assert a.scores_m == b.scores_m
        assert a != permutation_importance(_ColumnModel(), ds, n_repeats=4, seed=8)

    def test_matches_manual_shuffle_oracle(self):
        ds = _column_driven_dataset(n=40, m=2)
        model = _ColumnModel()
        seed, repeats = 3, 3
        rep = permutation_importance(model, ds, n_repeats=repeats, seed=seed)
        X = ds.features
        baseline = rmse(ds.labels, model.predict(X))
        for j in range(2):
            increase = 0.0
            for r in range(repeats):
                rng = np.random.default_rng(np.random.SeedSequence([seed, j, r]))
                work = X.copy()
                work[:, j] = X[rng.permutation(ds.n), j]
                increase += rmse(ds.labels, model.predict(work)) - baseline
            assert rep.scores_m[j] == increase / repeats

    def test_band_mismatch_rejected(self):
        ds = toy_dataset(n=30, m=3, seed=0)
        model = knn_fit(ds, k=3)
        other = validate_dataset(ds.features, ds.labels, (7.0, 8.0, 9.0))
        with pytest.raises(ValueError, match="frequencies"):
            permutation_importance(model, other)

    def test_repeat_validation(self):
        ds = toy_dataset(n=10, m=2, seed=0)
        with pytest.raises(ValueError):
            permutation_importance(_ColumnModel(), ds, n_repeats=0)
        with pytest.raises(ValueError):
            ImportanceReport((1.0, 2.0), (0.1,), 1, 0, 0.5)
        for bad in (2.5, True, "3"):
            message = re.escape(f"n_repeats must be an integer, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                permutation_importance(_ColumnModel(), ds, n_repeats=bad)
            with pytest.raises(ValueError, match=message):
                ImportanceReport((1.0,), (0.1,), bad, 0, 0.5)
        with pytest.raises(ValueError, match="n_repeats must be >= 1, got 0"):
            permutation_importance(_ColumnModel(), ds, n_repeats=0)
        rep = permutation_importance(_ColumnModel(), ds, n_repeats=np.int64(2))
        assert rep.n_repeats == 2


def _all_columns_importance(model, test, n_repeats, seed):
    """Reference ranking: shuffle and predict every column, whatever the model
    reads. Returns (scores, baseline)."""
    X = np.asarray(test.features, dtype=np.float64)
    baseline = rmse(test.labels, model.predict(X))
    scores = np.zeros(test.m)
    work = X.copy()
    for j in range(test.m):
        increase = 0.0
        for r in range(n_repeats):
            work[:, j] = X[_child_rng(seed, j, r).permutation(test.n), j]
            increase += rmse(test.labels, model.predict(work)) - baseline
        work[:, j] = X[:, j]
        scores[j] = increase / n_repeats
    return tuple(float(s) for s in scores), baseline


def _counting_predict(monkeypatch, model):
    """Count the predicts made on model itself (not on its members)."""
    calls = []
    real = model.predict
    monkeypatch.setattr(model, "predict", lambda X: calls.append(1) or real(X))
    return calls


RANKED_IDS = ("dtr", "gbr", "hgbr", "rfr", "ert", "abr", "bagging-dtr", "stacking-gbr[knr+dtr]", "knr")


# The last bins of the ranking set read a flat level, as a dead receiver bin
# would: no tree can split on them, so every model but knr skips them.
FLAT_BINS = 4


@pytest.fixture(scope="module")
def fullband_split():
    scenario, config, positions = make_fullband_scenario(0, n_frequencies=24)
    data = generate_dataset(scenario, config, positions)
    data = data.subset(np.arange(0, data.n, 100))
    X = data.features.copy()
    X[:, -FLAT_BINS:] = X[:, -FLAT_BINS:].mean(axis=0)
    data = validate_dataset(X, data.labels, data.frequencies_mhz)
    return train_test_split(data, 0.7, seed=1)


@pytest.fixture(scope="module")
def ranked_models(fullband_split):
    return {mid: fit_model(mid, fullband_split.train, seed=3) for mid in RANKED_IDS}


class TestUsedColumnsOnly:
    """permutation_importance shuffles only the columns in used_features()."""

    @pytest.mark.parametrize("mid", RANKED_IDS)
    def test_scores_equal_the_all_columns_reference(self, mid, ranked_models, fullband_split):
        model, test = ranked_models[mid], fullband_split.test
        rep = permutation_importance(model, test, n_repeats=3, seed=4)
        scores, baseline = _all_columns_importance(model, test, 3, 4)
        assert rep.scores_m == scores
        assert rep.baseline_rmse_m == baseline
        unused = np.setdiff1d(np.arange(test.m), model.used_features())
        assert all(rep.scores_m[j] == 0.0 for j in unused)

    @pytest.mark.parametrize("mid", RANKED_IDS)
    def test_one_predict_per_used_column_and_repeat(self, mid, ranked_models, fullband_split, monkeypatch):
        # a single tree predicts the baseline only: its shuffled predictions
        # come from permuted_predictions
        model = ranked_models[mid]
        calls = _counting_predict(monkeypatch, model)
        permutation_importance(model, fullband_split.test, n_repeats=3, seed=4)
        assert len(calls) == (1 if mid == "dtr" else 1 + 3 * len(model.used_features()))

    @pytest.mark.parametrize("mid", RANKED_IDS)
    def test_columns_outside_used_features_do_not_move_predict(self, mid, ranked_models, fullband_split):
        model, X = ranked_models[mid], fullband_split.test.features
        want = model.predict(X)
        unused = np.setdiff1d(np.arange(X.shape[1]), model.used_features())
        if "knr" in mid:  # knr reads every column, and so does a stacking over it
            assert unused.size == 0
        else:
            assert set(range(X.shape[1] - FLAT_BINS, X.shape[1])) <= set(unused)
        rng = np.random.default_rng(0)
        work = X.copy()
        for j in unused:
            work[:, j] = X[rng.permutation(len(X)), j]
            assert np.array_equal(model.predict(work), want), j
        work[:, unused] = rng.normal(size=(len(X), unused.size))
        assert np.array_equal(model.predict(work), want)

    def test_a_model_without_used_features_has_every_column_shuffled(self, monkeypatch):
        ds = _column_driven_dataset(m=4)
        model = _ColumnModel()
        calls = _counting_predict(monkeypatch, model)
        rep = permutation_importance(model, ds, n_repeats=2, seed=0)
        assert len(calls) == 1 + 2 * 4
        assert rep.scores_m[1:] == (0.0, 0.0, 0.0)

    def test_a_model_that_reads_no_column_predicts_once(self, monkeypatch):
        ds = _column_driven_dataset(m=3)
        stump = fit_on_dataset(CartRegressor(max_depth=0), ds)
        assert stump.used_features().size == 0
        calls = _counting_predict(monkeypatch, stump)
        rep = permutation_importance(stump, ds, n_repeats=4, seed=0)
        assert len(calls) == 1
        assert rep.scores_m == (0.0, 0.0, 0.0)


def _integer_split(seed=0, n=90, m=4, levels=4):
    """Tie-heavy integer columns: every feature takes one of a few values."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, m)).astype(np.float64)
    Y = np.column_stack([X[:, 0] + X[:, 1], X[:, 2] * X[:, 0], rng.normal(size=n)])
    return train_test_split(validate_dataset(X, Y, tuple(float(i + 1) for i in range(m))), 0.6, seed=seed)


def _two_depth_split(seed=0, n=120):
    """Labels step three times along column 0, so a tree tests it at two
    depths on one path; column 1 is noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, size=(n, 2))
    step = np.floor(X[:, 0])
    Y = np.column_stack([step, 2.0 * step, 0.01 * rng.normal(size=n)])
    return train_test_split(validate_dataset(X, Y, (1.0, 2.0)), 0.6, seed=seed)


def _paths_testing_twice(tree, column):
    """How many root-to-leaf paths test column at two or more nodes."""
    count, stack = 0, [(0, 0)]
    while stack:
        node, seen = stack.pop()
        f = tree._feature[node]
        if f < 0:
            count += seen >= 2
            continue
        seen += f == column
        stack += [(tree._left[node], seen), (tree._right[node], seen)]
    return count


def _walk(tree, x):
    """The tree's prediction for one query, one node at a time."""
    node = 0
    while tree._feature[node] >= 0:
        go_left = x[tree._feature[node]] <= tree._threshold[node]
        node = tree._left[node] if go_left else tree._right[node]
    return tree._value[node]


ROUTED_CASES = {
    "max-depth": (lambda: CartRegressor(max_depth=4), "fullband", 3),
    "min-samples-leaf": (lambda: CartRegressor(min_samples_leaf=3), "fullband", 3),
    "stump": (lambda: CartRegressor(max_depth=1), "fullband", 3),
    "one-repeat": (CartRegressor, "fullband", 1),
    "integer-ties": (CartRegressor, "integer", 4),
    "two-depths": (CartRegressor, "two-depth", 3),
}


class TestRoutedTreeImportance:
    """A single tree re-routes only the rows whose path tests the shuffled
    column; its scores and baseline equal the predict-every-column reference."""

    @pytest.fixture(scope="class")
    def splits(self, fullband_split):
        return {"fullband": fullband_split, "integer": _integer_split(), "two-depth": _two_depth_split()}

    @pytest.mark.parametrize("case", sorted(ROUTED_CASES))
    def test_scores_equal_the_all_columns_reference(self, case, splits, monkeypatch):
        make, data, n_repeats = ROUTED_CASES[case]
        split = splits[data]
        tree = fit_on_dataset(make(), split.train)
        if case == "two-depths":
            assert _paths_testing_twice(tree, 0) > 0
        scores, baseline = _all_columns_importance(tree, split.test, n_repeats, 5)
        calls = _counting_predict(monkeypatch, tree)
        rep = permutation_importance(tree, split.test, n_repeats=n_repeats, seed=5)
        assert rep.scores_m == scores
        assert rep.baseline_rmse_m == baseline
        assert len(calls) == 1
        assert any(s != 0.0 for s in scores)

    @pytest.mark.parametrize("data", ["integer", "two-depth"])
    def test_predictions_match_a_walk_of_each_shuffled_copy(self, data, splits):
        split = splits[data]
        tree = fit_on_dataset(CartRegressor(), split.train)
        X = split.test.features.copy()
        # half of the queries sit exactly on a threshold of the column they
        # are tested on, where "<=" sends them left
        for i in range(0, len(X), 2):
            node = i % tree.node_count
            if tree._feature[node] >= 0:
                X[i, tree._feature[node]] = tree._threshold[node]
        rng = np.random.default_rng(1)
        perms = {j: [rng.permutation(len(X)) for _ in range(3)] for j in range(X.shape[1])}
        got = dict(tree.permuted_predictions(X, perms.items()))
        assert sorted(got) == list(perms)
        for j, P in got.items():
            assert P.shape == (3, len(X), 3)
            for r, perm in enumerate(perms[j]):
                work = X.copy()
                work[:, j] = X[perm, j]
                assert np.array_equal(P[r], np.array([_walk(tree, x) for x in work])), (j, r)
                assert np.array_equal(P[r], tree.predict(work)), (j, r)

    def test_rejects_a_bad_column_perm_or_query(self, splits):
        split = splits["integer"]
        tree = fit_on_dataset(CartRegressor(), split.train)
        X = split.test.features
        n = len(X)
        with pytest.raises(ValueError, match=r"column must be in \[0, 3\], got 4"):
            list(tree.permuted_predictions(X, [(4, [np.arange(n)])]))
        with pytest.raises(ValueError, match=re.escape(f"perms of column 1 must have shape (repeats, {n})")):
            list(tree.permuted_predictions(X, [(1, [np.arange(n - 1)])]))
        Q = X.copy()
        Q[2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite query value nan at row 2, column 3"):
            list(tree.permuted_predictions(Q, []))

    @pytest.mark.parametrize("bad, named", [
        (2.0, "got 2.0 at (repeat 0, position 0)"),
        (9, "got 9 at (repeat 1, position 3)"),
        (-1, "got -1 at (repeat 1, position 3)"),
    ])
    def test_a_perm_must_hold_row_indices(self, splits, bad, named):
        split = splits["integer"]
        tree = fit_on_dataset(CartRegressor(), split.train)
        X = split.test.features[:5]
        perms = np.tile(np.arange(5), (2, 1))
        if isinstance(bad, float):
            perms = perms.astype(np.float64)
            perms[0, 0] = bad
        else:
            perms[1, 3] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"perms of column 2 must hold integer row indices in [0, 5), {named}")):
            list(tree.permuted_predictions(X, [(2, perms)]))


class TestSelectRatedBand:
    def _report(self, scores):
        freqs = (91.2, 93.6, 96.0, 98.4, 100.8)[: len(scores)]
        return ImportanceReport(freqs, scores, 5, 0, 0.3)

    def test_top_k_by_score_sorted_ascending(self):
        rep = self._report((0.5, 0.1, 0.9, 0.0, 0.3))
        cfg = select_rated_band(rep, 2)
        assert cfg.band_mhz == (91.2, 96.0)

    def test_score_ties_prefer_lower_frequency(self):
        rep = self._report((0.5, 0.5, 0.1))
        assert select_rated_band(rep, 1).band_mhz == (91.2,)
        assert select_rated_band(rep, 2).band_mhz == (91.2, 93.6)

    def test_defaults_without_base(self):
        cfg = select_rated_band(self._report((0.2, 0.1)), 1)
        assert cfg.step_mhz == 2.4
        assert cfg.sample_rate_hz == 2.4e6
        assert cfg.samples_per_position == 100
        assert cfg.reconfig_index == 1

    def test_base_passthrough_and_counter(self):
        base = SensorConfig(
            band_mhz=(91.2, 93.6, 96.0),
            step_mhz=1.2,
            sample_rate_hz=1e6,
            samples_per_position=50,
            reconfig_index=2,
        )
        cfg = select_rated_band(self._report((0.0, 0.4, 0.2)), 2, base=base)
        assert cfg.band_mhz == (93.6, 96.0)
        assert cfg.step_mhz == 1.2
        assert cfg.sample_rate_hz == 1e6
        assert cfg.samples_per_position == 50
        assert cfg.reconfig_index == 3

    def test_top_k_bounds(self):
        rep = self._report((0.1, 0.2))
        with pytest.raises(ValueError, match=r"^top_k must be in \[1, 2\], got 0$"):
            select_rated_band(rep, 0)
        with pytest.raises(ValueError, match=r"^top_k must be in \[1, 2\], got 3$"):
            select_rated_band(rep, 3)

    @pytest.mark.parametrize("top_k", [True, 2.5, "2"])
    def test_top_k_must_be_an_integer(self, top_k):
        rep = self._report((0.1, 0.2))
        with pytest.raises(ValueError, match=rf"^top_k must be an integer, got {re.escape(repr(top_k))}$"):
            select_rated_band(rep, top_k)


class TestDddasCycle:
    def test_cycle_reduces_band_and_reports(self):
        scenario, config, positions = make_fullband_scenario(0, n_frequencies=20)
        rated, before, after = dddas_cycle(
            scenario, config, positions, "dtr", top_k=5, seed=0, n_repeats=2
        )
        assert rated.n_frequencies == 5
        assert set(rated.band_mhz) <= set(config.band_mhz)
        assert rated.reconfig_index == 1
        assert before.error is None and after.error is None
        assert np.isfinite(before.rmse_m) and np.isfinite(after.rmse_m)

    def test_rated_band_recovers_informative_bins(self):
        scenario, config, positions = make_fullband_scenario(1, n_frequencies=20)
        rated, _, after = dddas_cycle(
            scenario, config, positions, "dtr", top_k=5, seed=0, n_repeats=2
        )
        informative = {s.center_frequency_mhz for s in scenario.sources}
        assert set(rated.band_mhz) == informative
        # dropping 15 noise-only bins must not blow up the error
        assert after.rmse_m < 1.0

    def test_top_k_must_shrink_the_band(self):
        scenario, config, positions = make_fullband_scenario(0, n_frequencies=20)
        with pytest.raises(ValueError):
            dddas_cycle(scenario, config, positions, "dtr", top_k=20, seed=0)

    @pytest.mark.parametrize("top_k", [True, 2.5, "2"])
    def test_top_k_must_be_an_integer(self, monkeypatch, top_k):
        scenario, config, positions = make_fullband_scenario(0, n_frequencies=20)
        # the check comes before any dataset is generated
        monkeypatch.setattr(simulate, "generate_dataset", None)
        with pytest.raises(ValueError, match=r"^top_k must be an integer"):
            dddas_cycle(scenario, config, positions, "dtr", top_k=top_k, seed=0)

    def test_generated_band_dataset_matches_rated_config(self):
        scenario, config, positions = make_fullband_scenario(2, n_frequencies=20)
        rated, _, _ = dddas_cycle(
            scenario, config, positions, "dtr", top_k=4, seed=1, n_repeats=1
        )
        ds = generate_dataset(scenario, rated, positions)
        assert ds.m == 4
        assert ds.frequencies_mhz == rated.band_mhz
