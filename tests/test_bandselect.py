"""Permutation ranking and sensor-band reconfiguration."""

import re

import numpy as np
import pytest

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
        model = ranked_models[mid]
        calls = _counting_predict(monkeypatch, model)
        permutation_importance(model, fullband_split.test, n_repeats=3, seed=4)
        assert len(calls) == 1 + 3 * len(model.used_features())

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
        with pytest.raises(ValueError):
            select_rated_band(rep, 0)
        with pytest.raises(ValueError):
            select_rated_band(rep, 3)


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

    def test_generated_band_dataset_matches_rated_config(self):
        scenario, config, positions = make_fullband_scenario(2, n_frequencies=20)
        rated, _, _ = dddas_cycle(
            scenario, config, positions, "dtr", top_k=4, seed=1, n_repeats=1
        )
        ds = generate_dataset(scenario, rated, positions)
        assert ds.m == 4
        assert ds.frequencies_mhz == rated.band_mhz
