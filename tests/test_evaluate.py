"""Accuracy metrics and the benchmark harness."""

import math
import re

import numpy as np
import pytest

from rfloc.core import train_test_split
from rfloc.ensemble import EnsembleSpec
from rfloc.evaluate import (
    EvalReport,
    benchmark,
    ce95,
    evaluate_model,
    format_report_table,
    r2,
    rmse,
)
from rfloc.regressors import knn_fit

from conftest import toy_dataset


class TestRmse:
    def test_hand_value(self):
        truth = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert rmse(truth, np.zeros((2, 3))) == pytest.approx(math.sqrt(0.5))

    def test_perfect_is_zero(self, rng):
        T = rng.normal(size=(10, 3))
        assert rmse(T, T) == 0.0

    def test_matches_per_sample_norms(self, rng):
        T = rng.normal(size=(50, 3))
        P = rng.normal(size=(50, 3))
        norms = np.linalg.norm(T - P, axis=1)
        assert rmse(T, P) == pytest.approx(math.sqrt((norms**2).mean()), rel=1e-12)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            rmse(np.zeros((0, 3)), np.zeros((0, 3)))


class TestR2:
    def test_hand_value(self):
        truth = np.tile(np.array([[0.0], [1.0], [2.0]]), (1, 3))
        pred = np.tile(np.array([[0.0], [1.0], [1.0]]), (1, 3))
        assert r2(truth, pred) == pytest.approx(0.5)

    def test_perfect_is_one(self, rng):
        T = rng.normal(size=(10, 3))
        assert r2(T, T) == 1.0

    def test_mean_predictor_is_zero(self, rng):
        T = rng.normal(size=(20, 3))
        P = np.tile(T.mean(axis=0), (20, 1))
        assert r2(T, P) == pytest.approx(0.0, abs=1e-12)

    def test_averages_output_columns(self, rng):
        T = rng.normal(size=(30, 3))
        P = T.copy()
        P[:, 2] = T[:, 2].mean()  # column scores: 1, 1, 0
        assert r2(T, P) == pytest.approx(2.0 / 3.0)

    def test_zero_variance_column_names_output(self):
        T = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 5.0]])
        with pytest.raises(ValueError, match="output 2"):
            r2(T, T)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            r2(np.ones((1, 3)), np.ones((1, 3)))


class TestCe95:
    def test_hand_value_hundred_errors(self):
        truth = np.zeros((100, 3))
        pred = np.zeros((100, 3))
        pred[:, 0] = np.arange(1.0, 101.0)
        assert ce95(truth, pred) == pytest.approx(95.05)

    def test_order_invariant(self, rng):
        truth = np.zeros((100, 3))
        pred = np.zeros((100, 3))
        pred[:, 0] = rng.permutation(np.arange(1.0, 101.0))
        assert ce95(truth, pred) == pytest.approx(95.05)

    def test_single_sample(self):
        assert ce95(np.zeros((1, 3)), np.array([[3.0, 4.0, 0.0]])) == 5.0

    def test_two_samples_interpolates(self):
        truth = np.zeros((2, 3))
        pred = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert ce95(truth, pred) == pytest.approx(1.0 + 0.95 * 1.0)

    def test_between_rmse_scale(self, rng):
        T = rng.normal(size=(500, 3))
        P = T + rng.normal(scale=0.1, size=(500, 3))
        assert 0.0 < ce95(T, P) < 1.0


@pytest.mark.parametrize("metric", [rmse, r2, ce95], ids=lambda f: f.__name__)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_metrics_refuse_a_non_finite_truth_or_prediction(metric, value):
    T = np.arange(12.0).reshape(4, 3)
    bad = T.copy()
    bad[2, 0] = value
    name = metric.__name__
    with pytest.raises(ValueError, match=re.escape(f"{name}: non-finite truth value {value} at row 2, column 0")):
        metric(bad, T)
    with pytest.raises(ValueError, match=re.escape(
            f"{name}: non-finite prediction value {value} at row 2, column 0")):
        metric(T, bad)


class TestEvalReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalReport("m", -1.0, 0.5, 0.1, 0.0)
        with pytest.raises(ValueError):
            EvalReport("m", 1.0, 1.5, 0.1, 0.0)
        with pytest.raises(ValueError):
            EvalReport("m", 1.0, 0.5, -0.1, 0.0)

    def test_error_rows_skip_validation(self):
        r = EvalReport("m", float("nan"), float("nan"), float("nan"), float("nan"), error="x")
        assert r.error == "x"


class TestEvaluateModel:
    def test_reports_fitted_metrics(self):
        ds = toy_dataset(n=40, m=3, seed=0)
        model = knn_fit(ds, k=1)
        rep = evaluate_model(model, "knr", ds)
        assert rep.model_id == "knr"
        assert rep.rmse_m == 0.0  # k=1 memorizes its own training set
        assert rep.r2 == 1.0
        assert rep.fit_time_s == model.fit_time_s


class TestBenchmark:
    def _split(self, n=60, seed=0):
        return train_test_split(toy_dataset(n=n, m=4, seed=seed), 0.7, seed=seed)

    def test_row_order_follows_input(self):
        split = self._split()
        reports = benchmark(["dtr", "knr"], split, seed=0)
        assert [r.model_id for r in reports] == ["dtr", "knr"]
        for r in reports:
            assert r.error is None
            assert np.isfinite(r.rmse_m)

    def test_failing_model_yields_nan_row_and_continues(self):
        split = train_test_split(toy_dataset(n=6, m=3, seed=1), 0.7, seed=0)
        assert split.train.n == 4  # knr default k=5 cannot fit
        reports = benchmark(["knr", "dtr"], split, seed=0)
        assert reports[0].error is not None
        assert math.isnan(reports[0].rmse_m)
        assert reports[1].error is None

    def test_metrics_independent_of_list_position(self):
        split = self._split()
        alone = benchmark(["gbr"], split, seed=3)[0]
        paired = benchmark(["knr", "gbr"], split, seed=3)[1]
        assert alone.rmse_m == paired.rmse_m
        assert alone.r2 == paired.r2

    def test_deterministic_across_runs(self):
        split = self._split()
        a = benchmark(["knr", "dtr"], split, seed=1)
        b = benchmark(["knr", "dtr"], split, seed=1)
        assert [(r.rmse_m, r.r2, r.ce95_m) for r in a] == [(r.rmse_m, r.r2, r.ce95_m) for r in b]

    def test_accepts_ensemble_specs(self):
        split = self._split()
        spec = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="dtr")
        rep = benchmark([spec], split, seed=0)[0]
        assert rep.error is None
        assert rep.model_id.startswith("stacking")


class TestFormatReportTable:
    def test_header_and_rows(self):
        reports = [
            EvalReport("knr", 0.25, 0.9, 0.5, 1.25),
            EvalReport("bad", float("nan"), float("nan"), float("nan"), float("nan"), error="x"),
        ]
        text = format_report_table(reports)
        lines = text.splitlines()
        assert lines[0].split() == ["model", "rmse_m", "r2", "ce95_m", "fit_time_s"]
        assert "0.250" in lines[1]
        assert "error" in lines[2]
