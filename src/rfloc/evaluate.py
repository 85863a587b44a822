"""Position-accuracy metrics and the multi-model benchmark harness.

Metrics follow the usual fingerprinting conventions: RMSE over per-sample
Euclidean position errors, coefficient of determination averaged over the
three coordinate outputs, and the 95% circular error (the empirical 0.95
quantile of per-sample errors, linearly interpolated). RMSE has no
distribution over a fixed test set, so the "95% error" is read as the
empirical CDF of per-sample errors; that is the only self-consistent
definition and the one implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SplitDataset, _check_count


def _check_pair(true_labels, pred_labels):
    T = np.asarray(true_labels, dtype=np.float64)
    P = np.asarray(pred_labels, dtype=np.float64)
    if T.shape != P.shape:
        raise ValueError(f"shape mismatch: truth {T.shape} vs prediction {P.shape}")
    if T.ndim != 2:
        raise ValueError(f"labels must be 2-D, got ndim={T.ndim}")
    if T.shape[0] == 0:
        raise ValueError("metrics need at least one sample")
    return T, P


def rmse(true_labels, pred_labels) -> float:
    """Root mean squared position error in meters.

    Per-sample squared Euclidean distances are averaged, then rooted:
    sqrt((1/n) * sum_i ||c_i - chat_i||^2).
    """
    T, P = _check_pair(true_labels, pred_labels)
    return float(np.sqrt(np.mean(np.sum((T - P) ** 2, axis=1))))


def r2(true_labels, pred_labels) -> float:
    """Coefficient of determination, unweighted mean over output columns."""
    T, P = _check_pair(true_labels, pred_labels)
    if T.shape[0] < 2:
        raise ValueError("r2 needs at least 2 samples")
    ss_res = np.sum((T - P) ** 2, axis=0)
    ss_tot = np.sum((T - T.mean(axis=0)) ** 2, axis=0)
    for j, tot in enumerate(ss_tot):
        if tot == 0.0:
            raise ValueError(f"r2 undefined: output {j} of the truth has zero variance")
    return float(np.mean(1.0 - ss_res / ss_tot))


def ce95(true_labels, pred_labels) -> float:
    """95th percentile of per-sample Euclidean errors (meters).

    Linear interpolation between order statistics at position
    p = 0.95 * (n - 1), so the result is bit-reproducible.
    """
    T, P = _check_pair(true_labels, pred_labels)
    errors = np.sort(np.linalg.norm(T - P, axis=1))
    p = 0.95 * (errors.size - 1)
    lo = int(math.floor(p))
    frac = p - lo
    if lo + 1 >= errors.size:
        return float(errors[lo])
    return float(errors[lo] + frac * (errors[lo + 1] - errors[lo]))


@dataclass
class EvalReport:
    """One benchmark row: model id plus test metrics and wall-clock fit time.

    A model that failed to fit or predict gets NaN metrics and the failure
    message in `error`; the benchmark keeps producing the remaining rows.
    """

    model_id: str
    rmse_m: float
    r2: float
    ce95_m: float
    fit_time_s: float
    error: str | None = None

    def __post_init__(self):
        if self.error is None:
            if not self.rmse_m >= 0.0:
                raise ValueError(f"rmse_m must be >= 0, got {self.rmse_m}")
            if not self.ce95_m >= 0.0:
                raise ValueError(f"ce95_m must be >= 0, got {self.ce95_m}")
            if not self.r2 <= 1.0:
                raise ValueError(f"r2 must be <= 1, got {self.r2}")
            if not self.fit_time_s >= 0.0:
                raise ValueError(f"fit_time_s must be >= 0, got {self.fit_time_s}")


def evaluate_model(model, model_id: str, test) -> EvalReport:
    """Score a fitted model on test data (Dataset)."""
    pred = model.predict(test.features)
    return EvalReport(
        model_id=model_id,
        rmse_m=rmse(test.labels, pred),
        r2=r2(test.labels, pred),
        ce95_m=ce95(test.labels, pred),
        fit_time_s=getattr(model, "fit_time_s", 0.0),
    )


def benchmark(models, split: SplitDataset, seed: int = 0) -> list[EvalReport]:
    """Fit and score a list of models (id strings or EnsembleSpec) in order.

    Each model's fit seed is derived from (seed, model id), so metric columns
    are reproducible and independent of list position. Stacking entries that
    share a base list, fold count, and seed reuse one out-of-fold plan; their
    reported fit time includes the shared plan's build time so rows remain
    comparable. A failing model yields a NaN row with the error recorded;
    the rest of the list still runs.
    """
    from .registry import canonical_id, fit_model

    _check_count("seed", seed, 0)
    plan_cache: dict = {}
    reports = []
    for item in models:
        model_id = canonical_id(item)
        try:
            model = fit_model(item, split.train, seed=seed, plan_cache=plan_cache)
            reports.append(evaluate_model(model, model_id, split.test))
        except Exception as exc:
            reports.append(
                EvalReport(
                    model_id=model_id,
                    rmse_m=float("nan"),
                    r2=float("nan"),
                    ce95_m=float("nan"),
                    fit_time_s=float("nan"),
                    error=str(exc),
                )
            )
    return reports


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text table of benchmark rows (model, RMSE, R2, CE95, time)."""
    header = ("model", "rmse_m", "r2", "ce95_m", "fit_time_s")
    rows = [header]
    for r in reports:
        if r.error is not None:
            rows.append((r.model_id, "error", "error", "error", "error"))
        else:
            rows.append(
                (
                    r.model_id,
                    f"{r.rmse_m:.3f}",
                    f"{r.r2:.3f}",
                    f"{r.ce95_m:.3f}",
                    f"{r.fit_time_s:.3f}",
                )
            )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
