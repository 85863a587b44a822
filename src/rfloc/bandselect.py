"""Closed-loop frequency-band selection.

The sensing loop pre-samples a wide band, ranks every monitored frequency by
how much shuffling its feature column degrades test RMSE (permutation
importance), then reconfigures the sensor to the few highest-impact
frequencies. Shuffling is model-agnostic and exactly reproducible, which is
why it is used here as the ranking step. Only the columns a model reads
(Model.used_features) are shuffled; a tree over a wide band reads a fraction
of them, and every other column scores 0.0 without a predict. One cycle is normally enough while
the ambient transmitters stay put; callers can run further cycles on the
reduced band if the environment changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, SensorConfig, _check_count, _child_rng, _child_seed, train_test_split
from .evaluate import EvalReport, evaluate_model, rmse


@dataclass(frozen=True)
class ImportanceReport:
    """Per-frequency importance scores (mean RMSE increase, meters)."""

    frequencies_mhz: tuple[float, ...]
    scores_m: tuple[float, ...]
    n_repeats: int
    seed: int
    baseline_rmse_m: float

    def __post_init__(self):
        object.__setattr__(self, "frequencies_mhz", tuple(float(f) for f in self.frequencies_mhz))
        object.__setattr__(self, "scores_m", tuple(float(s) for s in self.scores_m))
        if len(self.frequencies_mhz) != len(self.scores_m):
            raise ValueError(
                f"{len(self.frequencies_mhz)} frequencies vs {len(self.scores_m)} scores"
            )
        _check_count("n_repeats", self.n_repeats, 1)


def permutation_importance(model, test: Dataset, n_repeats: int = 5, seed: int = 0) -> ImportanceReport:
    """Score each frequency by the mean RMSE increase over seeded shuffles.

    score_j = mean over repeats of (RMSE with column j permuted - baseline
    RMSE). Each (column, repeat) pair gets an independent derived shuffle, so
    scores are reproducible and independent of evaluation order. A model that
    ignores a column scores exactly 0 on it: only the columns in
    model.used_features() are shuffled and predicted, and every other column
    is written 0.0 without a predict. A model without used_features has every
    column shuffled. n_repeats must be an integer >= 1.
    """
    _check_count("n_repeats", n_repeats, 1)
    _check_count("seed", seed, 0)
    model_freqs = getattr(model, "frequencies_mhz", None)
    if model_freqs is not None and tuple(model_freqs) != tuple(test.frequencies_mhz):
        raise ValueError(
            f"model was fit on frequencies {tuple(model_freqs)} but the dataset "
            f"carries {tuple(test.frequencies_mhz)}"
        )

    X = np.asarray(test.features, dtype=np.float64)
    baseline = rmse(test.labels, model.predict(X))
    scores = np.zeros(test.m)
    used = getattr(model, "used_features", None)
    work = X.copy()
    for j in range(test.m) if used is None else used():
        increase = 0.0
        for r in range(n_repeats):
            work[:, j] = X[_child_rng(seed, j, r).permutation(test.n), j]
            increase += rmse(test.labels, model.predict(work)) - baseline
        work[:, j] = X[:, j]
        scores[j] = increase / n_repeats
    return ImportanceReport(
        frequencies_mhz=test.frequencies_mhz,
        scores_m=tuple(scores),
        n_repeats=n_repeats,
        seed=seed,
        baseline_rmse_m=baseline,
    )


def select_rated_band(
    report: ImportanceReport, top_k: int, base: SensorConfig | None = None
) -> SensorConfig:
    """Build the reconfigured SensorConfig from the top_k scoring frequencies.

    Ties are broken toward the lower frequency; the selected band is re-sorted
    ascending. Step, sample rate, and samples-per-position pass through from
    `base` (the band is the parameter being optimized); the reconfiguration
    counter is incremented.
    """
    m = len(report.frequencies_mhz)
    if not 1 <= top_k <= m:
        raise ValueError(f"top_k must be in [1, {m}], got {top_k}")
    order = sorted(range(m), key=lambda j: (-report.scores_m[j], report.frequencies_mhz[j]))
    chosen = tuple(sorted(report.frequencies_mhz[j] for j in order[:top_k]))
    if base is None:
        base = SensorConfig(band_mhz=chosen, step_mhz=2.4, sample_rate_hz=2.4e6, samples_per_position=100)
    return replace(base, band_mhz=chosen, reconfig_index=base.reconfig_index + 1)


def dddas_cycle(
    scenario,
    full_config: SensorConfig,
    positions,
    model_spec,
    top_k: int,
    seed: int = 0,
    n_repeats: int = 5,
    train_fraction: float = 0.7,
) -> tuple[SensorConfig, EvalReport, EvalReport]:
    """One sense-rank-reconfigure cycle.

    Generates the full-band dataset, fits model_spec, ranks frequencies by
    permutation importance on the test half, selects the rated band, then
    regenerates and re-evaluates on the reduced band alone. Returns the new
    SensorConfig and the before/after evaluation reports.
    """
    from .registry import canonical_id, fit_model
    from .simulate import generate_dataset

    _check_count("seed", seed, 0)
    if not top_k < full_config.n_frequencies:
        raise ValueError(
            f"top_k ({top_k}) must be smaller than the full band "
            f"({full_config.n_frequencies} frequencies)"
        )

    def run(config: SensorConfig) -> tuple[EvalReport, object, Dataset]:
        data = generate_dataset(scenario, config, positions)
        split = train_test_split(data, train_fraction, _child_seed(seed, 1))
        model = fit_model(model_spec, split.train, seed=_child_seed(seed, 2))
        return evaluate_model(model, canonical_id(model_spec), split.test), model, split.test

    before, model, test = run(full_config)
    report = permutation_importance(model, test, n_repeats=n_repeats, seed=_child_seed(seed, 3))
    rated = select_rated_band(report, top_k, base=full_config)
    after, _, _ = run(rated)
    return rated, before, after
