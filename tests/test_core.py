"""Sensor configuration, dataset container, grid layout, and splitting."""

import re

import numpy as np
import pytest

from rfloc import RandomForest
from rfloc.core import (
    Dataset,
    Position,
    SensorConfig,
    grid_positions,
    train_test_split,
    validate_dataset,
)


ROOM = (6.15, 4.30, 2.42)


class TestSensorConfig:
    def test_basic_fields(self):
        cfg = SensorConfig(
            band_mhz=(91.2, 93.6), step_mhz=2.4, sample_rate_hz=2.4e6, samples_per_position=10
        )
        assert cfg.n_frequencies == 2
        assert cfg.reconfig_index == 0

    def test_band_must_be_ascending(self):
        with pytest.raises(ValueError):
            SensorConfig(
                band_mhz=(93.6, 91.2), step_mhz=2.4, sample_rate_hz=2.4e6, samples_per_position=1
            )

    def test_positive_step_and_rate(self):
        with pytest.raises(ValueError):
            SensorConfig(band_mhz=(91.2,), step_mhz=0.0, sample_rate_hz=2.4e6, samples_per_position=1)
        with pytest.raises(ValueError):
            SensorConfig(band_mhz=(91.2,), step_mhz=2.4, sample_rate_hz=-1.0, samples_per_position=1)


class TestValidateDataset:
    def test_empty_dataset_is_valid(self):
        ds = validate_dataset(np.empty((0, 5)), np.empty((0, 3)), (1.0, 2.0, 3.0, 4.0, 5.0))
        assert ds.n == 0 and ds.m == 5

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            validate_dataset(np.zeros((10, 5)), np.zeros((9, 3)), (1.0, 2.0, 3.0, 4.0, 5.0))

    def test_labels_must_have_three_columns(self):
        with pytest.raises(ValueError):
            validate_dataset(np.zeros((4, 2)), np.zeros((4, 2)), (1.0, 2.0))

    def test_frequency_count_must_match_columns(self):
        with pytest.raises(ValueError):
            validate_dataset(np.zeros((4, 2)), np.zeros((4, 3)), (1.0, 2.0, 3.0))

    def test_non_finite_rejected(self):
        X = np.zeros((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValueError):
            validate_dataset(X, np.zeros((3, 3)), (1.0, 2.0))

    def test_leaves_the_callers_arrays_as_they_are(self):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(30, 2)), rng.normal(size=(30, 3))
        ds = validate_dataset(X, Y, (1.0, 2.0))
        forest = RandomForest(n_estimators=2, seed=0).fit(X, Y)
        assert X.flags.writeable and Y.flags.writeable
        kept = ds.features.copy()
        before = forest.predict(kept)
        X[:] = 0.0
        Y[:] = 0.0
        assert np.array_equal(ds.features, kept)
        assert np.array_equal(forest.predict(kept), before)

    def test_frequencies_are_checked_like_a_sensor_band(self):
        cases = [
            ((float("nan"), 2.0), "frequencies_mhz[0] must be > 0, got nan"),
            ((1.0, -5.0), "frequencies_mhz[1] must be > 0, got -5.0"),
            ((2.0, 2.0), "frequencies_mhz must be strictly increasing; violation at index 1"),
        ]
        for freqs, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                validate_dataset(np.zeros((2, 2)), np.zeros((2, 3)), freqs)
            with pytest.raises(ValueError, match=re.escape(message.replace("frequencies", "band"))):
                SensorConfig(band_mhz=freqs, step_mhz=2.4, sample_rate_hz=2.4e6, samples_per_position=1)

    def test_subset_selects_rows(self):
        ds = validate_dataset(np.arange(12.0).reshape(6, 2), np.zeros((6, 3)), (1.0, 2.0))
        sub = ds.subset([4, 0])
        assert sub.n == 2
        assert np.array_equal(sub.features, ds.features[[4, 0]])
        assert sub.frequencies_mhz == ds.frequencies_mhz


class TestGridPositions:
    def test_reference_room_layout(self):
        pos = grid_positions(ROOM, (6, 5), 1.0, heights=(0.0, 1.0))
        assert len(pos) == 60
        xs = sorted({p.x for p in pos})
        ys = sorted({p.y for p in pos})
        zs = sorted({p.z for p in pos})
        assert xs[0] == pytest.approx(0.575)
        assert xs[-1] == pytest.approx(5.575)
        assert ys[0] == pytest.approx(0.15)
        assert ys[-1] == pytest.approx(4.15)
        assert zs == [0.0, 1.0]

    def test_x_varies_fastest(self):
        pos = grid_positions(ROOM, (6, 5), 1.0, heights=(0.0, 1.0))
        assert pos[1].x - pos[0].x == pytest.approx(1.0)
        assert pos[1].y == pos[0].y and pos[1].z == pos[0].z
        assert pos[6].y - pos[0].y == pytest.approx(1.0)
        assert pos[30].z - pos[0].z == pytest.approx(1.0)

    def test_single_point_grid_sits_at_center(self):
        pos = grid_positions((4.0, 2.0, 3.0), (1, 1), 1.0, heights=(0.0,))
        assert len(pos) == 1
        assert pos[0].x == pytest.approx(2.0)
        assert pos[0].y == pytest.approx(1.0)
        assert pos[0].z == 0.0

    def test_grid_wider_than_room_rejected(self):
        with pytest.raises(ValueError):
            grid_positions((2.0, 2.0, 2.0), (4, 2), 1.0, heights=(0.0,))


class TestTrainTestSplit:
    def _dataset(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return validate_dataset(rng.normal(size=(n, 2)), rng.normal(size=(n, 3)), (1.0, 2.0))

    def test_reference_split_counts(self):
        ds = self._dataset(6000)
        split = train_test_split(ds, 0.7, seed=0)
        assert split.train.n == 4200
        assert split.test.n == 1800

    def test_same_seed_same_partition(self):
        ds = self._dataset(10)
        a = train_test_split(ds, 0.5, seed=3)
        b = train_test_split(ds, 0.5, seed=3)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)

    def test_three_rows(self):
        ds = self._dataset(3)
        split = train_test_split(ds, 0.7, seed=1)
        assert split.train.n == 2 and split.test.n == 1
        rows = np.vstack([split.train.features, split.test.features])
        assert {tuple(r) for r in rows} == {tuple(r) for r in ds.features}

    def test_partition_property(self):
        # every row lands in exactly one half, across sizes and seeds
        for seed in range(10):
            n = 5 + seed * 7
            ds = self._dataset(n, seed=seed)
            split = train_test_split(ds, 0.6, seed=seed)
            assert split.train.n == int(round(n * 0.6))
            assert split.train.n + split.test.n == n
            rows = np.vstack([split.train.features, split.test.features])
            assert {tuple(r) for r in rows} == {tuple(r) for r in ds.features}

    def test_fraction_bounds(self):
        ds = self._dataset(10)
        with pytest.raises(ValueError):
            train_test_split(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            train_test_split(ds, 1.0, seed=0)


class TestPosition:
    def test_as_array(self):
        p = Position(1.0, 2.0, 3.0)
        assert np.array_equal(p.as_array(), [1.0, 2.0, 3.0])
