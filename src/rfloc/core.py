"""Core domain types: sensor configuration, positions, datasets, splits.

Everything here is immutable after construction and safe to share across
threads. Feature matrices hold average received power in dB, label matrices
hold coordinates in meters with the origin at one floor corner of the room.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _child_seed(*keys) -> int:
    """One 32-bit seed derived from integer keys; equal keys, equal seed."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _child_rng(*keys) -> np.random.Generator:
    """A generator seeded from integer keys, independent of any other keys."""
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _check_count(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise ValueError naming value unless it is an int (not a bool) >= minimum
    and, when maximum is given, <= maximum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_real(name: str, value, ok=lambda v: True, expected: str = "a finite number") -> None:
    """Raise ValueError "{name} must be {expected}, got {value!r}" unless value
    is a finite real number (not a bool) for which ok(value) holds."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not ok(value)):
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def _check_band(name: str, band) -> tuple[float, ...]:
    """band as a tuple of floats; raises ValueError naming the index and the
    value unless every frequency is finite, > 0 and above the one before it."""
    band = tuple(band)
    for i, f in enumerate(band):
        _check_real(f"{name}[{i}]", f, lambda v: v > 0, "> 0")
        if i and f <= band[i - 1]:
            raise ValueError(
                f"{name} must be strictly increasing; violation at index {i} "
                f"({f} <= {band[i - 1]})"
            )
    return tuple(float(f) for f in band)


def _readonly(a: np.ndarray) -> np.ndarray:
    """a made read-only in place (copied first only if it is not a C-ordered
    float64 array): only for arrays that no caller holds."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SensorConfig:
    """Tunable receiver parameters: the object the selection loop reconfigures.

    band_mhz is the ordered list of center frequencies monitored, step_mhz the
    tuning step, sample_rate_hz the ADC rate. reconfig_index counts how many
    reconfiguration cycles produced this config (0 = initial full band).
    """

    band_mhz: tuple[float, ...]
    step_mhz: float
    sample_rate_hz: float
    samples_per_position: int
    reconfig_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "band_mhz", _check_band("band_mhz", self.band_mhz))
        if not self.band_mhz:
            raise ValueError("band must be non-empty")
        _check_real("step_mhz", self.step_mhz, lambda v: v > 0, "> 0")
        _check_real("sample_rate_hz", self.sample_rate_hz, lambda v: v > 0, "> 0")
        _check_count("samples_per_position", self.samples_per_position, 0)
        _check_count("reconfig_index", self.reconfig_index, 0)

    @property
    def n_frequencies(self) -> int:
        return len(self.band_mhz)


@dataclass(frozen=True)
class Position:
    """A point in room coordinates (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            _check_real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True)
class Dataset:
    """Paired spectrum features (n x m, dB) and coordinate labels (n x 3, m).

    Column j of `features` is the average power at `frequencies_mhz[j]`.
    Use validate_dataset() to construct from raw arrays.
    """

    features: np.ndarray
    labels: np.ndarray
    frequencies_mhz: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset (no revalidation; rows of a valid dataset stay valid)."""
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(
            features=_readonly(self.features[indices]),
            labels=_readonly(self.labels[indices]),
            frequencies_mhz=self.frequencies_mhz,
        )


@dataclass(frozen=True)
class SplitDataset:
    """Train/test halves of one dataset, sharing the frequency axis."""

    train: Dataset
    test: Dataset

    def __post_init__(self):
        if self.train.frequencies_mhz != self.test.frequencies_mhz:
            raise ValueError("train and test halves must share the same frequencies")


def validate_dataset(features, labels, frequencies_mhz) -> Dataset:
    """Check feature/label/frequency consistency and build a Dataset of
    read-only copies; the arrays given are left as they are.

    Raises ValueError naming the offending dimension, index, or entry.
    """
    return _owned_dataset(
        np.array(features, dtype=np.float64, order="C"),
        np.array(labels, dtype=np.float64, order="C"),
        frequencies_mhz,
    )


def _owned_dataset(features: np.ndarray, labels: np.ndarray, frequencies_mhz) -> Dataset:
    """validate_dataset for float64 arrays that no caller holds: the Dataset
    takes them over, made read-only in place rather than copied."""
    freqs = tuple(frequencies_mhz)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got ndim={features.ndim}")
    if labels.ndim != 2 or labels.shape[1] != 3:
        raise ValueError(f"labels must be n x 3, got shape {labels.shape}")
    if features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"row count mismatch: {features.shape[0]} feature rows vs "
            f"{labels.shape[0]} label rows"
        )
    if features.shape[1] != len(freqs):
        raise ValueError(
            f"feature width {features.shape[1]} does not match "
            f"{len(freqs)} frequencies"
        )
    freqs = _check_band("frequencies_mhz", freqs)
    for name, arr in (("features", features), ("labels", labels)):
        bad = ~np.isfinite(arr)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(f"non-finite entry in {name} at row {r}, column {c}")

    return Dataset(
        features=_readonly(features),
        labels=_readonly(labels),
        frequencies_mhz=freqs,
    )


def grid_positions(room_dims, counts, spacing, heights) -> list[Position]:
    """Centered rectangular sampling grid inside a room.

    `counts` is (nx, ny); the grid is centered so the margin along an axis is
    (dim - (count - 1) * spacing) / 2. One layer per entry of `heights`.
    Row-major order: x varies fastest, then y, then height.
    """
    length, width, height = (float(v) for v in room_dims)
    nx, ny = counts
    _check_count("counts[0]", nx, 1)
    _check_count("counts[1]", ny, 1)
    _check_real("spacing", spacing, lambda v: v > 0, "> 0")
    heights = tuple(heights)
    if not heights:
        raise ValueError("heights must be non-empty")
    for k, h in enumerate(heights):
        _check_real(f"heights[{k}]", h, lambda v: 0 <= v <= height, f"in [0, {height}] (the room height)")

    span_x = (nx - 1) * spacing
    span_y = (ny - 1) * spacing
    if span_x > length:
        raise ValueError(f"grid span {span_x} m along x exceeds room length {length} m")
    if span_y > width:
        raise ValueError(f"grid span {span_y} m along y exceeds room width {width} m")

    margin_x = (length - span_x) / 2.0
    margin_y = (width - span_y) / 2.0
    positions = []
    for z in heights:
        for j in range(ny):
            for i in range(nx):
                positions.append(Position(margin_x + i * spacing, margin_y + j * spacing, z))
    return positions


def train_test_split(dataset: Dataset, train_fraction: float, seed: int) -> SplitDataset:
    """Seeded uniform row shuffle into train/test halves.

    Train size is round(n * train_fraction), and neither half may be empty.
    The same seed always yields the identical index partition.
    """
    if dataset.n == 0:
        raise ValueError("cannot split an empty dataset")
    _check_real("train_fraction", train_fraction, lambda v: 0 < v < 1, "in (0, 1)")
    _check_count("seed", seed, 0)
    n_train = int(round(dataset.n * train_fraction))
    if not 0 < n_train < dataset.n:
        raise ValueError(f"train_fraction {train_fraction} splits {dataset.n} rows into {n_train} "
                         f"train and {dataset.n - n_train} test rows; neither may be empty")

    perm = np.random.default_rng(seed).permutation(dataset.n)
    return SplitDataset(
        train=dataset.subset(perm[:n_train]),
        test=dataset.subset(perm[n_train:]),
    )
