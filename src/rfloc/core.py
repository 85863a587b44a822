"""Core domain types: sensor configuration, positions, datasets, splits.

Everything here is immutable after construction and safe to share across
threads. Feature matrices hold average received power in dB, label matrices
hold coordinates in meters with the origin at one floor corner of the room.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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


def _readonly(a: np.ndarray) -> np.ndarray:
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
        band = tuple(float(f) for f in self.band_mhz)
        object.__setattr__(self, "band_mhz", band)
        if len(band) == 0:
            raise ValueError("band must be non-empty")
        for i, f in enumerate(band):
            if not np.isfinite(f) or f <= 0:
                raise ValueError(f"band frequency at index {i} must be finite and > 0, got {f}")
        for i in range(1, len(band)):
            if band[i] <= band[i - 1]:
                raise ValueError(
                    f"band must be strictly increasing; violation at index {i} "
                    f"({band[i]} <= {band[i - 1]})"
                )
        if self.step_mhz <= 0:
            raise ValueError(f"step_mhz must be > 0, got {self.step_mhz}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        if self.samples_per_position < 0:
            raise ValueError(f"samples_per_position must be >= 0, got {self.samples_per_position}")

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
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {v}")
            object.__setattr__(self, name, v)

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
    """Check feature/label/frequency consistency and build a Dataset.

    Raises ValueError naming the offending dimension, index, or entry.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    freqs = tuple(float(f) for f in frequencies_mhz)

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
    for i in range(1, len(freqs)):
        if freqs[i] <= freqs[i - 1]:
            raise ValueError(
                f"frequencies must be strictly increasing; violation at index {i} "
                f"({freqs[i]} <= {freqs[i - 1]})"
            )
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
    nx, ny = (int(c) for c in counts)
    spacing = float(spacing)
    heights = [float(h) for h in heights]
    if nx < 1 or ny < 1:
        raise ValueError(f"grid counts must be >= 1, got ({nx}, {ny})")
    if spacing <= 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if not heights:
        raise ValueError("heights must be non-empty")

    span_x = (nx - 1) * spacing
    span_y = (ny - 1) * spacing
    if span_x > length:
        raise ValueError(f"grid span {span_x} m along x exceeds room length {length} m")
    if span_y > width:
        raise ValueError(f"grid span {span_y} m along y exceeds room width {width} m")
    for h in heights:
        if h < 0 or h > height:
            raise ValueError(f"height {h} m outside room [0, {height}]")

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

    Train size is round(n * train_fraction). The same seed always yields the
    identical index partition.
    """
    if dataset.n == 0:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_train = int(round(dataset.n * train_fraction))
    return SplitDataset(
        train=dataset.subset(perm[:n_train]),
        test=dataset.subset(perm[n_train:]),
    )
