"""Synthetic spectrum generator: rooms, ambient transmitters, obstructions.

The propagation model is deliberately minimal: log-distance path loss with a
reference distance of 1 m, a fixed per-object attenuation for every
obstruction box the source-to-receiver segment crosses, and a logarithmic
out-of-band rolloff. Powers from multiple transmitters add in the linear
(mW) domain; measurement noise is i.i.d. Gaussian in dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Position, SensorConfig, grid_positions, validate_dataset

D0_M = 1.0  # reference distance for the path-loss law

REFERENCE_ROOM_DIMS = (6.15, 4.30, 2.42)
REFERENCE_BAND_MHZ = (91.2, 93.6, 96.0, 98.4, 100.8)
FULLBAND_LOW_MHZ = 88.0
FULLBAND_HIGH_MHZ = 1000.0


@dataclass(frozen=True)
class SoopSource:
    """An ambient transmitter (broadcast, Wi-Fi, ...) exploited for positioning."""

    position: Position
    center_frequency_mhz: float
    bandwidth_mhz: float
    tx_power_dbm: float  # received power at d0 on the center frequency, free path
    path_loss_exponent: float

    def __post_init__(self):
        if self.bandwidth_mhz <= 0:
            raise ValueError(f"bandwidth_mhz must be > 0, got {self.bandwidth_mhz}")
        if not 1.5 <= self.path_loss_exponent <= 6.0:
            raise ValueError(
                f"path_loss_exponent must be in [1.5, 6], got {self.path_loss_exponent}"
            )


@dataclass(frozen=True)
class SignatureObject:
    """Axis-aligned attenuating box (furniture, appliance, wall segment)."""

    corner_min: Position
    corner_max: Position
    attenuation_db: float

    def __post_init__(self):
        lo = self.corner_min.as_array()
        hi = self.corner_max.as_array()
        if not np.all(hi > lo):
            raise ValueError("box must have positive volume (corner_max > corner_min per axis)")
        if self.attenuation_db < 0:
            raise ValueError(f"attenuation_db must be >= 0, got {self.attenuation_db}")


@dataclass(frozen=True)
class Scenario:
    """A room with transmitters, obstructions, and a noise model.

    noise_floor_dbm, when set, is a position-independent power added (in the
    linear domain) to every frequency bin; bins no transmitter reaches then
    carry only that floor plus noise. Each sample's noise row is scaled by
    noise_burst_factor with probability noise_burst_prob, modelling short
    impulsive-interference bursts on top of the thermal background. With
    probability label_error_prob a sample is logged against the wrong grid
    position (surveyor slip), a standard artefact of manual fingerprint
    collection.
    """

    room_dims: tuple[float, float, float]
    sources: tuple[SoopSource, ...]
    objects: tuple[SignatureObject, ...]
    noise_sigma_db: float
    rng_seed: int
    noise_floor_dbm: float | None = None
    noise_burst_prob: float = 0.0
    noise_burst_factor: float = 3.0
    label_error_prob: float = 0.0

    def __post_init__(self):
        dims = tuple(float(v) for v in self.room_dims)
        object.__setattr__(self, "room_dims", dims)
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "objects", tuple(self.objects))
        if len(dims) != 3 or any(v <= 0 for v in dims):
            raise ValueError(f"room_dims must be three positive lengths, got {dims}")
        if self.noise_sigma_db < 0:
            raise ValueError(f"noise_sigma_db must be >= 0, got {self.noise_sigma_db}")
        if not 0.0 <= self.noise_burst_prob <= 1.0:
            raise ValueError(
                f"noise_burst_prob must be in [0, 1], got {self.noise_burst_prob}"
            )
        if self.noise_burst_factor < 1.0:
            raise ValueError(
                f"noise_burst_factor must be >= 1, got {self.noise_burst_factor}"
            )
        if not 0.0 <= self.label_error_prob <= 1.0:
            raise ValueError(
                f"label_error_prob must be in [0, 1], got {self.label_error_prob}"
            )
        for i, src in enumerate(self.sources):
            if not self.contains(src.position):
                raise ValueError(f"sources[{i}] position outside room bounds")
        for i, obj in enumerate(self.objects):
            if not (self.contains(obj.corner_min) and self.contains(obj.corner_max)):
                raise ValueError(f"objects[{i}] extends outside room bounds")

    def contains(self, p: Position) -> bool:
        length, width, height = self.room_dims
        return 0 <= p.x <= length and 0 <= p.y <= width and 0 <= p.z <= height


def segment_crosses_box(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Slab test for segment a->b against box [lo, hi]; touching a face counts."""
    d = b - a
    tmin, tmax = 0.0, 1.0
    for k in range(3):
        if d[k] == 0.0:
            if a[k] < lo[k] or a[k] > hi[k]:
                return False
        else:
            t1 = (lo[k] - a[k]) / d[k]
            t2 = (hi[k] - a[k]) / d[k]
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return False
    return True


def spectral_rolloff_db(source: SoopSource, frequency_mhz) -> np.ndarray:
    """Attenuation of a source's power seen at an offset frequency.

    Zero inside the occupied band, 20*log10(1 + |df| / bandwidth) outside.
    """
    df = np.abs(np.asarray(frequency_mhz, dtype=np.float64) - source.center_frequency_mhz)
    out = 20.0 * np.log10(1.0 + df / source.bandwidth_mhz)
    return np.where(df <= source.bandwidth_mhz / 2.0, 0.0, out)


def _object_attenuation_db(scenario: Scenario, source: SoopSource, position: Position) -> float:
    a = source.position.as_array()
    b = position.as_array()
    total = 0.0
    for obj in scenario.objects:
        if segment_crosses_box(a, b, obj.corner_min.as_array(), obj.corner_max.as_array()):
            total += obj.attenuation_db
    return total


def received_power(
    scenario: Scenario, source: SoopSource, position: Position, frequency_mhz: float
) -> float:
    """Noise-free power (dB) one source delivers at one position and frequency."""
    if not scenario.contains(position):
        raise ValueError(f"position {position} outside room bounds {scenario.room_dims}")
    return float(_source_power_db(scenario, source, [position], [frequency_mhz])[0, 0])


def _source_power_db(scenario: Scenario, source: SoopSource, positions, freqs) -> np.ndarray:
    """Noise-free power (dB) of one source, one row per position, one column
    per frequency: path loss, obstruction attenuation and spectral rolloff."""
    pos_xyz = np.array([p.as_array() for p in positions])  # (P, 3)
    d = np.linalg.norm(pos_xyz - source.position.as_array(), axis=1)
    path_loss = 10.0 * source.path_loss_exponent * np.log10(np.maximum(d, D0_M) / D0_M)
    atten = np.array([_object_attenuation_db(scenario, source, p) for p in positions])
    rolloff = spectral_rolloff_db(source, freqs)  # (F,)
    return (source.tx_power_dbm - path_loss - atten)[:, None] - rolloff[None, :]


def _mean_power_matrix(scenario: Scenario, band_mhz, positions) -> np.ndarray:
    """Noise-free feature matrix, one row per position (linear-domain sum)."""
    freqs = np.asarray(band_mhz, dtype=np.float64)
    linear_sum = np.zeros((len(positions), len(freqs)))
    for src in scenario.sources:
        linear_sum += 10.0 ** (_source_power_db(scenario, src, positions, freqs) / 10.0)
    if scenario.noise_floor_dbm is not None:
        linear_sum += 10.0 ** (scenario.noise_floor_dbm / 10.0)
    return 10.0 * np.log10(linear_sum)


def generate_dataset(scenario: Scenario, config: SensorConfig, positions) -> Dataset:
    """Simulate spectrum sampling: rows of average power plus dB-domain noise.

    Emits config.samples_per_position rows per position, position-major.
    Noise for each position comes from an independent stream derived from
    (scenario.rng_seed, position index), so the output is deterministic and
    per-position generation could run in parallel.
    """
    positions = list(positions)
    if not positions:
        raise ValueError("positions must be non-empty")
    if config.samples_per_position < 1:
        raise ValueError("samples_per_position must be >= 1 to generate a dataset")
    for p in positions:
        if not scenario.contains(p):
            raise ValueError(f"position {p} outside room bounds {scenario.room_dims}")

    s = config.samples_per_position
    m = config.n_frequencies
    mean_rows = _mean_power_matrix(scenario, config.band_mhz, positions)

    features = np.empty((len(positions) * s, m))
    labels = np.empty((len(positions) * s, 3))
    for i, p in enumerate(positions):
        rng = np.random.default_rng(np.random.SeedSequence([scenario.rng_seed, i]))
        noise = rng.normal(0.0, scenario.noise_sigma_db, size=(s, m))
        if scenario.noise_burst_prob > 0.0:
            burst = rng.random(s) < scenario.noise_burst_prob
            noise[burst] *= scenario.noise_burst_factor
        features[i * s : (i + 1) * s] = mean_rows[i] + noise
        labels[i * s : (i + 1) * s] = p.as_array()
        if scenario.label_error_prob > 0.0 and len(positions) > 1:
            slips = np.flatnonzero(rng.random(s) < scenario.label_error_prob)
            for r in slips:
                j = int(rng.integers(0, len(positions) - 1))
                if j >= i:
                    j += 1
                labels[i * s + r] = positions[j].as_array()
    return validate_dataset(features, labels, config.band_mhz)


def reference_grid_positions() -> list[Position]:
    """The 6 x 5 x 2 sampling grid used by the built-in room scenarios."""
    return grid_positions(REFERENCE_ROOM_DIMS, (6, 5), 1.0, heights=(0.0, 1.0))


def _draw_reference_layout(rng) -> tuple[tuple[SoopSource, ...], tuple[SignatureObject, ...]]:
    length, width, height = REFERENCE_ROOM_DIMS
    # Two co-channel transmitters per monitored frequency (direct signal plus
    # a strong reflection proxy), one low and one high, scattered near
    # different walls. The summed field then has steep gradients in x, y, and
    # z everywhere in the room, which keeps grid fingerprints separated by
    # several dB - the regime where fingerprinting actually works.
    wall_anchors = [
        (0.3, 0.3),
        (length - 0.3, 0.4),
        (0.4, width - 0.3),
        (length - 0.4, width - 0.4),
        (length / 2, 0.3),
        (length / 2, width - 0.3),
        (0.3, width / 2),
        (length - 0.3, width / 2),
    ]
    sources = []
    for i, (ax, ay) in enumerate(wall_anchors):
        z_lo, z_hi = (0.2, 0.7) if i % 2 == 0 else (height - 0.7, height - 0.2)
        pos = Position(
            min(max(ax + rng.uniform(-0.2, 0.2), 0.1), length - 0.1),
            min(max(ay + rng.uniform(-0.2, 0.2), 0.1), width - 0.1),
            rng.uniform(z_lo, z_hi),
        )
        sources.append(
            SoopSource(
                position=pos,
                center_frequency_mhz=REFERENCE_BAND_MHZ[i % 3],
                bandwidth_mhz=0.2,
                tx_power_dbm=rng.uniform(-32.0, -24.0),
                path_loss_exponent=rng.uniform(2.5, 4.0),
            )
        )
    # Floor- and ceiling-mounted units near the room centre, each alone on
    # its frequency. Their steep near-field distance gradients separate the
    # two measurement heights; wall units alone leave the z "twins" nearly
    # co-fingerprinted far from every wall, and sharing a channel with a
    # stronger wall unit would wash the height gradient back out.
    for i, z in enumerate((rng.uniform(0.1, 0.2), height - rng.uniform(0.1, 0.2))):
        pos = Position(
            length / 2 + rng.uniform(-0.5, 0.5),
            width / 2 + rng.uniform(-0.5, 0.5),
            z,
        )
        sources.append(
            SoopSource(
                position=pos,
                center_frequency_mhz=REFERENCE_BAND_MHZ[3 + i],
                bandwidth_mhz=0.2,
                tx_power_dbm=rng.uniform(-20.0, -16.0),
                path_loss_exponent=rng.uniform(3.4, 4.0),
            )
        )

    objects = []
    for _ in range(6):
        cx = rng.uniform(0.5, length - 0.5)
        cy = rng.uniform(0.5, width - 0.5)
        sx = rng.uniform(0.3, 0.9)
        sy = rng.uniform(0.3, 0.9)
        top = rng.uniform(0.6, 2.0)
        lo = Position(max(cx - sx, 0.0), max(cy - sy, 0.0), 0.0)
        hi = Position(min(cx + sx, length), min(cy + sy, width), top)
        objects.append(SignatureObject(lo, hi, attenuation_db=rng.uniform(5.0, 12.0)))
    return tuple(sources), tuple(objects)


def _min_pair_gap_db(sources, objects, positions) -> float:
    probe = Scenario(
        room_dims=REFERENCE_ROOM_DIMS,
        sources=sources,
        objects=objects,
        noise_sigma_db=0.0,
        rng_seed=0,
    )
    M = _mean_power_matrix(probe, REFERENCE_BAND_MHZ, positions)
    diff = M[:, None, :] - M[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def make_reference_scenario(seed: int) -> tuple[Scenario, SensorConfig, list[Position]]:
    """Built-in living-room scenario on the five-frequency rated band.

    Ten FM-band transmitters (two per rated frequency) and six attenuating
    obstructions are placed deterministically from the seed; candidate
    layouts are redrawn until every pair of grid positions is at least
    ~1 dB apart in noise-free fingerprint space, so positions are actually
    distinguishable at the configured noise level. With 100 samples at each
    of the 60 grid positions this yields a 6000 x 5 dataset.
    """
    rng = np.random.default_rng(np.random.SeedSequence([721, seed]))
    positions = reference_grid_positions()
    best = None
    best_gap = -1.0
    for _ in range(150):
        sources, objects = _draw_reference_layout(rng)
        gap = _min_pair_gap_db(sources, objects, positions)
        if gap > best_gap:
            best, best_gap = (sources, objects), gap
        if gap >= 1.5:
            break
    sources, objects = best

    scenario = Scenario(
        room_dims=REFERENCE_ROOM_DIMS,
        sources=sources,
        objects=objects,
        noise_sigma_db=0.35,
        rng_seed=seed,
        label_error_prob=0.004,
    )
    config = SensorConfig(
        band_mhz=REFERENCE_BAND_MHZ,
        step_mhz=2.4,
        sample_rate_hz=2.4e6,
        samples_per_position=100,
    )
    return scenario, config, reference_grid_positions()


def make_fullband_scenario(
    seed: int, n_frequencies: int = 400
) -> tuple[Scenario, SensorConfig, list[Position]]:
    """Wide-scan scenario: few informative bins buried in a flat noise floor.

    The band covers 88-1000 MHz with n_frequencies equally spaced bins.
    Exactly five seeded bins coincide with the center frequencies of five
    narrowband transmitters and therefore carry position-dependent power;
    every other bin sees only the noise floor plus measurement noise. The
    informative set is recoverable as the sources' center frequencies.
    """
    if n_frequencies < 10:
        raise ValueError(f"n_frequencies must be >= 10, got {n_frequencies}")
    rng = np.random.default_rng(np.random.SeedSequence([904, seed]))
    length, width, height = REFERENCE_ROOM_DIMS

    band = np.linspace(FULLBAND_LOW_MHZ, FULLBAND_HIGH_MHZ, n_frequencies)
    informative = np.sort(rng.choice(n_frequencies, size=5, replace=False))

    # Bandwidth narrow enough that one bin of rolloff drops a source far
    # below the floor: its leakage into neighboring bins is then negligible.
    sources = []
    for idx in informative:
        pos = Position(
            rng.uniform(0.2, length - 0.2),
            rng.uniform(0.2, width - 0.2),
            rng.uniform(0.3, height - 0.3),
        )
        sources.append(
            SoopSource(
                position=pos,
                center_frequency_mhz=float(band[idx]),
                bandwidth_mhz=1e-4,
                tx_power_dbm=rng.uniform(-25.0, -15.0),
                path_loss_exponent=rng.uniform(2.0, 3.5),
            )
        )

    objects = []
    for _ in range(2):
        cx = rng.uniform(0.5, length - 0.5)
        cy = rng.uniform(0.5, width - 0.5)
        lo = Position(max(cx - 0.6, 0.0), max(cy - 0.6, 0.0), 0.0)
        hi = Position(min(cx + 0.6, length), min(cy + 0.6, width), 1.2)
        objects.append(SignatureObject(lo, hi, attenuation_db=rng.uniform(4.0, 8.0)))

    scenario = Scenario(
        room_dims=REFERENCE_ROOM_DIMS,
        sources=tuple(sources),
        objects=tuple(objects),
        noise_sigma_db=1.0,
        rng_seed=seed,
        noise_floor_dbm=-60.0,
    )
    config = SensorConfig(
        band_mhz=tuple(float(f) for f in band),
        step_mhz=float(band[1] - band[0]),
        sample_rate_hz=2.4e6,
        samples_per_position=100,
    )
    return scenario, config, reference_grid_positions()
