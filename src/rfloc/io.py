"""File formats: dataset/report CSVs, scenario and sensor JSON, and
ingestion of rtl_power wide-scan output.

Dataset CSV layout: header `f_<MHz>,...,x,y,z` (the band is recoverable from
the header), one sample per row, UTF-8, \\n line endings. Floats are written
with repr(), the shortest representation that round-trips to the identical
double, so write -> read is bit-exact.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import Dataset, SensorConfig, Position, validate_dataset
from .simulate import Scenario, SignatureObject, SoopSource


def _fmt(v) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# dataset CSV


def dataset_header(frequencies_mhz) -> str:
    return ",".join([f"f_{_fmt(f)}" for f in frequencies_mhz] + ["x", "y", "z"])


def _dataset_lines(dataset: Dataset):
    """Every sample as one newline-terminated CSV line: features, then x,y,z."""
    for row in np.hstack([dataset.features, dataset.labels]):
        yield ",".join(map(repr, row.tolist())) + "\n"


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dataset_header(dataset.frequencies_mhz) + "\n")
        fh.writelines(_dataset_lines(dataset))


def _parse_dataset_header(header_line: str, path: str) -> tuple[float, ...]:
    tokens = header_line.rstrip("\n").split(",")
    if len(tokens) < 4 or tokens[-3:] != ["x", "y", "z"]:
        raise ValueError(f"{path}: header must end with x,y,z; got {header_line.strip()!r}")
    freqs = []
    for j, tok in enumerate(tokens[:-3]):
        if not tok.startswith("f_"):
            raise ValueError(f"{path}: header column {j} must look like f_<MHz>, got {tok!r}")
        try:
            freqs.append(float(tok[2:]))
        except ValueError:
            raise ValueError(f"{path}: header column {j} has a non-numeric frequency {tok!r}") from None
    return tuple(freqs)


def read_dataset_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    freqs = _parse_dataset_header(lines[0], path)
    m = len(freqs)
    features = np.empty((len(lines) - 1, m))
    labels = np.empty((len(lines) - 1, 3))
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != m + 3:
            raise ValueError(f"{path}: line {i} has {len(parts)} fields, expected {m + 3}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: line {i} contains a non-numeric field") from None
        features[i - 2] = values[:m]
        labels[i - 2] = values[m:]
    return validate_dataset(features, labels, freqs)


def append_dataset_csv(dataset: Dataset, path: str) -> None:
    """Append rows to an existing dataset CSV (headers must agree), or create it."""
    if not os.path.exists(path):
        write_dataset_csv(dataset, path)
        return
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
    existing = _parse_dataset_header(header, path)
    if existing != dataset.frequencies_mhz:
        raise ValueError(
            f"{path}: existing file carries frequencies {existing}, "
            f"cannot append rows with {dataset.frequencies_mhz}"
        )
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_dataset_lines(dataset))


# ---------------------------------------------------------------------------
# JSON configs


def read_json(path: str, from_payload):
    """Parse a JSON file and convert it with from_payload; every ValueError
    names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    try:
        return from_payload(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ValueError(f"missing key {where}.{key}")
    return d[key]


def _position_from(obj, where: str) -> Position:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ValueError(f"{where} must be a 3-element [x, y, z] list")
    try:
        return Position(*(float(v) for v in obj))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "room_dims": list(s.room_dims),
        "sources": [
            {
                "position": [src.position.x, src.position.y, src.position.z],
                "center_frequency_mhz": src.center_frequency_mhz,
                "bandwidth_mhz": src.bandwidth_mhz,
                "tx_power_dbm": src.tx_power_dbm,
                "path_loss_exponent": src.path_loss_exponent,
            }
            for src in s.sources
        ],
        "objects": [
            {
                "corner_min": [o.corner_min.x, o.corner_min.y, o.corner_min.z],
                "corner_max": [o.corner_max.x, o.corner_max.y, o.corner_max.z],
                "attenuation_db": o.attenuation_db,
            }
            for o in s.objects
        ],
        "noise_sigma_db": s.noise_sigma_db,
        "rng_seed": s.rng_seed,
        "noise_floor_dbm": s.noise_floor_dbm,
        "noise_burst_prob": s.noise_burst_prob,
        "noise_burst_factor": s.noise_burst_factor,
        "label_error_prob": s.label_error_prob,
    }


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict):
        raise ValueError("scenario: top level must be a JSON object")
    sources = []
    for i, sd in enumerate(_need(d, "sources", "scenario")):
        where = f"scenario.sources[{i}]"
        try:
            sources.append(
                SoopSource(
                    position=_position_from(_need(sd, "position", where), f"{where}.position"),
                    center_frequency_mhz=float(_need(sd, "center_frequency_mhz", where)),
                    bandwidth_mhz=float(_need(sd, "bandwidth_mhz", where)),
                    tx_power_dbm=float(_need(sd, "tx_power_dbm", where)),
                    path_loss_exponent=float(_need(sd, "path_loss_exponent", where)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    objects = []
    for i, od in enumerate(d.get("objects", [])):
        where = f"scenario.objects[{i}]"
        try:
            objects.append(
                SignatureObject(
                    corner_min=_position_from(_need(od, "corner_min", where), f"{where}.corner_min"),
                    corner_max=_position_from(_need(od, "corner_max", where), f"{where}.corner_max"),
                    attenuation_db=float(_need(od, "attenuation_db", where)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    dims = _need(d, "room_dims", "scenario")
    if not isinstance(dims, (list, tuple)) or len(dims) != 3:
        raise ValueError("scenario.room_dims must be a 3-element list")
    floor = d.get("noise_floor_dbm")
    try:
        return Scenario(
            room_dims=tuple(float(v) for v in dims),
            sources=tuple(sources),
            objects=tuple(objects),
            noise_sigma_db=float(_need(d, "noise_sigma_db", "scenario")),
            rng_seed=int(_need(d, "rng_seed", "scenario")),
            noise_floor_dbm=None if floor is None else float(floor),
            noise_burst_prob=float(d.get("noise_burst_prob", 0.0)),
            noise_burst_factor=float(d.get("noise_burst_factor", 3.0)),
            label_error_prob=float(d.get("label_error_prob", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scenario: {exc}") from None


def read_scenario_json(path: str) -> Scenario:
    return read_json(path, scenario_from_dict)


def write_scenario_json(scenario: Scenario, path: str) -> None:
    _write_json(scenario_to_dict(scenario), path)


def sensor_config_to_dict(c: SensorConfig) -> dict:
    return {
        "band_mhz": list(c.band_mhz),
        "step_mhz": c.step_mhz,
        "sample_rate_hz": c.sample_rate_hz,
        "samples_per_position": c.samples_per_position,
        "reconfig_index": c.reconfig_index,
    }


def sensor_config_from_dict(d: dict) -> SensorConfig:
    if not isinstance(d, dict):
        raise ValueError("sensor-config: top level must be a JSON object")
    try:
        return SensorConfig(
            band_mhz=tuple(float(f) for f in _need(d, "band_mhz", "sensor-config")),
            step_mhz=float(_need(d, "step_mhz", "sensor-config")),
            sample_rate_hz=float(_need(d, "sample_rate_hz", "sensor-config")),
            samples_per_position=int(_need(d, "samples_per_position", "sensor-config")),
            reconfig_index=int(d.get("reconfig_index", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sensor-config: {exc}") from None


def read_sensor_config_json(path: str) -> SensorConfig:
    return read_json(path, sensor_config_from_dict)


def write_sensor_config_json(config: SensorConfig, path: str) -> None:
    _write_json(sensor_config_to_dict(config), path)


# ---------------------------------------------------------------------------
# report CSVs


def _write_csv(path: str, header: str, rows) -> None:
    """The header and each row as one newline-terminated line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def write_benchmark_csv(reports, path: str) -> None:
    _write_csv(
        path,
        "model,rmse_m,r2,ce95_m,fit_time_s",
        (",".join([r.model_id, *map(_fmt, (r.rmse_m, r.r2, r.ce95_m, r.fit_time_s))]) for r in reports),
    )


def write_importance_csv(report, path: str) -> None:
    _write_csv(
        path,
        "frequency_mhz,score_m",
        (f"{_fmt(f)},{_fmt(s)}" for f, s in zip(report.frequencies_mhz, report.scores_m)),
    )


def write_pca_csv(scores: np.ndarray, labels: np.ndarray, path: str) -> None:
    header = ",".join([f"pc{j + 1}" for j in range(scores.shape[1])] + ["x", "y", "z"])
    rows = np.hstack([scores, labels])
    _write_csv(path, header, (",".join(map(repr, row.tolist())) for row in rows))


# ---------------------------------------------------------------------------
# rtl_power scan ingestion


def read_rtlpower_scan(path: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parse an rtl_power CSV into (frequencies_mhz, powers_db) per scan row.

    Row layout: date, time, hz_low, hz_high, hz_step, n_samples, db, db, ...
    with the i-th reading at hz_low + i * hz_step. Malformed rows are rejected
    with their line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 7:
            raise ValueError(
                f"{path}: line {lineno} has {len(parts)} fields; "
                "expected date, time, hz_low, hz_high, hz_step, n_samples, db..."
            )
        try:
            hz_low = float(parts[2])
            hz_step = float(parts[4])
            float(parts[3]), float(parts[5])
            dbs = np.array([float(p) for p in parts[6:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} contains a non-numeric field") from None
        if hz_step <= 0:
            raise ValueError(f"{path}: line {lineno} has non-positive hz_step {hz_step}")
        freqs_mhz = (hz_low + hz_step * np.arange(dbs.size)) / 1e6
        rows.append((freqs_mhz, dbs))
    if not rows:
        raise ValueError(f"{path}: no scan rows found")
    return rows


def rtlpower_rows_to_dataset(
    rows, band_mhz, step_mhz: float, position: Position
) -> Dataset:
    """Convert scan rows into dataset rows on a requested band.

    For each scan row and each band frequency, the nearest scanned frequency
    within step/2 supplies the power reading; a band frequency with no
    reading in range is an error. Every scan row becomes one sample labeled
    with `position`.
    """
    band = tuple(float(f) for f in band_mhz)
    if not band:
        raise ValueError("band must be non-empty")
    half = step_mhz / 2.0
    features = np.empty((len(rows), len(band)))
    for i, (freqs, dbs) in enumerate(rows):
        for j, f in enumerate(band):
            k = int(np.argmin(np.abs(freqs - f)))
            if abs(freqs[k] - f) > half:
                raise ValueError(
                    f"scan row {i + 1}: no frequency within {half} MHz of {f} MHz "
                    f"(nearest is {freqs[k]} MHz)"
                )
            features[i, j] = dbs[k]
    labels = np.tile(position.as_array(), (len(rows), 1))
    return validate_dataset(features, labels, band)
