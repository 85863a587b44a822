"""File formats: dataset/report CSVs, scenario and sensor JSON, and
ingestion of rtl_power wide-scan output.

Dataset CSV layout: header `f_<MHz>,...,x,y,z` (the band is recoverable from
the header), one sample per row, UTF-8, \\n line endings. Floats are written
with repr(), the shortest representation that round-trips to the identical
double, so write -> read is bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
import warnings

import numpy as np

from .core import Dataset, SensorConfig, Position, _check_band, _check_real, _owned_dataset
from .simulate import Scenario


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
    return _check_band(f"{path}: line 1: frequencies_mhz", freqs)


def read_dataset_csv(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    # numpy's parser reads \x1c-\x1f around a number as blanks; float() refuses them
    fast = not any(c in text for c in "\x1c\x1d\x1e\x1f")
    # Lines end at "\n" only, as the writer ends them: splitlines() also breaks
    # at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029, and float() reads
    # some of those as blanks inside a field.
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()  # the last line's end
    if not lines:
        raise ValueError(f"{path}: empty file")
    freqs = _parse_dataset_header(lines[0], path)
    m = len(freqs)
    table = None
    if fast and len(lines) > 1:
        # numpy's parser then gives float()'s bits and accepts no field that
        # float() refuses; it skips blank lines, so a short table means one
        # was there. Any rejection goes to the line parser, which names the
        # bad line; so does an all-blank body, without loadtxt's "no data"
        # warning.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if table is not None and table.shape == (len(lines) - 1, m + 3):
        features, labels = np.ascontiguousarray(table[:, :m]), np.ascontiguousarray(table[:, m:])
    else:
        features, labels = _parse_dataset_rows(lines, m, path)
    try:
        return _owned_dataset(features, labels, freqs)
    except ValueError as exc:
        # the header passed, so a cell is non-finite; features are checked first
        bad = [np.flatnonzero(~np.isfinite(a).all(axis=1)) for a in (features, labels)]
        line = next(rows[0] for rows in bad if rows.size) + 2
        raise ValueError(f"{path}: line {line}: {exc}") from None


def _parse_dataset_rows(lines, m: int, path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) of the sample lines lines[1:], parsed one line
    at a time with float(); raises ValueError naming the first bad line."""
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
    return features, labels


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
    with open(path, "ab+") as fh:
        fh.seek(-1, os.SEEK_END)  # a last line without its "\n" must not take the first row
        fh.write(b"" if fh.read(1) == b"\n" else b"\n")
        fh.writelines(line.encode("utf-8") for line in _dataset_lines(dataset))


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


def _to_json(value):
    """A config as JSON data: dataclass fields in declaration order, a
    Position as [x, y, z], tuples as lists."""
    if isinstance(value, Position):
        return [value.x, value.y, value.z]
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _from_json(cls, payload, where: str):
    """Build the dataclass cls from a JSON object keyed by its field names.

    Refuses a non-object, an unknown key and a missing key without a default.
    Only positions and lists are converted here; type and range checks are
    cls's own. Every ValueError names its path, e.g. scenario.sources[2].
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object, got {payload!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(hints))
    if unknown:
        raise ValueError(f"unknown key {', '.join(f'{where}.{key}' for key in unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in payload:
            kwargs[f.name] = _field_from_json(hints[f.name], payload[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"missing key {where}.{f.name}")
    return _construct(cls, kwargs, where)


def _field_from_json(hint, value, where: str):
    if hint is Position:
        if not isinstance(value, list) or len(value) != 3:
            raise ValueError(f"{where} must be a 3-element [x, y, z] list, got {value!r}")
        return _construct(Position, dict(zip("xyz", value)), where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        if dataclasses.is_dataclass(item):
            return tuple(_from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
        return tuple(value)
    return value


def _construct(cls, kwargs: dict, where: str):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


scenario_to_dict = sensor_config_to_dict = _to_json


def scenario_from_dict(d: dict) -> Scenario:
    # objects may be omitted: a room with no obstructions
    return _from_json(Scenario, {"objects": [], **d} if isinstance(d, dict) else d, "scenario")


def sensor_config_from_dict(d: dict) -> SensorConfig:
    return _from_json(SensorConfig, d, "sensor-config")


def read_scenario_json(path: str) -> Scenario:
    return read_json(path, scenario_from_dict)


def write_scenario_json(scenario: Scenario, path: str) -> None:
    _write_json(scenario_to_dict(scenario), path)


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
        text = fh.read()
    rows = []
    # Lines end at "\n" only, as in read_dataset_csv: splitlines() also breaks
    # at \x0b, \x0c and other separators and shifts every later line number.
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    with `position`. step_mhz must be a finite number > 0.
    """
    band = tuple(float(f) for f in band_mhz)
    if not band:
        raise ValueError("band must be non-empty")
    _check_real("step_mhz", step_mhz, lambda v: v > 0, "> 0")
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
    return _owned_dataset(features, labels, band)
