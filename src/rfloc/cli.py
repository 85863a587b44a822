"""Command-line surface.

Commands: simulate, split, benchmark, select-band, pca, ingest-rtlpower.
Every option may come from the command line or from a JSON config file given
with --config; command-line flags win. All stochastic commands require an
explicit --seed, so a run is fully determined by (arguments, input files).
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .bandselect import permutation_importance, select_rated_band
from .core import Position, SensorConfig, grid_positions, train_test_split
from .evaluate import benchmark, format_report_table
from .io import (
    append_dataset_csv,
    read_dataset_csv,
    read_json,
    read_rtlpower_scan,
    read_scenario_json,
    read_sensor_config_json,
    rtlpower_rows_to_dataset,
    write_benchmark_csv,
    write_dataset_csv,
    write_importance_csv,
    write_pca_csv,
    write_sensor_config_json,
)
from .pca import pca_fit, pca_transform
from .registry import expand_model_ids, fit_model
from .simulate import generate_dataset, make_fullband_scenario, make_reference_scenario


class UsageError(Exception):
    """Bad argument values: reported on stderr, exit code 2."""


def _config_object(payload) -> dict:
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


def _load_config(path: str | None) -> dict:
    return {} if path is None else read_json(path, _config_object)


def _opt(args, cfg: dict, name: str, default=None, required: bool = False):
    """Resolve one option: command-line flag, else config file, else default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        value = cfg.get(name, default)
    if value is None and required:
        raise UsageError(f"missing required option --{name} (or config key '{name}')")
    return value


def _parse_triple(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{what} must be three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise UsageError(f"{what} contains a non-numeric value: {text!r}") from None


def _parse_float_list(text, what: str) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    try:
        return [float(p) for p in str(text).split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"{what} contains a non-numeric value: {text!r}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    seed = _opt(args, cfg, "seed", required=True)
    seed = int(seed)
    out = _opt(args, cfg, "out", required=True)

    scenario_path = _opt(args, cfg, "scenario")
    use_reference = bool(_opt(args, cfg, "reference-scenario", False))
    fullband = _opt(args, cfg, "fullband-scenario")
    chosen = sum([scenario_path is not None, use_reference, fullband is not None])
    if chosen != 1:
        raise UsageError(
            "exactly one of --scenario, --reference-scenario, --fullband-scenario is required"
        )

    if use_reference:
        scenario, sensor, positions = make_reference_scenario(seed)
    elif fullband is not None:
        scenario, sensor, positions = make_fullband_scenario(seed, int(fullband))
    else:
        scenario = read_scenario_json(scenario_path)
        scenario = dataclasses.replace(scenario, rng_seed=seed)
        sensor_path = _opt(args, cfg, "sensor-config")
        if sensor_path is None:
            raise UsageError("--sensor-config is required with --scenario")
        sensor = read_sensor_config_json(sensor_path)
        grid = _opt(args, cfg, "grid", "6,5,1.0")
        gx, gy, spacing = _parse_triple(str(grid), "--grid")
        heights = _parse_float_list(_opt(args, cfg, "heights", "0.0,1.0"), "--heights")
        positions = grid_positions(scenario.room_dims, (int(gx), int(gy)), spacing, heights)

    data = generate_dataset(scenario, sensor, positions)
    write_dataset_csv(data, out)
    print(f"wrote {out}: n={data.n} samples, m={data.m} frequencies, {len(positions)} positions")
    return 0


def cmd_split(args) -> int:
    cfg = _load_config(args.config)
    seed = int(_opt(args, cfg, "seed", required=True))
    data_path = _opt(args, cfg, "data", required=True)
    out_train = _opt(args, cfg, "out-train", required=True)
    out_test = _opt(args, cfg, "out-test", required=True)
    fraction = float(_opt(args, cfg, "train-fraction", 0.7))
    if not 0.0 < fraction < 1.0:
        raise UsageError(f"--train-fraction must be in (0, 1), got {fraction}")

    split = train_test_split(read_dataset_csv(data_path), fraction, seed)
    write_dataset_csv(split.train, out_train)
    write_dataset_csv(split.test, out_test)
    print(f"wrote {out_train} ({split.train.n} rows) and {out_test} ({split.test.n} rows)")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load_config(args.config)
    seed = int(_opt(args, cfg, "seed", required=True))
    data_path = _opt(args, cfg, "data", required=True)
    out = _opt(args, cfg, "out", required=True)
    fraction = float(_opt(args, cfg, "split", 0.7))
    if not 0.0 < fraction < 1.0:
        raise UsageError(f"--split must be in (0, 1), got {fraction}")
    models_opt = _opt(args, cfg, "models", required=True)
    try:
        model_ids = expand_model_ids(models_opt)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not model_ids:
        raise UsageError("--models resolved to an empty list")

    split = train_test_split(read_dataset_csv(data_path), fraction, seed)
    reports = benchmark(model_ids, split, seed=seed)
    write_benchmark_csv(reports, out)
    print(format_report_table(reports))
    failures = [r for r in reports if r.error is not None]
    for r in failures:
        print(f"note: {r.model_id} failed: {r.error}", file=sys.stderr)
    print(f"wrote {out}")
    return 0


def cmd_select_band(args) -> int:
    cfg = _load_config(args.config)
    seed = int(_opt(args, cfg, "seed", required=True))
    data_path = _opt(args, cfg, "data", required=True)
    out_importance = _opt(args, cfg, "out-importance", required=True)
    out_config = _opt(args, cfg, "out-config", required=True)
    model_id = _opt(args, cfg, "model", "knr")
    top_k = int(_opt(args, cfg, "top-k", required=True))
    n_repeats = int(_opt(args, cfg, "n-repeats", 5))
    fraction = float(_opt(args, cfg, "split", 0.7))
    if top_k < 1:
        raise UsageError(f"--top-k must be >= 1, got {top_k}")
    if n_repeats < 1:
        raise UsageError(f"--n-repeats must be >= 1, got {n_repeats}")

    data = read_dataset_csv(data_path)
    if top_k > data.m:
        raise ValueError(f"--top-k ({top_k}) exceeds the dataset's {data.m} frequencies")
    sensor_path = _opt(args, cfg, "sensor-config")
    if sensor_path is not None:
        base = read_sensor_config_json(sensor_path)
        _check_band_matches(base.band_mhz, data.frequencies_mhz)
    else:
        base = SensorConfig(
            band_mhz=data.frequencies_mhz,
            step_mhz=_regular_step(data.frequencies_mhz),
            sample_rate_hz=2.4e6,
            samples_per_position=100,
        )
    split = train_test_split(data, fraction, seed)
    model = fit_model(model_id, split.train, seed=seed)
    report = permutation_importance(model, split.test, n_repeats=n_repeats, seed=seed)
    rated = select_rated_band(report, top_k, base=base)
    write_importance_csv(report, out_importance)
    write_sensor_config_json(rated, out_config)
    print(
        f"wrote {out_importance} and {out_config}: band {data.m} -> {rated.n_frequencies} "
        f"frequencies ({', '.join(str(f) for f in rated.band_mhz)} MHz)"
    )
    return 0


def _check_band_matches(config_band, data_band) -> None:
    """Raise ValueError naming the first frequency where the two bands differ."""
    for i, (c, d) in enumerate(zip(config_band, data_band)):
        if c != d:
            raise ValueError(
                f"--sensor-config band differs from the data's at index {i}: "
                f"{c} MHz in the config, {d} MHz in the CSV header"
            )
    if len(config_band) != len(data_band):
        i = min(len(config_band), len(data_band))
        if len(config_band) > i:
            where, f = "config", config_band[i]
        else:
            where, f = "CSV header", data_band[i]
        raise ValueError(
            f"--sensor-config band has {len(config_band)} frequencies, the CSV header "
            f"{len(data_band)}: {f} MHz at index {i} is only in the {where}"
        )


def _regular_step(band) -> float:
    """The step of an evenly spaced band (2.4 MHz for a single frequency).

    An uneven band, such as one ingested from rtl_power with missing bins,
    has no one step, so the caller must supply the sensor config instead.
    """
    if len(band) < 2:
        return 2.4
    step = band[1] - band[0]
    for i in range(1, len(band) - 1):
        gap = band[i + 1] - band[i]
        if abs(gap - step) > 1e-6 * step:
            raise UsageError(
                f"the data's band is unevenly spaced ({step:g} MHz from {band[0]} to "
                f"{band[1]}, {gap:g} MHz from {band[i]} to {band[i + 1]}); "
                "pass --sensor-config with the config it was captured under"
            )
    return step


def cmd_pca(args) -> int:
    cfg = _load_config(args.config)
    data_path = _opt(args, cfg, "data", required=True)
    out = _opt(args, cfg, "out", required=True)
    r = int(_opt(args, cfg, "n-components", 3))
    if r < 1:
        raise UsageError(f"--n-components must be >= 1, got {r}")

    data = read_dataset_csv(data_path)
    model = pca_fit(data.features, r)
    scores = pca_transform(model, data.features)
    write_pca_csv(scores, data.labels, out)
    ratios = " ".join(f"{v:.6f}" for v in model.explained_ratio)
    print(f"wrote {out}: {r} components, explained variance ratios {ratios}")
    return 0


def cmd_ingest_rtlpower(args) -> int:
    cfg = _load_config(args.config)
    scan_path = _opt(args, cfg, "scan", required=True)
    out = _opt(args, cfg, "out", required=True)
    position_opt = _opt(args, cfg, "position", required=True)
    position = Position(*_parse_triple(str(position_opt), "--position"))

    rows = read_rtlpower_scan(scan_path)
    band_opt = _opt(args, cfg, "band")
    step_opt = _opt(args, cfg, "step-mhz")
    if band_opt is not None:
        band = sorted(_parse_float_list(band_opt, "--band"))
        step = float(step_opt) if step_opt is not None else 2.4
    else:
        freqs = rows[0][0]
        band = [float(f) for f in freqs]
        step = float(step_opt) if step_opt is not None else float(freqs[1] - freqs[0]) if freqs.size > 1 else 2.4
    if step <= 0:
        raise UsageError(f"--step-mhz must be > 0, got {step}")

    data = rtlpower_rows_to_dataset(rows, band, step, position)
    append_dataset_csv(data, out)
    print(f"appended {data.n} rows ({data.m} frequencies) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfloc",
        description="Passive-RF indoor positioning: simulate, benchmark, select bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option defaults (flags override)")
        p.set_defaults(func=func)
        return p

    p = add("simulate", cmd_simulate, "generate a synthetic dataset CSV")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--reference-scenario", action="store_const", const=True,
                   help="use the built-in five-frequency room scenario")
    p.add_argument("--fullband-scenario", type=int, metavar="N_FREQS",
                   help="use the built-in wide-scan scenario with N_FREQS frequencies")
    p.add_argument("--sensor-config", help="sensor config JSON (with --scenario)")
    p.add_argument("--grid", help="nx,ny,spacing for --scenario (default 6,5,1.0)")
    p.add_argument("--heights", help="comma-separated grid heights in m (default 0.0,1.0)")
    p.add_argument("--out", help="output dataset CSV path")
    p.add_argument("--seed", type=int, help="generation seed (required)")

    p = add("split", cmd_split, "split a dataset CSV into train/test CSVs")
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--train-fraction", type=float, help="train fraction (default 0.7)")
    p.add_argument("--out-train", help="output train CSV")
    p.add_argument("--out-test", help="output test CSV")
    p.add_argument("--seed", type=int, help="shuffle seed (required)")

    p = add("benchmark", cmd_benchmark, "fit and score models on a dataset")
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--models", help="comma-separated model ids or aliases")
    p.add_argument("--split", type=float, help="train fraction (default 0.7)")
    p.add_argument("--out", help="output report CSV")
    p.add_argument("--seed", type=int, help="split/fit seed (required)")

    p = add("select-band", cmd_select_band, "rank frequencies and emit a reduced config")
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--model", help="model id to rank with (default knr)")
    p.add_argument("--top-k", type=int, help="number of frequencies to keep (required)")
    p.add_argument("--n-repeats", type=int, help="shuffle repeats per frequency (default 5)")
    p.add_argument("--split", type=float, help="train fraction (default 0.7)")
    p.add_argument("--out-importance", help="output importance CSV")
    p.add_argument("--out-config", help="output sensor config JSON")
    p.add_argument("--sensor-config",
                   help="sensor config JSON the data was captured under; its band must "
                        "equal the CSV header, and the output keeps its step, rate and "
                        "sample count (default: the header's even step, 2.4e6 Hz, "
                        "100 samples)")
    p.add_argument("--seed", type=int, help="split/fit/shuffle seed (required)")

    p = add("pca", cmd_pca, "project a dataset onto principal components")
    p.add_argument("--data", help="input dataset CSV")
    p.add_argument("--n-components", type=int, help="component count (default 3)")
    p.add_argument("--out", help="output scores CSV")

    p = add("ingest-rtlpower", cmd_ingest_rtlpower, "convert rtl_power scans to dataset rows")
    p.add_argument("--scan", help="rtl_power CSV file")
    p.add_argument("--position", help="x,y,z label for the scan rows")
    p.add_argument("--band", help="comma-separated band frequencies in MHz (default: scan grid)")
    p.add_argument("--step-mhz", type=float, help="match tolerance is step/2 (default 2.4)")
    p.add_argument("--out", help="dataset CSV to append to")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
