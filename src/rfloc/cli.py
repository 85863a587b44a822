"""Command-line surface.

Commands: simulate, split, benchmark, select-band, pca, ingest-rtlpower.
Each command's options are rows of one table (COMMANDS). An option's value
comes from its flag, else from the key of the same name in the JSON object
given with --config, else from its default, and one parse function turns it
into a typed value: a config value is parsed as the text its flag would take.
All stochastic commands require an explicit --seed, so a run is fully
determined by (arguments, input files).
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable

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
from .registry import expand_model_ids, fit_model, parse_model_id
from .simulate import generate_dataset, make_fullband_scenario, make_reference_scenario


class UsageError(Exception):
    """Bad argument values: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# value parsers: flag text -> typed value, or ValueError naming the text


def _parser(convert, expected: str, ok=lambda value: True) -> Callable[[str], object]:
    """A parser returning convert(text) when that succeeds and satisfies ok."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {expected}, got {text!r}")

    return parse


def _whole(text: str) -> int:
    """int(text), also for an integral float such as '7.0'."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _floats(text: str) -> list[float]:
    return [_finite(p) for p in text.split(",") if p.strip()]


def _integer(minimum: int):
    return _parser(_whole, f"an integer >= {minimum}", lambda v: v >= minimum)


_positive = _parser(_finite, "a number > 0", lambda v: v > 0)
_fraction = _parser(_finite, "a fraction in (0, 1)", lambda v: 0 < v < 1)
_numbers = _parser(_floats, "comma-separated numbers")
_triple = _parser(_floats, "three comma-separated numbers", lambda v: len(v) == 3)
_grid = _parser(_floats, "nx,ny,spacing with integer nx and ny",
                lambda v: len(v) == 3 and v[0].is_integer() and v[1].is_integer())
_boolean = _parser(lambda text: bool(("false", "true").index(text)), "true or false")


def _model_id(text: str) -> str:
    parse_model_id(text)
    return text


def _model_ids(text: str) -> list[str]:
    ids = expand_model_ids(text)
    if not ids:
        raise ValueError(f"expected at least one model id, got {text!r}")
    return ids


def _flag_text(value) -> str:
    """A config-file value as its flag's text: a string as it is, a list
    comma-joined, any other JSON value as JSON (7, 2.5, true)."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_flag_text(v) for v in value)
    return json.dumps(value)


# ---------------------------------------------------------------------------
# option tables


@dataclasses.dataclass(frozen=True)
class Option:
    """One option: --name on the command line, "name" in a config file.

    default is flag text, parsed like a given value; an optional option
    without a default resolves to None.
    """

    name: str
    parse: Callable[[str], object]
    help: str
    default: str | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")

    @property
    def flag_help(self) -> str:
        if self.required:
            return f"{self.help} (required)"
        return self.help if self.default is None else f"{self.help} (default {self.default})"


SEED = Option("seed", _integer(0), "seed of every random draw", required=True)
DATA = Option("data", str, "input dataset CSV", required=True)
SPLIT = Option("split", _fraction, "train fraction", "0.7")

# command -> (help, options); each command's function is cmd_<command>
COMMANDS = {
    "simulate": ("generate a synthetic dataset CSV", (
        Option("scenario", str, "scenario JSON file"),
        # the one option given as a bare flag; a config file sets it true or false
        Option("reference-scenario", _boolean,
               "use the built-in five-frequency room scenario", "false"),
        Option("fullband-scenario", _integer(1),
               "use the built-in wide-scan scenario with this many frequencies"),
        Option("sensor-config", str, "sensor config JSON (with --scenario)"),
        Option("grid", _grid, "nx,ny,spacing of the grid for --scenario", "6,5,1.0"),
        Option("heights", _numbers, "comma-separated grid heights in m", "0.0,1.0"),
        Option("out", str, "output dataset CSV", required=True),
        SEED,
    )),
    "split": ("split a dataset CSV into train/test CSVs", (
        DATA,
        dataclasses.replace(SPLIT, name="train-fraction"),
        Option("out-train", str, "output train CSV", required=True),
        Option("out-test", str, "output test CSV", required=True),
        SEED,
    )),
    "benchmark": ("fit and score models on a dataset", (
        DATA,
        Option("models", _model_ids, "comma-separated model ids or aliases", required=True),
        SPLIT,
        Option("out", str, "output report CSV", required=True),
        SEED,
    )),
    "select-band": ("rank frequencies and emit a reduced config", (
        DATA,
        Option("model", _model_id, "model id to rank with", "knr"),
        Option("top-k", _integer(1), "number of frequencies to keep", required=True),
        Option("n-repeats", _integer(1), "shuffle repeats per frequency", "5"),
        SPLIT,
        Option("out-importance", str, "output importance CSV", required=True),
        Option("out-config", str, "output sensor config JSON", required=True),
        Option("sensor-config", str,
               "sensor config JSON the data was captured under; its band must equal the "
               "CSV header, and the output keeps its step, rate and sample count "
               "(without it: the header's even step, 2.4e6 Hz, 100 samples)"),
        SEED,
    )),
    "pca": ("project a dataset onto principal components", (
        DATA,
        Option("n-components", _integer(1), "component count", "3"),
        Option("out", str, "output scores CSV", required=True),
    )),
    "ingest-rtlpower": ("convert rtl_power scans to dataset rows", (
        Option("scan", str, "rtl_power CSV file", required=True),
        Option("position", _triple, "x,y,z label for the scan rows", required=True),
        Option("band", _numbers,
               "comma-separated band frequencies in MHz (without it: the scan grid)"),
        Option("step-mhz", _positive,
               "match tolerance is step/2 (without it: 2.4 with --band, else the scan step)"),
        Option("out", str, "dataset CSV to append to", required=True),
    )),
}

_CONFIG_KEYS = frozenset(opt.name for _, options in COMMANDS.values() for opt in options)


def _config_object(payload) -> dict:
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


def resolve_options(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed command's options, typed: each from its flag, else its
    --config key, else its default. A JSON null counts as absent.

    Raises UsageError naming --<name> for a bad or missing value, and naming
    a config key that is an option of no command; a key of another command
    is ignored, so one config file can serve several commands.
    """
    config = {} if args.config is None else read_json(args.config, _config_object)
    unknown = ", ".join(repr(key) for key in sorted(set(config) - _CONFIG_KEYS))
    if unknown:
        raise UsageError(f"config key {unknown} is not an option of any command")
    values = {}
    for opt in args.options:
        raw = getattr(args, opt.dest)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            raw = opt.default
        if raw is None and opt.required:
            raise UsageError(f"missing required option --{opt.name} (or config key '{opt.name}')")
        try:
            values[opt.dest] = None if raw is None else opt.parse(_flag_text(raw))
        except ValueError as exc:
            raise UsageError(f"--{opt.name}: {exc}") from None
    return argparse.Namespace(**values)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(opts) -> int:
    chosen = sum([opts.scenario is not None, opts.reference_scenario,
                  opts.fullband_scenario is not None])
    if chosen != 1:
        raise UsageError(
            "exactly one of --scenario, --reference-scenario, --fullband-scenario is required"
        )

    if opts.reference_scenario:
        scenario, sensor, positions = make_reference_scenario(opts.seed)
    elif opts.fullband_scenario is not None:
        scenario, sensor, positions = make_fullband_scenario(opts.seed, opts.fullband_scenario)
    else:
        scenario = read_scenario_json(opts.scenario)
        scenario = dataclasses.replace(scenario, rng_seed=opts.seed)
        if opts.sensor_config is None:
            raise UsageError("--sensor-config is required with --scenario")
        sensor = read_sensor_config_json(opts.sensor_config)
        nx, ny, spacing = opts.grid
        positions = grid_positions(scenario.room_dims, (int(nx), int(ny)), spacing, opts.heights)

    data = generate_dataset(scenario, sensor, positions)
    write_dataset_csv(data, opts.out)
    print(f"wrote {opts.out}: n={data.n} samples, m={data.m} frequencies, "
          f"{len(positions)} positions")
    return 0


def cmd_split(opts) -> int:
    split = train_test_split(read_dataset_csv(opts.data), opts.train_fraction, opts.seed)
    write_dataset_csv(split.train, opts.out_train)
    write_dataset_csv(split.test, opts.out_test)
    print(f"wrote {opts.out_train} ({split.train.n} rows) and "
          f"{opts.out_test} ({split.test.n} rows)")
    return 0


def cmd_benchmark(opts) -> int:
    split = train_test_split(read_dataset_csv(opts.data), opts.split, opts.seed)
    reports = benchmark(opts.models, split, seed=opts.seed)
    write_benchmark_csv(reports, opts.out)
    print(format_report_table(reports))
    failures = [r for r in reports if r.error is not None]
    for r in failures:
        print(f"note: {r.model_id} failed: {r.error}", file=sys.stderr)
    print(f"wrote {opts.out}")
    return 0


def cmd_select_band(opts) -> int:
    data = read_dataset_csv(opts.data)
    if opts.top_k > data.m:
        raise ValueError(f"--top-k ({opts.top_k}) exceeds the dataset's {data.m} frequencies")
    if opts.sensor_config is not None:
        base = read_sensor_config_json(opts.sensor_config)
        _check_band_matches(base.band_mhz, data.frequencies_mhz)
    else:
        base = SensorConfig(
            band_mhz=data.frequencies_mhz,
            step_mhz=_regular_step(data.frequencies_mhz),
            sample_rate_hz=2.4e6,
            samples_per_position=100,
        )
    split = train_test_split(data, opts.split, opts.seed)
    model = fit_model(opts.model, split.train, seed=opts.seed)
    report = permutation_importance(model, split.test, n_repeats=opts.n_repeats, seed=opts.seed)
    rated = select_rated_band(report, opts.top_k, base=base)
    write_importance_csv(report, opts.out_importance)
    write_sensor_config_json(rated, opts.out_config)
    print(
        f"wrote {opts.out_importance} and {opts.out_config}: band {data.m} -> "
        f"{rated.n_frequencies} frequencies ({', '.join(str(f) for f in rated.band_mhz)} MHz)"
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


def cmd_pca(opts) -> int:
    data = read_dataset_csv(opts.data)
    model = pca_fit(data.features, opts.n_components)
    scores = pca_transform(model, data.features)
    write_pca_csv(scores, data.labels, opts.out)
    ratios = " ".join(f"{v:.6f}" for v in model.explained_ratio)
    print(f"wrote {opts.out}: {opts.n_components} components, explained variance ratios {ratios}")
    return 0


def cmd_ingest_rtlpower(opts) -> int:
    rows = read_rtlpower_scan(opts.scan)
    step = opts.step_mhz
    if opts.band is not None:
        band = sorted(opts.band)
        step = 2.4 if step is None else step
    else:
        freqs = rows[0][0]
        band = [float(f) for f in freqs]
        if step is None:
            step = float(freqs[1] - freqs[0]) if freqs.size > 1 else 2.4

    data = rtlpower_rows_to_dataset(rows, band, step, Position(*opts.position))
    append_dataset_csv(data, opts.out)
    print(f"appended {data.n} rows ({data.m} frequencies) to {opts.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one plain-string flag per option row."""
    parser = argparse.ArgumentParser(
        prog="rfloc",
        description="Passive-RF indoor positioning: simulate, benchmark, select bands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON object of option values keyed by name (flags win)")
        for opt in options:
            bare = {"action": "store_const", "const": "true"} if opt.parse is _boolean else {}
            p.add_argument(f"--{opt.name}", help=opt.flag_help, **bare)
        # looked up now rather than at import, so a wrapper set on cmd_* is the one called
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")], options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(resolve_options(args))
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
