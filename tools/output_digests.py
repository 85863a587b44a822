"""Print one sha256 per program output, so two checkouts can be compared
with a diff of their printouts.

Covered: fit_model predictions for every id of the registry grammar and for
tuned EnsembleSpecs, band-select importance scores and dddas_cycle results,
and the files and console output of each CLI command. Fit times are dropped
before hashing, and temporary paths are replaced by a placeholder.

    python tools/output_digests.py > digests.txt

The package is imported from the src directory next to this script, so a
second checkout's copy of the script hashes that checkout's code. The run
takes 30-40 s on two cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stdio
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rfloc import bandselect, cli, core, io, registry, simulate  # noqa: E402
from rfloc.ensemble import EnsembleSpec  # noqa: E402

# every id the grammar documents, its shorthands and two nested forms
GRAMMAR_IDS = sorted(
    set(registry.BASE_IDS).union(*registry.ALIASES.values())
    | {"abr", "etr", "bagging-abr-knr", "stacking-gbr[knr+dtr]",
       "stacking-knr[stacking-gbr[knr+dtr]+svr]"}
)

# specs that move each strategy's tuning fields off their defaults
TUNED_SPECS = (
    EnsembleSpec("boosting-abr", base=("knr",), n_estimators=3),
    EnsembleSpec("boosting-abr", base=("dtr",)),
    EnsembleSpec("boosting-gbr", n_estimators=7, learning_rate=0.3, max_depth=2),
    EnsembleSpec("boosting-hgbr", n_estimators=4, learning_rate=0.2, max_depth=1, max_bins=8),
    EnsembleSpec("bagging", base=("dtr",), n_estimators=3, seed=2),
    EnsembleSpec("random-forest", n_estimators=4),
    EnsembleSpec("extra-trees", n_estimators=2),
    EnsembleSpec("stacking", base=("knr", "dtr"), final="dtr", n_folds=4, seed=4),
)


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _emit(name: str, data) -> None:
    print(f"{_sha(data)}  {name}", flush=True)


def _small(scenario_maker, seed: int, samples: int, *args):
    """scenario_maker's dataset with `samples` samples per grid position."""
    scenario, config, positions = scenario_maker(seed, *args)
    config = dataclasses.replace(config, samples_per_position=samples)
    return scenario, config, positions


def model_digests() -> None:
    scenario, config, positions = _small(simulate.make_reference_scenario, 0, 1)
    data = simulate.generate_dataset(scenario, config, positions[::2])
    split = core.train_test_split(data, 0.7, 1)
    cache: dict = {}
    for item in (*GRAMMAR_IDS, *TUNED_SPECS):
        model = registry.fit_model(item, split.train, seed=3, plan_cache=cache)
        name = item if isinstance(item, str) else json.dumps(item.to_dict(), sort_keys=True)
        _emit(f"fit_model {name} ({registry.canonical_id(item)})",
              model.predict(split.test.features))


def importance_digests() -> None:
    scenario, config, positions = _small(simulate.make_fullband_scenario, 1, 5, 40)
    data = simulate.generate_dataset(scenario, config, positions)
    split = core.train_test_split(data, 0.7, 2)
    model = registry.fit_model("dtr", split.train, seed=2)
    report = bandselect.permutation_importance(model, split.test, n_repeats=3, seed=3)
    _emit("permutation_importance dtr scores", np.array(report.scores_m))
    _emit("permutation_importance dtr baseline", repr(report.baseline_rmse_m))
    rated, before, after = bandselect.dddas_cycle(scenario, config, positions, "dtr", top_k=5, seed=4)
    _emit("dddas_cycle rated band", repr(rated))
    for label, rep in (("before", before), ("after", after)):
        _emit(f"dddas_cycle {label}", repr((rep.model_id, rep.rmse_m, rep.r2, rep.ce95_m)))


def _scan_text() -> str:
    """A small rtl_power scan: three rows over 88-90 MHz in 0.5 MHz steps."""
    lines = []
    for k in range(3):
        dbs = ", ".join(f"{-40.0 + 0.5 * k + j:.1f}" for j in range(5))
        lines.append(f"2024-01-01, 00:00:0{k}, 88000000, 90000000, 500000, 10, {dbs}")
    return "\n".join(lines) + "\n"


def _drop_last_column(text: str, sep: str | None) -> str:
    """text with the last field of every line removed (the fit times)."""
    return "\n".join((sep or " ").join(line.split(sep)[:-1]) for line in text.splitlines())


def cli_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        scenario, sensor, _ = simulate.make_reference_scenario(2)
        io.write_scenario_json(scenario, path("scenario.json"))
        io.write_sensor_config_json(sensor, path("sensor.json"))
        with open(path("scan.csv"), "w", encoding="utf-8") as fh:
            fh.write(_scan_text())

        commands = [
            ("simulate-reference", ["simulate", "--reference-scenario", "--seed", "1",
                                    "--out", path("ref.csv")], ["ref.csv"]),
            ("simulate-fullband", ["simulate", "--fullband-scenario", "40", "--seed", "1",
                                   "--out", path("wide.csv")], ["wide.csv"]),
            ("simulate-scenario", ["simulate", "--scenario", path("scenario.json"),
                                   "--sensor-config", path("sensor.json"), "--grid", "4,3,1.0",
                                   "--seed", "5", "--out", path("json.csv")], ["json.csv"]),
            ("split", ["split", "--data", path("wide.csv"), "--train-fraction", "0.7",
                       "--seed", "1", "--out-train", path("train.csv"),
                       "--out-test", path("test.csv")], ["train.csv", "test.csv"]),
            ("pca", ["pca", "--data", path("train.csv"), "--n-components", "3",
                     "--out", path("pca.csv")], ["pca.csv"]),
            ("benchmark", ["benchmark", "--data", path("json.csv"), "--models",
                           "baseline-all,abr-knr,bagging-dtr,gbr,hgbr,rfr,stacking-knr[knr+dtr]",
                           "--seed", "3", "--out", path("bench.csv")], ["bench.csv"]),
            ("select-band", ["select-band", "--data", path("wide.csv"), "--model", "dtr",
                             "--top-k", "5", "--seed", "1", "--out-importance", path("imp.csv"),
                             "--out-config", path("rated.json")], ["imp.csv", "rated.json"]),
            ("ingest-rtlpower", ["ingest-rtlpower", "--scan", path("scan.csv"),
                                 "--position", "1.0,2.0,0.5", "--out", path("scan_rows.csv")],
             ["scan_rows.csv"]),
        ]
        for name, argv, outputs in commands:
            out, err = _stdio.StringIO(), _stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            stdout = out.getvalue().replace(tmp, "<tmp>")
            if name == "benchmark":
                stdout = _drop_last_column(stdout, None)
            _emit(f"cli {name} exit {code}, console", f"{stdout}\n{err.getvalue().replace(tmp, '<tmp>')}")
            for output in outputs:
                with open(path(output), "r", encoding="utf-8") as fh:
                    text = fh.read()
                if output == "bench.csv":
                    text = _drop_last_column(text, ",")
                _emit(f"cli {name} {output}", text)


def main() -> int:
    model_digests()
    importance_digests()
    cli_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
