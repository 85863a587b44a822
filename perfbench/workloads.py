"""The three workloads: one timed pass each, the checks on its outputs and
the span tree it must show when traced.

A pass calls rfloc only through module attributes (``simulate.generate_dataset``
rather than a name imported into this file), so the traced run's wrappers see
every call. ``run`` is the timed part. ``check`` runs after it, untimed, and
is given the outputs of the first pass that passed its checks, if any. It
returns failure messages keyed by operation, the values that must repeat
exactly on every pass with the same seed, and the workload's quality figures.
An operation is one (seed, model) fit and score in room-stack, one seed's
cycle in band-select and one CLI command in wide-files.

The two model workloads keep the room layout of the acceptance criteria's
seed 0 and let the benchmark seed draw the measurement noise, the split and
every fit and shuffle seed: a seed-drawn layout changes the band-select tree
from 909 to 2095 nodes and its pass from 19 to 35 s, a spread no bound holds.
With ``--seed 0`` a pass is exactly seed 0 of criterion 4 or 5.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stdio
import json
import math
import os
import subprocess
import sys
import time
from typing import Callable

import numpy as np

from rfloc import bandselect, cli, core, evaluate, io, registry, simulate
from rfloc.ensemble import EnsembleSpec

import tracing
from tracing import SOME

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LAYOUT_SEED = 0
STACK = EnsembleSpec(strategy="stacking", base=("knr", "dtr"), final="gbr")
BASE_IDS = ("svr", "knr", "gpr", "dtr", "mlp")
FULLBAND_BINS = 400
TOP_K = 5
# wide-files writes a 40-bin scan (4.9 MB) rather than the 400-bin one (46 MB):
# over ten seeds the 400-bin pass ranged from 5.3 to 9.4 s as the VM's speed
# shifted (spread 0.45), while ten 40-bin passes moved half as much as one
# 400-bin pass next to them. The code paths are the same.
FILE_BINS = 40


@dataclasses.dataclass
class Checked:
    failures: dict[str, str]  # operation -> what went wrong
    outputs: object  # must repeat exactly on every pass with the same seed
    quality: dict[str, float]


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- room-stack: criterion 4, the paper's headline comparison ---------------

def room_stack_run(seed: int, workdir: str):
    scenario, config, positions = simulate.make_reference_scenario(LAYOUT_SEED)
    scenario = dataclasses.replace(scenario, rng_seed=seed)
    data = simulate.generate_dataset(scenario, config, positions)
    split = core.train_test_split(data, 0.7, seed=seed)
    return evaluate.benchmark(list(BASE_IDS) + [STACK], split, seed=seed)


def room_stack_check(seed: int, workdir: str, reports, wall_s: float, verified) -> Checked:
    failures = {}
    for r in reports:
        if r.error is not None:
            failures[r.model_id] = r.error
        elif not _finite(r.rmse_m, r.r2, r.ce95_m, r.fit_time_s):
            failures[r.model_id] = "non-finite metric"
    stacked = reports[-1]
    quality = {
        "evaluate.stack_rmse_m": stacked.rmse_m,
        "evaluate.stack_ce95_m": stacked.ce95_m,
        "evaluate.best_single_rmse_m": min(r.rmse_m for r in reports[:-1]),
    }
    outputs = [(r.model_id, r.rmse_m, r.r2, r.ce95_m) for r in reports]
    return Checked(failures, outputs, quality)


# -- band-select: criterion 5, rank 400 bins and refit on the best 5 --------

def band_select_run(seed: int, workdir: str):
    scenario, config, positions = simulate.make_fullband_scenario(LAYOUT_SEED, FULLBAND_BINS)
    scenario = dataclasses.replace(scenario, rng_seed=seed)
    data = simulate.generate_dataset(scenario, config, positions)
    split = core.train_test_split(data, 0.7, seed=seed)
    model = registry.fit_model("dtr", split.train, seed=seed)
    report = bandselect.permutation_importance(model, split.test, n_repeats=5, seed=seed)
    rated = bandselect.select_rated_band(report, top_k=TOP_K, base=config)
    reduced = simulate.generate_dataset(scenario, rated, positions)
    reduced_split = core.train_test_split(reduced, 0.7, seed=seed)
    after_model = registry.fit_model("dtr", reduced_split.train, seed=seed)
    before = evaluate.rmse(split.test.labels, model.predict(split.test.features))
    after = evaluate.rmse(reduced_split.test.labels,
                          after_model.predict(reduced_split.test.features))
    return scenario, config, report, rated, before, after


def band_select_check(seed: int, workdir: str, result, wall_s: float, verified) -> Checked:
    scenario, config, report, rated, before, after = result
    problems = []
    if not _finite(before, after, *report.scores_m):
        problems.append("non-finite rmse or importance score")
    if rated.n_frequencies != TOP_K:
        problems.append(f"rated band has {rated.n_frequencies} frequencies, expected {TOP_K}")
    if not set(rated.band_mhz) <= set(config.band_mhz):
        problems.append("rated band holds a frequency outside the full band")
    informative = {s.center_frequency_mhz for s in scenario.sources}
    order = sorted(range(len(report.scores_m)),
                   key=lambda j: (-report.scores_m[j], report.frequencies_mhz[j]))
    top10 = {report.frequencies_mhz[j] for j in order[:10]}
    quality = {
        "bandselect.top10_hits": len(informative & top10) / len(informative),
        "bandselect.rmse_ratio": after / before,
    }
    failures = {"cycle": "; ".join(problems)} if problems else {}
    return Checked(failures, (report.scores_m, rated.band_mhz, before, after), quality)


# -- wide-files: the README's file pipeline through the CLI ------------------

def _paths(workdir: str) -> dict[str, str]:
    return {k: os.path.join(workdir, f"{k}.csv") for k in ("wide", "train", "test", "scores")}


def wide_files_run(seed: int, workdir: str):
    p = _paths(workdir)
    s = str(seed)
    commands = [
        ["simulate", "--fullband-scenario", str(FILE_BINS), "--seed", s, "--out", p["wide"]],
        ["split", "--data", p["wide"], "--train-fraction", "0.7", "--seed", s,
         "--out-train", p["train"], "--out-test", p["test"]],
        ["pca", "--data", p["wide"], "--n-components", "3", "--out", p["scores"]],
    ]
    codes = []
    messages = _stdio.StringIO()
    with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
        for argv in commands:
            codes.append(cli.main(argv))
    return codes, messages.getvalue()


def _line_hashes(path: str) -> tuple[str, list[int]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        return header, sorted(hash(line) for line in fh)


def _digest(path: str) -> str:
    h = hashlib.blake2b()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_files(seed: int, p: dict[str, str], codes, failures: dict[str, str]) -> None:
    """The deep checks: read-back, partition and the scores file's shape."""
    if codes[0] == 0:
        got = io.read_dataset_csv(p["wide"])
        expected = simulate.generate_dataset(*simulate.make_fullband_scenario(seed, FILE_BINS))
        if not (got.frequencies_mhz == expected.frequencies_mhz
                and np.array_equal(got.features, expected.features)
                and np.array_equal(got.labels, expected.labels)):
            failures["simulate"] = "CSV does not read back bit-exact"
    if codes[0] == 0 and codes[1] == 0:
        header, rows = _line_hashes(p["wide"])
        train_header, train = _line_hashes(p["train"])
        test_header, test = _line_hashes(p["test"])
        if (train_header, test_header) != (header, header) or sorted(train + test) != rows:
            failures["split"] = "halves do not partition the source rows"
        elif len(train) != round(0.7 * len(rows)):
            failures["split"] = f"{len(train)} train rows of {len(rows)}"
    if codes[0] == 0 and codes[2] == 0:
        with open(p["wide"], encoding="utf-8") as fh:
            n_wide = sum(1 for _ in fh) - 1
        with open(p["scores"], encoding="utf-8") as fh:
            fh.readline()
            values = [[float(v) for v in line.split(",")] for line in fh]
        if len(values) != n_wide or any(len(v) != 6 or not _finite(*v) for v in values):
            failures["pca"] = f"scores file is not {n_wide} finite rows of 3 scores + x,y,z"


def _check_files_apart(seed: int, p: dict[str, str], codes, failures: dict[str, str]) -> None:
    """``_check_files`` in a child process. It reads the CSV back and builds
    the dataset a second time, so in the benchmark's own process it would set
    the peak memory that ``peak_rss_mb`` reports."""
    argv = [sys.executable, os.path.abspath(__file__), str(seed), json.dumps(p), json.dumps(codes)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    if proc.returncode != 0:
        why = f"file checker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        failures.update((cmd, why) for cmd in ("simulate", "split", "pca"))
    else:
        failures.update(json.loads(proc.stdout))


def wide_files_check(seed: int, workdir: str, result, wall_s: float, verified) -> Checked:
    codes, messages = result
    p = _paths(workdir)
    failures = {cmd: f"exited {c}: {messages.strip()[-300:]}"
                for cmd, c in zip(("simulate", "split", "pca"), codes) if c}
    outputs = {k: _digest(v) for k, v in p.items() if os.path.exists(v)}
    if outputs != verified:
        # files byte-identical to an earlier pass's passed these checks there
        _check_files_apart(seed, p, codes, failures)
    sizes = {k: os.path.getsize(v) if os.path.exists(v) else 0 for k, v in p.items()}
    moved = sum(sizes.values()) + 2 * sizes["wide"]  # written once, read by split and pca
    for path in p.values():
        if os.path.exists(path):
            os.remove(path)
    return Checked(failures, outputs, {"io.csv_mb_per_s": moved / 1e6 / wall_s})


# -- the span tree each pass must show in a traced run ----------------------
# (parent span, span) -> how many. The counts that an optimisation may change
# (predicts per importance run, trees per boosting fit, member fits per
# stacking plan) are only required to be there; they are per-layer metrics.

ROOM_STACK_SHAPE = {
    (tracing.ROOT, "evaluate.benchmark"): 1,
    ("evaluate.benchmark", "registry.fit_model"): 6,
    **{("registry.fit_model", f"regressors.{fit}"): 1
       for fit in ("svr_fit", "knn_fit", "gpr_fit", "cart_fit", "mlp_fit")},
    ("regressors.cart_fit", "regressors.CartRegressor.fit"): SOME,
    ("registry.fit_model", "registry._fit_stacking_spec"): 1,
    ("registry._fit_stacking_spec", "ensemble.build_stacking_plan"): 1,
    ("ensemble.build_stacking_plan", "regressors.knn_fit"): SOME,
    ("ensemble.build_stacking_plan", "regressors.cart_fit"): SOME,
    ("registry._fit_stacking_spec", "ensemble.stacking_fit_from_plan"): 1,
    ("ensemble.stacking_fit_from_plan", "ensemble.gradient_boost_fit"): 1,
    ("ensemble.gradient_boost_fit", "ensemble.GradientBoosting.fit"): 1,
    ("ensemble.GradientBoosting.fit", "regressors.CartRegressor.fit"): SOME,
    ("evaluate.benchmark", "evaluate.evaluate_model"): 6,
    **{("evaluate.evaluate_model", f"{cls}.predict"): 1
       for cls in ("regressors.LinearSvr", "regressors.KnnRegressor", "regressors.GprRegressor",
                   "regressors.CartRegressor", "regressors.MlpRegressor",
                   "ensemble.StackingEnsemble")},
}

BAND_SELECT_SHAPE = {
    (tracing.ROOT, "registry.fit_model"): 2,
    ("registry.fit_model", "regressors.cart_fit"): 2,
    ("regressors.cart_fit", "regressors.CartRegressor.fit"): SOME,
    (tracing.ROOT, "bandselect.permutation_importance"): 1,
    ("bandselect.permutation_importance", "regressors.CartRegressor.predict"): SOME,
    (tracing.ROOT, "bandselect.select_rated_band"): 1,
    (tracing.ROOT, "simulate.generate_dataset"): 2,
}

WIDE_FILES_SHAPE = {
    (tracing.ROOT, "cli.main"): 3,
    ("cli.main", "cli.cmd_simulate"): 1,
    ("cli.cmd_simulate", "simulate.generate_dataset"): 1,
    ("cli.cmd_simulate", "io.write_dataset_csv"): 1,
    ("cli.main", "cli.cmd_split"): 1,
    ("cli.cmd_split", "io.read_dataset_csv"): 1,
    ("cli.cmd_split", "io.write_dataset_csv"): 2,
    ("cli.main", "cli.cmd_pca"): 1,
    ("cli.cmd_pca", "io.read_dataset_csv"): 1,
    ("cli.cmd_pca", "pca.pca_fit"): 1,
    ("cli.cmd_pca", "pca.pca_transform"): 1,
    ("cli.cmd_pca", "io.write_pca_csv"): 1,
}


# -- a reference for wide-files: the same kind of work, without rfloc --------
# Formatting floats with repr() and parsing them back is most of a wide-files
# pass. On the shared 2-vCPU VM described in README.md, the speed of that
# work drifts by a quarter within minutes, and not together with the model
# workloads' speed: in one interval wide-files passes got 28% faster while
# room-stack passes stayed within 1%.
# So this fixed job is timed before and after every wide-files pass. run.py
# reports, as run_s, the median over passes of pass time / job time (the mean
# of the two), times the job's typical time: the pass time at the speed at
# which the job takes that long. The job calls no rfloc code, so any change
# to rfloc shows in full. No job tried for the model workloads followed their
# pass times (see README.md), so they report plain wall time.

_CSV_ROWS = np.random.default_rng(0).normal(-60.0, 10.0, size=(3000, 43))


def csv_reference() -> float:
    """Wall time to write a fixed 3000x43 array as CSV text with repr() and
    parse it back, like rfloc.io. It works 500 rows at a time, so that it
    needs less memory than a wide-files pass does."""
    wall = 0.0
    for block in np.split(_CSV_ROWS, 6):
        t0 = time.perf_counter()
        text = "\n".join([",".join([repr(float(v)) for v in row]) for row in block]) + "\n"
        back = np.array([[float(p) for p in line.split(",")] for line in text.splitlines()])
        wall += time.perf_counter() - t0
        if not np.array_equal(back, block):
            raise RuntimeError("reference CSV did not read back bit-exact")
    return wall


@dataclasses.dataclass(frozen=True)
class Workload:
    run: Callable  # (seed, workdir) -> outputs: the timed pass
    check: Callable  # (seed, workdir, outputs, wall_s, verified) -> Checked
    ops: int  # operations per pass
    shape: dict[tuple[str, str], int]  # the span tree of a traced pass
    reference: Callable | None = None  # () -> wall time of a fixed job like the pass's
    reference_s: float = 0.0  # the job's median time on the machine in README.md


WORKLOADS = {
    "room-stack": Workload(room_stack_run, room_stack_check, len(BASE_IDS) + 1, ROOM_STACK_SHAPE),
    "band-select": Workload(band_select_run, band_select_check, 1, BAND_SELECT_SHAPE),
    "wide-files": Workload(wide_files_run, wide_files_check, 3, WIDE_FILES_SHAPE,
                           csv_reference, 0.22),
}


if __name__ == "__main__":
    # python3 workloads.py SEED PATHS_JSON EXIT_CODES_JSON: the wide-files
    # file checks; prints the failures as JSON
    found: dict[str, str] = {}
    _check_files(int(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3]), found)
    print(json.dumps(found))
