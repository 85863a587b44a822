"""rfloc benchmark: one workload, run as a closed loop with a single caller.

    python3 perfbench/run.py --workload room-stack --seed 0 --seconds 40 --trace 0

Each pass starts when the previous one (and its untimed output checks)
returns, and passes repeat on the same seed-drawn inputs while another one
still fits in ``--seconds``. ``--trace 0`` reports the end-to-end metrics:
set-up time (median of several fresh interpreters importing rfloc), the
median pass time and the process's peak resident memory. Set-up time is
scaled to a reference speed measured next to it: the start of an
interpreter without rfloc (see ``setup_times``). So is the wide-files pass
time, by a fixed job of the same kind of work timed before and after each
pass (see ``workloads.csv_reference``). The raw times are on the line before
the result. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics read from the spans of the traced ones (see
tracing.py), plus the tracing overhead; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.
Metric names and units come from BENCHMARK.json. The last line of standard
output is the result as one JSON object; the lines before it report the
machine, the passes and the workload's quality figures.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
PROBE = "import rfloc, rfloc.cli; print('ready', flush=True)"
# the same start without rfloc: the interpreter and the libraries rfloc imports
BASE_PROBE = "import numpy, scipy.linalg, scipy.spatial.distance; print('ready', flush=True)"
# BASE_PROBE's time at the reference speed
SETUP_REF_S = 0.4


def _start_time(code: str) -> float:
    """Wall time from starting a fresh interpreter until it has run ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as p:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
    if line.strip() != b"ready" or p.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return t1 - t0


def setup_times(n: int) -> tuple[list[float], list[float]]:
    """Start times with rfloc imported, each paired with one without it.

    A process start follows the VM's speed, but not the way computation does,
    so set-up time is scaled by its own reference: the start of an interpreter
    that imports only numpy and scipy, timed next to each rfloc start."""
    with_rfloc, base = [], []
    for _ in range(n):
        base.append(_start_time(BASE_PROBE))
        with_rfloc.append(_start_time(PROBE))
    return with_rfloc, base


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy ship, by library."""
    import ctypes

    import numpy
    import scipy

    counts = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    counts[os.path.basename(path)] = fn()
                    break
    return counts


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until the next one would overrun ``seconds``."""
    import tracing
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    rec = tracing.Recorder()
    walls = {False: [], True: []}
    references, layer_metrics, quality, failures = [], [], [], []
    attempted = failed = 0
    first_outputs = verified = None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    t_start = time.perf_counter()
    try:
        with tracing.installed(rec) if trace else contextlib.nullcontext():
            i = 0
            scaled = w.reference is not None and not trace
            ref_before = w.reference() if scaled else None
            while True:
                traced = trace and i % 2 == 1
                checked = result = None  # a pass or check that raises fails all its operations
                t0 = time.perf_counter()
                try:
                    with rec.root() if traced else contextlib.nullcontext() as root:
                        result = w.run(seed, workdir)
                except Exception:
                    failures.append(traceback.format_exc(limit=3))
                wall = time.perf_counter() - t0
                ref_after = w.reference() if scaled else None
                if result is not None:
                    try:
                        checked = w.check(seed, workdir, result, wall, verified)
                    except Exception:
                        failures.append(traceback.format_exc(limit=3))
                attempted += w.ops
                if checked is None:
                    failed += w.ops
                else:
                    if first_outputs is None:
                        first_outputs = checked.outputs
                    if checked.outputs != first_outputs:
                        checked.failures["determinism"] = "outputs differ from the first pass"
                    if not checked.failures and verified is None:
                        verified = checked.outputs
                    failures.extend(f"{k}: {v}" for k, v in checked.failures.items())
                    failed += w.ops if "determinism" in checked.failures else len(checked.failures)
                    quality.append(checked.quality)
                    walls[traced].append(wall)
                    if scaled:
                        references.append((ref_before + ref_after) / 2)
                    if traced:
                        tree = tracing.subtree(rec.spans, root)
                        errors = tracing.shape_errors(tree, w.shape)
                        failures.extend(errors)
                        failed += w.ops if errors else 0
                        layer_metrics.append(tracing.pass_metrics(tree))
                ref_before = ref_after
                i += 1
                elapsed = time.perf_counter() - t_start
                if trace and i < 2:
                    continue
                if elapsed + elapsed / i > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        rec.write_jsonl(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl"), t_start)
    return walls, references, layer_metrics, quality, attempted, failed, failures


def _median(values):
    # no pass got through its checks: the result is already marked incorrect
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rfloc", "__init__.py")):
        print(f"error: no rfloc sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rfloc

    if not os.path.abspath(rfloc.__file__).startswith(SRC + os.sep):
        print(f"error: imported rfloc from {rfloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_facts()}), flush=True)
    setup, setup_base = ([], []) if args.trace else setup_times(SETUP_PROBES)
    walls, references, layers, quality, attempted, failed, failures = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    quality_median = {k: _median([q[k] for q in quality]) for k in (quality[0] if quality else {})}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "untraced_pass_s": walls[False], "traced_pass_s": walls[True], "setup_s": setup,
        "setup_base_s": setup_base, "reference_s": references,
        "quality": quality_median, "failures": failures[:20],
    }), flush=True)

    if args.trace:
        import tracing

        names = [m["name"] for m in spec["per_layer"]]
        values = tracing.median_metrics(layers, names)
        values.update(quality_median)
        values["trace.run_s"] = _median(walls[True])
        values["trace.untraced_run_s"] = _median(walls[False])
        values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        from workloads import WORKLOADS

        run_s = _median(walls[False])
        if references:
            ratios = [p / r for p, r in zip(walls[False], references)]
            run_s = WORKLOADS[args.workload].reference_s * _median(ratios)
        values = {
            "setup_s": _median(setup) * SETUP_REF_S / _median(setup_base),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # a quality figure of another workload is not measured here: report 0
    metrics = {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
