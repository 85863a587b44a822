"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 10 [--traced] [--label TEXT --append FILE]

Runs ``perfbench/run.py`` once per workload of BENCHMARK.json and seed
(seeds 1, 2, ...), one process at a time, for the run length in
BENCHMARK.json. For each end-to-end metric it prints
the median of the runs, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
metric's bound. ``--traced`` adds one traced run per workload on the first
seed. ``--append`` adds the whole summary, with the machine facts, as one
JSON line to FILE: a point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    machine, detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-3:])
    detail["process_s"] = time.perf_counter() - t0
    return machine["machine"], detail, result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    share = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": share, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label")
    parser.add_argument("--append")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, 1 + args.seeds)
    summary, machine = {}, None
    for name in names:
        runs = []
        for seed in seeds:
            machine, detail, result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append((detail, result))
            metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {metrics} passes={len(detail['untraced_pass_s'])} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"process={detail['process_s']:.1f}s", flush=True)
        entry = {
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "all_correct": all(r["correct"] for _, r in runs),
            "process_s": statistics.mean(d["process_s"] for d, _ in runs),
            "runs": [{k: d[k] for k in ("seed", "untraced_pass_s", "reference_s", "setup_s",
                                         "setup_base_s")}
                     for d, _ in runs],
            "end_to_end": {m: spread([r["metrics"][m]["value"] for _, r in runs]) for m in bounds},
            "quality": {q: spread([d["quality"][q] for d, _ in runs])
                        for q in runs[0][0]["quality"]},
        }
        for m, s in entry["end_to_end"].items():
            print(f"  {name} {m}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {bounds[m]}, a third {bounds[m] / 3:.3f})", flush=True)
        if args.traced:
            _, detail, result = run_once(name, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = {"seed": seeds[0], "correct": result["correct"],
                               "process_s": detail["process_s"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
            layer = entry["traced"]["per_layer"]
            print(f"  {name} traced: correct={result['correct']} run_s={layer['trace.run_s']:.3f} "
                  f"untraced={layer['trace.untraced_run_s']:.3f} "
                  f"overhead={layer['trace.overhead_s']:.3f}", flush=True)
        summary[name] = entry
    # a full evaluation makes 22 runs per workload plus 4 more, within 3420 s
    longest = max(e.get("traced", e)["process_s"] for e in summary.values())
    total = sum(22 * e["process_s"] for e in summary.values()) + 4 * longest
    print(f"projected time for 4 + 22 x {len(summary)} runs: {total:.0f} s", flush=True)
    if args.append:
        point = {"label": args.label, "date": datetime.date.today().isoformat(),
                 "run_seconds": spec["run_seconds"], "machine": machine, "workloads": summary}
        with open(os.path.join(ROOT, args.append), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(point) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
