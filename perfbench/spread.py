"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py [--trace] [--out perfbench/baseline.json]

For every workload, runs ``run.py`` once for each of the seeds 1-10 and
prints, for every end-to-end metric, the median and the distance between the
first and third quartile as a share of the median
(``statistics.quantiles(n=4)``).  With
``--trace`` it adds one traced run per workload.  ``--out`` writes all of it
as JSON, which is how ``baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOAD_NAMES, environment  # noqa: E402

SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"env": environment(SEEDS[0]), "seeds": SEEDS,
                    "run_seconds": spec["run_seconds"], "workloads": {}}
    del report["env"]["seed"]
    for wl in WORKLOAD_NAMES:
        runs = [bench(wl, s, spec["run_seconds"], 0) for s in SEEDS]
        entry: dict = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in runs]) for m in bounds},
        }
        for m, s in entry["end_to_end"].items():
            print(f"{wl:13s} {m:12s} median {s['median']:<12.6g} spread {s['spread']:.3f}"
                  f" (bound {bounds[m]})", flush=True)
        if args.trace:
            traced = bench(wl, SEEDS[0], spec["run_seconds"], 1)
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["trace_correct"] = traced["correct"]
        report["workloads"][wl] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
