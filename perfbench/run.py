"""matchpow benchmark entry point.

    python3 perfbench/run.py --workload thm34 --seed 1 --seconds 25 --trace 0

Run from the repository root.  Every sample is a fresh single-worker child
process (``child.py``); this process only schedules them, checks their
results and prints every metric.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``).  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "matchpow"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("thm34", "thm11", "betti-dense", "forest-scale")

MIN_CHILDREN = 3  # setup_s is the median of at least this many set-ups
MIN_TRACE_PAIRS = 2
RUN_MARGIN_S = 120.0  # a run may take --seconds plus this before a child is killed
TAIL_BEYOND = 10  # op_tail_ms: the highest sample with this many above it
# Times are reported at the host speed at which a speed.Speedometer reading
# takes this long (its typical reading on a 2-vCPU shared Xeon host, Python
# 3.11).  The host's speed drifts by up to a third within a minute; the
# readings, taken every 20 ms while the work runs, follow that drift.
REFERENCE_S = 0.001


def scale(ref_s: float) -> float:
    """Factor that brings a time measured while a reading took ``ref_s`` to
    the reference speed."""
    return REFERENCE_S / ref_s


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


def spawn(workload: str, seed: int, budget: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--budget", repr(budget),
        "--trace", str(trace),
    ]
    t = time.perf_counter()
    timeout = max(1.0, deadline - t)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed nothing: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t
    return result


def run_children(args: argparse.Namespace) -> list[dict]:
    """Children one after another until ``--seconds`` is used up.  Campaign
    children run one pass; others split the remaining time between them.
    With tracing, plain and traced children alternate, one pass each."""
    start = time.perf_counter()
    end = start + args.seconds
    hard_deadline = end + RUN_MARGIN_S
    children: list[dict] = []
    while True:
        now = time.perf_counter()
        remaining = end - now
        if args.trace:
            done = len(children) // 2
            if done >= MIN_TRACE_PAIRS and remaining < children[-1]["wall_s"]:
                break
            order = (0, 1) if done % 2 == 0 else (1, 0)
            for traced in order:
                c = spawn(args.workload, args.seed, 0.0, traced, hard_deadline)
                c["traced"] = bool(traced)
                children.append(c)
            continue
        if len(children) >= MIN_CHILDREN:
            mean_wall = statistics.fmean(c["wall_s"] for c in children)
            if remaining < mean_wall / 2:
                break
        budget = max(0.0, remaining) / max(1, MIN_CHILDREN - len(children))
        c = spawn(args.workload, args.seed, budget, 0, hard_deadline)
        c["traced"] = False
        children.append(c)
    return children


def scaled_s(p: dict) -> float:
    """A pass's timed seconds at the reference speed."""
    return sum(r["s"] * scale(r["ref_s"]) for r in p["ops"].values())


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    s = sorted(samples)
    idx = len(s) - 1 - (TAIL_BEYOND if len(s) > TAIL_BEYOND else 0)
    return s[idx], 100.0 * (idx + 1) / len(s)


def failing(passes: list[dict]) -> set[str]:
    return {op for p in passes for op, r in p["ops"].items() if r["bad"]}


def tally(passes: list[dict]) -> dict[str, Any]:
    """Distinct ops attempted and failed, each op counted at its worst pass.

    Counting distinct ops keeps the counts independent of how many passes
    fitted into the run."""
    worst: dict[str, dict] = {}
    for p in passes:
        for op, r in p["ops"].items():
            if op not in worst or r["bad"] > worst[op]["bad"]:
                worst[op] = r
    raised = sum(r["bad"] for r in worst.values() if r["error"])
    check_failed = sum(r["bad"] for r in worst.values() if not r["error"])
    errors = sorted({f"{op}:{r['error']}" for op, r in worst.items() if r["error"]})
    return {
        "attempted": sum(r["size"] for r in worst.values()),
        "failed": raised + check_failed,
        "raised": raised,
        "check_failed": check_failed,
        "raised_ops": errors,
        "check_failed_ops": sorted(op for op, r in worst.items() if r["bad"] and not r["error"]),
    }


def end_to_end(children: list[dict]) -> tuple[dict[str, float], dict[str, Any]]:
    passes = [p for c in children for p in c["passes"]]
    raw_timed = sum(p["timed_s"] for p in passes)
    timed = sum(scaled_s(p) for p in passes)
    ok_execs = sum(p["attempted"] - p["raised"] - p["check_failed"] for p in passes)
    counts = tally(passes)
    # An op's latency is its mean over the run's passes, so that what the
    # scaling leaves of the host's drift averages out inside the run.
    if children[0]["campaign"]:
        # A campaign is one public call, so its single instances cannot be
        # timed from outside: both latency metrics give the mean per instance.
        p50 = tail_ms = timed / sum(p["attempted"] for p in passes) * 1e3
        tail_note = {"samples": len(passes), "basis": "mean per instance over all passes"}
    else:
        per_op: dict[str, list[float]] = {}
        for p in passes:
            for op, r in p["ops"].items():
                per_op.setdefault(op, []).append(r["s"] * scale(r["ref_s"]) * 1e3)
        samples = [statistics.fmean(v) for v in per_op.values()]
        p50 = statistics.median(samples)
        tail_ms, pct = tail(samples)
        tail_note = {
            "samples": len(samples),
            "percentile": pct,
            "beyond": min(TAIL_BEYOND, len(samples) - 1),
            "basis": "per-op mean over passes",
        }
    metrics = {
        "ops_per_s": ok_execs / timed,
        "op_p50_ms": p50,
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(c["setup_s"] * scale(c["setup_ref_s"]) for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "ok_ratio": (counts["attempted"] - counts["failed"]) / counts["attempted"],
    }
    detail = {
        "children": len(children),
        "passes": len(passes),
        "timed_s": timed,
        "unscaled": {
            "timed_s": raw_timed,
            "ops_per_s": ok_execs / raw_timed,
            "setup_s": statistics.median(c["setup_s"] for c in children),
        },
        "reference_ms": statistics.median(
            r["ref_s"] * 1e3 for p in passes for r in p["ops"].values()
        ),
        "op_tail_ms": tail_note,
        "fail_ratio": counts["failed"] / counts["attempted"],
        **counts,
    }
    return metrics, detail


def per_layer(children: list[dict], names: list[str]) -> tuple[dict[str, float], dict[str, Any]]:
    traced = [c for c in children if c["traced"]]

    # Unscaled: a traced child reads the host's speed only around its pass.
    def wall(c: dict) -> float:
        return c["gen_s"] + c["passes"][0]["timed_s"]

    # run_children appends one plain and one traced child per pair, so the
    # ratio within a pair cancels the host's drift between pairs
    pairs = [children[i : i + 2] for i in range(0, len(children) - 1, 2)]
    ratios = [
        wall(next(c for c in pair if c["traced"])) / wall(next(c for c in pair if not c["traced"]))
        for pair in pairs
    ]
    rows = []
    for c in traced:
        layers = dict(c["layers"])
        p = c["passes"][0]
        layers["harness.skipped_oracle"] = p["skipped_oracle"]
        layers["harness.oracle_miss_ratio"] = layers["harness.oracle_calls"] / p["attempted"]
        layers["trace.layer_sum_frac"] = layers["trace.self_sum_s"] / layers["traced_wall_s"]
        rows.append(layers)
    metrics = {name: statistics.median(r.get(name, 0) for r in rows) for name in names}
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    # wrapper frames deepen the stack: the traced run must fail the same ops
    failed = [failing(c["passes"]) for c in children]
    detail = {
        "pairs": len(traced),
        "spans": statistics.median(r["spans"] for r in rows),
        "same_failures": all(f == failed[0] for f in failed),
    }
    return metrics, detail


def environment(seed: int) -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout is no repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpuinfo = Path("/proc/cpuinfo")
    models = [
        line.split(":", 1)[1].strip()
        for line in (cpuinfo.read_text().splitlines() if cpuinfo.exists() else ())
        if line.startswith("model name")
    ]
    return {
        "python": platform.python_version(),
        "cpu": models[0] if models else platform.processor(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "matchpow_workers_env": os.environ.get("MATCHPOW_WORKERS"),
        "workers": 1,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not (SRC / "__init__.py").is_file():
            raise BenchError(f"no matchpow sources under {SRC.parent}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = environment(args.seed)
        children = run_children(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    e2e, detail = end_to_end(children)
    correct = detail["check_failed"] == 0
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, layer_detail = per_layer(children, names)
        detail["trace"] = layer_detail
        correct = correct and layer_detail["same_failures"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}

    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    for n in names:
        print(f"{n} {values[n]:.6g} {units[n]}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "args": vars(args), "detail": detail, "metrics": metrics}
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
