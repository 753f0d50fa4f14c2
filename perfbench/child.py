"""One measuring process: import matchpow, set a workload up, run its passes
and print one JSON line.  ``run.py`` starts a fresh one for every sample, so
module-global caches never carry over from an earlier pass.

From before the import to the end, a ``speed.Speedometer`` reads the host's
speed every 20 ms; every time printed leaves the readings out and comes with
the mean reading around it, by which ``run.py`` scales it.  Traced children
stop the timer after the import and read the speed only around set-up and
their pass, so that no reading lands in a span."""

import time

from speed import Speedometer

METER = Speedometer()
if __name__ == "__main__":
    METER.start()  # the timer is disarmed on every way out of main()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import matchpow  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TRACED_FUNCTIONS = (
    "classify.classify_last_power",
    "classify.verify_certificate",
    "exchange.is_polymatroidal",
    "betti.is_linearly_related",
    "betti.has_linear_resolution",
    "betti.betti_numbers",
    "powers.matching_power",
)
ORACLE_LAYERS = ("exchange", "betti")
OUT_DIR = ROOT / ".bench_out"


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    t_import = time.perf_counter()
    if args.trace:
        METER.stop()
    if not Path(matchpow.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"matchpow was imported from {matchpow.__file__}, not {ROOT / 'src'}")

    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.discover(), [workloads])

    g0 = time.perf_counter()
    ops = wl.setup(args.seed)
    g1 = time.perf_counter()
    METER.read()
    import_s = t_import - _T0 - METER.over(_T0, t_import)[0]
    gen_s = g1 - g0 - METER.over(g0, g1)[0]
    setup_ref_s = METER.over(_T0, g1)[1]

    passes = []
    spent = 0.0
    while True:
        t = time.perf_counter()
        passes.append(workloads.run_pass(wl, ops, METER))
        spent += time.perf_counter() - t
        if wl.campaign or tracer is not None:
            # a campaign's caches must start cold; traced runs compare one pass
            break
        # another pass only while it would end nearer the budget than this one
        if spent + spent / len(passes) / 2 > args.budget:
            break

    result = {
        "campaign": wl.campaign,
        "import_s": import_s,
        "gen_s": gen_s,
        "setup_s": import_s + gen_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, TRACED_FUNCTIONS, ORACLE_LAYERS)
        layers["traced_wall_s"] = gen_s + passes[0]["timed_s"]
        layers["spans"] = len(tracer.keys)
        result["layers"] = layers
        tracer.write(OUT_DIR / f"spans-{args.workload}")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    finally:
        METER.stop()
