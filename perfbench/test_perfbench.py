"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _module(name: str, source: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


def test_self_time_of_synthetic_nested_spans():
    # end order: grandchild [1.2, 1.5], child [1, 2], sibling [2.5, 3], root [0, 4]
    starts = [1.2, 1.0, 2.5, 0.0]
    ends = [1.5, 2.0, 3.0, 4.0]
    assert tracing.self_times(starts, ends) == pytest.approx([0.3, 0.7, 0.5, 2.5])
    assert list(tracing.parent_indices(starts, ends)) == [1, 3, 3, -1]


def test_tracer_wraps_cross_module_bindings_only():
    inner = _module("fake.inner", "__all__ = ['leaf']\ndef leaf(x):\n    return x + 1\n")
    outer = _module(
        "fake.outer",
        "__all__ = ['top', 'boom']\n"
        "def top(x):\n    return leaf(x) + own(x)\n"
        "def own(x):\n    return leaf(x)\n"
        "def boom():\n    raise KeyError('x')\n",
    )
    outer.leaf = inner.leaf
    bench = types.ModuleType("bench")
    bench.top, bench.boom = outer.top, outer.boom
    t = tracing.Tracer()
    assert t.install({"inner": inner, "outer": outer}, [bench]) == 3
    assert bench.top(1) == 4
    with pytest.raises(KeyError):
        bench.boom()
    m = tracing.layer_metrics(t, ["outer.top"], [])
    assert m["inner.calls"] == 2 and m["outer.calls"] == 2
    assert m["outer.errors"] == 1 and m["inner.errors"] == 0
    assert m["outer.top.calls"] == 1
    parents = tracing.parent_indices(t.starts, t.ends)
    roots = [e - s for s, e, p in zip(t.starts, t.ends, parents) if p < 0]
    assert len(roots) == 2
    assert m["trace.self_sum_s"] == pytest.approx(sum(roots))
    t.uninstall()
    assert bench.top is outer.top and outer.leaf is inner.leaf


def test_tracer_survives_a_public_name_disappearing():
    mod = _module("fake.gone", "__all__ = ['missing', 'here']\ndef here():\n    return 1\n")
    other = types.ModuleType("fake.other")
    other.here = mod.here
    t = tracing.Tracer()
    assert t.install({"gone": mod, "other": other}) == 1


def test_thm34_check_rejects_a_wrong_count():
    wl = workloads.Thm34()
    (op,) = wl.setup(0)
    good = {
        "instances": op.size,
        "low_power_checked": op.size,
        "disagreement_count": 0,
        "low_power_violations": [],
        "constant_degree_violations": [],
    }
    assert wl.check(op, good) == 0
    assert wl.check(op, dict(good, instances=op.size - 1)) == op.size
    assert wl.check(op, dict(good, disagreement_count=3)) == 3


def test_thm11_check_rejects_a_wrong_count():
    wl = workloads.Thm11()
    (op,) = wl.setup(0)
    assert op.size == 33_861
    assert wl.check(op, {"graphs_checked": op.size, "failures": []}) == 0
    assert wl.check(op, {"graphs_checked": op.size + 1, "failures": []}) == op.size


class _Flaky(workloads.Workload):
    name = "flaky"

    def setup(self, seed):
        return [workloads.Op(f"o{i}", i) for i in range(5)]

    def call(self, arg):
        if arg == 2:
            raise RecursionError("too deep")
        return arg * 2

    def check(self, op, out):
        return 0 if out == op.arg * 2 and op.arg != 4 else 1


def test_raising_op_is_counted_not_fatal():
    wl = _Flaky()
    p = workloads.run_pass(wl, wl.setup(0))
    assert p["attempted"] == 5 and p["raised"] == 1 and p["check_failed"] == 1
    assert p["ops"]["o2"]["error"] == "RecursionError"
    for r in p["ops"].values():
        assert "ref_s" not in r  # no reference given: nothing read
        r["ref_s"] = run.REFERENCE_S
    record = {
        "campaign": False,
        "setup_s": 0.1,
        "setup_ref_s": run.REFERENCE_S,
        "peak_rss_mb": 20.0,
        "passes": [p, p],
    }
    metrics, detail = run.end_to_end([record])
    assert (detail["attempted"], detail["failed"]) == (5, 2)
    assert detail["raised_ops"] == ["o2:RecursionError"]
    assert metrics["ok_ratio"] == pytest.approx(0.6)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_times_are_scaled_to_the_reference_speed():
    # a host running at half speed doubles both the op and the readings
    op = {"s": 0.02, "size": 1, "bad": 0, "error": None, "ref_s": 2 * run.REFERENCE_S}
    p = {"timed_s": 0.02, "attempted": 1, "raised": 0, "check_failed": 0, "ops": {"o": op}}
    record = {"campaign": False, "setup_s": 0.4, "setup_ref_s": 2 * run.REFERENCE_S,
              "peak_rss_mb": 20.0, "passes": [p]}
    metrics, detail = run.end_to_end([record])
    assert metrics["op_p50_ms"] == pytest.approx(10.0)
    assert metrics["ops_per_s"] == pytest.approx(100.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert detail["unscaled"]["setup_s"] == pytest.approx(0.4)


def test_readings_are_left_out_of_op_times_and_scale_them():
    meter = speed.Speedometer()
    meter.starts, meter.ends, meter.readings = [0.0, 1.0, 3.0], [0.1, 1.5, 3.2], [1.0, 2.0, 4.0]
    # a stretch with one reading inside: its 0.5 s are busy, and the mean
    # covers the readings before, inside and after it
    assert meter.over(0.5, 2.0) == (pytest.approx(0.5), pytest.approx(7 / 3))
    # a stretch between two readings: nothing busy, mean of the neighbours
    assert meter.over(1.6, 2.9) == (0.0, pytest.approx(3.0))
    # a stretch that starts inside a reading counts only the overlap
    assert meter.over(1.2, 2.0)[0] == pytest.approx(0.3)


def test_pass_with_a_meter_records_a_reading_for_every_op():
    wl = _Flaky()
    meter = speed.Speedometer()
    p = workloads.run_pass(wl, wl.setup(0), meter)
    assert len(meter.readings) == 2  # before the first op and after the last
    assert all(r["ref_s"] == pytest.approx(sum(meter.readings) / 2) for r in p["ops"].values())
    assert p["timed_s"] == pytest.approx(sum(r["s"] for r in p["ops"].values()))


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_certificate_tree_comparison_is_not_recursive():
    D = workloads._path(800, {800: 2})
    cert = workloads.classify_last_power(D)
    back = workloads.certificate_from_doc(workloads.certificate_to_doc(cert))
    assert workloads.same_tree(cert, back)
    assert not workloads.same_tree(cert, workloads.classify_last_power(workloads._path(8, {8: 2})))


def test_names_agree_with_benchmark_json():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}
    layers = set(tracing.discover()) - set(tracing.UNMEASURED_LAYERS)
    derived = {
        "harness.oracle_calls",
        "harness.oracle_miss_ratio",
        "harness.skipped_oracle",
        "trace.overhead_frac",
        "trace.layer_sum_frac",
    }
    for m in SPEC["per_layer"]:
        head, _, suffix = m["name"].rpartition(".")
        assert (
            m["name"] in derived
            or (head in layers and suffix in ("calls", "self_s", "errors"))
            or (head in child.TRACED_FUNCTIONS and suffix in ("calls", "self_s"))
        ), m["name"]
