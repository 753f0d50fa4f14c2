"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive campaigns
parallelise over MATCHPOW_WORKERS processes (default: all cores); every
criterion is asserted at its stated tolerance.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import seven_vertex_example, path_graph
from matchpow import (
    FIELD_RATIONALS,
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    betti_numbers,
    classify_last_power,
    cross_validate,
    edge_ideal,
    has_linear_resolution,
    matching_power,
    verify_certificate,
)
from matchpow.classify import RefutedNode
from matchpow.generate import SplitMix64, build_random_forest
from matchpow.harness import (
    verify_lemma22,
    verify_lemma31,
    verify_thm11_exhaustive,
    verify_thm11_random,
    verify_thm34_exhaustive,
    worker_count,
)
from matchpow.serialize import certificate_to_doc

_SUITE_START = time.perf_counter()
_WORKERS = worker_count()
_DUMP_FILE = Path(__file__).parent / "disagreement_dump.json"


def _report(num: str, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert ok, line


def _dump(docs) -> None:
    _DUMP_FILE.write_text(json.dumps(docs, indent=2, default=str))
    print(f"replayable instances dumped to {_DUMP_FILE}")


@pytest.fixture(scope="module")
def thm34_summary():
    return verify_thm34_exhaustive(max_n=6, max_weight=3, workers=_WORKERS)


def test_criterion_1_exchange_property_exhaustive_n7():
    summary = verify_thm11_exhaustive(max_n=7, workers=_WORKERS)
    expected = sum((1 << (n * (n - 1) // 2)) - 1 for n in range(2, 8))
    ok = summary["failures"] == [] and summary["graphs_checked"] == expected
    if summary["failures"]:
        _dump(summary["failures"])
    _report(
        "1",
        "last power exchange property on all labelled graphs, n <= 7",
        ok,
        f"{summary['graphs_checked']} graphs, {summary['elapsed_s']}s",
    )


def test_criterion_2_exchange_property_randomized():
    summary = verify_thm11_random(trials=500, max_n=9, seed=42)
    ok = summary["failures"] == [] and len(summary["reports"]) == 500
    ok = ok and summary["elapsed_s"] < 300
    if summary["failures"]:
        _dump(summary["failures"])
    _report(
        "2",
        "last power exchange property on 500 seeded random graphs, n <= 9",
        ok,
        f"{summary['elapsed_s']}s",
    )


# corpus sizes recomputed by an independent counting pass (forest edge subsets,
# orientations, head-weight assignments minus the all-ones one, nu >= 2)
_CORPUS_INSTANCES = 4_813_968
_CORPUS_LOW_POWERS = 7_201_728


def test_criterion_3_forest_equivalence_exhaustive(thm34_summary):
    s = thm34_summary
    skipped_fraction = s["skipped_oracle"] / max(s["instances"], 1)
    ok = (
        s["disagreement_count"] == 0
        and s["instances"] == _CORPUS_INSTANCES
        and skipped_fraction < 0.01
    )
    if s["disagreements"]:
        _dump(s["disagreements"])
    _report(
        "3",
        "four-way verdict agreement on all weighted oriented forests, n <= 6, w <= 3",
        ok,
        f"{s['instances']} instances, {s['skipped_oracle']} oracle-skipped "
        f"(skips keep the exchange+classifier comparison), {s['elapsed_s']}s",
    )


def test_criterion_4_low_powers_never_linearly_related(thm34_summary):
    s = thm34_summary
    ok = s["low_power_checked"] == _CORPUS_LOW_POWERS and s["low_power_violations"] == []
    if s["low_power_violations"]:
        _dump(s["low_power_violations"])
    _report(
        "4",
        "no matching power below the top one is linearly related",
        ok,
        f"{s['low_power_checked']} powers checked",
    )


def test_criterion_5_constant_exponent_on_linearly_related(thm34_summary):
    s = thm34_summary
    ok = s["constant_degree_checked"] > 0 and s["constant_degree_violations"] == []
    if s["constant_degree_violations"]:
        _dump(s["constant_degree_violations"])
    _report(
        "5",
        "exponents above 1 are constant across generators of linearly related powers",
        ok,
        f"{s['constant_degree_checked']} powers checked",
    )


def test_criterion_6_induced_subgraph_betti_monotonicity():
    summary = verify_lemma22(pairs=50, seed=7)
    ok = summary["failures"] == [] and len(summary["reports"]) == 50
    if summary["failures"]:
        _dump(summary["failures"])
    _report(
        "6",
        "entrywise Betti and regularity monotonicity on 50 induced-subgraph pairs",
        ok,
        f"{summary['elapsed_s']}s",
    )


def test_criterion_7_pendant_strong_edge_criterion():
    summary = verify_lemma31(max_n=6)
    ok = summary["mismatches"] == [] and summary["configurations_checked"] > 0
    if summary["mismatches"]:
        _dump(summary["mismatches"])
    _report(
        "7",
        "matching-based pendant criterion agrees with the strong-edge test",
        ok,
        f"{summary['configurations_checked']} configurations",
    )


def test_criterion_8i_weighted_star_fixture():
    D = WeightedOrientedGraph.build(4, [(1, 4), (2, 4), (3, 4)], {4: 2})
    cert = classify_last_power(D)
    expected = MonomialIdeal.from_monomials(
        4,
        [
            Monomial((1, 0, 0, 2)),
            Monomial((0, 1, 0, 2)),
            Monomial((0, 0, 1, 2)),
        ],
    )
    ok = cert.verdict and edge_ideal(D) == expected
    _report("8i", "weighted in-star: classify true and the ideal factors", ok)


def test_criterion_8ii_seven_vertex_fixture():
    D = seven_vertex_example()
    cert = classify_last_power(D)
    P = matching_power(edge_ideal(D), 3)
    expected = MonomialIdeal.from_monomials(
        7,
        [Monomial((2, 2, 1, 1, 1, 1, 0)), Monomial((2, 2, 1, 1, 1, 0, 1))],
    )
    table = betti_numbers(P)
    table_q = betti_numbers(P, FIELD_RATIONALS)
    # the two generators have total degree 8; the single first syzygy sits at
    # the lcm multidegree of total degree 9, so the resolution is linear
    ok = (
        P == expected
        and cert.verdict
        and verify_certificate(D, cert)
        and table.totalized() == {(0, 8): 2, (1, 9): 1}
        and table.entries[(1, (2, 2, 1, 1, 1, 1, 1))] == 1
        and table_q.entries == table.entries
        and has_linear_resolution(P)
        and has_linear_resolution(P, field=FIELD_RATIONALS)
    )
    _report(
        "8ii",
        "seven-vertex fixture: power, certificate, Betti table, linear resolution",
        ok,
        f"betti={table.totalized()}",
    )


def test_criterion_8iii_three_small_families():
    # two disjoint in-stars
    family_a = WeightedOrientedGraph.build(4, [(1, 2), (3, 4)], {2: 2, 4: 3})
    # in-stars joined at the centres; the bridge orientation is free
    family_b = [
        WeightedOrientedGraph.build(4, [(1, 2), (2, 3), (4, 3)], {2: 2, 3: 2}),
        WeightedOrientedGraph.build(4, [(1, 2), (3, 2), (4, 3)], {2: 2, 3: 2}),
    ]
    # in-stars sharing one leaf
    family_c = WeightedOrientedGraph.build(
        5, [(1, 2), (3, 2), (3, 4), (5, 4)], {2: 2, 4: 2}
    )
    ok = True
    for D in [family_a, *family_b, family_c]:
        cert = classify_last_power(D)
        report = cross_validate(D)
        ok = ok and cert.verdict and report.agreement and verify_certificate(D, cert)
    _report(
        "8iii",
        "the three two-matching families classify true (both bridge orientations)",
        ok,
    )


def test_criterion_9_orientation_mismatch_fixture():
    D = WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2})
    cert1 = classify_last_power(D)
    cert2 = classify_last_power(D)
    P = matching_power(edge_ideal(D), 2)
    report = cross_validate(D)
    ok = (
        not cert1.verdict
        and cert1 == cert2  # deterministic
        and isinstance(cert1.trace, RefutedNode)
        and cert1.trace.condition == "pendant_exponent"
        and P.is_equigenerated() is None
        and set(report.verdicts.values()) == {False}
        and report.agreement
    )
    _report(
        "9",
        "mixed pendant orientations refute with a pendant-exponent witness",
        ok,
        f"trace={certificate_to_doc(cert1)['trace']['condition']}",
    )


def test_criterion_10a_classify_forty_vertices_under_a_second():
    rng = SplitMix64(424242)
    D = build_random_forest(40, 5, rng)
    start = time.perf_counter()
    classify_last_power(D)
    elapsed = time.perf_counter() - start
    _report("10a", "classification of a 40-vertex forest", elapsed < 1.0, f"{elapsed:.4f}s")


def test_criterion_10b_betti_small_input_under_ten_ms():
    I = edge_ideal(path_graph(4))
    best = min(
        _timed(lambda: betti_numbers(I)) for _ in range(5)
    )
    _report("10b", "Betti table of a path edge ideal", best < 0.010, f"{best * 1000:.2f}ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_10c_suite_wall_clock():
    elapsed = time.perf_counter() - _SUITE_START
    _report(
        "10c",
        "acceptance suite wall clock under 30 minutes",
        elapsed < 1800,
        f"{elapsed:.0f}s with {_WORKERS} worker(s)",
    )
