import json
from itertools import combinations
from math import factorial

import pytest

from conftest import (
    forest_edge_sets,
    in_star,
    seven_vertex_example,
    thm34_graph,
    thm34_instances,
)
from matchpow import (
    GeneratorCapError,
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    classify_last_power,
    cross_validate,
    has_linear_resolution,
    is_linearly_related,
    is_polymatroidal,
    matching_number,
    matching_power_from_matchings,
)
from matchpow import classify, harness
from matchpow.graphs import _disjoint_sets
from matchpow.serialize import graph_from_doc
from matchpow.harness import (
    _CANON_LIMIT,
    _canonical_key,
    _constant_degree_ok,
    _linearly_related,
    _oracles,
    _thm34_forest_task,
    _max_matching_supports,
    _support_ideal,
    verify_lemma22,
    verify_lemma31,
    verify_thm11_exhaustive,
    verify_thm11_random,
    verify_thm34_exhaustive,
    verify_thm34_random,
    worker_count,
)


def test_worker_count_resolution(monkeypatch):
    assert worker_count(3) == 3
    monkeypatch.setenv("MATCHPOW_WORKERS", "5")
    assert worker_count() == 5
    monkeypatch.delenv("MATCHPOW_WORKERS")
    assert worker_count() >= 1


def test_canonical_key_is_relabelling_invariant():
    gens = ((2, 0, 1, 0), (2, 1, 0, 0), (0, 1, 1, 1))
    swapped = tuple(sorted((g[1], g[0], g[3], g[2]) for g in gens))
    assert _canonical_key(gens) == _canonical_key(swapped)
    # projection drops unused columns
    padded = tuple(sorted(g + (0, 0) for g in gens))
    assert _canonical_key(gens) == _canonical_key(padded)


def _direct(I):
    """The three oracles run on the ideal itself, with no memo."""
    return is_linearly_related(I), is_polymatroidal(I), has_linear_resolution(I)


def _exponents(I):
    return tuple(sorted(g.exponents for g in I.gens))


def test_memo_matches_the_oracles_on_every_thm34_power_up_to_four_vertices(monkeypatch):
    monkeypatch.setattr(harness, "_verdicts", {})
    monkeypatch.setattr(harness, "_related", {})
    instances = powers = 0
    for n in range(2, 5):
        for underlying in forest_edge_sets(n):
            for directed, weights in thm34_instances(n, underlying):
                D = thm34_graph(n, directed, weights)
                nu = matching_number(D)
                if nu < 2:
                    break
                instances += 1
                for k in range(1, nu + 1):
                    I = matching_power_from_matchings(D, k)
                    want = _direct(I)
                    assert _oracles(_exponents(I)) == want
                    # relabelling the variables (here: reversing them) keeps the triple
                    reversed_gens = tuple(sorted(g.exponents[::-1] for g in I.gens))
                    assert _oracles(reversed_gens) == want
                    for gens in (reversed_gens, _exponents(I)):
                        assert _linearly_related(gens) == want[0]
                    powers += 1
    assert (instances, powers) == (1728, 3456)


def test_memo_falls_back_to_the_identity_order_beyond_the_limit():
    # seven columns with one exponent multiset: 7! orders, over the limit
    assert factorial(7) > _CANON_LIMIT
    gens = tuple(sorted(tuple(int(i in c) for i in range(7)) for c in combinations(range(7), 2)))
    veronese = MonomialIdeal(7, tuple(Monomial(g) for g in gens))
    assert _canonical_key(gens) == gens
    with pytest.raises(GeneratorCapError):
        has_linear_resolution(veronese)  # 21 generators: over the Betti cap
    assert _oracles(gens) == (True, True, None)
    # a relabelled 7-cycle keeps its own key beyond the limit, and its verdicts
    cycle = tuple(sorted(tuple(int(i in (j, (j + 1) % 7)) for i in range(7)) for j in range(7)))
    swapped = tuple(sorted((g[2], g[1], g[0], *g[3:]) for g in cycle))
    assert _canonical_key(swapped) != _canonical_key(cycle)
    want = _direct(MonomialIdeal(7, tuple(Monomial(g) for g in cycle)))
    assert _oracles(cycle) == _oracles(swapped) == want


def test_max_matching_supports_p4():
    # the supports come as a bitset over vertex masks: bit m for the mask m
    nu, supports = _max_matching_supports(4, [(1, 2), (2, 3), (3, 4)])
    assert nu == 2
    assert supports == 1 << 0b1111
    nu, supports = _max_matching_supports(3, [(1, 2), (2, 3)])
    assert nu == 1
    assert supports == 1 << 0b011 | 1 << 0b110
    assert _max_matching_supports(3, []) == (0, 0)


def test_max_matching_supports_match_brute_force_up_to_five_vertices():
    count = 0
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            matchings = list(_disjoint_sets(edges))
            nu = max(len(mt) for mt in matchings)
            supports = 0
            for mt in matchings:
                if len(mt) == nu:
                    vertex_mask = sum(1 << v - 1 for i in mt for v in edges[i])
                    supports |= 1 << vertex_mask
            assert _max_matching_supports(n, edges) == (nu, supports), (n, edges)
            count += 1
    assert count == 1 + 7 + 63 + 1023


def test_thm11_verdict_cache_loses_no_failure(monkeypatch):
    # refute every support set of exactly two masks: each graph with such a
    # set is a failure, also where the cached verdict answers for it
    monkeypatch.setattr(harness, "is_polymatroidal", lambda I: len(I.gens) != 2)
    want = []
    failing_sets = set()
    for n in range(2, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            supports = _max_matching_supports(n, edges)[1]
            if not harness.is_polymatroidal(_support_ideal(n, supports)):
                want.append({"n": n, "edges": edges})
                failing_sets.add((n, supports))
    assert len(want) > len(failing_sets) > 1
    for workers in (1, 2):
        assert verify_thm11_exhaustive(max_n=5, workers=workers)["failures"] == want


def test_cross_validate_seven_vertex_example():
    report = cross_validate(seven_vertex_example(), instance_info={"index": 0})
    assert report.agreement
    assert report.verdicts == {
        "polymatroidal": True,
        "linearly_related": True,
        "linear_resolution": True,
        "classifier": True,
    }
    assert not report.skipped
    doc = report.to_doc()
    assert doc["instance"]["matching_number"] == 3


def test_cross_validate_negative_instance():
    D = WeightedOrientedGraph.build(6, [(1, 3), (3, 2), (3, 4), (4, 5), (4, 6)], {3: 2})
    report = cross_validate(D)
    assert report.agreement
    assert set(report.verdicts.values()) == {False}


def test_cross_validate_respects_caps():
    # 15 generators: over the Betti cap of 14; 15 * 14 exchange pairs run
    report = cross_validate(in_star(15, 2))
    assert report.skipped == ("linear_resolution",)
    assert report.verdicts == {
        "polymatroidal": True,
        "linearly_related": True,
        "linear_resolution": None,
        "classifier": True,
    }
    # 65 * 64 = 4160 exchange pairs: over the cap of 4000 as well
    report = cross_validate(in_star(65, 2))
    assert report.skipped == ("polymatroidal", "linear_resolution")
    assert report.verdicts["linearly_related"] is True
    assert report.verdicts["classifier"] is True
    assert report.agreement  # linear relations and the classifier remain


def test_thm11_exhaustive_small():
    summary = verify_thm11_exhaustive(max_n=4, workers=1)
    assert summary["graphs_checked"] == 1 + 7 + 63
    assert summary["failures"] == []
    assert summary["exchange_checks"] == 35  # one per distinct support set and n


def test_thm11_exhaustive_workers_merge_deterministically():
    one = verify_thm11_exhaustive(max_n=4, workers=1)
    two = verify_thm11_exhaustive(max_n=4, workers=2)
    assert one["graphs_checked"] == two["graphs_checked"]
    assert one["failures"] == two["failures"]
    assert one["exchange_checks"] == two["exchange_checks"]


def test_thm11_random_small():
    summary = verify_thm11_random(trials=25, max_n=6, seed=42)
    assert summary["failures"] == []
    assert len(summary["reports"]) == 25
    again = verify_thm11_random(trials=25, max_n=6, seed=42)
    assert summary["reports"] == again["reports"]


def test_thm34_exhaustive_tiny():
    summary = verify_thm34_exhaustive(max_n=4, max_weight=2, workers=1)
    assert summary["instances"] > 0
    assert summary["disagreement_count"] == 0
    assert summary["low_power_violations"] == []
    assert summary["constant_degree_violations"] == []
    assert summary["skipped_oracle"] == 0


_COUNTS = ("instances", "disagreement_count", "skipped_oracle", "low_power_checked",
           "constant_degree_checked", "pattern_splits")
_DUMPS = ("disagreements", "low_power_violations", "constant_degree_violations")


def _pattern(directed, weights):
    """The edge ideal's pattern: per edge, the endpoint with exponent above 1, or 0."""
    return tuple(h if weights[h] != 1 else 0 for _, h in directed)


def _labelled_thm34_summary(max_n, max_weight):
    """The thm34 counts and dump sizes taken instance by instance over every
    labelled forest, each power built from its matchings and classified afresh.

    Also asserts that the classifier's verdict is constant on each labelled
    forest and edge-ideal pattern, the premise of the campaign's one
    classifier run per pattern, and counts the patterns whose oracle verdicts
    are not."""
    out = dict.fromkeys(_COUNTS + _DUMPS, 0)
    for n in range(2, max_n + 1):
        for underlying in forest_edge_sets(n):
            if not underlying:
                continue
            nu = matching_number(WeightedOrientedGraph.build(n, underlying))
            if nu < 2:
                continue
            by_pattern = {}
            for directed, weights in thm34_instances(n, underlying, max_weight):
                D = thm34_graph(n, directed, weights)
                powers = [_exponents(matching_power_from_matchings(D, k)) for k in range(1, nu + 1)]
                oracles = _oracles(powers[-1])
                verdict = classify_last_power(D).verdict
                pattern = _pattern(directed, weights)
                seen, triples = by_pattern.setdefault(pattern, (verdict, set()))
                assert seen == verdict, (D, pattern)
                triples.add(oracles)
                known = {v for v in oracles if v is not None} | {verdict}
                out["instances"] += 1
                out["disagreement_count"] += len(known) > 1
                out["disagreements"] += len(known) > 1
                out["skipped_oracle"] += None in oracles
                out["low_power_checked"] += nu - 1
                for k, gens in enumerate(powers, 1):
                    related = _oracles(gens)[0]
                    if k < nu:
                        out["low_power_violations"] += related
                    if related:
                        out["constant_degree_checked"] += 1
                        out["constant_degree_violations"] += not _constant_degree_ok(gens)
            out["pattern_splits"] += sum(len(triples) > 1 for _, triples in by_pattern.values())
    for key in _DUMPS:
        out[key] = min(out[key], harness._DUMP_LIMIT)
    return out


def test_thm34_classes_reproduce_the_labelled_summary():
    summary = verify_thm34_exhaustive(max_n=5, max_weight=3, workers=1)
    got = {key: summary[key] for key in _COUNTS} | {key: len(summary[key]) for key in _DUMPS}
    assert got == _labelled_thm34_summary(5, 3)
    assert (summary["instances"], summary["low_power_checked"]) == (93_528, 93_528)
    assert summary["constant_degree_checked"] == 18_648
    assert summary["forest_classes"] == 7  # P4, 2K2; P5, the chair, P4+K1, P3+K2, 2K2+K1


def test_thm34_classifies_every_labelled_instance_with_its_own_plan(monkeypatch):
    plans, evaluations = [], []

    def plan(n, edges):
        plans.append((n, edges))
        return classify.ForestPlan(n, edges)

    def evaluate(*args):
        evaluations.append(args[0])
        return classify.evaluate_plan(*args)

    monkeypatch.setattr(harness, "ForestPlan", plan)
    monkeypatch.setattr(harness, "evaluate_plan", evaluate)
    verify_thm34_exhaustive(max_n=5, max_weight=3, workers=1)
    # one evaluation per labelled forest and edge-ideal pattern (93,528 instances)
    assert len(evaluations) == 11_664
    # one plan per labelled forest with matching number >= 2, never shared
    assert len(set(plans)) == len(plans)
    assert [sum(n == k for n, _ in plans) for k in (4, 5)] == [15, 225]
    assert len(plans) == 15 + 225


def test_thm34_disagreements_are_counted_and_dumped_per_labelled_instance(monkeypatch):
    target = ((1, 2), (1, 3), (3, 4), (3, 5))  # one labelled copy of the chair

    def flipped(plan, directed, weights):
        cert = classify.evaluate_plan(plan, directed, weights)
        if plan.edges == target:
            return classify.ClassificationCertificate(not cert.verdict, cert.trace)
        return cert

    monkeypatch.setattr(harness, "evaluate_plan", flipped)
    summary = verify_thm34_exhaustive(max_n=5, max_weight=3, workers=1)
    instances = {(tuple(sorted(d)), tuple(w)) for d, w in thm34_instances(5, target)}
    patterns = {_pattern(d, w) for d, w in thm34_instances(5, target)}
    assert len(instances) > len(patterns) > harness._DUMP_LIMIT
    assert summary["disagreement_count"] == len(instances)
    dumps = summary["disagreements"]
    assert len(dumps) == harness._DUMP_LIMIT
    assert len({json.dumps(doc, sort_keys=True) for doc in dumps}) == len(dumps)
    for doc in dumps:
        D = graph_from_doc(doc["graph"])
        assert (D.edges, (1, *D.weights)) in instances
        verdicts = doc["verdicts"]
        want = _direct(matching_power_from_matchings(D, 2))
        assert (
            verdicts["linearly_related"],
            verdicts["polymatroidal"],
            verdicts["linear_resolution"],
        ) == want
        assert verdicts["classifier"] == (not classify_last_power(D).verdict)


def test_thm34_counts_and_dumps_the_patterns_whose_oracles_split(monkeypatch):
    # oracles that read a weight's value: a top power with an exponent 3 is refuted
    def oracles(gens):
        return (False,) * 3 if any(3 in g for g in gens) else _oracles(gens)

    monkeypatch.setattr(harness, "_oracles", oracles)
    summary = verify_thm34_exhaustive(max_n=4, max_weight=3, workers=1)
    splits = disagreements = 0
    for underlying in forest_edge_sets(4):
        if not underlying or matching_number(WeightedOrientedGraph.build(4, underlying)) < 2:
            continue
        by_pattern = {}
        for directed, weights in thm34_instances(4, underlying):
            D = thm34_graph(4, directed, weights)
            triple = oracles(_exponents(matching_power_from_matchings(D, 2)))
            by_pattern.setdefault(_pattern(directed, weights), set()).add(triple)
            disagreements += len(set(triple) | {classify_last_power(D).verdict}) > 1
        splits += sum(len(triples) > 1 for triples in by_pattern.values())
    assert summary["pattern_splits"] == splits > 0
    assert summary["disagreement_count"] == disagreements > harness._DUMP_LIMIT
    # the rows of a split pattern that agree with its classifier verdict are not dumped
    for doc in summary["disagreements"]:
        assert len(set(doc["verdicts"].values())) > 1


def test_thm34_exhaustive_summary_does_not_depend_on_the_worker_count():
    one = verify_thm34_exhaustive(max_n=5, max_weight=2, workers=1)
    two = verify_thm34_exhaustive(max_n=5, max_weight=2, workers=2)
    del one["elapsed_s"], two["elapsed_s"]
    assert one == two


def test_thm34_random_small():
    summary = verify_thm34_random(trials=30, seed=5, max_n=6, max_weight=3)
    assert summary["disagreements"] == []
    assert len(summary["reports"]) == 30
    # JSON documents, like every other campaign's reports
    assert json.loads(json.dumps(summary["reports"])) == summary["reports"]
    assert {tuple(r) for r in summary["reports"]} == {
        ("instance", "verdicts", "agreement", "skipped")
    }


def test_lemma22_small():
    summary = verify_lemma22(pairs=8, seed=7)
    assert summary["failures"] == []
    assert len(summary["reports"]) == 8
    # at least one drawn pair should exercise a nontrivial table
    assert any(r["k"] >= 1 for r in summary["reports"])


def test_lemma31_scan():
    summary = verify_lemma31(max_n=5)
    assert summary["mismatches"] == []
    assert summary["configurations_checked"] == 384


def test_thm34_instances_draws_what_the_campaign_draws():
    # tests compare against the conftest stream as if it were the campaign's
    total = 0
    for n in range(2, 6):
        for underlying in forest_edge_sets(n):
            D = WeightedOrientedGraph.build(n, underlying)
            count = 0
            if matching_number(D) >= 2:
                count = sum(1 for _ in thm34_instances(n, underlying))
            if n <= 4:
                task = (n, underlying, [(underlying, tuple(range(n + 1)))], 3)
                assert count == _thm34_forest_task(task)["instances"], underlying
            total += count
    assert total == 93_528


def test_thm34_task_rejects_a_cycle():
    with pytest.raises(ValueError, match="forest"):
        cycle = ((1, 2), (1, 4), (2, 3), (3, 4))
        _thm34_forest_task((4, cycle, [(cycle, (0, 1, 2, 3, 4))], 3))
