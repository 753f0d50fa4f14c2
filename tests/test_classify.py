import inspect
import sys
from dataclasses import make_dataclass
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    forest_edge_sets,
    in_star,
    path_graph,
    seven_vertex_example,
    thm34_graph,
    thm34_instances,
)
from matchpow import (
    DistantConfig,
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    classify_last_power,
    edge_ideal,
    has_linear_resolution,
    is_linearly_related,
    is_polymatroidal,
    is_strong_edge,
    matching_number,
    matching_power,
    strong_edge_criterion,
    verify_certificate,
)
from matchpow import betti, classify, exchange
from matchpow.classify import (
    ClassificationCertificate,
    IsolatedEdgeNode,
    NuOneBaseNode,
    RefutedNode,
    StarFactorNode,
    StarSplitNode,
    StrongEdgeNode,
    UnweightedBaseNode,
)
from matchpow.generate import SplitMix64, build_random_forest, forest_classes
from matchpow.harness import _thm34_forest_task
from matchpow.serialize import certificate_from_doc, certificate_to_doc


def double_star(*, reversed_second_leaf: bool, center_weight: int = 2):
    """Leaves 1,2 on centre 3, bridge 3-4, leaves 5,6 on 4."""
    second = (3, 2) if reversed_second_leaf else (2, 3)
    return WeightedOrientedGraph.build(
        6, [(1, 3), second, (3, 4), (4, 5), (4, 6)], {3: center_weight}
    )


# -- pendant strong-edge criterion ----------------------------------------------


def test_criterion_p4():
    P4 = path_graph(4)
    assert strong_edge_criterion(P4, DistantConfig((1,), 2, 3))
    assert is_strong_edge(P4, (1, 2))


def test_criterion_double_star_two_leaves():
    D = double_star(reversed_second_leaf=False)
    assert not strong_edge_criterion(D, DistantConfig((1, 2), 3, 4))


def test_criterion_broom():
    # path 1-2-3 with extra leaves 4,5 on 3: configuration (4,5 | 3, 2)
    G = WeightedOrientedGraph.build(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    assert not strong_edge_criterion(G, DistantConfig((4, 5), 3, 2))


def test_criterion_validates_inputs():
    P4 = path_graph(4)
    with pytest.raises(ValueError):
        strong_edge_criterion(P4, DistantConfig((1,), 3, 4))  # not a configuration
    with pytest.raises(ValueError):
        strong_edge_criterion(path_graph(2), DistantConfig((1,), 2, 1))  # nu < 2


def test_criterion_agrees_with_strong_edge_on_forests():
    rng = SplitMix64(31)
    checked = 0
    while checked < 60:
        D = build_random_forest(rng.randint(4, 8), 1, rng)
        if matching_number(D) < 2:
            continue
        for b in D.vertices:
            if D.degree(b) != 2:
                continue
            u, v = D.adjacency[b]
            for a, c in ((u, v), (v, u)):
                if D.degree(a) != 1:
                    continue
                cfg = DistantConfig((a,), b, c)
                assert strong_edge_criterion(D, cfg) == is_strong_edge(D, (a, b))
                checked += 1


# -- classification fixtures -------------------------------------------------------


def test_seven_vertex_example_classifies_true():
    D = seven_vertex_example()
    cert = classify_last_power(D)
    assert cert.verdict
    # the trace peels two strong pendant edges and ends on an unweighted forest
    assert isinstance(cert.trace, StrongEdgeNode)
    inner = cert.trace.child.trace
    assert isinstance(inner, StrongEdgeNode)
    assert isinstance(inner.child.trace, UnweightedBaseNode)
    assert verify_certificate(D, cert)


def test_double_star_true_case_star_factorization():
    D = double_star(reversed_second_leaf=False)
    cert = classify_last_power(D)
    assert cert.verdict
    assert isinstance(cert.trace, StarFactorNode)
    assert cert.trace.delta == 2
    assert verify_certificate(D, cert)
    # oracle: the four-generator power passes the exchange check
    P = matching_power(edge_ideal(D), 2)
    assert len(P.gens) == 4
    assert is_polymatroidal(P)
    # the claimed factorization x_3^2 * (x1, x2) * I(D - 3)^[1]
    x3sq = Monomial.variable(3, 6, 2)
    leaf_vars = MonomialIdeal.from_monomials(
        6, [Monomial.variable(1, 6), Monomial.variable(2, 6)]
    )
    child = matching_power(edge_ideal(D.delete({3})), 1)
    assert P == (leaf_vars * child).times_monomial(x3sq)


def test_double_star_orientation_mismatch_refuted():
    D = double_star(reversed_second_leaf=True)
    cert = classify_last_power(D)
    assert not cert.verdict
    assert isinstance(cert.trace, RefutedNode)
    assert cert.trace.condition == "pendant_exponent"
    assert cert.trace.locus == (1, 2)
    assert verify_certificate(D, cert)
    P = matching_power(edge_ideal(D), 2)
    assert sorted(g.degree for g in P.gens) == [4, 4, 5, 5]
    assert not is_polymatroidal(P)
    assert not has_linear_resolution(P)
    assert not is_linearly_related(P)


def test_unweighted_forest_base():
    cert = classify_last_power(path_graph(6))
    assert cert.verdict and isinstance(cert.trace, UnweightedBaseNode)


def test_single_matching_bases():
    allin = in_star(3, 2)
    cert = classify_last_power(allin)
    assert cert.verdict and isinstance(cert.trace, NuOneBaseNode)
    # mixed orientations at matching number one: degrees 3 and 2 refute
    mixed = WeightedOrientedGraph.build(
        4, [(1, 2), (2, 3), (2, 4)], {2: 2}
    ).normalize_sources()
    cert = classify_last_power(mixed)
    assert not cert.verdict and isinstance(cert.trace, NuOneBaseNode)
    assert verify_certificate(mixed, cert)


def test_star_rule_agrees_with_the_exchange_oracle_on_every_small_star():
    # K_{1,t} for t <= 6 with its centre mid-label, every orientation, every
    # weighting of the heads in 1..3
    count = 0
    for t in range(1, 7):
        b = 1 + t // 2
        leaves = [a for a in range(1, t + 2) if a != b]
        for mask in range(1 << t):
            edges = [(a, b) if mask >> i & 1 else (b, a) for i, a in enumerate(leaves)]
            heads = sorted({h for _, h in edges})
            for combo in product(range(1, 4), repeat=len(heads)):
                D = WeightedOrientedGraph.build(t + 1, edges, dict(zip(heads, combo)))
                cert = classify_last_power(D)
                if max(combo) > 1:
                    assert isinstance(cert.trace, NuOneBaseNode)
                assert cert.verdict == is_polymatroidal(edge_ideal(D)), D
                count += 1
    assert count == 14_196


def test_classification_calls_no_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("the classifier called an oracle")

    monkeypatch.setattr(exchange, "check_exchange", oracle)
    for name in ("betti_numbers", "has_linear_resolution", "is_linearly_related"):
        monkeypatch.setattr(betti, name, oracle)
    count = 0
    for n in range(2, 5):
        for underlying in forest_edge_sets(n):
            for directed, weights in thm34_instances(n, underlying):
                classify_last_power(thm34_graph(n, directed, weights))
                count += 1
    assert count > 1000
    assert classify_last_power(in_star(2000, 2)).verdict
    # one edge out of the centre into a weight-2 leaf: x_1^2 x_b beside x_a x_b^2
    edges = [(2001, 1), *((a, 2001) for a in range(2, 2001))]
    assert not classify_last_power(
        WeightedOrientedGraph.build(2001, edges, {1: 2, 2001: 2})
    ).verdict


def test_isolated_edge_branch():
    D = WeightedOrientedGraph.build(5, [(1, 2), (3, 4), (4, 5)], {2: 3})
    cert = classify_last_power(D)
    assert cert.verdict
    assert isinstance(cert.trace, IsolatedEdgeNode)
    assert cert.trace.edge == (1, 2)
    assert verify_certificate(D, cert)


def test_split_branch_shared_leaf():
    # two in-stars sharing leaf 3: edges (1,2),(3,2),(3,4),(5,4), heavy centres
    D = WeightedOrientedGraph.build(5, [(1, 2), (3, 2), (3, 4), (5, 4)], {2: 2, 4: 2})
    cert = classify_last_power(D)
    assert cert.verdict
    assert isinstance(cert.trace, StarSplitNode)
    assert verify_certificate(D, cert)
    assert is_polymatroidal(matching_power(edge_ideal(D), 2))


def test_edgeless_and_invalid_inputs():
    empty = WeightedOrientedGraph.build(3, [])
    cert = classify_last_power(empty)
    assert not cert.verdict and cert.trace.condition == "no_edges"
    triangle = WeightedOrientedGraph.build(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError):
        classify_last_power(triangle)
    unnormalized = WeightedOrientedGraph.build(2, [(1, 2)], {1: 2})
    with pytest.raises(ValueError):
        classify_last_power(unnormalized)


# -- certificate replay --------------------------------------------------------------


def test_tampered_certificate_fails():
    D = double_star(reversed_second_leaf=False)
    cert = classify_last_power(D)
    node = cert.trace
    assert isinstance(node, StarFactorNode)
    tampered = ClassificationCertificate(
        cert.verdict, StarFactorNode(node.config, 1, node.child_without_center)
    )
    assert not verify_certificate(D, tampered)


def test_certificate_wrong_graph_fails():
    D = double_star(reversed_second_leaf=False)
    cert = classify_last_power(D)
    other = path_graph(6)
    assert not verify_certificate(other, cert)


def test_flipped_verdict_fails():
    D = path_graph(4)
    cert = classify_last_power(D)
    assert not verify_certificate(D, ClassificationCertificate(False, cert.trace))


def test_replay_of_a_deep_certificate_stays_within_the_recursion_limit():
    # 150 isolated-edge levels under a recursion limit 100 frames above the
    # caller: a replay that recurses once per level cannot finish
    edges = [(2 * i - 1, 2 * i) for i in range(1, 151)]
    D = WeightedOrientedGraph.build(300, edges, {h: 2 for _, h in edges})
    cert = classify_last_power(D)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        replayed = verify_certificate(D, cert)
    finally:
        sys.setrecursionlimit(limit)
    assert replayed


def test_replay_builds_each_subforests_top_power_once(monkeypatch):
    D = path_graph(26, {26: 2})
    cert = classify_last_power(D)
    subforests = cert._tokens().count(ClassificationCertificate)
    calls = []

    def counting(I, k):
        calls.append(k)
        return matching_power(I, k)

    monkeypatch.setattr(classify, "matching_power", counting)
    assert verify_certificate(D, cert)
    assert subforests == 13 and len(calls) <= subforests


@given(st.integers(0, 2000))
@settings(max_examples=120, deadline=None)
def test_certificate_replay_on_random_forests(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 7), 3, rng)
    if not D.underlying_edges:
        return
    cert = classify_last_power(D)
    assert verify_certificate(D, cert)


@given(st.integers(0, 2000))
@settings(max_examples=100, deadline=None)
def test_classifier_matches_oracles_on_random_forests(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 6), 3, rng)
    if matching_number(D) < 1:
        return
    cert = classify_last_power(D)
    P = matching_power(edge_ideal(D), matching_number(D))
    assert cert.verdict == is_polymatroidal(P)
    if len(P.gens) <= 14:
        assert cert.verdict == has_linear_resolution(P)
        assert cert.verdict == is_linearly_related(P)


def test_recursion_depth_matches_matching_number():
    D = seven_vertex_example()
    cert = classify_last_power(D)
    depth = 0
    node = cert.trace
    while not isinstance(node, (UnweightedBaseNode, NuOneBaseNode, RefutedNode)):
        depth += 1
        if isinstance(node, (IsolatedEdgeNode, StrongEdgeNode)):
            node = node.child.trace
        elif isinstance(node, StarFactorNode):
            node = node.child_without_center.trace
        else:
            node = node.child_without_center.trace
    # each peel drops the matching number by one; the base absorbs the rest
    assert depth < matching_number(D)
    assert depth == 2


def test_exhaustive_tiny_forests_match_exchange_oracle():
    # every labelled forest on 4 vertices with an edge, both orientations of
    # each edge and head weights 1-2 (sources keep weight 1)
    count = 0
    for underlying in forest_edge_sets(4):
        if not underlying:
            continue
        for mask in range(1 << len(underlying)):
            directed = [e if mask >> i & 1 == 0 else e[::-1] for i, e in enumerate(underlying)]
            heads = sorted({h for _, h in directed})
            for combo in product((1, 2), repeat=len(heads)):
                D = WeightedOrientedGraph.build(4, directed, dict(zip(heads, combo)))
                cert = classify_last_power(D)
                P = matching_power(edge_ideal(D), matching_number(D))
                assert cert.verdict == is_polymatroidal(P), D
                assert verify_certificate(D, cert)
                count += 1
    assert count == 1000


def test_two_thousand_vertex_path_classifies_and_round_trips():
    # 1000 levels: twice the recursion limit's worth of a recursive classifier
    D = path_graph(2000, {2000: 2})
    cert = classify_last_power(D)
    assert cert.verdict
    back = certificate_from_doc(certificate_to_doc(cert))
    assert back == cert


def test_certificate_equality_walks_deep_trees():
    D = path_graph(2000, {2000: 2})
    a, b = classify_last_power(D), classify_last_power(D)
    assert a is not b and a == b
    doc = certificate_to_doc(a)
    nodes = doc["nodes"]
    bottom = nodes[0]
    while "child" in bottom:
        bottom = nodes[bottom["child"]]
    bottom["polymatroidal"] = False
    assert a != certificate_from_doc(doc)  # differs only at the bottom level
    assert a != ClassificationCertificate(True, UnweightedBaseNode())
    assert a != "not a certificate"


def test_certificate_hash_walks_deep_trees():
    cert = classify_last_power(path_graph(2000, {2000: 2}))
    back = certificate_from_doc(certificate_to_doc(cert))
    assert hash(cert) == hash(back)  # equal certificates hash equal
    assert len({cert, back, ClassificationCertificate(True, UnweightedBaseNode())}) == 2


def test_certificate_repr_walks_deep_trees():
    cert = classify_last_power(path_graph(2000, {2000: 2}))
    text = repr(cert)
    assert text.startswith("ClassificationCertificate(verdict=True, trace=StrongEdgeNode(")
    assert text.count("ClassificationCertificate(") == 1000
    assert text.endswith("trace=NuOneBaseNode(polymatroidal=True)" + ")" * 1999)


def test_certificate_repr_matches_the_generated_one(monkeypatch):
    # a dataclass of the same name and fields has the generated __repr__
    generated = make_dataclass(
        "ClassificationCertificate", [("verdict", bool), ("trace", object)], frozen=True
    ).__repr__
    certs = [
        classify_last_power(seven_vertex_example()),
        classify_last_power(double_star(reversed_second_leaf=True)),
        classify_last_power(
            WeightedOrientedGraph.build(5, [(1, 2), (3, 2), (3, 4), (5, 4)], {2: 2, 4: 2})
        ),
    ]
    rng = SplitMix64(41)
    while len(certs) < 40:
        D = build_random_forest(rng.randint(2, 9), 3, rng)
        if matching_number(D) >= 1:
            certs.append(classify_last_power(D))
    ours = [repr(c) for c in certs]
    for node in (IsolatedEdgeNode, StrongEdgeNode, StarFactorNode, StarSplitNode, RefutedNode):
        assert any(node.__name__ + "(" in text for text in ours)
    monkeypatch.setattr(ClassificationCertificate, "__repr__", generated)
    assert ours == [repr(c) for c in certs]


def test_one_engine_pass_per_level(monkeypatch):
    passes = []

    class Counting(classify._Forest):
        __slots__ = ()

        def __init__(self, n, edges):
            passes.append(edges)
            super().__init__(n, edges)

    monkeypatch.setattr(classify, "_Forest", Counting)
    for D in (path_graph(40, {40: 2}), path_graph(41, {41: 2}), seven_vertex_example()):
        passes.clear()
        classify_last_power(D)
        # levels that ran the engine: each memo entry once, base cases without
        # a matching number excluded
        assert len(passes) == len(set(passes)) > 1


# -- plan and evaluation ---------------------------------------------------------


def test_one_engine_pass_per_reachable_subforest_in_a_thm34_task(monkeypatch):
    passes = []

    class Counting(classify._Forest):
        __slots__ = ()

        def __init__(self, n, edges):
            passes.append(frozenset(map(frozenset, edges)))
            super().__init__(n, edges)

    monkeypatch.setattr(classify, "_Forest", Counting)
    double_star = ((1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
    p6 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    for underlying in (double_star, p6):
        passes.clear()
        agg = _thm34_forest_task((6, underlying, [(underlying, tuple(range(7)))], 3, 0))
        task = list(passes)
        # the same instances one by one, each with a fresh plan
        passes.clear()
        for directed, weights in thm34_instances(6, underlying):
            classify_last_power(thm34_graph(6, directed, weights))
        per_instance = list(passes)
        assert len(task) == len(set(task)) == len(set(per_instance)) > 1
        assert set(task) == set(per_instance)
        assert len(per_instance) > 10 * len(task)
        assert agg["instances"] > 10 * len(task)


def test_a_shared_plan_certifies_as_a_fresh_one():
    count = 0
    for n in range(2, 5):
        for underlying in forest_edge_sets(n):
            plan = classify.ForestPlan(n, underlying)
            for directed, weights in thm34_instances(n, underlying):
                cert = classify.evaluate_plan(plan, directed, weights)
                fresh = classify_last_power(thm34_graph(n, directed, weights))
                assert certificate_to_doc(cert) == certificate_to_doc(fresh)
                count += 1
    assert count > 1000


def test_plan_checks_each_childs_matching_number():
    # the strong pendant edge 12 of P4 leaves the unweighted edge 34 (id 2)
    D = path_graph(4, {2: 2})
    cert = classify_last_power(D)
    assert isinstance(cert.trace.child.trace, UnweightedBaseNode)
    weights = (1, *D.weights)
    forged_parent = classify.ForestPlan(D.n, D.edges)
    forged_parent.root.nu = 3
    forged_child = classify.ForestPlan(D.n, D.edges)
    forged_child.nodes[(2,)] = classify._PlanNode(forged_child, ())  # claims nu 0
    for plan in (forged_parent, forged_child):
        with pytest.raises(AssertionError):
            classify.evaluate_plan(plan, D.edges, weights)
    assert classify.evaluate_plan(classify.ForestPlan(D.n, D.edges), D.edges, weights) == cert


# -- weights on vertices that a deletion left as sources -------------------------

# 3->1, 3->6, 1->2, 1->4, 2->5, 7->5 with w(1) = w(5) = 2: its top power
# x1 x3 x5^2 x6 (x2 x4, x2 x7, x4 x7) is polymatroidal.  Peeling the strong edge
# 36 leaves 1 a source, so its weight no longer counts.
_PEELED = ([(3, 1), (3, 6), (1, 2), (1, 4), (2, 5), (7, 5)], {1: 2, 5: 2})


def test_a_weight_left_on_a_new_source_counts_in_no_labelling():
    edges, weights = _PEELED
    D = WeightedOrientedGraph.build(7, edges, weights)
    assert is_polymatroidal(matching_power(edge_ideal(D), matching_number(D)))
    accepted = 0
    for perm in permutations(range(1, 8)):
        p = (0, *perm)
        E = WeightedOrientedGraph.build(
            7, [(p[t], p[h]) for t, h in edges], {p[v]: w for v, w in weights.items()}
        )
        cert = classify_last_power(E)
        accepted += cert.verdict and verify_certificate(E, cert)
    assert accepted == 5040
    # the refutation that read the stale w(1) = 2 does not replay
    assert D.delete({3, 6}).weight(1) == 1
    stale = ClassificationCertificate(
        False,
        StrongEdgeNode(
            DistantConfig((6,), 3, 1),
            ClassificationCertificate(False, RefutedNode("pendant_exponent", (4,))),
        ),
    )
    assert not verify_certificate(D, stale)


def test_every_seven_vertex_forest_class_agrees_with_the_oracles():
    # each class in its representative labelling, every orientation and
    # weights up to 2
    identity = tuple(range(8))
    total = disagreements = 0
    for rep, _ in forest_classes(7):
        agg = _thm34_forest_task((7, rep, [(rep, identity)], 2, 0))
        total += agg["instances"]
        disagreements += agg["disagreement_count"]
    assert (total, disagreements) == (23_192, 0)
