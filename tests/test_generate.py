from itertools import islice

from conftest import forest_edge_sets, oriented_weighted_isomorphic, seven_vertex_example
from matchpow import (
    WeightedOrientedGraph,
    classify_last_power,
    edge_ideal,
    is_forest,
    is_polymatroidal,
    matching_number,
    matching_power,
)
from matchpow.generate import (
    SplitMix64,
    build_random_forest,
    construct_linear_forests,
    forest_classes,
)


def test_splitmix_is_stable():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    # frozen reference values of the SplitMix64 stream at seed 0
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert SplitMix64(123).randint(1, 6) == SplitMix64(123).randint(1, 6)


def test_random_forest_determinism_and_shape():
    a = build_random_forest(6, 3, SplitMix64(11))
    b = build_random_forest(6, 3, SplitMix64(11))
    assert a == b
    assert is_forest(a)
    assert a.is_normalized()
    assert a.underlying_edges
    assert all(1 <= a.weight(v) <= 3 for v in a.vertices)


def test_weight_bound_one_gives_unweighted():
    D = build_random_forest(5, 1, SplitMix64(7))
    assert all(D.weight(v) == 1 for v in D.vertices)


def test_build_random_forest_exact_size():
    rng = SplitMix64(3)
    D = build_random_forest(12, 2, rng)
    assert D.n == 12 and len(D.vertices) == 12
    assert is_forest(D)


# -- exhaustive enumeration -----------------------------------------------------


def test_enumerate_two_vertices():
    assert forest_edge_sets(2) == [(), ((1, 2),)]


def test_enumerate_counts_forests_only():
    edge_sets = forest_edge_sets(4)
    # the labelled forests on 4 vertices: 1 + 6 + 15 + 16 by edge count
    assert len(edge_sets) == len(set(edge_sets)) == 38
    assert all(is_forest(WeightedOrientedGraph.build(4, edges)) for edges in edge_sets)


def _image(edges, p):
    return tuple(sorted((p[a], p[b]) if p[a] < p[b] else (p[b], p[a]) for a, b in edges))


def test_forest_classes_count_the_forests_with_an_edge():
    # classes and labelled copies on n = 2..7 vertices (the empty forest left out)
    classes = {n: forest_classes(n) for n in range(2, 8)}
    assert [len(classes[n]) for n in range(2, 8)] == [1, 2, 5, 9, 19, 36]
    copies = {n: [e for _, cs in classes[n] for e, _ in cs] for n in classes}
    assert [len(copies[n]) for n in range(2, 8)] == [1, 6, 37, 290, 2_931, 36_960]
    for n, found in classes.items():
        assert len(set(copies[n])) == len(copies[n])  # no copy in two classes
        for rep, cs in found:
            assert cs[0] == (rep, tuple(range(n + 1)))  # the identity comes first
            for edges, p in cs:
                assert sorted(p) == list(range(n + 1)) and p[0] == 0
                assert edges == _image(rep, p)


def test_forest_classes_copy_every_labelled_forest():
    for n in range(2, 7):
        copies = [e for _, cs in forest_classes(n) for e, _ in cs]
        assert set(copies) == set(forest_edge_sets(n)) - {()}


# -- the recursive constructor ----------------------------------------------------


def test_seed_stars_are_polymatroidal():
    for D in construct_linear_forests(1, budget=9):
        assert matching_number(D) == 1
        assert is_polymatroidal(edge_ideal(D))
        assert classify_last_power(D).verdict


def test_constructed_nu2_instances_all_classify_true():
    from matchpow import has_linear_resolution, is_linearly_related

    sample = list(islice(construct_linear_forests(2, budget=150), 150))
    assert sample
    for D in sample:
        assert matching_number(D) == 2
        cert = classify_last_power(D)
        assert cert.verdict
        P = matching_power(edge_ideal(D), 2)
        assert is_polymatroidal(P)
        if len(P.gens) <= 14:
            assert has_linear_resolution(P)
            assert is_linearly_related(P)


def test_constructed_stream_realizes_three_families():
    sample = list(islice(construct_linear_forests(2, budget=400), 400))
    two_components = False
    joined_centers = {True: False, False: False}
    shared_leaf = False
    for D in sample:
        comps = _component_count(D)
        heavy = [v for v in D.vertices if D.weight(v) > 1]
        if comps == 2 and not _bridge_vertices(D):
            two_components = True
        bridge = _center_bridge(D)
        if bridge is not None:
            joined_centers[bridge] = True
        if _has_shared_leaf(D):
            shared_leaf = True
    assert two_components
    assert joined_centers[True] and joined_centers[False]  # both orientations
    assert shared_leaf


def _component_count(D):
    seen = set()
    comps = 0
    for v in D.vertices:
        if v in seen or D.degree(v) == 0:
            continue
        comps += 1
        stack = [v]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(D.adjacency[x])
    return comps


def _bridge_vertices(D):
    """Vertices of degree >= 2 adjacent to another vertex of degree >= 2."""
    return [
        (a, b)
        for a, b in D.underlying_edges
        if D.degree(a) >= 2 and D.degree(b) >= 2
    ]


def _center_bridge(D):
    """For a two-star graph joined at centres, the orientation flag of the
    bridge (True if oriented towards the lower centre), else None."""
    bridges = _bridge_vertices(D)
    if len(bridges) != 1:
        return None
    a, b = bridges[0]
    if any(D.degree(v) >= 2 and v not in (a, b) for v in D.vertices):
        return None
    return (b, a) in D.edges


def _has_shared_leaf(D):
    centers = [v for v in D.vertices if D.degree(v) >= 2]
    for v in D.vertices:
        if D.degree(v) == 2:
            u, w = D.adjacency[v]
            if D.degree(u) >= 2 and D.degree(w) >= 2 and not D.has_edge(u, w):
                return True
    return False


def test_constructed_nu3_includes_the_seven_vertex_example():
    target = seven_vertex_example()
    for D in construct_linear_forests(3, budget=12000):
        if oriented_weighted_isomorphic(D, target):
            break
    else:
        raise AssertionError("seven-vertex example not found in the stream")


def test_constructor_budget_respected():
    assert len(list(construct_linear_forests(2, budget=10))) == 10
