import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forest_edge_sets, in_star, seven_vertex_example, path_graph
from matchpow import (
    DistantConfig,
    IsolatedEdge,
    Matching,
    NO_EDGES,
    WeightedOrientedGraph,
    enumerate_matchings,
    find_distant_configuration,
    is_forest,
    is_strong_edge,
    matching_number,
    maximum_matchings,
)
from matchpow.generate import (
    SplitMix64,
    build_random_forest,
    random_simple_graph,
)
from matchpow.graphs import _Forest, _blossom_nu, _disjoint_sets
from matchpow.harness import _max_matching_supports


def test_build_validation():
    with pytest.raises(ValueError):
        WeightedOrientedGraph.build(3, [(1, 1)])
    with pytest.raises(ValueError):
        WeightedOrientedGraph.build(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        WeightedOrientedGraph.build(3, [(1, 4)])
    with pytest.raises(ValueError):
        WeightedOrientedGraph.build(3, [(1, 2)], {2: 0})


def test_normalize_sources_examples():
    D = WeightedOrientedGraph.build(3, [(1, 3), (2, 3)], {1: 5, 3: 2})
    N = D.normalize_sources()
    assert N.weight(1) == 1 and N.weight(2) == 1 and N.weight(3) == 2
    assert N.normalize_sources() == N  # idempotent
    E = WeightedOrientedGraph.build(2, [(1, 2)], {1: 3, 2: 4}).normalize_sources()
    assert E.weight(1) == 1 and E.weight(2) == 4


def test_is_forest():
    assert is_forest(path_graph(4))
    triangle = WeightedOrientedGraph.build(3, [(1, 2), (2, 3), (1, 3)])
    assert not is_forest(triangle)
    two_plus_isolated = WeightedOrientedGraph.build(5, [(1, 2), (3, 4)])
    assert is_forest(two_plus_isolated)


def _brute_matchings(D, k):
    """Oracle: scan all k-subsets of the underlying edge set for disjointness."""
    out = []
    for sub in combinations(D.underlying_edges, k):
        verts = [v for e in sub for v in e]
        if len(set(verts)) == 2 * k:
            out.append(Matching(tuple(sorted(sub))))
    return sorted(out, key=lambda m: m.edges)


def test_enumerate_matchings_p5():
    P5 = path_graph(5)
    got = sorted(enumerate_matchings(P5, 2), key=lambda m: m.edges)
    assert got == _brute_matchings(P5, 2)
    assert {m.edges for m in got} == {
        ((1, 2), (3, 4)),
        ((1, 2), (4, 5)),
        ((2, 3), (4, 5)),
    }


def test_enumerate_matchings_p4_and_empty():
    P4 = path_graph(4)
    assert {m.edges for m in enumerate_matchings(P4, 2)} == {((1, 2), (3, 4))}
    assert enumerate_matchings(P4, 0) == [Matching(())]
    with pytest.raises(ValueError):
        enumerate_matchings(P4, -1)


@given(st.integers(0, 200), st.integers(0, 3))
@settings(max_examples=60)
def test_enumerate_matchings_matches_bruteforce(seed, k):
    rng = SplitMix64(seed)
    G = random_simple_graph(rng.randint(2, 7), 0.4, rng)
    got = sorted(enumerate_matchings(G, k), key=lambda m: m.edges)
    assert got == _brute_matchings(G, k)


def test_matching_number_examples():
    P5 = path_graph(5)
    # the stated oracle: 2-matchings exist, 3-matchings do not
    assert enumerate_matchings(P5, 2) and not enumerate_matchings(P5, 3)
    assert matching_number(P5) == 2
    assert matching_number(in_star(4)) == 1
    assert matching_number(WeightedOrientedGraph.build(4, [(1, 2), (3, 4)])) == 2
    assert matching_number(WeightedOrientedGraph.build(3, [])) == 0


@pytest.mark.parametrize("seed", range(20))
def test_disjoint_sets_are_every_disjoint_subset_in_lexicographic_order(seed):
    rng = SplitMix64(seed)
    supports = [
        {v for v in range(7) if rng.randrange(3) == 0} for _ in range(rng.randint(0, 9))
    ]
    every = [
        combo
        for r in range(len(supports) + 1)
        for combo in combinations(range(len(supports)), r)
        if all(supports[i].isdisjoint(supports[j]) for i, j in combinations(combo, 2))
    ]
    # tuples sort lexicographically with every prefix before its extensions
    assert list(_disjoint_sets(supports)) == sorted(every)
    for size in range(len(supports) + 2):
        assert list(_disjoint_sets(supports, size)) == [c for c in every if len(c) == size]


def test_forest_fast_path_agrees_with_search_on_500_random_forests():
    rng = SplitMix64(2024)
    for _ in range(500):
        n = rng.randint(2, 20)
        D = build_random_forest(n, 1, rng)
        assert _Forest(D.n, D.underlying_edges).nu == _blossom_nu(D.n, D.underlying_edges)


def test_forest_engine_matches_search_on_every_forest_up_to_seven_vertices():
    count = 0
    for n in range(1, 8):
        for edges in forest_edge_sets(n):
            D = WeightedOrientedGraph.build(n, edges)
            # nu, nu(D - v) for every v, and the maximum matchings, from the
            # list of all matchings
            every = list(_disjoint_sets(edges))
            nu = max(len(m) for m in every)
            nu_without = [0] * (n + 1)
            maxes = []
            for m in every:
                hit = {x for i in m for x in edges[i]}
                for v in range(1, n + 1):
                    if v not in hit and len(m) > nu_without[v]:
                        nu_without[v] = len(m)
                if len(m) == nu:
                    maxes.append(m)
            forest = _Forest(n, edges)
            assert forest.nu == nu
            for v in range(1, n + 1):
                assert forest.covered(v) == (nu_without[v] < nu), (edges, v)
            for i, e in enumerate(edges):
                assert is_strong_edge(D, e) == all(i in m for m in maxes), (edges, e)
            count += 1
    assert count == 40_232


def _tree_dp_nu(D):
    """Matching number of a forest by the rooted-tree recurrence:
    free[v] = sum of best over the children, best[v] = free[v] or one more by
    matching v to a child c, losing best[c] - free[c]."""
    seen, total = set(), 0
    for root in D.vertices:
        if root in seen:
            continue
        seen.add(root)
        order, parent = [root], {root: None}
        for v in order:
            for u in D.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    parent[u] = v
                    order.append(u)
        free, best = {}, {}
        for v in reversed(order):
            kids = [u for u in D.adjacency[v] if parent.get(u) == v and u != parent[v]]
            free[v] = sum(best[c] for c in kids)
            best[v] = free[v] + max([0] + [1 - best[c] + free[c] for c in kids])
        total += best[root]
    return total


def test_forest_engine_matches_tree_dp_on_500_random_forests():
    # the recurrence and the blossom algorithm are independent references
    rng = SplitMix64(4040)
    for _ in range(500):
        D = build_random_forest(rng.randint(2, 40), 1, rng)
        forest = _Forest(D.n, D.underlying_edges)
        nu = _tree_dp_nu(D)
        assert forest.nu == nu
        assert nu == _blossom_nu(D.n, D.underlying_edges)
        for v in D.vertices:
            assert forest.covered(v) == (_tree_dp_nu(D.delete({v})) < nu), (D, v)


def test_matching_number_on_nonforest():
    triangle = WeightedOrientedGraph.build(3, [(1, 2), (2, 3), (1, 3)])
    assert matching_number(triangle) == 1
    k4 = WeightedOrientedGraph.build(
        4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    assert matching_number(k4) == 2


def _brute_nu(n, edges):
    """Oracle: the size of the largest matching in the list of all of them."""
    return max(len(m) for m in _disjoint_sets(edges))


def test_blossom_matches_brute_force_on_every_graph_up_to_six_vertices():
    count = 0
    for n in range(1, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            nu = _blossom_nu(n, edges)
            assert nu == _brute_nu(n, edges), (n, edges)
            assert nu == _max_matching_supports(n, edges)[0], (n, edges)
            count += 1
    assert count == 33_867


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_blossom_matches_brute_force_on_random_graphs(seed):
    # nested blossoms need at least seven vertices
    rng = SplitMix64(seed)
    n = rng.randint(7, 10)
    G = random_simple_graph(n, rng.choice((0.2, 0.3, 0.5, 0.8)), rng)
    assert _blossom_nu(n, G.underlying_edges) == _brute_nu(n, G.underlying_edges)


def test_blossom_known_values():
    for m in range(1, 12):
        cycle = [(i, i % (2 * m + 1) + 1) for i in range(1, 2 * m + 2)]
        assert _blossom_nu(2 * m + 1, cycle) == m
    for n in range(1, 12):
        assert _blossom_nu(n, list(combinations(range(1, n + 1), 2))) == n // 2
    petersen = (
        [(i, i % 5 + 1) for i in range(1, 6)]
        + [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(1, 6)]
    )
    assert _blossom_nu(10, petersen) == 5
    assert matching_number(WeightedOrientedGraph.build(10, petersen)) == 5


def test_matching_number_of_a_200_vertex_graph_is_fast():
    rng = SplitMix64(8)
    G = random_simple_graph(200, 0.05, rng)
    assert not is_forest(G)
    started = time.perf_counter()
    nu = matching_number(G)
    assert time.perf_counter() - started < 1.0
    # relabelling changes the greedy start and the roots, not the answer
    perm = list(range(1, 201))
    for i in range(199, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    relabelled = [(perm[a - 1], perm[b - 1]) for a, b in G.underlying_edges]
    assert 0 < nu <= 100 and _blossom_nu(200, relabelled) == nu


def test_maximum_matchings_lists_all():
    P5 = path_graph(5)
    nu, ms = maximum_matchings(P5)
    assert nu == 2
    assert sorted(m.edges for m in ms) == sorted(m.edges for m in _brute_matchings(P5, 2))
    nu0, ms0 = maximum_matchings(WeightedOrientedGraph.build(3, []))
    assert nu0 == 0 and ms0 == [Matching(())]


def test_is_strong_edge_examples():
    P4 = path_graph(4)
    assert is_strong_edge(P4, (1, 2))
    assert not is_strong_edge(P4, (2, 3))
    P3 = path_graph(3)
    assert not is_strong_edge(P3, (1, 2))
    lone = WeightedOrientedGraph.build(2, [(1, 2)])
    assert is_strong_edge(lone, (1, 2))
    with pytest.raises(ValueError):
        is_strong_edge(P4, (1, 3))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_maximum_matchings_match_brute_force(seed):
    rng = SplitMix64(seed)
    G = random_simple_graph(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6, 0.9)), rng)
    nu, maxes = maximum_matchings(G)
    assert nu == matching_number(G) and not _brute_matchings(G, nu + 1)
    assert sorted(maxes, key=lambda m: m.edges) == _brute_matchings(G, nu)


def test_maximum_matchings_of_an_odd_cycle():
    C61 = WeightedOrientedGraph.build(61, [(i, i % 61 + 1) for i in range(1, 62)])
    nu, maxes = maximum_matchings(C61)
    assert nu == 30 and len(maxes) == 61
    # each maximum matching misses one vertex, and each vertex is missed once
    missed = [v for m in maxes for v in set(range(1, 62)) - m.vertices()]
    assert sorted(missed) == list(range(1, 62))


@given(st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_strong_edge_agrees_with_every_maximum_matching(seed):
    rng = SplitMix64(seed)
    G = random_simple_graph(rng.randint(2, 6), 0.5, rng)
    if len(G.underlying_edges) > 12 or not G.underlying_edges:
        return
    nu, maxes = maximum_matchings(G)
    for e in G.underlying_edges:
        in_all = all(e in m.edges for m in maxes)
        assert is_strong_edge(G, e) == in_all


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_strong_edge_vertex_deletion_drops_matching_number(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 8), 1, rng)
    nu = matching_number(D)
    for a, b in D.underlying_edges:
        if is_strong_edge(D, (a, b)):
            assert matching_number(D.delete((a, b))) == nu - 1


def test_strong_edge_vertex_deletion_exhaustive_small_forests():
    for n in range(2, 6):
        for edges in forest_edge_sets(n):
            if not edges:
                continue
            D = WeightedOrientedGraph.build(n, edges)
            nu = matching_number(D)
            for e in D.underlying_edges:
                if is_strong_edge(D, e):
                    assert matching_number(D.delete(e)) == nu - 1


def test_find_distant_configuration_examples():
    assert find_distant_configuration(path_graph(4)) == DistantConfig((1,), 2, 3)
    star = WeightedOrientedGraph.build(4, [(1, 4), (2, 4), (3, 4)])
    assert find_distant_configuration(star) == DistantConfig((1, 2), 4, 3)
    lone = WeightedOrientedGraph.build(2, [(1, 2)])
    assert find_distant_configuration(lone) == IsolatedEdge(1, 2)
    assert find_distant_configuration(WeightedOrientedGraph.build(3, [])) is NO_EDGES


def test_find_distant_configuration_prefers_least_isolated_edge():
    D = WeightedOrientedGraph.build(6, [(5, 6), (1, 2), (3, 4)])
    assert find_distant_configuration(D) == IsolatedEdge(1, 2)


@given(st.integers(0, 500))
@settings(max_examples=100)
def test_every_forest_with_an_edge_has_a_configuration(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 12), 1, rng)
    if not D.underlying_edges:
        return
    found = find_distant_configuration(D)
    assert found is not NO_EDGES
    if isinstance(found, DistantConfig):
        assert found.t >= 1
        assert D.degree(found.leaves[0]) == 1


def test_induced_and_delete():
    P4 = path_graph(4)
    assert P4.delete({2}).underlying_edges == ((3, 4),)
    assert P4.delete(set()) == P4
    D = seven_vertex_example()
    # dropping vertex d (=4) leaves the directed edges (c,a) and (e,b)
    assert D.delete({4}).edges == ((3, 1), (5, 2))


def test_vertex_identity_preserved_by_deletion():
    P4 = path_graph(4)
    sub = P4.delete({1})
    assert sub.vertices == (2, 3, 4)
    assert sub.n == 4
    assert sub.underlying_edges == ((2, 3), (3, 4))
    with pytest.raises(ValueError):
        sub.induced({1, 2})  # 1 is no longer active


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Matching(((2, 1),))
    assert Matching(((1, 2), (3, 4))).vertices() == {1, 2, 3, 4}
