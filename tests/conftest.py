"""Shared graph builders, the labelled forest enumerator and a brute-force
isomorphism check for tests."""

from __future__ import annotations

from itertools import permutations, product

from matchpow import WeightedOrientedGraph


def path_graph(n, weights=None):
    """Unweighted-by-default path 1-2-...-n oriented low to high."""
    return WeightedOrientedGraph.build(n, [(i, i + 1) for i in range(1, n)], weights)


def in_star(leaves, center_weight=1):
    """Star with edges oriented into the centre (highest label)."""
    center = leaves + 1
    return WeightedOrientedGraph.build(
        center, [(i, center) for i in range(1, leaves + 1)], {center: center_weight}
    )


def seven_vertex_example(wa=2, wb=2):
    """The seven-vertex forest a..g = 1..7 with heavy vertices a and b."""
    return WeightedOrientedGraph.build(
        7,
        [(3, 1), (4, 1), (4, 2), (5, 2), (6, 4), (7, 4)],
        {1: wa, 2: wb},
        names=list("abcdefg"),
    )


def oriented_weighted_isomorphic(D1: WeightedOrientedGraph, D2: WeightedOrientedGraph) -> bool:
    """Brute-force isomorphism of weighted oriented graphs on active vertices.

    Candidate bijections are pruned by per-vertex (in-degree, out-degree,
    weight) signatures; intended for small test instances only.
    """
    v1 = [v for v in D1.vertices if D1.degree(v) > 0]
    v2 = [v for v in D2.vertices if D2.degree(v) > 0]
    if len(v1) != len(v2) or len(D1.edges) != len(D2.edges):
        return False

    def signature(D, verts):
        out = {v: [0, 0, D.weight(v)] for v in verts}
        for t, h in D.edges:
            out[t][0] += 1
            out[h][1] += 1
        return {v: tuple(s) for v, s in out.items()}

    s1, s2 = signature(D1, v1), signature(D2, v2)
    if sorted(s1.values()) != sorted(s2.values()):
        return False
    edge_set2 = set(D2.edges)
    groups1: dict[tuple, list[int]] = {}
    groups2: dict[tuple, list[int]] = {}
    for v, s in s1.items():
        groups1.setdefault(s, []).append(v)
    for v, s in s2.items():
        groups2.setdefault(s, []).append(v)
    keys = sorted(groups1)
    from itertools import product as iproduct

    for choice in iproduct(*(permutations(groups2[k]) for k in keys)):
        mapping = {}
        for k, target in zip(keys, choice):
            for a, b in zip(groups1[k], target):
                mapping[a] = b
        if all((mapping[t], mapping[h]) in edge_set2 for t, h in D1.edges):
            return True
    return False


def forest_edge_sets(n):
    """All acyclic subsets of the edges of the complete graph on 1..n, each a
    sorted tuple of (low, high) pairs: the labelled reference for the class
    enumerator ``generate.forest_classes``."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    out = []
    for mask in range(1 << len(pairs)):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = []
        ok = True
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            a, b = pairs[bit.bit_length() - 1]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
            edges.append((a, b))
        if ok:
            out.append(tuple(edges))
    return out


def thm34_instances(n, underlying, max_weight=3):
    """(directed, weights) of every orientation and weighting the thm34
    campaign draws for one labelled forest: non-source weights up to
    max_weight, not all 1; ``weights[v]`` is w(v)."""
    m = len(underlying)
    for mask in range(1 << m):
        directed = [e if mask >> i & 1 == 0 else e[::-1] for i, e in enumerate(underlying)]
        heads = sorted({h for _, h in directed})
        for combo in product(range(1, max_weight + 1), repeat=len(heads)):
            if any(w > 1 for w in combo):
                weights = [1] * (n + 1)
                for h, w in zip(heads, combo):
                    weights[h] = w
                yield directed, weights


def thm34_graph(n, directed, weights):
    """The graph of one ``thm34_instances`` draw."""
    vertices = tuple(range(1, n + 1))
    return WeightedOrientedGraph(n, tuple(sorted(directed)), tuple(weights[1:]), vertices)
