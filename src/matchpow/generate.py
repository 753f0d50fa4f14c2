"""Instance generation: seeded random graphs, forest isomorphism classes with
their labelled copies, and the recursive constructor for forests whose last
matching power is polymatroidal.

Randomness comes from SplitMix64 with 64-bit seeds, so every stream is
bit-reproducible across platforms and Python versions.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator, Optional

from .graphs import WeightedOrientedGraph, _Forest, matching_number

__all__ = [
    "SplitMix64",
    "build_random_forest",
    "random_simple_graph",
    "forest_classes",
    "construct_linear_forests",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: a tiny portable PRNG with a 64-bit state."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def build_random_forest(n: int, w_max: int, rng: SplitMix64) -> WeightedOrientedGraph:
    """A random forest on exactly n labelled vertices.

    Each new vertex either starts a new component or attaches to a uniformly
    chosen earlier vertex; edges get a random orientation, vertices random
    weights in [1, w_max], and sources are then normalized to weight 1.
    """
    edges = []
    for v in range(2, n + 1):
        pick = rng.randrange(v)  # 0 starts a new component
        if pick:
            other = pick  # uniform over 1..v-1
            if rng.randrange(2):
                edges.append((other, v))
            else:
                edges.append((v, other))
    weights = {v: rng.randint(1, w_max) for v in range(1, n + 1)}
    return WeightedOrientedGraph.build(n, edges, weights).normalize_sources()


def random_simple_graph(n: int, p: float, rng: SplitMix64) -> WeightedOrientedGraph:
    """An unweighted Erdos-Renyi style graph; orientation low -> high."""
    edges = [
        (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p
    ]
    return WeightedOrientedGraph.build(n, edges)


Edges = tuple[tuple[int, int], ...]


def forest_classes(n: int) -> list[tuple[Edges, list[tuple[Edges, tuple[int, ...]]]]]:
    """The forests on the vertices 1..n that have an edge, one entry per
    isomorphism class: a representative and its labelled copies.

    Classes grow one vertex at a time, as an isolated vertex or as a leaf on
    any vertex of a class on one vertex fewer, and are told apart by the
    sorted AHU codes (Aho, Hopcroft & Ullman) of their trees, each rooted at
    its centre.  A copy is the image of the representative under a
    permutation p of 1..n (``p[v]`` the image of v, ``p[0] = 0``), listed
    once, with the first such p in lexicographic order.  Every edge set is a
    sorted tuple of (low, high) pairs.
    """
    level: dict[tuple, Edges] = {((),): ()}  # the classes on k vertices by code
    for k in range(2, n + 1):
        grown: dict[tuple, Edges] = {}
        for edges in level.values():
            for v in range(k):  # v = 0 adds k as an isolated vertex
                cand = tuple(sorted(edges + ((v, k),))) if v else edges
                grown.setdefault(_forest_code(k, cand), cand)
        level = grown
    out = []
    for rep in level.values():
        if not rep:
            continue
        copies: dict[Edges, tuple[int, ...]] = {}
        for perm in permutations(range(1, n + 1)):
            p = (0, *perm)
            copy = tuple(sorted((p[a], p[b]) if p[a] < p[b] else (p[b], p[a]) for a, b in rep))
            copies.setdefault(copy, p)
        out.append((rep, list(copies.items())))
    return out


def _forest_code(n: int, edges: Edges) -> tuple:
    """The sorted codes of a forest's trees: a rooted tree's code is the sorted
    tuple of its subtrees' codes, and each tree takes the least code over its
    one or two centres."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * (n + 1)
    codes = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = True
        tree = [s]
        for v in tree:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    tree.append(u)
        # strip the leaves layer by layer until one or two centres remain
        degree = {v: len(adj[v]) for v in tree}
        layer = [v for v in tree if degree[v] <= 1]
        left = len(tree)
        while left > 2:
            left -= len(layer)
            inner = []
            for v in layer:
                for u in adj[v]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        inner.append(u)
            layer = inner
        codes.append(min(_rooted_code(adj, c) for c in layer))
    return tuple(sorted(codes))


def _rooted_code(adj: list[list[int]], root: int) -> tuple:
    """AHU code of the tree rooted at ``root``, built children first."""
    parent = {root: 0}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    code: dict[int, tuple] = {}
    for v in reversed(order):
        code[v] = tuple(sorted(code[u] for u in adj[v] if u != parent[v]))
    return code[root]


# ---------------------------------------------------------------------------
# recursive construction of forests with polymatroidal last power
# ---------------------------------------------------------------------------


def _in_star(leaves: int, center_weight: int) -> WeightedOrientedGraph:
    center = leaves + 1
    return WeightedOrientedGraph.build(
        center, [(i, center) for i in range(1, leaves + 1)], {center: center_weight}
    )


def _append_vertices(D: WeightedOrientedGraph, count: int) -> WeightedOrientedGraph:
    """Extend the ambient vertex range by ``count`` fresh isolated vertices."""
    n = D.n + count
    weights = {v: D.weight(v) for v in D.vertices}
    vertices = tuple(D.vertices) + tuple(range(D.n + 1, n + 1))
    return WeightedOrientedGraph.build(n, D.edges, weights, vertices)


def _essential_vertices(D: WeightedOrientedGraph) -> list[int]:
    """Vertices of a forest covered by every maximum matching."""
    forest = _Forest(D.n, D.underlying_edges)
    return [v for v in D.vertices if forest.covered(v)]


def _grow_moves(
    D: WeightedOrientedGraph, w_max: int, classify
) -> Iterator[WeightedOrientedGraph]:
    """Children of D with matching number one higher, polymatroidal by
    construction (inverse moves of the three classification branches)."""
    essential = set(_essential_vertices(D))

    # fresh isolated edge
    for w in range(1, w_max + 1):
        H = _append_vertices(D, 2)
        a, b = D.n + 1, D.n + 2
        yield WeightedOrientedGraph.build(
            H.n, H.edges + ((a, b),), {v: H.weight(v) for v in H.vertices} | {b: w},
            H.vertices,
        )

    # strong pendant path onto an always-covered vertex
    for c in sorted(essential):
        for w_b in range(1, w_max + 1):
            for bridge_into_center in (True, False):
                H = _append_vertices(D, 2)
                b, a = D.n + 1, D.n + 2
                bridge = (c, b) if bridge_into_center else (b, c)
                weights = {v: H.weight(v) for v in H.vertices}
                weights[b] = w_b
                yield WeightedOrientedGraph.build(
                    H.n, H.edges + (bridge, (a, b)), weights, H.vertices
                ).normalize_sources()

    # graft a distant configuration: new centre b with t fresh pendant leaves,
    # anchored at c (an existing vertex, or a fresh one giving a new star)
    anchors: list[tuple[Optional[int], bool]] = [(c, c in essential) for c in D.vertices]
    anchors.append((None, False))  # fresh anchor
    for c0, c_essential in anchors:
        for t in (1, 2):
            fresh = t + 1 + (1 if c0 is None else 0)
            H = _append_vertices(D, fresh)
            b = D.n + 1
            leaves = tuple(range(D.n + 2, D.n + 2 + t))
            c = c0 if c0 is not None else D.n + t + 2
            weights = {v: H.weight(v) for v in H.vertices}
            if c_essential:
                # star case: anchor orientation is free, delta may be 1 or w(b)
                variants = []
                for w_b in range(1, w_max + 1):
                    for into_center in (True, False):
                        variants.append((w_b, True, into_center))  # pendants in
                    if w_b > 1:
                        variants.append((w_b, False, True))  # pendants out, delta 1
                for w_b, pendant_in, bridge_in in variants:
                    wts = dict(weights)
                    wts[b] = w_b
                    pend = tuple((a, b) if pendant_in else (b, a) for a in leaves)
                    bridge = (c, b) if bridge_in else (b, c)
                    yield WeightedOrientedGraph.build(
                        H.n, H.edges + pend + (bridge,), wts, H.vertices
                    ).normalize_sources()
            else:
                # split case: requires weightless anchor whose deletion keeps a
                # polymatroidal last power, bridge x_c x_b^{w(b)}, pendants in
                if c0 is not None:
                    if D.weight(c0) != 1:
                        continue
                    if not classify(D.delete({c0})).verdict:
                        continue
                for w_b in range(1, w_max + 1):
                    wts = dict(weights)
                    wts[b] = w_b
                    pend = tuple((a, b) for a in leaves)
                    yield WeightedOrientedGraph.build(
                        H.n, H.edges + pend + ((c, b),), wts, H.vertices
                    ).normalize_sources()


def construct_linear_forests(
    target_nu: int,
    budget: int,
    w_max: int = 3,
    level_cap: int = 20000,
) -> Iterator[WeightedOrientedGraph]:
    """Stream forests with matching number ``target_nu`` whose last matching
    power is polymatroidal, built recursively from in-star seeds.

    Seeds are stars with all edges oriented into the centre and centre weight
    in [1, w_max]; each level applies the inverse moves of the classification
    (attach an isolated edge, attach a strong pendant path, graft a distant
    configuration under the exact weight and orientation conditions).  At most
    ``level_cap`` graphs are kept per intermediate level and at most ``budget``
    are emitted.  The deletion test inside the graft move reuses the
    classifier, so emitted instances are its fixed points by construction.
    """
    from .classify import classify_last_power

    if target_nu < 1:
        raise ValueError("target_nu must be >= 1")
    level = [
        _in_star(leaves, w) for leaves in (1, 2, 3) for w in range(1, w_max + 1)
    ]
    if target_nu == 1:
        yield from level[:budget]
        return
    for _ in range(target_nu - 1):
        nxt: list[WeightedOrientedGraph] = []
        for D in level:
            for child in _grow_moves(D, w_max, classify_last_power):
                nxt.append(child)
                if len(nxt) >= level_cap:
                    break
            if len(nxt) >= level_cap:
                break
        level = nxt
    count = 0
    for D in level:
        if count >= budget:
            return
        assert matching_number(D) == target_nu
        yield D
        count += 1
