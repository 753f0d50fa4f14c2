"""Weighted oriented graphs, matchings, and the structural notions for forests.

Vertices are labelled 1..n.  Deleting vertices keeps the ambient size and the
original labels, so edge monomials of subgraphs live in the same polynomial
ring; the active vertex set shrinks instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import or_
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "WeightedOrientedGraph",
    "Matching",
    "IsolatedEdge",
    "DistantConfig",
    "NO_EDGES",
    "is_forest",
    "enumerate_matchings",
    "maximum_matchings",
    "matching_number",
    "is_strong_edge",
    "find_distant_configuration",
]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint undirected edges."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.edges:
            if a >= b:
                raise ValueError(f"edge {(a, b)} not in (low, high) form")
            if a in seen or b in seen:
                raise ValueError(f"edges of {self.edges} are not disjoint")
            seen.add(a)
            seen.add(b)

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class WeightedOrientedGraph:
    """A vertex-weighted oriented graph on labels 1..n.

    ``edges`` are directed (tail, head) pairs, at most one orientation per
    underlying pair.  ``weights[v-1]`` is the weight of vertex v; weights of
    inactive vertices are normalised to 1 so equality stays structural.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]
    vertices: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None

    @staticmethod
    def build(
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: Optional[Mapping[int, int]] = None,
        vertices: Optional[Iterable[int]] = None,
        names: Optional[Iterable[str]] = None,
    ) -> "WeightedOrientedGraph":
        active = tuple(sorted(vertices)) if vertices is not None else tuple(range(1, n + 1))
        active_set = set(active)
        if any(v < 1 or v > n for v in active):
            raise ValueError("vertices out of range 1..n")
        edge_list = tuple(sorted((int(t), int(h)) for t, h in edges))
        seen_pairs: set[frozenset[int]] = set()
        for t, h in edge_list:
            if t == h:
                raise ValueError(f"loop at vertex {t}")
            if t not in active_set or h not in active_set:
                raise ValueError(f"edge {(t, h)} leaves the vertex set")
            pair = frozenset((t, h))
            if pair in seen_pairs:
                raise ValueError(f"duplicate underlying edge {{{t},{h}}}")
            seen_pairs.add(pair)
        wvec = [1] * n
        if weights:
            for v, w in weights.items():
                v = int(v)
                if v not in active_set:
                    continue
                if w < 1:
                    raise ValueError(f"weight of vertex {v} must be >= 1, got {w}")
                wvec[v - 1] = int(w)
        name_tuple = tuple(names) if names is not None else None
        if name_tuple is not None and len(name_tuple) != n:
            raise ValueError("names must have length n")
        return WeightedOrientedGraph(n, edge_list, tuple(wvec), active, name_tuple)

    # -- basic structure -------------------------------------------------
    def weight(self, v: int) -> int:
        return self.weights[v - 1]

    @cached_property
    def underlying_edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edges as sorted (low, high) pairs."""
        return tuple(sorted(tuple(sorted(e)) for e in self.edges))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.underlying_edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    @cached_property
    def sources(self) -> frozenset[int]:
        """Vertices with no incoming edge (isolated vertices included)."""
        heads = {h for _, h in self.edges}
        return frozenset(v for v in self.vertices if v not in heads)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def _is_forest(self) -> bool:
        parent: dict[int, int] = {v: v for v in self.vertices}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.underlying_edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    @cached_property
    def nu(self) -> int:
        """Matching number, computed once per graph value: :class:`_Forest` on
        forests, :func:`_blossom_nu` on every other graph."""
        if self._is_forest:
            return _Forest(self.n, self.underlying_edges).nu
        return _blossom_nu(self.n, self.underlying_edges)

    def name_of(self, v: int) -> str:
        return self.names[v - 1] if self.names else str(v)

    def has_edge(self, a: int, b: int) -> bool:
        return tuple(sorted((a, b))) in set(self.underlying_edges)

    def orientation(self, a: int, b: int) -> tuple[int, int]:
        """The directed form of underlying edge {a, b}."""
        if (a, b) in self.edges:
            return (a, b)
        if (b, a) in self.edges:
            return (b, a)
        raise ValueError(f"{{{a},{b}}} is not an edge")

    def is_normalized(self) -> bool:
        return all(self.weight(v) == 1 for v in self.sources)

    def normalize_sources(self) -> "WeightedOrientedGraph":
        """Reset every source weight to 1; other weights unchanged.  Idempotent."""
        wvec = list(self.weights)
        for v in self.sources:
            wvec[v - 1] = 1
        return WeightedOrientedGraph(self.n, self.edges, tuple(wvec), self.vertices, self.names)

    # -- subgraphs --------------------------------------------------------
    def induced(self, keep: Iterable[int]) -> "WeightedOrientedGraph":
        keep_set = set(keep)
        if not keep_set <= set(self.vertices):
            raise ValueError("kept vertices must be a subset of the active vertices")
        edges = tuple(e for e in self.edges if e[0] in keep_set and e[1] in keep_set)
        wvec = [1] * self.n
        for v in keep_set:
            wvec[v - 1] = self.weight(v)
        return WeightedOrientedGraph(self.n, edges, tuple(wvec), tuple(sorted(keep_set)), self.names)

    def delete(self, drop: Iterable[int]) -> "WeightedOrientedGraph":
        """The subgraph without the dropped vertices.  Only the heads of its
        edges keep their weights: a vertex whose in-edges are all gone is a
        source there, of weight 1."""
        drop_set = set(drop)
        edges = tuple(e for e in self.edges if e[0] not in drop_set and e[1] not in drop_set)
        wvec = [1] * self.n
        for _, h in edges:
            wvec[h - 1] = self.weights[h - 1]
        vertices = tuple(v for v in self.vertices if v not in drop_set)
        return WeightedOrientedGraph(self.n, edges, tuple(wvec), vertices, self.names)


def is_forest(D: WeightedOrientedGraph) -> bool:
    """True iff the underlying simple graph is acyclic (union-find scan)."""
    return D._is_forest


def _disjoint_sets(
    supports: Sequence[Collection[int]], size: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Index tuples of pairwise disjoint supports (edges give matchings),
    lazily, in lexicographic index order with every tuple before its
    extensions: all of them when ``size`` is None, else only those of that
    size.

    The search runs on an explicit stack of candidate sets, bitmasks over the
    indices after the last one chosen whose supports miss every chosen one.
    With a ``size`` it cuts a branch once fewer candidates remain than it
    still needs.
    """
    if size is None or size == 0:
        yield ()
    if size == 0:
        return
    holders: dict[int, int] = {}  # variable -> mask of the supports holding it
    for i, supp in enumerate(supports):
        for v in supp:
            holders[v] = holders.get(v, 0) | 1 << i
    full = (1 << len(supports)) - 1
    # compat[i]: the indices after i whose supports miss supports[i]
    compat = [
        full & ~reduce(or_, (holders[v] for v in supp), (2 << i) - 1)
        for i, supp in enumerate(supports)
    ]
    chosen: list[int] = []
    stack = [full]
    while stack:
        cands = stack[-1]
        if not cands or (size is not None and len(chosen) + cands.bit_count() < size):
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        bit = cands & -cands
        stack[-1] = cands ^ bit
        i = bit.bit_length() - 1
        chosen.append(i)
        if size is None or len(chosen) == size:
            yield tuple(chosen)
        if size is None or len(chosen) < size:
            stack.append(cands & compat[i])
        else:
            chosen.pop()


def enumerate_matchings(D: WeightedOrientedGraph, k: int) -> list[Matching]:
    """All k-matchings of the underlying graph, each exactly once.

    k = 0 yields the single empty matching.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    edges = D.underlying_edges
    return [Matching(tuple(edges[i] for i in m)) for m in _disjoint_sets(edges, k)]


class _Forest:
    """One pass over a forest on labels 1..n given by its edges (either
    orientation): vertex-indexed adjacency lists (None off the edges), the
    leaves, and a maximum matching found by matching leaves to their
    neighbours (``nu`` and the ``mate`` array, 0 for unmatched).
    :meth:`covered` adds, on first use, an alternating search that marks every
    vertex some maximum matching misses.  Apart from allocating the arrays,
    the work is linear in the number of edges, not in n.
    """

    __slots__ = ("adj", "verts", "leaves", "mate", "nu", "_missed")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        adj: list[Optional[list[int]]] = [None] * (n + 1)
        verts = []
        for t, h in edges:
            nbrs = adj[t]
            if nbrs is None:
                adj[t] = [h]
                verts.append(t)
            else:
                nbrs.append(h)
            nbrs = adj[h]
            if nbrs is None:
                adj[h] = [t]
                verts.append(h)
            else:
                nbrs.append(t)
        deg = [0] * (n + 1)  # unmatched neighbours left
        for v in verts:
            deg[v] = len(adj[v])
        self.leaves = [v for v in verts if deg[v] == 1]
        mate = [0] * (n + 1)
        nu = 0
        stack = self.leaves[:]
        while stack:
            v = stack.pop()
            if mate[v] or not deg[v]:
                continue
            # a leaf of what is left: matching it to its last neighbour is
            # part of some maximum matching of what is left
            for u in adj[v]:
                if not mate[u]:
                    break
            mate[v], mate[u] = u, v
            nu += 1
            for x in adj[u]:
                if not mate[x]:
                    deg[x] -= 1
                    if deg[x] == 1:
                        stack.append(x)
        self.adj, self.verts, self.mate, self.nu = adj, verts, mate, nu
        self._missed: Optional[list[bool]] = None

    def covered(self, v: int) -> bool:
        """True iff every maximum matching covers v.

        A forest is bipartite, so (Gallai-Edmonds) some maximum matching
        misses v exactly when an even alternating path from an exposed vertex
        reaches v.
        """
        missed = self._missed
        if missed is None:
            adj, mate = self.adj, self.mate
            missed = self._missed = [True] * len(mate)
            todo = []
            for u in self.verts:
                if mate[u]:
                    missed[u] = False
                else:
                    todo.append(u)
            while todo:
                for w in adj[todo.pop()]:
                    x = mate[w]  # w is matched, or the matching is not maximum
                    if not missed[x]:
                        missed[x] = True
                        todo.append(x)
        return not missed[v]

    def distant(self) -> "FindResult":
        """:func:`find_distant_configuration` of this forest."""
        adj = self.adj
        if not self.verts:
            return NO_EDGES
        isolated = [
            (min(a, adj[a][0]), max(a, adj[a][0])) for a in self.leaves if len(adj[adj[a][0]]) == 1
        ]
        if isolated:
            a, b = min(isolated)
            return IsolatedEdge(a, b)
        for b in sorted({adj[a][0] for a in self.leaves}):
            non_leaf = [u for u in adj[b] if len(adj[u]) > 1]
            if len(non_leaf) > 1:
                continue
            leaf_nbrs = sorted(u for u in adj[b] if len(adj[u]) == 1)
            if non_leaf:
                return DistantConfig(tuple(leaf_nbrs), b, non_leaf[0])
            return DistantConfig(tuple(leaf_nbrs[:-1]), b, leaf_nbrs[-1])
        raise ValueError("graph has edges but no distant configuration (not a forest?)")


def _blossom_nu(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """Matching number of any simple graph on labels 1..n: Edmonds' blossom
    algorithm ("Paths, trees, and flowers", 1965) in its O(V^3) queue form.

    A greedy matching grows one augmenting path at a time, found by a
    breadth-first alternating tree from an exposed root.  ``parent`` links an
    inner vertex to the outer vertex that reached it; an edge between two
    outer vertices closes an odd cycle, contracted by giving its vertices a
    common ``base``.  A root that fails once fails for good.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    mate = [0] * (n + 1)  # 0 for unmatched
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        if not mate[a] and not mate[b]:
            mate[a], mate[b] = b, a
    for root in range(1, n + 1):
        if mate[root] or not adj[root]:
            continue
        parent = [0] * (n + 1)
        base = list(range(n + 1))
        outer = [False] * (n + 1)
        outer[root] = True
        queue = [root]
        exposed = 0
        for v in queue:  # the queue grows while it is read
            for u in adj[v]:
                if base[v] == base[u] or mate[v] == u:
                    continue
                if u == root or (mate[u] and parent[mate[u]]):
                    # u is outer too: the blossom's base is the first base
                    # that the tree paths from v and from u share
                    path = [base[v]]
                    while path[-1] != root:
                        path.append(base[parent[mate[path[-1]]]])
                    b, on_path = base[u], set(path)
                    while b not in on_path:
                        b = base[parent[mate[b]]]
                    # relink both halves of the cycle towards the base
                    bases = set()
                    for x, child in ((v, u), (u, v)):
                        while base[x] != b:
                            bases.update((base[x], base[mate[x]]))
                            parent[x] = child
                            child = mate[x]
                            x = parent[child]
                    for x in range(1, n + 1):
                        if base[x] in bases:
                            base[x] = b
                            if not outer[x]:
                                outer[x] = True
                                queue.append(x)
                elif not parent[u]:
                    parent[u] = v
                    if not mate[u]:
                        exposed = u
                        break
                    outer[mate[u]] = True
                    queue.append(mate[u])
            if exposed:
                break
        while exposed:  # flip the augmenting path that ends at it
            v = parent[exposed]
            nxt = mate[v]
            mate[exposed], mate[v] = v, exposed
            exposed = nxt
    return sum(1 for v in mate if v) // 2


def matching_number(D: WeightedOrientedGraph) -> int:
    """Maximum matching size: the leaf-matching pass on forests, Edmonds'
    blossom algorithm on every other graph (both polynomial)."""
    return D.nu


def maximum_matchings(D: WeightedOrientedGraph) -> tuple[int, list[Matching]]:
    """The matching number together with every maximum matching, in no
    promised order.

    A flashlight search on an explicit stack branches on the first remaining
    edge, keeping each branch only while the matching number of what is left
    can still complete a maximum matching: every branch ends in one.
    """
    edges = list(D.underlying_edges)
    n = D.n
    nu_of = (lambda rest: _Forest(n, rest).nu) if D._is_forest else partial(_blossom_nu, n)
    out: list[Matching] = []
    stack: list[tuple[list, tuple, int]] = [(edges, (), D.nu)]
    while stack:
        rest, chosen, need = stack.pop()
        if not need:
            out.append(Matching(chosen))
            continue
        (a, b), rest = rest[0], rest[1:]
        if nu_of(rest) >= need:
            stack.append((rest, chosen, need))
        rest = [e for e in rest if a not in e and b not in e]
        if nu_of(rest) >= need - 1:
            stack.append((rest, chosen + ((a, b),), need - 1))
    return D.nu, out


def is_strong_edge(D: WeightedOrientedGraph, edge: tuple[int, int]) -> bool:
    """True iff the edge lies in every maximum matching.

    Decided by deleting the edge (vertices kept) and comparing matching numbers.
    """
    directed = D.orientation(*edge)  # raises unless it is an edge
    pruned = WeightedOrientedGraph(
        D.n, tuple(e for e in D.edges if e != directed), D.weights, D.vertices, D.names
    )
    return pruned.nu == D.nu - 1


@dataclass(frozen=True)
class IsolatedEdge:
    """An edge both of whose endpoints are leaves."""

    a: int
    b: int


@dataclass(frozen=True)
class DistantConfig:
    """Leaves a_1..a_t on a common centre b, plus the edge {b, anchor}."""

    leaves: tuple[int, ...]
    center: int
    anchor: int

    @property
    def t(self) -> int:
        return len(self.leaves)


class _NoEdges:
    def __repr__(self) -> str:  # pragma: no cover
        return "NO_EDGES"


NO_EDGES = _NoEdges()

FindResult = Union[IsolatedEdge, DistantConfig, _NoEdges]


def find_distant_configuration(D: WeightedOrientedGraph) -> FindResult:
    """Deterministic choice of an isolated edge or a distant configuration.

    Preference order: the lexicographically least isolated edge; otherwise the
    lowest-indexed centre b adjacent to a leaf and having at most one non-leaf
    neighbour.  Its leaf neighbours become the configuration leaves, except
    that when b has no non-leaf neighbour the highest leaf is used as the
    anchor.  Raises if the graph has edges but no such structure (only happens
    off forests).
    """
    return _Forest(D.n, D.underlying_edges).distant()
