"""Edge ideals of weighted oriented graphs and matching powers of monomial ideals.

The k-th matching power of I is generated by products of k monomials of I with
pairwise disjoint supports; it suffices to multiply minimal generators, since
every monomial of I is divisible by a minimal generator with smaller support.
For an edge ideal the generators correspond to k-matchings of the underlying
graph (two routes that the test suite checks against each other).

Both routes run one search: :func:`graphs._disjoint_sets`, an iterative walk
over index tuples of pairwise disjoint supports (generator variables, or edge
endpoints).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graphs import WeightedOrientedGraph, _disjoint_sets
from .monomials import Monomial, MonomialIdeal, minimalize

__all__ = [
    "edge_monomial",
    "edge_ideal",
    "matching_power",
    "matching_power_from_matchings",
]


def edge_monomial(D: WeightedOrientedGraph, edge: tuple[int, int]) -> Monomial:
    """The monomial x_t * x_h^{w(h)} of the directed form of underlying {a, b}."""
    t, h = D.orientation(*edge)
    exps = [0] * D.n
    exps[t - 1] += 1
    exps[h - 1] += D.weight(h)
    return Monomial(tuple(exps))


def edge_ideal(D: WeightedOrientedGraph) -> MonomialIdeal:
    """The ideal generated by x_t x_h^{w(h)} over directed edges (t, h).

    Heads always have an incoming edge, so source weights never enter; with
    all weights 1 this is the usual squarefree edge ideal.  An edgeless graph
    yields the zero ideal.
    """
    return minimalize((edge_monomial(D, e) for e in D.underlying_edges), D.n)


def matching_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """The k-th matching power of I.

    k = 0 gives the unit ideal (empty product).  The result is zero when no k
    generators have pairwise disjoint supports.  The unit ideal is its own
    matching power for every k (1 has empty support).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return MonomialIdeal.unit(I.n)
    if I.is_zero():
        return MonomialIdeal.zero(I.n)
    if I.is_unit():
        return MonomialIdeal.unit(I.n)
    gens = [g.exponents for g in I.gens]
    products = (
        Monomial(tuple(map(sum, zip(*(gens[i] for i in t)))))
        for t in _disjoint_sets(_supports(I), k)
    )
    return minimalize(products, I.n)


def _supports(I: MonomialIdeal) -> list[list[int]]:
    """The variables of each generator."""
    return [[i for i, e in enumerate(g.exponents) if e] for g in I.gens]


def _matching_products(
    n: int,
    directed: Sequence[tuple[int, int]],
    weights: Sequence[int],
    matchings: Iterable[tuple[int, ...]],
) -> set[tuple[int, ...]]:
    """Exponent vectors of the edge-monomial products of the given matchings.

    ``directed[i]`` is the (tail, head) form of edge i and ``weights[v]`` the
    weight of vertex v (index 0 unused).
    """
    out = set()
    for m in matchings:
        exps = [0] * n
        for ei in m:
            t, h = directed[ei]
            exps[t - 1] += 1
            exps[h - 1] += weights[h]
        out.add(tuple(exps))
    return out


def matching_power_from_matchings(D: WeightedOrientedGraph, k: int) -> MonomialIdeal:
    """Matching power of the edge ideal built directly from k-matchings.

    Off forests one product can divide another, so the products are
    minimalized.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return MonomialIdeal.unit(D.n)
    edges = D.underlying_edges
    directed = [D.orientation(a, b) for a, b in edges]
    products = _matching_products(D.n, directed, [1, *D.weights], _disjoint_sets(edges, k))
    return minimalize((Monomial(e) for e in products), D.n)

