"""Edge ideals of weighted oriented graphs and matching powers of monomial ideals.

The k-th matching power of I is generated by products of k monomials of I with
pairwise disjoint supports; it suffices to multiply minimal generators, since
every monomial of I is divisible by a minimal generator with smaller support.
For an edge ideal the generators correspond to k-matchings of the underlying
graph (two routes that the test suite checks against each other).

Both routes, and :func:`monomial_grade` and :func:`decompose_generator`, run
one search: :func:`graphs._disjoint_sets`, an iterative walk over index
tuples of pairwise disjoint supports (generator variables, or edge endpoints).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .graphs import Matching, WeightedOrientedGraph, _disjoint_sets
from .monomials import Monomial, MonomialIdeal, minimalize

__all__ = [
    "edge_monomial",
    "edge_ideal",
    "matching_power",
    "matching_power_from_matchings",
    "monomial_grade",
    "decompose_generator",
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


def monomial_grade(I: MonomialIdeal) -> int:
    """Largest k with a k-subset of generators having pairwise disjoint supports."""
    if I.is_zero():
        raise ValueError("the zero ideal has no monomial grade")
    if I.is_unit():
        raise ValueError("the unit ideal has unbounded monomial grade")
    supports = _supports(I)
    # a greedy pick in index order is a lower bound; raise it while the
    # search finds a larger set
    best, taken = 0, set()
    for supp in supports:
        if taken.isdisjoint(supp):
            taken.update(supp)
            best += 1
    while next(_disjoint_sets(supports, best + 1), None) is not None:
        best += 1
    return best


def decompose_generator(D: WeightedOrientedGraph, u: Monomial, k: int) -> Matching:
    """A k-matching whose edge monomials multiply to u, first in edge order.

    Raises if no decomposition exists (u is then not a generator of the k-th
    matching power of the edge ideal).
    """
    if u.n != D.n:
        raise ValueError("ambient variable counts differ")
    # matched edges have disjoint supports, so an edge fits into u exactly when
    # its monomial agrees with u on both of its endpoints; a k-matching of such
    # edges then multiplies to u iff it covers all of supp(u)
    edges = D.underlying_edges
    fits = [
        i
        for i, e in enumerate(edges)
        if all(edge_monomial(D, e).exponents[v - 1] == u.exponents[v - 1] for v in e)
    ]
    if 2 * k == sum(1 for e in u.exponents if e):
        for m in _disjoint_sets([edges[i] for i in fits], k):
            return Matching(tuple(edges[fits[i]] for i in m))
    raise ValueError(f"{u} has no decomposition into {k} disjoint edge monomials")

