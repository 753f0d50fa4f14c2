import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seven_vertex_example, path_graph
from matchpow import (
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    edge_ideal,
    edge_monomial,
    enumerate_matchings,
    matching_number,
    matching_power,
    matching_power_from_matchings,
)
from matchpow.generate import SplitMix64, build_random_forest, random_simple_graph


def m(*exps):
    return Monomial(tuple(exps))


def ideal(n, *gens):
    return MonomialIdeal.from_monomials(n, [m(*g) for g in gens])


# -- edge ideals ---------------------------------------------------------------


def test_edge_ideal_weighted_star():
    D = WeightedOrientedGraph.build(4, [(1, 4), (2, 4), (3, 4)], {4: 2})
    assert edge_ideal(D) == ideal(4, (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2))


def test_edge_ideal_seven_vertex_example():
    D = seven_vertex_example()
    # (c a^2, d a^2, d b^2, e b^2, f d, g d)
    assert edge_ideal(D) == ideal(
        7,
        (2, 0, 1, 0, 0, 0, 0),
        (2, 0, 0, 1, 0, 0, 0),
        (0, 2, 0, 1, 0, 0, 0),
        (0, 2, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 0, 0, 1),
    )


def test_edge_ideal_unweighted_path():
    assert edge_ideal(path_graph(3)) == ideal(3, (1, 1, 0), (0, 1, 1))
    assert edge_ideal(WeightedOrientedGraph.build(3, [])).is_zero()


def test_edge_monomial_examples():
    D = seven_vertex_example()
    assert edge_monomial(D, (3, 1)) == m(2, 0, 1, 0, 0, 0, 0)  # c -> a, w(a)=2
    assert edge_monomial(D, (4, 6)) == m(0, 0, 0, 1, 0, 1, 0)  # f -> d, w(d)=1
    assert edge_monomial(path_graph(2), (1, 2)) == m(1, 1)
    with pytest.raises(ValueError):
        edge_monomial(D, (1, 2))


# -- matching powers -----------------------------------------------------------


def _power_via_matchings_oracle(D, k):
    """Oracle route: products of edge monomials over exhaustive k-matchings."""
    products = []
    for matching in enumerate_matchings(D, k):
        acc = Monomial.one(D.n)
        for e in matching.edges:
            acc = acc * edge_monomial(D, e)
        products.append(acc)
    return MonomialIdeal.from_monomials(D.n, products)


def test_matching_power_p5():
    I = edge_ideal(path_graph(5))
    got = matching_power(I, 2)
    assert got == _power_via_matchings_oracle(path_graph(5), 2)
    assert got == ideal(
        5, (1, 1, 1, 1, 0), (1, 1, 0, 1, 1), (0, 1, 1, 1, 1)
    )


def test_matching_power_seven_vertex_example():
    D = seven_vertex_example()
    got = matching_power(edge_ideal(D), 3)
    assert got == ideal(7, (2, 2, 1, 1, 1, 1, 0), (2, 2, 1, 1, 1, 0, 1))
    assert got == matching_power_from_matchings(D, 3)


def test_matching_power_disjoint_support_scan():
    I = ideal(5, (1, 0, 2, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1))
    # only the pairs avoiding the shared variable x3 survive
    assert matching_power(I, 2) == ideal(5, (1, 0, 2, 1, 1), (0, 1, 1, 1, 1))


def _brute_matching_power(I, k):
    """Oracle: products of every k generators with pairwise disjoint supports."""
    supports = [frozenset(i for i, e in enumerate(g.exponents) if e) for g in I.gens]
    products = []
    for combo in itertools.combinations(range(len(I.gens)), k):
        if all(supports[i].isdisjoint(supports[j]) for i, j in itertools.combinations(combo, 2)):
            acc = Monomial.one(I.n)
            for i in combo:
                acc = acc * I.gens[i]
            products.append(acc)
    return MonomialIdeal.from_monomials(I.n, products)


@pytest.mark.parametrize("seed", range(40))
def test_matching_power_matches_bruteforce_on_general_ideals(seed):
    # not edge ideals: supports of any size that overlap, exponents up to 3
    rng = SplitMix64(5000 + seed)
    n = rng.randint(3, 8)
    gens = []
    for _ in range(rng.randint(2, 9)):
        exps = tuple(rng.randint(1, 3) if rng.randrange(3) == 0 else 0 for _ in range(n))
        if any(exps):
            gens.append(Monomial(exps))
    if not gens:
        return
    I = MonomialIdeal.from_monomials(n, gens)
    for k in range(5):
        assert matching_power(I, k) == _brute_matching_power(I, k)


def test_matching_power_of_a_large_perfect_matching():
    # 1,000 disjoint edges: the search runs 1,000 levels deep on its own stack
    D = WeightedOrientedGraph.build(2000, [(2 * i + 1, 2 * i + 2) for i in range(1000)])
    I = edge_ideal(D)
    P = matching_power(I, 1000)
    assert P.gens == (m(*[1] * 2000),)
    assert matching_power(I, 1001).is_zero()


def test_matching_power_conventions():
    I = ideal(3, (1, 1, 0))
    assert matching_power(I, 0).is_unit()
    assert matching_power(I, 2).is_zero()
    assert matching_power(MonomialIdeal.zero(3), 2).is_zero()
    assert matching_power(MonomialIdeal.unit(3), 5).is_unit()
    with pytest.raises(ValueError):
        matching_power(I, -1)


@given(st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_grade_equals_matching_number_on_random_forests(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 8), 3, rng)
    if not D.underlying_edges:
        return
    I = edge_ideal(D)
    grade = max(k for k in range(1, len(I.gens) + 1) if not matching_power(I, k).is_zero())
    assert grade == matching_number(D)


@given(st.integers(0, 500), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_two_power_routes_agree(seed, k):
    rng = SplitMix64(seed)
    if rng.randrange(2):
        D = build_random_forest(rng.randint(2, 7), 3, rng)
    else:
        D = random_simple_graph(rng.randint(2, 6), 0.5, rng)
    assert matching_power(edge_ideal(D), k) == matching_power_from_matchings(D, k)


@given(st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_powers_are_nested(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 7), 2, rng)
    I = edge_ideal(D)
    if I.is_zero():
        return
    for k in range(1, matching_number(D) + 1):
        upper = matching_power(I, k)
        lower = matching_power(I, k - 1) if k > 1 else I
        for g in upper.gens:
            assert any(h.divides(g) for h in lower.gens)


def _in_ordinary_power(I, u, k):
    """Oracle: u lies in I^k, i.e. some k-fold product of generators divides u."""
    if k == 0:
        return True
    for g in I.gens:
        if g.divides(u):
            quotient = Monomial(tuple(a - b for a, b in zip(u.exponents, g.exponents)))
            if _in_ordinary_power(I, quotient, k - 1):
                return True
    return False


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_matching_power_sits_inside_ordinary_power(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 6), 2, rng)
    I = edge_ideal(D)
    if I.is_zero():
        return
    for k in range(1, matching_number(D) + 1):
        for g in matching_power(I, k).gens:
            assert _in_ordinary_power(I, g, k)


@given(st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_unweighted_powers_are_squarefree(seed):
    rng = SplitMix64(seed)
    G = random_simple_graph(rng.randint(2, 6), 0.5, rng)
    if not G.underlying_edges:
        return
    nu = matching_number(G)
    for k in range(1, nu + 1):
        P = matching_power(edge_ideal(G), k)
        assert all(max(g.exponents) <= 1 for g in P.gens)
        squarefree_products = {
            tuple(
                min(1, sum(edge_monomial(G, e).exponents[i] for e in mm.edges))
                for i in range(G.n)
            )
            for mm in enumerate_matchings(G, k)
        }
        assert {g.exponents for g in P.gens} == squarefree_products

