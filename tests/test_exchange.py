import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_graph
from matchpow import (
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    check_exchange,
    edge_ideal,
    exchange_witness_last_power,
    is_matroidal,
    is_polymatroidal,
    matching_number,
    matching_power,
    monomial_grade,
)
from matchpow.generate import SplitMix64, random_simple_graph


def m(*exps):
    return Monomial(tuple(exps))


def ideal(n, *gens):
    return MonomialIdeal.from_monomials(n, [m(*g) for g in gens])


def test_weighted_star_is_polymatroidal():
    I = ideal(4, (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2))
    assert is_polymatroidal(I)


def _assert_failure_checkable(I, failure):
    u, v = failure.u, failure.v
    assert u.deg(failure.i) > v.deg(failure.i)
    for j in range(1, I.n + 1):
        if u.deg(j) < v.deg(j):
            swapped = (u / Monomial.variable(failure.i, I.n)) * Monomial.variable(j, I.n)
            assert not any(swapped == g for g in I.gens)


def test_two_disjoint_edges_fail_with_witness():
    I = ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))
    ok, failure = check_exchange(I)
    assert not ok and failure is not None
    _assert_failure_checkable(I, failure)
    # the mirror triple (x1x2, x3x4, i=1) is an exchange failure as well:
    # x2x3 and x2x4 are not generators
    from matchpow import ExchangeFailure

    _assert_failure_checkable(I, ExchangeFailure(m(1, 1, 0, 0), m(0, 0, 1, 1), 1))


def test_single_generator_is_polymatroidal():
    assert is_polymatroidal(ideal(4, (1, 1, 1, 1)))


def test_zero_unit_conventions_and_mixed_degrees():
    assert is_polymatroidal(MonomialIdeal.zero(3))
    assert is_polymatroidal(MonomialIdeal.unit(3))
    ok, failure = check_exchange(ideal(3, (1, 0, 2), (0, 1, 1)))
    assert not ok and failure is None  # mixed degrees carry no exchange witness


def test_is_matroidal():
    assert is_matroidal(matching_power(edge_ideal(path_graph(5)), 2))
    assert not is_matroidal(ideal(4, (1, 0, 0, 2), (0, 1, 0, 2)))
    assert is_matroidal(matching_power(edge_ideal(path_graph(4)), 2))


def test_last_power_exhaustive_small_graphs():
    # every graph on 4 labelled vertices, by edge subsets of K4
    pairs = [(a, b) for a in range(1, 5) for b in range(a, 5) if a < b]
    for mask in range(1, 1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        G = WeightedOrientedGraph.build(4, edges)
        nu = matching_number(G)
        assert is_polymatroidal(matching_power(edge_ideal(G), nu))


@st.composite
def quadratic_ideals(draw, n=5):
    """Random monomial ideals generated in degree two (squares allowed)."""
    gens = []
    count = draw(st.integers(1, 6))
    for _ in range(count):
        i = draw(st.integers(1, n))
        j = draw(st.integers(1, n))
        exps = [0] * n
        exps[i - 1] += 1
        exps[j - 1] += 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal.from_monomials(n, gens)


@given(quadratic_ideals())
@settings(max_examples=120, deadline=None)
def test_last_power_of_quadratic_ideals(I):
    assert is_polymatroidal(matching_power(I, monomial_grade(I)))


@given(st.integers(0, 600))
@settings(max_examples=60, deadline=None)
def test_products_of_polymatroidal_last_powers(seed):
    rng = SplitMix64(seed)
    n = rng.randint(2, 5)
    G1 = random_simple_graph(n, 0.6, rng)
    G2 = random_simple_graph(n, 0.6, rng)
    if not G1.underlying_edges or not G2.underlying_edges:
        return
    P1 = matching_power(edge_ideal(G1), matching_number(G1))
    P2 = matching_power(edge_ideal(G2), matching_number(G2))
    assert is_polymatroidal(P1 * P2)


# -- the alternating-path witness -------------------------------------------------


def test_witness_walk_p5():
    P5 = path_graph(5)
    u, v = m(1, 1, 1, 1, 0), m(0, 1, 1, 1, 1)
    j = exchange_witness_last_power(P5, u, v, 1)
    assert j == 5
    swapped = (u / Monomial.variable(1, 5)) * Monomial.variable(j, 5)
    assert matching_power(edge_ideal(P5), 2).contains(swapped)
    assert u.deg(j) < v.deg(j)


def test_witness_walk_p7():
    P7 = path_graph(7)
    u = m(1, 1, 1, 1, 1, 1, 0)
    v = m(0, 1, 1, 1, 1, 1, 1)
    assert exchange_witness_last_power(P7, u, v, 1) == 7


def test_witness_walk_on_a_forty_one_vertex_path():
    P41 = path_graph(41)
    u = m(*[1] * 40, 0)
    v = m(0, *[1] * 40)
    started = time.perf_counter()
    assert exchange_witness_last_power(P41, u, v, 1) == 41
    assert time.perf_counter() - started < 1.0


def test_witness_rejects_bad_inputs():
    P5 = path_graph(5)
    u, v = m(1, 1, 1, 1, 0), m(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        exchange_witness_last_power(P5, u, v, 2)  # deg_2(u) equals deg_2(v)
    weighted = WeightedOrientedGraph.build(2, [(1, 2)], {2: 2})
    with pytest.raises(ValueError):
        exchange_witness_last_power(weighted, m(1, 2), m(1, 2), 1)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_witness_soundness_on_random_graphs(seed):
    rng = SplitMix64(seed)
    G = random_simple_graph(rng.randint(2, 7), 0.4, rng)
    if not G.underlying_edges:
        return
    nu = matching_number(G)
    P = matching_power(edge_ideal(G), nu)
    gens = list(P.gens)
    checked = 0
    for u in gens:
        for v in gens:
            if u == v or checked >= 25:
                continue
            for i in sorted(u.support() - v.support()):
                j = exchange_witness_last_power(G, u, v, i)
                assert u.deg(j) < v.deg(j)
                swapped = (u / Monomial.variable(i, G.n)) * Monomial.variable(j, G.n)
                assert any(swapped == g for g in gens)
                checked += 1
