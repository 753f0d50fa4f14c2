from hypothesis import given, settings
from hypothesis import strategies as st

from matchpow import (
    Monomial,
    MonomialIdeal,
    WeightedOrientedGraph,
    check_exchange,
    edge_ideal,
    is_polymatroidal,
    matching_number,
    matching_power,
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
    u, v, i = failure.u.exponents, failure.v.exponents, failure.i - 1
    assert u[i] > v[i]
    gens = {g.exponents for g in I.gens}
    for j in range(I.n):
        if u[j] < v[j]:
            swapped = list(u)
            swapped[i] -= 1
            swapped[j] += 1
            assert tuple(swapped) not in gens


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
    top = max(k for k in range(1, len(I.gens) + 1) if not matching_power(I, k).is_zero())
    assert is_polymatroidal(matching_power(I, top))


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

