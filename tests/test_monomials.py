import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpow import Monomial, MonomialIdeal, minimalize
from matchpow.generate import SplitMix64


def m(*exps):
    return Monomial(tuple(exps))


def ideal(n, *gens):
    return MonomialIdeal.from_monomials(n, [m(*g) for g in gens])


def test_degree_and_squarefree():
    assert m(1, 0, 2, 0).degree == 3


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Monomial((1, -1))


# -- minimalize ---------------------------------------------------------------


def test_minimalize_examples():
    I = ideal(4, (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 1, 1))
    assert I.gens == (m(0, 0, 1, 1), m(1, 1, 0, 0))
    assert minimalize([], 3).is_zero()
    both = ideal(2, (1, 2), (2, 1))
    assert len(both.gens) == 2


def test_minimalize_rejects_wrong_length():
    with pytest.raises(ValueError):
        minimalize([m(1, 0)], 3)


def test_minimalize_matches_the_pairwise_definition():
    # a generator is a distinct candidate that no other candidate divides;
    # the corpus mixes degrees and exponents up to 3, duplicates included
    rng = SplitMix64(23)
    for _ in range(400):
        n = rng.randint(1, 5)
        cands = [
            m(*(rng.randint(0, 3) for _ in range(n))) for _ in range(rng.randint(0, 14))
        ]
        distinct = set(c.exponents for c in cands)
        expected = sorted(
            e
            for e in distinct
            if not any(f != e and all(a <= b for a, b in zip(f, e)) for f in distinct)
        )
        assert [g.exponents for g in minimalize(cands, n).gens] == expected


@st.composite
def monomials(draw, n=4, max_exp=3):
    return Monomial(tuple(draw(st.integers(0, max_exp)) for _ in range(n)))


@st.composite
def ideals(draw, n=4, max_exp=3, max_gens=5):
    gens = draw(st.lists(monomials(n, max_exp), min_size=0, max_size=max_gens))
    return MonomialIdeal.from_monomials(n, gens)


@given(ideals())
def test_minimalize_is_a_fixpoint(I):
    again = minimalize(I.gens, I.n)
    assert again == I
    # no generator divides another
    for g in I.gens:
        for h in I.gens:
            if g != h:
                assert not g.divides(h)


@given(ideals())
def test_generators_sorted_lexicographically(I):
    exps = [g.exponents for g in I.gens]
    assert exps == sorted(exps)


# -- products and sums --------------------------------------------------------


def test_product_star_example():
    # x4^2 * (x1, x2, x3)
    principal = ideal(4, (0, 0, 0, 2))
    variables = ideal(4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert principal * variables == ideal(
        4, (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)
    )


def test_product_seven_variable_example():
    # (a^2 b^2 c d e) * (f, g) has the two expected degree-8 generators
    n = 7
    core = ideal(n, (2, 2, 1, 1, 1, 0, 0))
    fg = ideal(n, (0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1))
    prod = core * fg
    assert prod == ideal(n, (2, 2, 1, 1, 1, 1, 0), (2, 2, 1, 1, 1, 0, 1))
    assert {g.degree for g in prod.gens} == {8}


def test_product_with_unit_and_zero():
    I = ideal(3, (1, 1, 0))
    assert I * MonomialIdeal.unit(3) == I
    assert (I * MonomialIdeal.zero(3)).is_zero()


def test_sum_examples():
    assert ideal(3, (1, 1, 0)) + ideal(3, (1, 1, 1)) == ideal(3, (1, 1, 0))
    assert ideal(2, (1, 0)) + ideal(2, (0, 1)) == ideal(2, (1, 0), (0, 1))
    assert ideal(4, (1, 1, 0, 0), (0, 0, 1, 1)) == ideal(4, (0, 0, 1, 1), (1, 1, 0, 0))


@given(ideals(n=3, max_exp=2, max_gens=4), ideals(n=3, max_exp=2, max_gens=4))
def test_product_commutes(I, J):
    assert I * J == J * I


@given(
    ideals(n=3, max_exp=2, max_gens=3),
    ideals(n=3, max_exp=2, max_gens=3),
    ideals(n=3, max_exp=2, max_gens=3),
)
@settings(max_examples=40)
def test_product_associates_and_distributes(I, J, K):
    assert (I * J) * K == I * (J * K)
    assert I * (J + K) == I * J + I * K


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        ideal(3, (1, 0, 0)) * ideal(2, (1, 0))
    with pytest.raises(ValueError):
        ideal(3, (1, 0, 0)) + ideal(2, (1, 0))


# -- equigeneration --------------------------------------------------------------


def test_is_equigenerated():
    assert ideal(4, (1, 0, 0, 2), (0, 1, 0, 2)).is_equigenerated() == 3
    # degrees 3 and 2: no common generation degree
    assert ideal(3, (1, 0, 2), (0, 1, 1)).is_equigenerated() is None
    assert ideal(1, (1,)).is_equigenerated() == 1
    with pytest.raises(ValueError):
        MonomialIdeal.zero(2).is_equigenerated()


def test_zero_and_unit_flags():
    assert MonomialIdeal.zero(3).is_zero()
    assert MonomialIdeal.unit(3).is_unit()
    assert not ideal(3, (1, 0, 0)).is_unit()

