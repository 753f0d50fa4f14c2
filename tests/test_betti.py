from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_graph
from matchpow import (
    FIELD_GF2,
    FIELD_RATIONALS,
    GeneratorCapError,
    Monomial,
    MonomialIdeal,
    betti_numbers,
    edge_ideal,
    has_linear_resolution,
    is_linearly_related,
    is_polymatroidal,
    lcm_lattice,
    matching_power,
)
import matchpow.betti
from matchpow.betti import (
    _h0_at,
    _int_rank,
    _koszul_faces,
    _ranks_from_faces,
)
from matchpow.generate import SplitMix64, build_random_forest


def m(*exps):
    return Monomial(tuple(exps))


def ideal(n, *gens):
    return MonomialIdeal.from_monomials(n, [m(*g) for g in gens])


# -- lcm lattice ---------------------------------------------------------------


def _lattice_oracle(I):
    """Iterated pairwise joins until stable, as plain exponent tuples."""
    current = {g.exponents for g in I.gens}
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(tuple(max(x, y) for x, y in zip(a, b)))
        if nxt == current:
            return current
        current = nxt


def test_lcm_lattice_examples():
    I = ideal(3, (1, 1, 0), (0, 1, 1))
    assert {a.exponents for a in lcm_lattice(I)} == {(1, 1, 0), (0, 1, 1), (1, 1, 1)}
    J = ideal(4, (1, 1, 0, 0), (0, 0, 1, 1))
    assert {a.exponents for a in lcm_lattice(J)} == {
        (1, 1, 0, 0),
        (0, 0, 1, 1),
        (1, 1, 1, 1),
    }
    IP4 = edge_ideal(path_graph(4))
    assert len(lcm_lattice(IP4)) == 6
    assert {a.exponents for a in lcm_lattice(IP4)} == _lattice_oracle(IP4)


@given(st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_lcm_lattice_matches_oracle(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 6), 2, rng)
    I = edge_ideal(D)
    if I.is_zero():
        return
    assert {a.exponents for a in lcm_lattice(I)} == _lattice_oracle(I)


# -- Koszul complexes ------------------------------------------------------------


def koszul(I, a):
    """Faces of the Koszul complex of I at a as sets of variables (1-based)."""
    supp, faces = _koszul_faces([g.exponents for g in I.gens], a.exponents)
    sets = {frozenset(supp[p] + 1 for p in range(len(supp)) if f >> p & 1) for f in faces}
    return sets, faces


def test_koszul_complex_two_points():
    IP4 = edge_ideal(path_graph(4))
    sets, faces = koszul(IP4, m(1, 1, 1, 0))
    assert sets == {frozenset(), frozenset({1}), frozenset({3})}
    assert _ranks_from_faces(faces, FIELD_GF2) == [0, 1]  # two points: one extra component


def test_koszul_complex_contractible_path():
    IP4 = edge_ideal(path_graph(4))
    sets, faces = koszul(IP4, m(1, 1, 1, 1))
    facets = {f for f in sets if not any(f < g for g in sets)}
    assert facets == {
        frozenset({1, 2}),
        frozenset({1, 4}),
        frozenset({3, 4}),
    }
    assert _ranks_from_faces(faces, FIELD_GF2) == [0, 0, 0]


def test_koszul_complex_void():
    I = ideal(3, (1, 1, 0))
    sets, faces = koszul(I, m(0, 0, 2))
    assert faces == [] and sets == set()
    assert _ranks_from_faces(faces, FIELD_GF2) == []


def test_homology_irrelevant_and_spheres():
    irrelevant = [0b0]
    assert _ranks_from_faces(irrelevant, FIELD_GF2) == [1]
    two_points = [0b00, 0b01, 0b10]
    assert _ranks_from_faces(two_points, FIELD_GF2) == [0, 1]
    hollow_triangle = [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110]
    assert _ranks_from_faces(hollow_triangle, FIELD_GF2) == [0, 0, 1]
    assert _ranks_from_faces(hollow_triangle, FIELD_RATIONALS) == [0, 0, 1]


def test_euler_characteristic_consistency():
    rng = SplitMix64(99)
    for _ in range(40):
        D = build_random_forest(rng.randint(2, 6), 2, rng)
        I = edge_ideal(D)
        if I.is_zero():
            continue
        for a in lcm_lattice(I):
            _, faces = koszul(I, a)
            ranks = _ranks_from_faces(faces, FIELD_GF2)
            if not faces:
                continue
            # reduced Euler characteristic: alternating face count, empty face included
            chi_faces = sum(1 if f.bit_count() % 2 else -1 for f in faces)
            chi_homology = sum(
                (-1) ** (d - 1) * r for d, r in enumerate(ranks)
            )
            assert chi_faces == chi_homology
            assert all(r >= 0 for r in ranks)


# -- Betti tables ----------------------------------------------------------------


def test_betti_table_p4():
    table = betti_numbers(edge_ideal(path_graph(4)))
    assert table.totalized() == {(0, 2): 3, (1, 3): 2}
    assert table.regularity() == 2
    assert table.entries[(1, (1, 1, 1, 0))] == 1
    assert table.entries[(1, (0, 1, 1, 1))] == 1


def test_betti_table_principal_overlap():
    # (a^2 b^2 c d e) * (f, g): two degree-8 generators, one linear syzygy
    I = ideal(7, (2, 2, 1, 1, 1, 1, 0), (2, 2, 1, 1, 1, 0, 1))
    table = betti_numbers(I)
    assert table.totalized() == {(0, 8): 2, (1, 9): 1}
    assert table.entries[(1, (2, 2, 1, 1, 1, 1, 1))] == 1
    assert has_linear_resolution(I)


def test_betti_table_principal():
    table = betti_numbers(ideal(3, (1, 2, 0)))
    assert table.totalized() == {(0, 3): 1}


def test_betti_cap():
    gens = [tuple(1 if j == i else 0 for j in range(16)) for i in range(16)]
    I = ideal(16, *gens)
    with pytest.raises(GeneratorCapError):
        betti_numbers(I)
    with pytest.raises(GeneratorCapError):
        has_linear_resolution(I)
    assert is_linearly_related(I)  # pairwise lcms need no cap


def test_betti_zero_ideal_rejected():
    with pytest.raises(ValueError):
        betti_numbers(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        has_linear_resolution(MonomialIdeal.zero(2))
    with pytest.raises(ValueError):
        is_linearly_related(MonomialIdeal.zero(2))


def test_generator_count_matches_beta_zero():
    rng = SplitMix64(5)
    for _ in range(25):
        D = build_random_forest(rng.randint(2, 6), 3, rng)
        I = edge_ideal(D)
        if I.is_zero():
            continue
        table = betti_numbers(I)
        total = table.totalized()
        by_degree: dict[int, int] = {}
        for g in I.gens:
            by_degree[g.degree] = by_degree.get(g.degree, 0) + 1
        assert {j: r for (i, j), r in total.items() if i == 0} == by_degree


def test_vanishing_off_the_lattice():
    I = edge_ideal(path_graph(4))
    lattice = {a.exponents for a in lcm_lattice(I)}
    # spot-check multidegrees outside the lattice via the raw Koszul route
    for a in [(1, 0, 1, 0), (2, 1, 0, 0), (1, 1, 2, 1)]:
        assert a not in lattice
        _, faces = koszul(I, Monomial(a))
        assert all(r == 0 for r in _ranks_from_faces(faces, FIELD_GF2))


# -- resolution predicates ----------------------------------------------------------


def test_linear_resolution_p4_and_regularity():
    IP4 = edge_ideal(path_graph(4))
    assert has_linear_resolution(IP4)
    assert betti_numbers(IP4).regularity() == 2


def test_p5_not_linearly_related():
    IP5 = edge_ideal(path_graph(5))
    # beta_{1,(1,1,0,1,1)} is nonzero at degree 4 > 3
    table = betti_numbers(IP5)
    assert table.entries[(1, (1, 1, 0, 1, 1))] == 1
    assert not is_linearly_related(IP5)
    assert not has_linear_resolution(IP5)


def test_p5_squared_power_is_linear():
    P = matching_power(edge_ideal(path_graph(5)), 2)
    assert is_polymatroidal(P)
    assert has_linear_resolution(P)
    assert is_linearly_related(P)


def test_non_equigenerated_predicates_are_false():
    I = ideal(3, (1, 0, 2), (0, 1, 1))
    assert not has_linear_resolution(I)
    assert not is_linearly_related(I)


@given(st.integers(0, 400))
@settings(max_examples=50, deadline=None)
def test_implication_chain(seed):
    rng = SplitMix64(seed)
    D = build_random_forest(rng.randint(2, 6), 3, rng)
    I = edge_ideal(D)
    if I.is_zero():
        return
    for k in range(1, 3):
        P = matching_power(I, k)
        if P.is_zero() or len(P.gens) > 14:
            continue
        if is_polymatroidal(P):
            assert has_linear_resolution(P)
        if has_linear_resolution(P):
            assert is_linearly_related(P)


def _squarefree_veronese(n, d):
    return ideal(n, *(tuple(int(i in c) for i in range(n)) for c in combinations(range(n), d)))


def _maximal_ideal_power(n, d):
    return ideal(
        n, *(tuple(c.count(i) for i in range(n)) for c in combinations_with_replacement(range(n), d))
    )


def test_linear_relations_close_no_lattice(monkeypatch):
    def closure(I):
        raise AssertionError("is_linearly_related closed the lcm lattice")

    monkeypatch.setattr(matchpow.betti, "lcm_lattice", closure)
    P16 = matching_power(edge_ideal(path_graph(16)), 3)
    assert len(P16.gens) == 286
    assert is_linearly_related(_maximal_ideal_power(16, 1))
    assert not is_linearly_related(P16)
    assert is_linearly_related(_squarefree_veronese(9, 4))
    assert is_linearly_related(_maximal_ideal_power(7, 2))


def _random_monomial(rng, n, degree=None):
    """Exponents up to 4; of the given total degree when one is given."""
    if degree is None:
        return tuple(rng.randint(0, 4) for _ in range(n))
    exps = [0] * n
    for _ in range(degree):
        exps[rng.choice([i for i in range(n) if exps[i] < 4])] += 1
    return tuple(exps)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_h0_matches_the_face_search_on_the_lattice(seed):
    rng = SplitMix64(seed)
    n = rng.randint(1, 5)
    degree = rng.randint(1, min(6, 4 * n)) if rng.randint(0, 1) else None
    I = ideal(n, *(_random_monomial(rng, n, degree) for _ in range(rng.randint(1, 6))))
    gens_exps = [g.exponents for g in I.gens]
    for a in lcm_lattice(I):
        _, faces = _koszul_faces(gens_exps, a.exponents)
        ranks = _ranks_from_faces(faces, FIELD_GF2)
        assert _h0_at(gens_exps, a.exponents) == (ranks[1] if len(ranks) > 1 else 0)


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_linear_relations_match_the_betti_table(seed):
    rng = SplitMix64(seed)
    n = rng.randint(2, 5)
    degree = rng.randint(1, 5)
    I = ideal(n, *(_random_monomial(rng, n, degree) for _ in range(rng.randint(1, 9))))
    entries = betti_numbers(I).entries
    assert is_linearly_related(I) == all(sum(a) == degree + 1 for (i, a) in entries if i == 1)


def test_field_agreement_on_fixtures():
    for I in [
        edge_ideal(path_graph(4)),
        edge_ideal(path_graph(5)),
        matching_power(edge_ideal(path_graph(5)), 2),
        ideal(7, (2, 2, 1, 1, 1, 1, 0), (2, 2, 1, 1, 1, 0, 1)),
    ]:
        assert betti_numbers(I).entries == betti_numbers(I, FIELD_RATIONALS).entries


def test_field_comparison_over_random_corpus():
    rng = SplitMix64(17)
    for _ in range(20):
        D = build_random_forest(rng.randint(2, 6), 2, rng)
        I = edge_ideal(D)
        if I.is_zero():
            continue
        assert betti_numbers(I).entries == betti_numbers(I, FIELD_RATIONALS).entries


# -- exact rank backend ---------------------------------------------------------------


def _fraction_rank(rows, ncols):
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inv
            if f:
                for c in range(col, ncols):
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
    return rank


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=80)
def test_bareiss_rank_matches_fraction_rank(rows, cols, seed):
    rng = SplitMix64(seed)
    mat = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    assert _int_rank(mat, cols) == _fraction_rank(mat, cols)
