"""Multigraded Betti numbers of monomial ideals at desk scale.

beta_{i,a}(I) is the dimension of the reduced homology H~_{i-1} of the upper
Koszul simplicial complex at multidegree a, whose faces are the subsets F of
supp(a) with x^a / x_F in I.  Nonzero entries occur only at multidegrees in
the lcm lattice of the generators, which keeps the scan finite.  Homology is
computed by exact boundary-matrix ranks, over GF(2) by default and over the
rationals on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, lt
from typing import Iterator

from .monomials import Monomial, MonomialIdeal

__all__ = [
    "FIELD_GF2",
    "FIELD_RATIONALS",
    "GeneratorCapError",
    "lcm_lattice",
    "BettiTable",
    "betti_numbers",
    "has_linear_resolution",
    "is_linearly_related",
    "DEFAULT_GENERATOR_CAP",
]

FIELD_GF2 = "gf2"
FIELD_RATIONALS = "q"
DEFAULT_GENERATOR_CAP = 14


class GeneratorCapError(RuntimeError):
    """Raised when an ideal has too many generators for the Betti scan."""


def _check_field(field: str) -> None:
    if field not in (FIELD_GF2, FIELD_RATIONALS):
        raise ValueError(f"unknown field {field!r}; use {FIELD_GF2!r} or {FIELD_RATIONALS!r}")


def lcm_lattice(I: MonomialIdeal) -> list[Monomial]:
    """Closure of the generator multidegrees under pairwise lcm, sorted."""
    if I.is_zero():
        raise ValueError("the zero ideal has an empty lcm lattice")
    gens = [g.exponents for g in I.gens]
    known = set(gens)
    frontier = list(gens)
    while frontier:
        fresh = []
        for f in frontier:
            for g in gens:
                j = tuple(max(a, b) for a, b in zip(f, g))
                if j not in known:
                    known.add(j)
                    fresh.append(j)
        frontier = fresh
    return [Monomial(e) for e in sorted(known, key=lambda e: (sum(e), e))]


def _divides_some(divisors: list[tuple[int, ...]], quotient: list[int]) -> bool:
    """True when some exponent vector in ``divisors`` is at most ``quotient``."""
    for g in divisors:
        for ge, qe in zip(g, quotient):
            if ge > qe:
                break
        else:
            return True
    return False


def _koszul_faces(gens_exps: list[tuple[int, ...]], aexp: tuple[int, ...]):
    """Support positions and face masks of the Koszul complex at a.

    Faces are returned as bitmasks over the support positions; an empty list
    means the void complex.  Membership of x^a / x_F is monotone under
    shrinking F, so the search extends faces only.
    """
    divisors = [g for g in gens_exps if all(ge <= ae for ge, ae in zip(g, aexp))]
    supp = [i for i, e in enumerate(aexp) if e]
    if not divisors:
        return supp, []
    quotient = list(aexp)
    faces: list[int] = []

    def dfs(mask: int, next_pos: int) -> None:
        faces.append(mask)
        for p in range(next_pos, len(supp)):
            var = supp[p]
            quotient[var] -= 1
            if _divides_some(divisors, quotient):
                dfs(mask | (1 << p), p + 1)
            quotient[var] += 1

    dfs(0, 0)  # the empty face is present: some generator divides x^a
    return supp, faces


def _gf2_rank(cols: list[int]) -> int:
    pivots: list[int] = []
    for col in cols:
        for p in pivots:
            if col & (p & -p):
                col ^= p
        if col:
            pivots.append(col)
    return len(pivots)


def _int_rank(rows: list[list[int]], ncols: int) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            factor = mat[r][col]
            row = mat[r]
            top = mat[rank]
            for c in range(col, ncols):
                row[c] = (row[c] * pivot - factor * top[c]) // prev
        prev = pivot
        rank += 1
    return rank


def _ranks_from_faces(faces: list[int], field: str) -> list[int]:
    """Reduced homology ranks [H~_{-1}, H~_0, ..., H~_dim] from face masks."""
    _check_field(field)
    if not faces:
        return []
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {f: i for i, f in enumerate(masks)} for d, masks in by_dim.items()}
    # rank of the boundary map C_d -> C_{d-1}
    bd_rank: dict[int, int] = {}
    bd_rank[0] = 1 if by_dim.get(0) else 0  # every vertex maps to the empty face
    for d in range(1, top + 1):
        rows_idx = index.get(d - 1, {})
        cols = []
        if field == FIELD_GF2:
            for f in by_dim.get(d, []):
                col = 0
                m = f
                while m:
                    bit = m & -m
                    m ^= bit
                    col |= 1 << rows_idx[f ^ bit]
                cols.append(col)
            bd_rank[d] = _gf2_rank(cols)
        else:
            nrows = len(rows_idx)
            int_rows = []
            for f in by_dim.get(d, []):
                row = [0] * nrows
                sign = 1
                m = f
                while m:
                    bit = m & -m
                    m ^= bit
                    row[rows_idx[f ^ bit]] = sign
                    sign = -sign
                int_rows.append(row)
            bd_rank[d] = _int_rank(int_rows, nrows)
    ranks = []
    for d in range(-1, top + 1):
        fd = len(by_dim.get(d, []))
        r_in = bd_rank.get(d + 1, 0)
        r_out = bd_rank.get(d, 0) if d >= 0 else 0
        ranks.append(fd - r_out - r_in)
    return ranks


@dataclass
class BettiTable:
    """Nonzero multigraded Betti numbers of an ideal.

    ``entries[(i, a)]`` is beta_{i,a}; ``i = 0`` counts minimal generators.
    """

    n: int
    entries: dict[tuple[int, tuple[int, ...]], int]
    gen_degrees: tuple[int, ...]

    def totalized(self) -> dict[tuple[int, int], int]:
        """The coarse table beta_{i,j} summed over multidegrees of degree j."""
        out: dict[tuple[int, int], int] = {}
        for (i, a), r in self.entries.items():
            key = (i, sum(a))
            out[key] = out.get(key, 0) + r
        return out

    def regularity(self) -> int:
        return max(sum(a) - i for (i, a) in self.entries)


def _require_capped(I: MonomialIdeal) -> None:
    if len(I.gens) > DEFAULT_GENERATOR_CAP:
        raise GeneratorCapError(
            f"ideal has {len(I.gens)} generators, above the Betti cap "
            f"{DEFAULT_GENERATOR_CAP}: the lcm-lattice scan costs 2^|support| faces "
            "per lattice point"
        )


def _betti_entries(I: MonomialIdeal, field: str) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The nonzero beta_{i,a} of a nonzero ideal as (i, a, rank), lazily, one
    lcm-lattice point at a time."""
    gens_exps = [g.exponents for g in I.gens]
    for a in lcm_lattice(I):
        _, faces = _koszul_faces(gens_exps, a.exponents)
        for i, r in enumerate(_ranks_from_faces(faces, field)):
            if r:
                yield i, a.exponents, r


def betti_numbers(I: MonomialIdeal, field: str = FIELD_GF2) -> BettiTable:
    """The full multigraded Betti table of a nonzero monomial ideal."""
    _check_field(field)
    if I.is_zero():
        raise ValueError("the zero ideal has no Betti table")
    _require_capped(I)
    entries = {(i, a): r for i, a, r in _betti_entries(I, field)}
    degrees = tuple(sorted({g.degree for g in I.gens}))
    return BettiTable(I.n, entries, degrees)


def has_linear_resolution(I: MonomialIdeal, field: str = FIELD_GF2) -> bool:
    """True iff every nonzero beta_{i,a} sits at total degree i + d.

    Ideals not generated in a single degree do not qualify.  Scans the lcm
    lattice with early exit.
    """
    _check_field(field)
    if I.is_zero():
        raise ValueError("the zero ideal has no resolution to classify")
    d = I.is_equigenerated()
    if d is None:
        return False
    _require_capped(I)
    return all(sum(a) - i == d for i, a, _ in _betti_entries(I, field))


def _h0_at(gens_exps: list[tuple[int, ...]], aexp: tuple[int, ...]) -> int:
    """dim H~_0 of the Koszul complex at a: component count minus one.

    x_i is a vertex and {x_i, x_j} an edge exactly when some generator g
    dividing x^a has g_i < a_i (and g_j < a_j), so the 1-skeleton is the
    union of cliques on the slack supports supp(a - g) of the divisors.
    """
    components: list[int] = []
    for g in gens_exps:
        if all(map(le, g, aexp)):
            slack = sum(1 << i for i, below in enumerate(map(lt, g, aexp)) if below)
            kept = []
            for c in components:
                if c & slack:
                    slack |= c
                else:
                    kept.append(c)
            components = kept + [slack] if slack else kept
    return max(len(components) - 1, 0)


def is_linearly_related(I: MonomialIdeal) -> bool:
    """True iff every nonzero beta_{1,a} sits at total degree d + 1.

    The minimal resolution is a direct summand of the Taylor resolution, so
    beta_{1,a} can be nonzero only at a = lcm(u, v) for generators u, v.  The
    check reads H~_0 at the distinct pairwise lcms and closes no lcm lattice:
    O(G^2) lcms for G generators in n variables, at O(G * n) each, and no cap.
    Ideals not generated in a single degree do not qualify.
    """
    if I.is_zero():
        raise ValueError("the zero ideal has no resolution to classify")
    d = I.is_equigenerated()
    if d is None:
        return False
    gens_exps = [g.exponents for g in I.gens]
    seen = set()
    for i, u in enumerate(gens_exps):
        for v in gens_exps[i + 1 :]:
            a = tuple(map(max, u, v))
            if a not in seen:
                seen.add(a)
                if sum(a) != d + 1 and _h0_at(gens_exps, a):
                    return False
    return True

