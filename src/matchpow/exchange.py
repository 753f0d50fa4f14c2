"""The polymatroidal exchange property.

An equigenerated monomial ideal is polymatroidal when for all generators u, v
and every i with deg_i(u) > deg_i(v) there is a j with deg_j(u) < deg_j(v)
such that x_j * u / x_i is again a generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .monomials import Monomial, MonomialIdeal

__all__ = [
    "ExchangeFailure",
    "check_exchange",
    "is_polymatroidal",
]


@dataclass(frozen=True)
class ExchangeFailure:
    """A pair (u, v) and index i admitting no exchange step.

    Checkable: deg_i(u) > deg_i(v) and for every j with deg_j(u) < deg_j(v)
    the monomial x_j * u / x_i is not a generator.
    """

    u: Monomial
    v: Monomial
    i: int


def check_exchange(I: MonomialIdeal) -> tuple[bool, Optional[ExchangeFailure]]:
    """Decide polymatroidality; on an exchange break return the witness.

    Zero and unit ideals count as polymatroidal (recursion-base convention).
    Ideals not generated in a single degree are not polymatroidal; no witness
    is attached in that case.
    """
    if I.is_zero() or I.is_unit():
        return True, None
    if I.is_equigenerated() is None:
        return False, None
    gens = [g.exponents for g in I.gens]
    genset = set(gens)
    n = I.n
    for u in gens:
        for v in gens:
            if u is v:
                continue
            for i in range(n):
                if u[i] <= v[i]:
                    continue
                cand = list(u)
                cand[i] -= 1
                for j in range(n):
                    if u[j] < v[j]:
                        cand[j] += 1
                        hit = tuple(cand) in genset
                        cand[j] -= 1
                        if hit:
                            break
                else:
                    return False, ExchangeFailure(Monomial(u), Monomial(v), i + 1)
    return True, None


def is_polymatroidal(I: MonomialIdeal) -> bool:
    return check_exchange(I)[0]

