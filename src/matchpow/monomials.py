"""Monomials and monomial ideals with exact integer exponents.

Variables are numbered 1..n so that variable indices double as graph vertex
labels.  All values are immutable and hashable; generator sets of ideals are
kept divisibility-minimal and lexicographically sorted, so equality of ideals
is structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["Monomial", "MonomialIdeal", "minimalize"]


def _check_same_ring(n1: int, n2: int) -> None:
    if n1 != n2:
        raise ValueError(f"ambient variable counts differ: {n1} vs {n2}")


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial stored as its exponent vector; position i holds deg of x_{i+1}."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.exponents and min(self.exponents) < 0:
            raise ValueError(f"negative exponent: {self.exponents}")

    @staticmethod
    def one(n: int) -> "Monomial":
        return Monomial((0,) * n)

    @staticmethod
    def variable(i: int, n: int, power: int = 1) -> "Monomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = power
        return Monomial(tuple(exps))

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return not any(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        _check_same_ring(self.n, other.n)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_same_ring(self.n, other.n)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def minimalize(candidates: Iterable[Monomial], n: int) -> "MonomialIdeal":
    """The ideal generated by ``candidates``, with a minimal generator set.

    Duplicates and monomials divisible by another candidate are discarded.
    """
    seen = set()
    unique = []
    for m in candidates:
        if m.n != n:
            raise ValueError(f"monomial has {m.n} variables, ambient is {n}")
        if m.exponents not in seen:
            seen.add(m.exponents)
            unique.append(m)
    # A divisor has strictly smaller total degree, except for equality, so a
    # candidate is tested only against the kept generators of lower degree:
    # in degree order, the first ``lower`` of them.
    ranked = sorted((m.degree, m.exponents, m) for m in unique)
    kept: list[Monomial] = []
    lower, degree = 0, None
    for d, _, m in ranked:
        if d != degree:
            lower, degree = len(kept), d
        if not any(g.divides(m) for g in kept[:lower]):
            kept.append(m)
    kept.sort(key=lambda m: m.exponents)
    return MonomialIdeal(n, tuple(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generators, sorted lexicographically.

    The zero ideal has no generators; the unit ideal has the single generator 1.
    Construct via :func:`minimalize` / :meth:`from_monomials` unless the
    generators are already known to be minimal and sorted.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.n != self.n:
                raise ValueError(f"generator has {g.n} variables, ambient is {self.n}")

    @staticmethod
    def from_monomials(n: int, candidates: Iterable[Monomial]) -> "MonomialIdeal":
        return minimalize(candidates, n)

    @staticmethod
    def zero(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, ())

    @staticmethod
    def unit(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, (Monomial.one(n),))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one()

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_ring(self.n, other.n)
        return minimalize((g * h for g in self.gens for h in other.gens), self.n)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_ring(self.n, other.n)
        return minimalize(self.gens + other.gens, self.n)

    def times_monomial(self, m: Monomial) -> "MonomialIdeal":
        """The ideal m*I.  Translation preserves minimality and sort order."""
        _check_same_ring(self.n, m.n)
        return MonomialIdeal(self.n, tuple(g * m for g in self.gens))

    def is_equigenerated(self) -> Optional[int]:
        """The common generator degree, or None if degrees are mixed.

        Raises on the zero ideal, which has no generation degree.
        """
        if self.is_zero():
            raise ValueError("the zero ideal has no generation degree")
        degrees = {g.degree for g in self.gens}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"
