"""Numerical semigroup arithmetic by dynamic-programming sieve.

Independent of the series/echelon machinery on purpose: tests use this as the
oracle for monomial branches, and the CLI exposes it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import GcdNotOne, SieveLimitExceeded

#: Largest sieve :func:`sieve` allocates; <1000, 1001> needs 10^6 values.
MAX_SIEVE_BOUND = 1 << 20


@dataclass(frozen=True)
class SemigroupData:
    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    frobenius: int  # -1 when there are no gaps
    conductor: int
    delta: int
    symmetric: bool


def sieve(generators: Sequence[int]) -> SemigroupData:
    """Gaps, Frobenius number, conductor, delta, and symmetry of <a_1,...,a_n>.

    Requires positive generators with gcd 1.  The sieve runs to
    (a_1 - 1)(a_n - 1) + a_1, a_1 and a_n the least and largest generator:
    the Frobenius number lies below (a_1 - 1)(a_n - 1) (Schur's bound), so
    the sieve ends in a run of a_1 achieved values, and the semigroup, closed
    under adding a_1, holds everything beyond.  A sieve past
    :data:`MAX_SIEVE_BOUND` values is refused before it is allocated.
    """
    gens = tuple(sorted(set(int(a) for a in generators)))
    if not gens or gens[0] <= 0:
        raise GcdNotOne("generators must be positive integers")
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        raise GcdNotOne(f"gcd of generators is {g}, not 1")

    e = gens[0]
    if e == 1:
        return SemigroupData(gens, (), -1, 0, 0, True)

    bound = (e - 1) * (gens[-1] - 1) + e
    if bound > MAX_SIEVE_BOUND:
        raise SieveLimitExceeded(
            f"the sieve of {bound} values is above the limit {MAX_SIEVE_BOUND}")
    achieved = [False] * bound
    achieved[0] = True
    for v in range(e, bound):
        for a in gens:
            if v >= a and achieved[v - a]:
                achieved[v] = True
                break

    frobenius = max(v for v in range(bound) if not achieved[v])
    c = frobenius + 1
    gaps = tuple(v for v in range(c) if not achieved[v])
    gapset = set(gaps)
    symmetric = all((v in gapset) != ((c - 1 - v) in gapset) for v in range(c))
    return SemigroupData(gens, gaps, frobenius, c, len(gaps), symmetric)
