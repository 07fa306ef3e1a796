"""Analysis of a parametrized branch R = k[[x_1(t),...,x_n(t)]] inside k[[t]].

`analyze` validates the parametrization, computes the ring's echelon closure
mod t^N, and certifies the conductor exponent exactly: the closure's pivot
valuations below N are the true achieved valuations, and once a run of
length >= e (e the least positive achieved valuation) is observed, closure of
the value semigroup under +e proves every larger valuation is achieved.

The order s needs few closures.  A plane branch (n = 2) is k[[x,y]]/(f) with
ord f = e, so s = e - 1 in closed form.  For n >= 3 the ladder of m^d closures
stops at the first d with C(n+d-1, d) > e, because H(d) = dim m^d/m^(d+1) is
at most e in a one-dimensional Cohen-Macaulay ring.

Each m^d is closed with its a-priori tail c + d*e, from where it holds every
valuation, so its closure runs only to c + (d+1)*e and needs no truncation
from the ring.  The ring closure is the one closure that reads a truncation
N, since its tail c is what the analysis certifies; the certified basis then
keeps only its rows below c, as m keeps those of R.

None of those stored rows depends on N.  So truncations double from the
first (the last try is the largest worth one) only until the conductor
certifies; n and s are then found once, and the rest of the doubling
sequence is arithmetic.  N has room when c + (s+2)*e < N (c + 2*e < N for
n = 1), the room of every m^d closure of the full ladder, so the truncation
reported does not depend on which route found s; a try without room names
m^d for the least d >= 2 with c + d*e >= N.  The ring is reported at the
first N with room, or at the room its caller names, with the same rows.
Every invariant is read off the certified rows, so `analyze` checks them, on
request and once, by a closure certificate: V = span(rows below c) +
t^c k[[t]] must hold 1, and each row times each generator, cut below c, must
reduce to zero against the rows.  Then V is closed under the generators, so
R lies in V; the closure's rows lie in R, so V = R.  That is n*(rows below
c) products and no second closure.  A verified run still keeps 2N under the
cap, as the doubling check it replaced did, so the truncations tried and
reported and the exit-3 texts are those the doubling check gave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd
from typing import Callable, Sequence

from .echelon import EchelonBasis, close_under, closure_defect, quotient_dim
from .errors import (
    BranchInvError,
    ImprimitiveParametrization,
    InsufficientTruncation,
    InternalInconsistency,
    NonPositiveValuationGenerator,
    OrderUndetectable,
    TruncationExhausted,
)
from .series import TruncatedSeries, monomials, parse_poly

DEFAULT_MAX_TRUNCATION = 4096


@dataclass(frozen=True)
class BranchSpec:
    """A branch given by polynomial parametrizations x_i(t), each known exactly."""

    generators: tuple[TruncatedSeries, ...]
    name: str | None = None

    @classmethod
    def from_strings(cls, texts: Sequence[str], name: str | None = None) -> "BranchSpec":
        return cls(tuple(parse_poly(s) for s in texts), name=name)

    def max_degree(self) -> int:
        return max(int(g.degree()) for g in self.generators)


@dataclass(eq=False)
class RingData:
    """The analyzed branch; treat as immutable after `analyze` returns."""

    spec: BranchSpec
    truncation: int
    ring_basis: EchelonBasis
    generators: tuple[TruncatedSeries, ...]
    conductor_c: int
    delta: int
    gaps: tuple[int, ...]
    embdim_n: int
    order_s: int | None
    gorenstein: bool
    multiplicity: int
    stable: bool
    _mpow: dict[int, EchelonBasis] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str | None:
        return self.spec.name

    def is_regular(self) -> bool:
        return self.embdim_n == 1


class _NeedsTruncation(InsufficientTruncation):
    """Internal retry signal: no certified conductor run below N."""

    def __init__(self, reason: str, gcd_evidence: int = 0):
        super().__init__(reason)
        self.gcd_evidence = gcd_evidence


def _validate(spec: BranchSpec) -> tuple[TruncatedSeries, ...]:
    gens = spec.generators
    if not gens:
        raise NonPositiveValuationGenerator("a branch needs at least one generator")
    for i, g in enumerate(gens):
        if g.is_zero() or g.valuation() < 1:
            raise NonPositiveValuationGenerator(
                f"generator {i + 1} ({g}) must be nonconstant with valuation >= 1"
            )
    if len(gens) == 1:
        v = int(gens[0].valuation())
        if v > 1:
            # a single generator x(t) gives R = k[[x]], so the value set is v*N
            raise ImprimitiveParametrization(v)
    d = 0
    for g in gens:
        for e in g.terms():
            d = gcd(d, e)
    if d > 1:
        raise ImprimitiveParametrization(d)
    return gens


def _certify_conductor(achieved: set[int], limit: int, e: int) -> int | None:
    """Least c with [c, limit) achieved and a certified run of >= e values.

    The run of e consecutive achieved valuations plus closure under +e proves
    everything >= c is achieved; minimality is exact because the achieved set
    below the truncation is exact.
    """
    t = limit
    while t - 1 >= 0 and (t - 1) in achieved:
        t -= 1
    if t >= limit or limit - t < e:
        return None
    return t


def m_power_basis(ring: RingData, d: int) -> EchelonBasis:
    """Echelon basis of m^d (d=0 gives the ring itself), tail certified, at
    its tail plus e: c + d*e for d >= 2, where its closure stops."""
    if d == 0:
        return ring.ring_basis
    if d not in ring._mpow:
        c, e = ring.conductor_c, ring.multiplicity
        if d == 1:
            rows = {v: r for v, r in ring.ring_basis._rows.items() if v != 0}
            ring._mpow[1] = EchelonBasis(max(c, 1) + e, rows, max(c, 1))
        else:
            ring._mpow[d] = close_under(monomials(ring.generators, d), ring.generators,
                                        tail_from=c + d * e)
    return ring._mpow[d]


def embedding_dimension(ring: RingData) -> int:
    """dim_k m/m^2, computed from the echelon bases of m and m^2."""
    return quotient_dim(m_power_basis(ring, 1), m_power_basis(ring, 2))


def order_s(ring: RingData) -> int:
    """Largest s with dim m^d/m^(d+1) = C(n+d-1, d) for all d <= s.

    This detects the least degree s+1 of a relation among the generators: as
    long as the Hilbert function matches the ambient power-series ring's, no
    relation of that degree exists.  Where theory fixes the answer no closure
    runs.
    """
    n = ring.embdim_n
    if n < 2:
        raise OrderUndetectable("order is defined for embedding dimension >= 2")
    e = ring.multiplicity
    if n > e:
        raise InternalInconsistency(f"embedding dimension {n} exceeds multiplicity {e}")
    if n == 2:
        # R = k[[x,y]]/(f) with ord f = e, so H(d) = d + 1 exactly for d < e
        return e - 1
    d = 2  # H(1) = n by definition
    # past C(n+d-1, d) > e the pattern breaks, since H(d) <= e
    while comb(n + d - 1, d) <= e:
        if quotient_dim(m_power_basis(ring, d), m_power_basis(ring, d + 1)) != comb(n + d - 1, d):
            break
        d += 1
    return d - 1


def is_gorenstein(ring: RingData) -> bool:
    """Symmetry of the value semigroup about c-1 (Kunz's criterion; valid here
    because the branch is analytically irreducible with residue field k)."""
    return _symmetric(set(ring.gaps), ring.conductor_c)


def _symmetric(gapset: set[int], c: int) -> bool:
    return all((z in gapset) != ((c - 1 - z) in gapset) for z in range(c))


def _analyze_at(spec: BranchSpec, gens: tuple[TruncatedSeries, ...], N: int) -> EchelonBasis:
    """The ring closed at N, cut below its certified conductor c.

    Raises _NeedsTruncation only when no certified conductor run exists.
    """
    e = min(int(g.valuation()) for g in gens)
    basis = close_under([TruncatedSeries.one()], gens, N)
    achieved = set(basis.pivot_valuations)
    limit = N - spec.max_degree() - 1
    c = _certify_conductor(achieved, limit, e)
    if c is None:
        nonzero = sorted(achieved - {0})
        g = 0
        for v in nonzero:
            g = gcd(g, v)
        if g > 1:
            # the achieved set looks like g * (a certified semigroup); report
            # the evidence so the retry loop can confirm it across a doubling
            scaled = {v // g for v in nonzero} | {0}
            sc = _certify_conductor(scaled, limit // g, max(1, e // g))
            if sc is not None:
                raise _NeedsTruncation(f"achieved valuations share gcd {g}", gcd_evidence=g)
        raise _NeedsTruncation("no certified conductor run")
    return basis.with_tail(c)


def _next_try(N: int, limit: int, max_truncation: int, err: type, reason: str) -> int:
    """The truncation after N in the doubling sequence, whose last try is `limit`."""
    if N >= limit:
        raise err(f"no stable analysis below truncation {max_truncation} ({reason})")
    return min(2 * N, limit)


def analyze(spec: BranchSpec, *, initial_truncation: int | None = None,
            verify_stability: bool = True,
            max_truncation: int = DEFAULT_MAX_TRUNCATION,
            room: Callable[[RingData], int] | None = None) -> RingData:
    """Full branch analysis with certified conductor and an optional closure
    certificate of the reported basis.

    `room` maps a certified ring to the truncation that later work on it
    needs (the CLI passes `cli.required_truncation`).  A ring short of it is
    reported there, with the same rows, and verified there.
    """
    if initial_truncation is not None and initial_truncation < 1:
        raise BranchInvError(f"initial truncation {initial_truncation} is below 1")
    gens = _validate(spec)
    maxdeg = spec.max_degree()
    e = min(int(g.valuation()) for g in gens)
    N = initial_truncation if initial_truncation is not None else max(64, 4 * maxdeg + 16)
    if N > max_truncation:
        raise TruncationExhausted(f"truncation {N} is above the cap {max_truncation}")
    # the largest truncation worth a try: a verified ring needs its 2N under the cap
    limit = max_truncation // 2 if verify_stability else max_truncation

    gcd_seen = 0
    while True:
        reason = "no certified conductor run"
        # below e + maxdeg + 1 no run of e certified values fits: skip the closure
        if N - maxdeg - 1 >= e:
            try:
                basis = _analyze_at(spec, gens, N)
                break
            except _NeedsTruncation as exc:
                if exc.gcd_evidence:
                    # an apparently g-scaled semigroup: confirm once at a doubled
                    # truncation, then reject rather than grinding to the cap
                    if exc.gcd_evidence == gcd_seen or 2 * N > max_truncation:
                        raise ImprimitiveParametrization(exc.gcd_evidence) from None
                    gcd_seen = exc.gcd_evidence
                    N *= 2
                    continue
                reason = str(exc)
        N = _next_try(N, limit, max_truncation, TruncationExhausted, reason)

    c = basis.tail_from
    gaps = basis.gaps_below(c)
    ring = RingData(
        spec=spec,
        truncation=N,
        ring_basis=basis,
        generators=gens,
        conductor_c=c,
        delta=len(gaps),
        gaps=gaps,
        embdim_n=0,  # filled below
        order_s=None,
        gorenstein=_symmetric(set(gaps), c),
        multiplicity=e,
        stable=False,
    )
    ring.embdim_n = embedding_dimension(ring)
    if (ring.embdim_n == 1) != (ring.delta == 0):
        raise InternalInconsistency(
            f"embedding dimension {ring.embdim_n} inconsistent with delta {ring.delta}"
        )
    if ring.embdim_n == 2 and not ring.gorenstein:
        raise InternalInconsistency("a plane branch must be Gorenstein, but its semigroup "
                                    "is not symmetric")
    if ring.embdim_n >= 2:
        ring.order_s = order_s(ring)

    # every later try certifies the same ring, so only its room is in question
    top = 2 if ring.order_s is None else ring.order_s + 2
    while c + top * e >= N:
        d = max(2, -(-(N - c) // e))  # the least d >= 2 with c + d*e >= N
        N = _next_try(N, limit, max_truncation, OrderUndetectable,
                      f"m^{d} needs truncation above {c + d * e}")

    needed = max(N, room(ring)) if room is not None else N
    if verify_stability:
        _doubled_truncation(N, max_truncation)  # this ring's 2N is checked first
    if needed > max_truncation:
        raise TruncationExhausted(f"truncation {needed} is above the cap {max_truncation}")
    ring.truncation = needed
    ring.ring_basis = EchelonBasis(needed, basis._rows, c)
    if verify_stability:
        _doubled_truncation(needed, max_truncation)  # the cap the 2N check had
        _certify_closure(ring.ring_basis, gens)
        ring.stable = True
    return ring


def _certify_closure(basis: EchelonBasis, gens: tuple[TruncatedSeries, ...]) -> None:
    """Check that V = span(rows below c) + t^c k[[t]] holds 1 and is closed
    under every generator.  Then R lies in V, and the closure's rows lie in
    R, so V = R: rows, gaps and c are certified without a second closure."""
    c = basis.tail_from
    if not basis.member(TruncatedSeries.one(), c):
        raise InternalInconsistency(f"closure certificate failed: 1 is not in the ring "
                                    f"span below the conductor {c}")
    defect = closure_defect(basis, gens)
    if defect is not None:
        v, i = defect
        raise InternalInconsistency(
            f"closure certificate failed: the row of valuation {v} times generator "
            f"{i + 1} ({gens[i]}) leaves the ring span below the conductor {c}"
        )


def _doubled_truncation(N: int, max_truncation: int) -> int:
    """The truncation 2N that a verified run keeps under the cap; raises when
    it passes the cap."""
    if 2 * N > max_truncation:
        raise TruncationExhausted(
            f"doubling verification needs truncation {2 * N}, above the cap {max_truncation}"
        )
    return 2 * N
