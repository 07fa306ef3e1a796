"""Analysis of a parametrized branch R = k[[x_1(t),...,x_n(t)]] inside k[[t]].

`analyze` validates the parametrization, computes the ring's echelon closure
mod t^N, and certifies the conductor exponent exactly: the closure's pivot
valuations below N are the true achieved valuations, and once a run of
length >= e (e the least positive achieved valuation) is observed, closure of
the value semigroup under +e proves every larger valuation is achieved.

The order s needs few closures.  A plane branch (n = 2) is k[[x,y]]/(f) with
ord f = e, so s = e - 1 in closed form.  For n >= 3 the ladder of m^d closures
stops at the first d with C(n+d-1, d) > e, because H(d) = dim m^d/m^(d+1) is
at most e in a one-dimensional Cohen-Macaulay ring.  Both still demand the
room (c + d*e < N) that the full ladder's closures would need, so the first
certified N does not depend on which route found s.

Each m^d is closed with its a-priori tail c + d*e, from where it holds every
valuation, so its closure runs only to c + (d+1)*e.  The ring closure itself
runs to the full N, since its tail c is what the analysis certifies; the
certified basis then keeps only its rows below c, as m keeps those of R.

The doubling check re-analyzes at 2N and demands the same invariants.
`analyze` runs it on request, once, on the ring it returns: when the caller
names the truncation its later work needs, a ring short of it is re-analyzed
before the check, not after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd
from typing import Callable, Sequence

from .echelon import EchelonBasis, ValueSet, close_under, quotient_dim
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
    value_set: ValueSet
    stable: bool
    max_truncation: int = DEFAULT_MAX_TRUNCATION
    _mpow: dict[int, EchelonBasis] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str | None:
        return self.spec.name

    def is_regular(self) -> bool:
        return self.embdim_n == 1


class _NeedsTruncation(InsufficientTruncation):
    """Internal retry signal: analyze doubles the truncation and tries again."""

    def __init__(self, reason: str, kind: str = "conductor", gcd_evidence: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.kind = kind
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


def _mpow_tail(ring: RingData, d: int) -> int:
    """c + d*e, from where m^d holds every valuation; demands it below N."""
    tail = ring.conductor_c + d * ring.multiplicity
    if tail >= ring.truncation:
        raise _NeedsTruncation(f"m^{d} needs truncation above {tail}", kind="order")
    return tail


def m_power_basis(ring: RingData, d: int) -> EchelonBasis:
    """Echelon basis of m^d mod t^N (d=0 gives the ring itself), tail certified."""
    if d in ring._mpow:
        return ring._mpow[d]
    N = ring.truncation
    if d == 0:
        basis = ring.ring_basis
    elif d == 1:
        rows = {v: r for v, r in ring.ring_basis._rows.items() if v != 0}
        basis = EchelonBasis(N, rows, max(ring.conductor_c, 1))
    else:
        basis = close_under(monomials(ring.generators, d), ring.generators, N,
                            tail_from=_mpow_tail(ring, d))
    ring._mpow[d] = basis
    return basis


def embedding_dimension(ring: RingData) -> int:
    """dim_k m/m^2, computed from the echelon bases of m and m^2."""
    return quotient_dim(m_power_basis(ring, 1), m_power_basis(ring, 2))


def order_s(ring: RingData) -> int:
    """Largest s with dim m^d/m^(d+1) = C(n+d-1, d) for all d <= s.

    This detects the least degree s+1 of a relation among the generators: as
    long as the Hilbert function matches the ambient power-series ring's, no
    relation of that degree exists.  Where theory fixes the answer no closure
    runs, but the room the m^d closures would need is still demanded.
    """
    n = ring.embdim_n
    if n < 2:
        raise OrderUndetectable("order is defined for embedding dimension >= 2")
    e = ring.multiplicity
    if n > e:
        raise InternalInconsistency(f"embedding dimension {n} exceeds multiplicity {e}")
    if n == 2:
        # R = k[[x,y]]/(f) with ord f = e, so H(d) = d + 1 exactly for d < e;
        # the full ladder would close m^3 .. m^(e+1), so demand their room
        for d in range(3, e + 2):
            _mpow_tail(ring, d)
        return e - 1
    d = 2  # H(1) = n by definition
    while True:
        if comb(n + d - 1, d) > e:
            # H(d) <= e, so the pattern breaks here
            _mpow_tail(ring, d + 1)
            return d - 1
        if quotient_dim(m_power_basis(ring, d), m_power_basis(ring, d + 1)) != comb(n + d - 1, d):
            return d - 1
        d += 1


def is_gorenstein(ring: RingData) -> bool:
    """Symmetry of the value semigroup about c-1 (Kunz's criterion; valid here
    because the branch is analytically irreducible with residue field k)."""
    return _symmetric(set(ring.gaps), ring.conductor_c)


def _symmetric(gapset: set[int], c: int) -> bool:
    return all((z in gapset) != ((c - 1 - z) in gapset) for z in range(c))


def _analyze_at(spec: BranchSpec, gens: tuple[TruncatedSeries, ...], N: int,
                max_truncation: int) -> RingData:
    maxdeg = spec.max_degree()
    guard = maxdeg + 1
    e = min(int(g.valuation()) for g in gens)

    basis = close_under([TruncatedSeries.one()], gens, N)
    achieved = set(basis.pivot_valuations)
    limit = N - guard
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
                raise _NeedsTruncation(
                    f"achieved valuations share gcd {g}", kind="conductor", gcd_evidence=g
                )
        raise _NeedsTruncation("no certified conductor run")
    basis = basis.with_tail(c)

    gaps = tuple(v for v in range(c) if v not in achieved)
    delta = len(gaps)

    ring = RingData(
        spec=spec,
        truncation=N,
        ring_basis=basis,
        generators=gens,
        conductor_c=c,
        delta=delta,
        gaps=gaps,
        embdim_n=0,  # filled below
        order_s=None,
        gorenstein=_symmetric(set(gaps), c),
        multiplicity=e,
        value_set=basis.value_set(),
        stable=False,
        max_truncation=max_truncation,
    )
    ring.embdim_n = embedding_dimension(ring)
    if (ring.embdim_n == 1) != (delta == 0):
        raise InternalInconsistency(
            f"embedding dimension {ring.embdim_n} inconsistent with delta {delta}"
        )
    if ring.embdim_n == 2 and not ring.gorenstein:
        raise InternalInconsistency("a plane branch must be Gorenstein, but its semigroup "
                                    "is not symmetric")
    if ring.embdim_n >= 2:
        ring.order_s = order_s(ring)
    return ring


def analyze(spec: BranchSpec, *, initial_truncation: int | None = None,
            verify_stability: bool = True,
            max_truncation: int = DEFAULT_MAX_TRUNCATION,
            room: Callable[[RingData], int] | None = None) -> RingData:
    """Full branch analysis with certified conductor and optional 2N verification.

    `room` maps a certified ring to the truncation that later work on it needs
    (the CLI passes `differentials.required_truncation`).  A ring short of it
    is re-analyzed there first, so only the ring returned is verified.
    """
    if initial_truncation is not None and initial_truncation < 1:
        raise BranchInvError(f"initial truncation {initial_truncation} is below 1")
    gens = _validate(spec)
    maxdeg = spec.max_degree()
    N = initial_truncation if initial_truncation is not None else max(64, 4 * maxdeg + 16)
    if N > max_truncation:
        raise TruncationExhausted(f"truncation {N} is above the cap {max_truncation}")
    # the largest truncation worth a try: a verified ring needs its 2N under the cap
    limit = max_truncation // 2 if verify_stability else max_truncation

    ring = None
    gcd_seen = 0
    while True:
        try:
            ring = _analyze_at(spec, gens, N, max_truncation)
            break
        except _NeedsTruncation as exc:
            if exc.gcd_evidence:
                # an apparently g-scaled semigroup: confirm once at a doubled
                # truncation, then reject rather than grinding to the cap
                if exc.gcd_evidence == gcd_seen or 2 * N > max_truncation:
                    raise ImprimitiveParametrization(exc.gcd_evidence) from None
                gcd_seen = exc.gcd_evidence
                N *= 2
            elif N >= limit:
                err = OrderUndetectable if exc.kind == "order" else TruncationExhausted
                raise err(
                    f"no stable analysis below truncation {max_truncation} ({exc.reason})"
                ) from None
            else:
                # doubling past the limit tries the limit itself last
                N = min(2 * N, limit)

    needed = room(ring) if room is not None else 0
    if needed > ring.truncation:
        if verify_stability:
            _doubled_truncation(ring)  # no check that fails here fits after re-analysis
        return ensure_truncation(ring, needed, verify_stability=verify_stability)
    if verify_stability:
        _verify(ring)
    return ring


def _doubled_truncation(ring: RingData) -> int:
    """The truncation 2N of the doubling check; raises when it passes the cap."""
    double = 2 * ring.truncation
    if double > ring.max_truncation:
        raise TruncationExhausted(
            f"doubling verification needs truncation {double}, above the cap {ring.max_truncation}"
        )
    return double


def _verify(ring: RingData) -> None:
    """The doubling check: re-analyze at 2N, demand the same invariants, and
    mark the ring stable."""
    double = _analyze_at(ring.spec, ring.generators, _doubled_truncation(ring),
                         ring.max_truncation)
    same = (
        double.gaps == ring.gaps
        and double.embdim_n == ring.embdim_n
        and double.order_s == ring.order_s
        and double.gorenstein == ring.gorenstein
    )
    if not same:
        raise InternalInconsistency(
            "doubling verification changed the invariants; "
            f"N={ring.truncation}: gaps={ring.gaps}, 2N: gaps={double.gaps}"
        )
    ring.stable = True


def ensure_truncation(ring: RingData, needed: int, *,
                      verify_stability: bool | None = None) -> RingData:
    """Re-analyze at a larger truncation when downstream work needs more room;
    the ring's truncation cap still holds, and the new ring is verified when
    asked, by default when the old one was."""
    if ring.truncation >= needed:
        return ring
    return analyze(
        ring.spec,
        initial_truncation=needed,
        verify_stability=ring.stable if verify_stability is None else verify_stability,
        max_truncation=ring.max_truncation,
    )
