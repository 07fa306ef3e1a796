"""Fractional-ideal calculus over an analyzed branch.

Everything rests on two exact-membership thresholds: f belongs to R iff it
does so mod t^c (the conductor ideal t^c k[[t]] sits inside R), and f belongs
to an R-module M iff it does so mod t^(c + vmin(M)) (since t^(c+vmin) k[[t]]
is contained in the conductor times M).  These turn computations mod a
power of t into exact answers everywhere below.

The second threshold is also each ideal's tail, known before its closure
runs: `from_generators` closes M with the a-priori tail c + vmin, so the
closure runs only to c + vmin + e, whatever the ring's truncation, and
stores rows only below its tail.

Closures run only where an answer needs a span.  The inverse scan reduces
each generator's shifts against the ring's integer rows, below c only, and
yields generators of R :_K I.  It stops at m0, the least z with z + v(I)
inside v(R), read off I's value set and R's gaps: valuations add, so no
element of I^{-1} lies below m0.  The levels it admits are checked against
that bound, with equality on a Gorenstein ring (Jaeger's duality).  The
trace contains t^c k[[t]], so it closes only the products of I's and
I^{-1}'s generators of valuation below c, together with t^c, ...,
t^(c+e-1).  h needs no closure past I's own, since
it is invariant under I -> t^k I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .branch import RingData
from .echelon import (EchelonBasis, _Builder, _reduce_vec, _vec_from_series, close_under,
                      quotient_dim)
from .errors import (
    InternalInconsistency,
    NotAnIntegralIdeal,
    NotInNormalization,
    RingMismatch,
    ScanExhausted,
    UncertifiedTail,
)
from .series import TruncatedSeries


@dataclass(eq=False)
class FractionalIdeal:
    """A finitely generated R-submodule of k((t)), with its closure basis."""

    ring: RingData
    generators: tuple[TruncatedSeries, ...]
    basis: EchelonBasis
    vmin: int
    membership_bound: int  # conductor + vmin: membership is exact mod t^bound
    _inverse: InverseData | None = field(default=None, repr=False)  # set by inverse()

    def __repr__(self) -> str:
        return (f"FractionalIdeal(vmin={self.vmin}, "
                f"gaps={list(self.basis.gaps_below(self.membership_bound, self.vmin))})")


@dataclass(frozen=True)
class InverseData:
    v_inverse: int
    realizer: TruncatedSeries
    # of R :_K I, as an R-module: the scan's solutions, then t^(c-vmin+j) for
    # 0 < j < c.  The trace skips the powers (their products with I lie in
    # t^c k[[t]]); they stay so that the tuple still generates I^{-1}.
    generators: tuple[TruncatedSeries, ...]


def from_generators(ring: RingData, gens) -> FractionalIdeal:
    """R-span of the generators, closed under the ring's multiplication."""
    gens = tuple(gens)
    if not gens or any(g.is_zero() for g in gens):
        raise ValueError("a fractional ideal needs nonzero generators")
    vmin = min(int(g.valuation()) for g in gens)
    bound = ring.conductor_c + vmin
    try:
        basis = close_under(gens, ring.generators, tail_from=bound)
    except UncertifiedTail as exc:
        raise InternalInconsistency(f"membership-bound tail missing from ideal closure: {exc}") from None
    # the least pivot, read without listing the tail [c + vmin, N): a far
    # negative vmin makes that tail as long as -vmin
    if min(basis._rows, default=basis.tail_from) != vmin:
        raise InternalInconsistency("minimal pivot disagrees with generator valuations")
    return FractionalIdeal(
        ring=ring,
        generators=gens,
        basis=basis,
        vmin=vmin,
        membership_bound=bound,
    )


def _reduction_columns(ring: RingData, gens, w_lo: int, w_hi: int):
    """For each w in [w_lo, w_hi], the stacked remainders of t^w * g_i mod R,
    as an integer column and its positive denominator.

    The coefficient of t^e in the remainder of t^w * g_i sits at key
    i*c + e (e < c); a column is empty iff t^w * g_i lies in R for every i,
    i.e. iff t^w multiplies the ideal into the ring.  Each generator is
    converted once, cut below c - w_lo: at every level its keys from c up
    shift into t^c k[[t]], which lies in R.
    """
    c = ring.conductor_c
    rows = ring.ring_basis._rows
    vecs = [_vec_from_series(g, c - w_lo) for g in gens]
    cols = {}
    for w in range(w_lo, w_hi + 1):
        parts = []
        for num, den in vecs:
            shifted = {e + w: a for e, a in num.items() if e + w < c}
            parts.append(_reduce_vec(shifted, den, rows))
        den = lcm(*(d for _, d in parts))
        cols[w] = ({i * c + e: a * (den // d) for i, (rem, d) in enumerate(parts)
                    for e, a in rem.items()}, den)
    return cols


def _multiplier_levels(I: FractionalIdeal) -> list[int]:
    """The levels z with z + v(I) inside v(R), ascending: they lie in
    [-vmin, c - vmin], and the top one, c - vmin, is always there.

    Every alpha in I^{-1} has v(alpha) among them, since v(alpha * g) =
    v(alpha) + v(g) is a value of R.  Only I's values below c + vmin can
    meet a gap of R.  Bit j of `values` stands for the value vmin + j, so
    its shift by z + vmin marks the values z + v(I).
    """
    c, vmin = I.ring.conductor_c, I.vmin
    gaps = set(I.basis.gaps_below(I.membership_bound, vmin))
    values = sum(1 << j for j in range(c) if vmin + j not in gaps)
    ring_gaps = sum(1 << g for g in I.ring.gaps)
    return [z for z in range(-vmin, c - vmin + 1) if not (values << (z + vmin)) & ring_gaps]


def inverse(I: FractionalIdeal) -> InverseData:
    """v(I^{-1}), a realizer attaining it, and generators of R :_K I.

    Scans candidate valuations m upward (implemented as one incremental
    elimination from the top): level m admits alpha = t^m + higher terms with
    alpha*I inside R iff the level-m constraint column is spanned by the
    higher columns.  The top level m = c - vmin always works, so the scan
    cannot run off the end.  It stops at m0, the least level z with z + v(I)
    inside v(R): no alpha lies below it, and the rows of lower levels would
    only reduce levels lower still, so stopping changes no solution.  The
    solutions, one per admitted level, and t^(c-vmin+j) for 0 < j < c
    generate R :_K I; nothing here closes them.  A positive rescaling of a
    column changes nothing: every vector the elimination keeps is made
    primitive.  The result is kept on I, so it is computed once.

    The levels found are checked against the value-set bound: they lie
    among the levels z with z + v(I) inside v(R), and on a Gorenstein ring
    they are all of them, since there v(R :_K I) = v(R) - v(I) (Jaeger's
    duality, with R its own canonical ideal).
    """
    if I._inverse is not None:
        return I._inverse
    ring = I.ring
    c = ring.conductor_c
    admitted = _multiplier_levels(I)
    lo, hi = admitted[0], c - I.vmin
    cols = _reduction_columns(ring, I.generators, lo, hi)

    # Elimination from w = hi down to lo.  Level w carries the augmentation
    # key aug + (w - lo), above every constraint key, which records each
    # column's expression over the original t^w candidates.  A remainder with
    # a constraint key left becomes a row; one without is a solution, and is
    # never added, so it cannot alter the realizers found below it.
    aug = len(I.generators) * c
    b = _Builder()
    solutions: dict[int, TruncatedSeries] = {}
    for w in range(hi, lo - 1, -1):
        num, den = cols[w]
        num[aug + w - lo] = den
        vec = b.reduce(num, 1)
        if min(vec) < aug:
            b.add(vec)
            continue
        scale = vec.get(aug + w - lo, 0)
        if scale == 0:
            raise InternalInconsistency("solution lost its own level coefficient")
        solutions[w] = TruncatedSeries.from_terms(
            {k - aug + lo: Fraction(x, scale) for k, x in vec.items()})

    if not solutions:
        raise ScanExhausted("no multiplier found; preconditions violated")
    found, bound = set(solutions), set(admitted)
    if not found <= bound:
        raise InternalInconsistency(
            f"inverse has levels {sorted(found - bound)} with z + v(I) outside v(R)")
    if ring.gorenstein and found != bound:
        raise InternalInconsistency(
            f"Gorenstein ring, but the inverse misses the levels {sorted(bound - found)} "
            "with z + v(I) inside v(R)")
    v_inverse = min(solutions)
    realizer = solutions[v_inverse]
    inv_gens = tuple(solutions[w] for w in sorted(solutions)) + tuple(
        TruncatedSeries.t_power(hi + j) for j in range(1, max(c, 1)))
    for g in I.generators:
        if not ring.ring_basis.member(realizer * g, c):
            raise InternalInconsistency("realizer does not multiply the ideal into R")
    I._inverse = InverseData(v_inverse, realizer, inv_gens)
    return I._inverse


def product(I: FractionalIdeal, J: FractionalIdeal) -> FractionalIdeal:
    """R-span of the pairwise products of generators."""
    if I.ring is not J.ring:
        raise RingMismatch("product needs ideals over the same analyzed ring")
    gens = tuple(g * h for g in I.generators for h in J.generators)
    out = from_generators(I.ring, gens)
    if out.vmin != I.vmin + J.vmin:
        raise InternalInconsistency("product valuation did not add up")
    return out


def trace(I: FractionalIdeal) -> FractionalIdeal:
    """The trace ideal I * I^{-1} (the sum of images of all maps I -> R).

    It contains t^c k[[t]]: t^(c-vmin) k[[t]] lies in I^{-1}, and a generator
    of valuation vmin carries it onto t^c k[[t]].  So the closure is seeded
    only with the products g * h of valuation below c and with t^c, ...,
    t^(c+e-1), which generate t^c k[[t]]; every product left out lies there.
    """
    ring = I.ring
    c = ring.conductor_c
    inv = inverse(I)
    seeds = tuple(g * h for g in I.generators for h in inv.generators
                  if g.valuation() + h.valuation() < c)
    seeds += tuple(TruncatedSeries.t_power(c + j) for j in range(ring.multiplicity))
    out = from_generators(ring, seeds)
    if out.vmin != I.vmin + inv.v_inverse:
        raise InternalInconsistency("trace valuation disagrees with scan minimum")
    return out


def colength_in_normalization(I: FractionalIdeal) -> int:
    """Number of nonnegative valuations missing from the value set (= length of k[[t]]/I)."""
    if I.vmin < 0:
        raise NotInNormalization(f"ideal has vmin {I.vmin} < 0, not inside k[[t]]")
    return len(I.basis.gaps_below(I.membership_bound))


def h_invariant(I: FractionalIdeal) -> int:
    """Minimal colength of an integral isomorphic copy of I.

    On the normalized copy J = t^(-vmin) I it is lambda(k[[t]]/J) - delta +
    v(J^{-1}).  Multiplying by t^k moves every valuation of I up by k and
    v(I^{-1}) down by k, so h(t^k I) = h(I), and I's own data give it:
    (gaps of v(I) in [vmin, c + vmin)) - delta + v(I^{-1}) + vmin.
    """
    gaps = I.basis.gaps_below(I.membership_bound, I.vmin)
    return len(gaps) - I.ring.delta + inverse(I).v_inverse + I.vmin


def min_generators(I: FractionalIdeal) -> int:
    """mu(I) = dim I / mI."""
    ring = I.ring
    mI = from_generators(ring, tuple(x * g for x in ring.generators for g in I.generators))
    return quotient_dim(I.basis, mI.basis)


def realizes_itself(I: FractionalIdeal) -> bool:
    """For integral I: does the identity copy attain the minimal colength?

    Equivalent to R :_K I staying inside k[[t]]; since 1 in I^{-1} forces
    v(I^{-1}) <= 0 for integral ideals, the test is v(I^{-1}) == 0.
    """
    ring = I.ring
    if I.vmin < 0:
        raise NotAnIntegralIdeal(f"vmin {I.vmin} < 0")
    for g in I.generators:
        if not ring.ring_basis.member(g, ring.conductor_c):
            raise NotAnIntegralIdeal(f"generator {g} is not in the ring")
    return inverse(I).v_inverse == 0


def conductor_ideal(ring: RingData) -> FractionalIdeal:
    """The conductor t^c k[[t]] as an R-module (generated by t^c..t^(2c-1))."""
    c = ring.conductor_c
    gens = tuple(TruncatedSeries.t_power(c + j) for j in range(max(c, 1)))
    return from_generators(ring, gens)


def normalization_ideal(ring: RingData) -> FractionalIdeal:
    """k[[t]] itself as an R-module (generated by 1, t, ..., t^(c-1))."""
    c = ring.conductor_c
    gens = tuple(TruncatedSeries.t_power(j) for j in range(max(c, 1)))
    return from_generators(ring, gens)
