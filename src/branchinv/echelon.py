"""Valuation-echelon bases of k-subspaces of k[[t]]/(t^N).

A basis is kept in fully reduced form: one monic pivot per achieved
valuation, with zero coefficients at every other pivot valuation.  Full
reduction makes the representatives canonical, so two bases span the same
subspace iff they are equal.

The closure fixpoint (:func:`close_under`) is the workhorse: it computes the
image mod t^N of the smallest span containing a seed and closed under
multiplication by given multipliers.  Because multiplication by an element of
valuation >= 0 is well defined mod t^N, the pivot valuations it reports below
N are the exact achieved valuations of the closed module, not approximations.

A basis may carry an implicit tail: rows are stored only below `tail_from`,
and every valuation in [tail_from, N) stands for the monomial t^v.  Full
reduction leaves exactly those monomials as the rows at tail pivots, and no
key at or above the tail in any row below it, so the stored rows are the
full basis cut below the tail.  The tail is kept canonical, the least T with
[T, N) all pivots, so equal spans still give equal bases.  Operations drop
keys at or above the tail first, since those lie in the span.

A closure told its tail T in advance needs no truncation from its caller:
it runs to T + e, e the least multiplier valuation, and returns its basis at
that truncation.  It must find every valuation of [T, T + e) as a pivot:
that run, closed under +e, puts every valuation >= T in the value set, so
t^T k[[t]] lies in the module and the rows below T are exact at every
truncation.  Without the run the claimed tail is refused.

Series are exact polynomials; a basis reads each one below its own tail, or
below N when it has no tail, and :meth:`EchelonBasis.reduce` returns its
remainder cut there.

A basis with a tail can be checked for closure without a fixpoint:
:func:`closure_defect` multiplies each stored row by each multiplier once
and reduces the product, cut below the tail, against the rows.

Rows are stored internally as primitive integer vectors (sparse dicts) and
exposed as monic rational series; exact Fraction arithmetic per element is an
order of magnitude too slow at the sizes the closure visits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import (
    InsufficientTruncation,
    NonPositiveMultiplierValuation,
    NotNested,
    UncertifiedTail,
)
from .series import TruncatedSeries

# ---------------------------------------------------------------------------
# sparse integer row helpers
#
# A row is a dict exponent -> int, content gcd 1, positive leading (lowest
# exponent) coefficient.  A working vector is (num, den): the represented
# series has coefficient num[e]/den.
# ---------------------------------------------------------------------------


def _vec_from_series(f: TruncatedSeries, cut) -> tuple[dict[int, int], int]:
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    num = {e: int(c * den) for e, c in f.terms().items() if e < cut}
    return num, den


def _content_normalize(num: dict[int, int]) -> dict[int, int]:
    num = {e: a for e, a in num.items() if a}
    if not num:
        return num
    g = 0
    for a in num.values():
        g = gcd(g, a)
    if num[min(num)] < 0:
        g = -g
    if g != 1:
        num = {e: a // g for e, a in num.items()}
    return num


def _eliminate(num: dict[int, int], den: int, row: dict[int, int], k: int) -> int:
    """Zero out num[k] against a row with leading exponent k.  Returns new den."""
    a = num[k]
    lead = row[k]
    if lead != 1:
        for e in num:
            num[e] *= lead
        den *= lead
    for e, b in row.items():
        s = num.get(e, 0) - a * b
        if s:
            num[e] = s
        else:
            num.pop(e, None)
    return den


def _reduce_vec(num: dict[int, int], den: int, rows: dict[int, dict[int, int]]):
    """Fully reduce: eliminate every pivot-position coefficient.

    Rows are fully reduced, so eliminations only introduce non-pivot keys;
    one pass over the initial pivot-position keys suffices.
    """
    for k in sorted(e for e in num if e in rows):
        if num.get(k):
            den = _eliminate(num, den, rows[k], k)
    return num, den


class _Builder:
    """Mutable echelon under construction; rows stay fully reduced throughout.

    Keys are ints: exponents for series, or any order the caller chooses
    (``ideals.inverse`` stacks constraint and augmentation keys).
    """

    def __init__(self, rows: dict[int, dict[int, int]] | None = None):
        self.rows = {v: dict(r) for v, r in (rows or {}).items()}
        self.col_index: dict[int, set[int]] = {}  # key -> pivots of the rows using it
        for v, r in self.rows.items():
            for e in r:
                self.col_index.setdefault(e, set()).add(v)

    def reduce(self, num: dict[int, int], den: int) -> dict[int, int]:
        """Primitive remainder of a working vector (consumed) against the rows."""
        num, _ = _reduce_vec(num, den, self.rows)
        return _content_normalize(num)

    def add(self, num: dict[int, int]) -> int:
        """Store a nonzero remainder at its least key; returns that key."""
        v = min(num)
        self.rows[v] = num
        for e in num:
            self.col_index.setdefault(e, set()).add(v)
        # back-reduce: restore full reduction in the older rows
        for w in list(self.col_index.get(v, ())):
            if w == v:
                continue
            r = self.rows[w]
            a = r[v]
            lead = num[v]
            merged = {e: b * lead for e, b in r.items()}
            for e, b in num.items():
                s = merged.get(e, 0) - a * b
                if s:
                    merged[e] = s
                else:
                    merged.pop(e, None)
            merged = _content_normalize(merged)
            for e in r:
                if e not in merged:
                    self.col_index[e].discard(w)
            for e in merged:
                if e not in r:
                    self.col_index.setdefault(e, set()).add(w)
            self.rows[w] = merged
        return v

    def insert(self, num: dict[int, int], den: int) -> int | None:
        """Reduce and add a working vector; returns the new pivot or None."""
        num = self.reduce(num, den)
        return self.add(num) if num else None


# ---------------------------------------------------------------------------
# the public basis
# ---------------------------------------------------------------------------


class EchelonBasis:
    """Immutable valuation-indexed reduced basis of a subspace of k[[t]]/(t^N).

    With `tail_from` set, rows are stored only below it and every valuation
    in [tail_from, N) is the implicit monomial t^v.  The tail is lowered to
    the canonical one, the least T with [T, N) all pivots: a stored pivot just
    below the tail is, by full reduction, that monomial itself.
    """

    def __init__(self, truncation: int, rows: dict[int, dict[int, int]],
                 tail_from: int | None = None):
        if tail_from is not None:
            while tail_from - 1 in rows:
                tail_from -= 1
            rows = {v: r for v, r in rows.items() if v < tail_from}
        self.truncation = truncation
        self._rows = rows
        self.tail_from = tail_from

    def _tail(self) -> int:
        """Start of the implicit tail; the truncation when there is none."""
        return self.truncation if self.tail_from is None else self.tail_from

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows) + self.truncation - self._tail()

    @property
    def pivot_valuations(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows)) + tuple(range(self._tail(), self.truncation))

    @property
    def pivots(self) -> dict[int, TruncatedSeries]:
        out = {}
        for v in sorted(self._rows):
            row = self._rows[v]
            lead = row[v]
            terms = {e: Fraction(a, lead) for e, a in row.items()}
            out[v] = TruncatedSeries.from_terms(terms)
        for v in range(self._tail(), self.truncation):
            out[v] = TruncatedSeries.t_power(v)
        return out

    def gaps_below(self, bound: int, start: int = 0) -> tuple[int, ...]:
        """The valuations in [start, bound) that no pivot attains."""
        tail = self._tail()
        return tuple(v for v in range(start, bound)
                     if v not in self._rows and not tail <= v < self.truncation)

    def with_tail(self, tail_from: int) -> "EchelonBasis":
        if tail_from >= self.truncation:
            raise UncertifiedTail(
                f"tail start {tail_from} is not below truncation {self.truncation}"
            )
        for v in range(tail_from, self._tail()):
            if v not in self._rows:
                raise UncertifiedTail(f"valuation {v} missing from claimed tail [{tail_from}, {self.truncation})")
        return EchelonBasis(self.truncation, self._rows, min(tail_from, self._tail()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EchelonBasis) or self.truncation != other.truncation:
            return False
        # a basis without a certified tail compares by its canonical cut
        a = EchelonBasis(self.truncation, self._rows, self._tail())
        b = EchelonBasis(other.truncation, other._rows, other._tail())
        return a.tail_from == b.tail_from and a._rows == b._rows

    def __repr__(self) -> str:
        return (f"EchelonBasis(truncation={self.truncation}, "
                f"pivots={list(self.pivot_valuations)})")

    # -- operations ---------------------------------------------------------

    def reduce(self, f: TruncatedSeries) -> TruncatedSeries:
        """Remainder of f, cut below the tail, after eliminating every pivot
        coefficient; zero iff f lies in the span modulo t^N."""
        num, den = _reduce_vec(*_vec_from_series(f, self._tail()), self._rows)
        return TruncatedSeries.from_terms({e: Fraction(a, den) for e, a in num.items()})

    def member(self, f: TruncatedSeries, bound: int) -> bool:
        """Is f in the span modulo t^bound?  Exact when bound is a membership threshold."""
        if self.truncation < bound:
            raise InsufficientTruncation(
                f"membership at bound {bound} needs the basis known to t^{bound}"
            )
        r = self.reduce(f)
        return all(e >= bound for e in r.terms())

    def insert(self, f: TruncatedSeries):
        """Return (basis, changed); a new pivot is fully back-reduced into place."""
        b = _Builder(self._rows)
        if b.insert(*_vec_from_series(f, self._tail())) is None:
            return self, False
        return EchelonBasis(self.truncation, b.rows, self.tail_from), True


def close_under(seed: Sequence[TruncatedSeries], multipliers: Sequence[TruncatedSeries],
                truncation: int | None = None, tail_from: int | None = None) -> EchelonBasis:
    """Smallest echelon span containing the seed and closed under the multipliers.

    Multipliers must have valuation >= 1 so that the fixpoint terminates.  With
    seed {1} and the ring generators as multipliers this is the ring mod t^N;
    with a module's generators as seed it is the module's R-span mod t^N.

    Give either the truncation N or a tail T the caller knows in advance.  A
    closure with a tail runs to N = T + e, e the least multiplier valuation,
    and raises :class:`UncertifiedTail` unless every valuation of [T, N) is a
    pivot.
    """
    if (truncation is None) == (tail_from is None):
        raise ValueError("close_under takes a truncation or a tail, not both")
    N = int(truncation if tail_from is None
            else tail_from + min(m.valuation() for m in multipliers))
    seeds = [s for s in seed if not s.is_zero()]
    floor = min((int(s.valuation()) for s in seeds), default=0)

    mults = []
    for m in multipliers:
        if m.valuation() < 1:
            raise NonPositiveMultiplierValuation(
                f"multiplier {m} has valuation {m.valuation()}; need >= 1"
            )
        mults.append(_vec_from_series(m, N - min(0, floor)))

    b = _Builder()
    queue = [_vec_from_series(s, N) for s in seeds]
    while queue:
        num, den = queue.pop()
        v = b.insert(num, den)
        if v is None:
            continue
        row = b.rows[v]
        for mnum, mden in mults:
            prod: dict[int, int] = {}
            for e1, a in row.items():
                for e2, c in mnum.items():
                    e = e1 + e2
                    if e < N:
                        prod[e] = prod.get(e, 0) + a * c
            if prod:
                queue.append((prod, mden))
    if tail_from is None:
        return EchelonBasis(N, b.rows)
    for v in range(tail_from, N):
        if v not in b.rows:
            raise UncertifiedTail(
                f"valuation {v} missing from the claimed tail run [{tail_from}, {N})"
            )
    return EchelonBasis(N, b.rows, tail_from)


def closure_defect(basis: EchelonBasis,
                   multipliers: Sequence[TruncatedSeries]) -> tuple[int, int] | None:
    """The first (row pivot, multiplier index) whose product leaves the span,
    or None when the span is closed under every multiplier.

    The span is V = span(stored rows) + t^T k[[t]], T the certified tail, so
    a product is cut below T and reduced against the stored rows; a zero
    remainder puts it in V whatever the rows are.  With 1 in V and None
    returned, V holds every polynomial in the multipliers, hence, as they
    have valuation >= 1, the ring they generate: the closure's work
    certified in one pass, no fixpoint.
    """
    if basis.tail_from is None:
        raise UncertifiedTail("a closure certificate needs a certified tail")
    T = basis.tail_from
    mults = [_vec_from_series(m, T) for m in multipliers]
    for v in sorted(basis._rows):
        row = basis._rows[v]
        for i, (mnum, mden) in enumerate(mults):
            prod: dict[int, int] = {}
            for e1, a in row.items():
                for e2, c in mnum.items():
                    e = e1 + e2
                    if e < T:
                        prod[e] = prod.get(e, 0) + a * c
            num, _ = _reduce_vec(prod, mden, basis._rows)
            if any(num.values()):
                return v, i
    return None


def quotient_dim(big: EchelonBasis, small: EchelonBasis) -> int:
    """Dimension of span(big)/span(small) for nested spans with certified tails.

    Both spans contain everything above their tails, so the dimension is
    counted below them, whatever the truncation of each: canonical tails of
    nested spans satisfy big.tail_from <= small.tail_from.
    """
    if big.tail_from is None or small.tail_from is None:
        raise UncertifiedTail("quotient_dim needs certified tails on both bases")
    if small.tail_from < big.tail_from:
        raise NotNested(f"small basis holds t^{big.tail_from - 1}, outside the big span")
    big_rows = big._rows
    for v, row in small._rows.items():
        if v >= big.tail_from:
            continue
        if v not in big_rows:
            raise NotNested(f"small basis has valuation {v} outside the big span")
        num = {e: a for e, a in row.items() if e < big.tail_from}
        num, den = _reduce_vec(num, 1, big_rows)
        if any(num.values()):
            raise NotNested(f"pivot at valuation {v} is not in the big span")
    return len(big_rows) - len(small._rows) + small.tail_from - big.tail_from
