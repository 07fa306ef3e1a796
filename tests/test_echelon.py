import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchinv.echelon import close_under, quotient_dim
from branchinv.errors import (
    InsufficientTruncation,
    NonPositiveMultiplierValuation,
    NotNested,
    UncertifiedTail,
)
from branchinv.semigroup import sieve
from branchinv.series import TruncatedSeries, parse_poly
from conftest import at

one = TruncatedSeries.one
t = parse_poly


class TestReduce:
    def test_single_elimination_step(self):
        basis = close_under([t("t^2+t^3")], [t("t^10")], 8)
        r = basis.reduce(t("t^2"))
        assert r.terms() == {3: Fraction(-1)}

    def test_zero_reduces_to_zero(self):
        basis = close_under([t("t^2+t^3")], [t("t^10")], 8)
        assert basis.reduce(TruncatedSeries.zero()).is_zero()

    def test_exact_member_reduces_to_zero(self):
        basis = close_under([t("t^4+t^5")], [t("t^20")], 12)
        assert basis.reduce(t("t^4+t^5")).is_zero()

    def test_no_pivot_coefficients_survive(self):
        basis = close_under([one(), t("t^2"), t("t^3+t^4")], [t("t^10")], 9)
        r = basis.reduce(t("1 + t + t^2 + t^3 + t^4 + t^5"))
        assert all(e not in basis.pivot_valuations for e in r.terms())


class TestInsert:
    def test_insert_into_empty(self):
        empty = close_under([], [], 10)
        basis, changed = empty.insert(t("t^4+t^5"))
        assert changed and basis.pivot_valuations == (4,)

    def test_insert_creates_back_reduced_pivots(self):
        basis = close_under([t("t^4+t^5")], [t("t^20")], 10)
        basis, changed = basis.insert(t("t^4"))
        assert changed
        assert basis.pivot_valuations == (4, 5)
        # full reduction: the valuation-4 pivot has no t^5 coefficient left
        assert basis.pivots[4].terms() == {4: Fraction(1)}
        assert basis.pivots[5].terms() == {5: Fraction(1)}

    def test_dependent_vector_leaves_basis_unchanged(self):
        basis = close_under([t("t^4+t^5")], [t("t^20")], 10)
        basis2, changed = basis.insert(t("3*t^4+3*t^5"))
        assert not changed and basis2 is basis


class TestCloseUnder:
    def test_semigroup_2_3(self):
        basis = close_under([one()], [t("t^2"), t("t^3")], 8)
        assert basis.pivot_valuations == (0, 2, 3, 4, 5, 6, 7)

    def test_full_ring(self):
        basis = close_under([one()], [t("t")], 5)
        assert basis.pivot_valuations == (0, 1, 2, 3, 4)

    def test_derivative_module_of_plane_branch(self):
        # R-span of both generator derivatives over R = k[[t^4+t^5, t^9]]
        basis = close_under(
            [t("4*t^3+5*t^4"), t("9*t^8")], [t("t^4+t^5"), t("t^9")], 20
        )
        achieved = set(basis.pivot_valuations)
        gaps_below_15 = tuple(v for v in range(15) if v not in achieved)
        assert gaps_below_15 == (0, 1, 2, 4, 5, 6, 9, 10, 14)

    def test_multiplier_with_nonpositive_valuation_rejected(self):
        with pytest.raises(NonPositiveMultiplierValuation):
            close_under([one()], [one()], 8)

    def test_monomial_closure_matches_sieve(self):
        for gens in ((2, 3), (3, 4, 5), (5, 6, 14), (4, 7), (9, 14, 17)):
            N = sieve(gens).conductor + max(gens) + 2
            basis = close_under([one()], [t(f"t^{a}") for a in gens], N)
            assert set(basis.pivot_valuations) == {
                v for v in range(N) if _in_semigroup(v, gens)
            }

    def test_idempotence(self):
        basis = close_under([one()], [t("t^2"), t("t^3")], 12)
        again = close_under(list(basis.pivots.values()), [t("t^2"), t("t^3")], 12)
        assert again == basis

    def test_order_independence(self):
        mults = [t("t^4+t^5"), t("t^9")]
        seeds = [t("4*t^3+5*t^4"), t("9*t^8")]
        reference = close_under(seeds, mults, 18)
        for sp in itertools.permutations(seeds):
            for mp in itertools.permutations(mults):
                assert close_under(list(sp), list(mp), 18) == reference


def _in_semigroup(v, gens):
    if v == 0:
        return True
    return any(v >= a and _in_semigroup(v - a, gens) for a in gens)


class TestMember:
    def test_member_of_deep_ring(self):
        gens = [t("t^8+t^9"), t("64*t^10 - 81*t^12"), t("8*t^12 - 9*t^13"),
                t("t^14"), t("t^15"), t("t^16"), t("t^17")]
        basis = close_under([one()], gens, 40)
        assert basis.member(t("t^14"), 14) is True

    def test_nonmember(self):
        basis = close_under([one()], [t("t^2"), t("t^3")], 10)
        assert basis.member(t("t"), 2) is False

    def test_one_is_member(self):
        basis = close_under([one()], [t("t^2"), t("t^3")], 10)
        assert basis.member(one(), 1) is True

    def test_insufficient_truncation_raises(self):
        basis = close_under([one()], [t("t^2"), t("t^3")], 10)
        with pytest.raises(InsufficientTruncation):
            basis.member(t("t^2"), 11)


class TestQuotientDim:
    def test_delta_of_cusp(self):
        rbar = close_under([one()], [t("t")], 20).with_tail(0)
        ring = close_under([one()], [t("t^2"), t("t^3")], 20).with_tail(2)
        assert quotient_dim(rbar, ring) == 1

    def test_equal_bases_give_zero(self):
        b = close_under([one()], [t("t^2"), t("t^3")], 20).with_tail(2)
        assert quotient_dim(b, b) == 0

    def test_delta_of_plane_branch(self):
        N = 40
        rbar = close_under([one()], [t("t")], N).with_tail(0)
        ring = close_under([one()], [t("t^4+t^5"), t("t^9")], N).with_tail(24)
        assert quotient_dim(rbar, ring) == 12

    def test_not_nested_rejected(self):
        rbar = close_under([one()], [t("t")], 20).with_tail(0)
        ring = close_under([one()], [t("t^2"), t("t^3")], 20).with_tail(2)
        with pytest.raises(NotNested):
            quotient_dim(ring, rbar)

    def test_uncertified_tail_rejected(self):
        rbar = close_under([one()], [t("t")], 20)
        ring = close_under([one()], [t("t^2"), t("t^3")], 20).with_tail(2)
        with pytest.raises(UncertifiedTail):
            quotient_dim(rbar, ring)


small_series = st.dictionaries(
    st.integers(min_value=0, max_value=10),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    max_size=4,
).map(lambda d: TruncatedSeries.from_terms(d))


far_series = st.dictionaries(
    st.integers(min_value=0, max_value=60),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    min_size=1, max_size=6,
).map(lambda d: TruncatedSeries.from_terms(d))


@settings(max_examples=40, deadline=None)
@given(st.lists(small_series, min_size=1, max_size=3), st.one_of(small_series, far_series),
       st.booleans())
def test_member_agrees_with_reduce(seeds, f, tailed):
    # f may reach well past N: the basis cuts it below its tail, or below N
    # without one.  The R-span of the seeds, R = k[[t^2, t^3]] of conductor 2,
    # holds t^(2 + vmin) k[[t]], a tail known in advance
    mults = [t("t^2"), t("t^3")]
    seeds = [s for s in seeds if not s.is_zero()]
    if tailed and seeds:
        basis = close_under(seeds, mults, tail_from=2 + min(s.valuation() for s in seeds))
    else:
        basis = close_under(seeds, mults, 12)
    cut = basis.truncation if basis.tail_from is None else basis.tail_from
    r = basis.reduce(f)
    assert all(e < cut for e in r.terms())
    assert basis.member(f, cut) == r.is_zero()
    below = TruncatedSeries.from_terms({e: c for e, c in f.terms().items() if e < cut})
    assert basis.reduce(below) == r
    bound = min(8, basis.truncation)
    assert basis.member(f, bound) == all(e >= bound for e in r.terms())


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=12), min_size=1, max_size=3))
def test_monomial_pivots_equal_semigroup_sieve(gens):
    from math import gcd
    g = 0
    for a in gens:
        g = gcd(g, a)
    N = 30
    basis = close_under([one()], [parse_poly(f"t^{a}") for a in gens], N)
    achieved = set()
    frontier = [0]
    seen = {0}
    while frontier:
        v = frontier.pop()
        achieved.add(v)
        for a in gens:
            if v + a < N and v + a not in seen:
                seen.add(v + a)
                frontier.append(v + a)
    assert set(basis.pivot_valuations) == achieved


class TestTail:
    def test_unreached_tail_raises(self):
        # 23 is the largest gap of <4,9>: a tail claimed from 20 breaks its run
        mults = [t("t^4"), t("t^9")]
        with pytest.raises(UncertifiedTail, match="valuation 23 missing"):
            close_under([one()], mults, tail_from=20)
        with pytest.raises(UncertifiedTail, match="valuation 23 missing"):
            close_under([one()], mults, 60).with_tail(20)
        assert close_under([one()], mults, tail_from=24).tail_from == 24

    def test_tail_is_canonical(self):
        # the claimed tail 30 lies above the least one, the conductor 24; the
        # closure stops at 30 + 4, the claimed tail plus the least valuation
        basis = close_under([one()], [t("t^4+t^5"), t("t^9")], tail_from=30)
        assert basis.tail_from == 24 and max(basis._rows) == 22 and basis.truncation == 34
        assert at(basis, 60) == close_under([one()], [t("t^4+t^5"), t("t^9")], 60)

    def test_insert_lowers_the_tail(self):
        # adding t^23 to <4,9> fills its last gap; 20, 21, 22 join the tail
        ring = close_under([one()], [t("t^4"), t("t^9")], tail_from=24)
        grown, changed = ring.insert(t("t^23+t^40"))
        assert changed and grown.tail_from == 20 and max(grown._rows) == 18
        assert at(grown, 60) == close_under([one(), t("t^23")], [t("t^4"), t("t^9")], 60)

    def test_truncation_or_tail(self):
        with pytest.raises(ValueError):
            close_under([one()], [t("t^2")], 10, tail_from=2)
        with pytest.raises(ValueError):
            close_under([one()], [t("t^2")])

    def test_quotient_dim_across_truncations(self):
        # <4,9> closed from its conductor stops at 28; k[[t]] is closed to 40
        rbar = close_under([one()], [t("t")], 40).with_tail(0)
        ring = close_under([one()], [t("t^4+t^5"), t("t^9")], tail_from=24)
        assert ring.truncation == 28 and quotient_dim(rbar, ring) == 12


primitive_pairs = st.tuples(st.integers(2, 7), st.integers(3, 11)).filter(
    lambda ab: ab[0] < ab[1] and math.gcd(*ab) == 1)
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(primitive_pairs, coefficients, coefficients,
       st.lists(small_series, min_size=1, max_size=3), st.integers(0, 14),
       st.lists(small_series, min_size=1, max_size=3))
def test_tailed_closure_is_uncut_closure_cut_below_tail(ab, p, q, seeds, extra, probes):
    # R = k[[t^a + p t^(a+1), t^b + q t^(b+2)]] contains t^c k[[t]], so the
    # R-span of the seeds contains t^(c + vmin) k[[t]]: an a-priori tail
    a, b = ab
    mults = [TruncatedSeries.from_terms({a: 1, a + 1: p}),
             TruncatedSeries.from_terms({b: 1, b + 2: q})]
    ring = close_under([one()], mults, 4 * (a * b + b))
    c = ring.truncation
    while c - 1 in ring.pivot_valuations:
        c -= 1
    seeds = [s for s in seeds if not s.is_zero()]
    if not seeds:
        return
    tail = c + min(int(s.valuation()) for s in seeds)
    N = tail + 1 + extra  # below and above tail + a, where the tailed closure stops
    tailed = close_under(seeds, mults, tail_from=tail)
    full = close_under(seeds, mults, N)
    assert tailed.truncation == tail + a and tailed.tail_from <= tail
    assert full.with_tail(tailed.tail_from)._rows == tailed._rows
    tailed = at(tailed, N)
    assert full == tailed
    assert len(full) == len(tailed) and full.pivot_valuations == tailed.pivot_valuations
    for f in probes:
        assert full.reduce(f) == tailed.reduce(f)
        assert full.member(f, tail) == tailed.member(f, tail)
        assert full.insert(f)[0] == tailed.insert(f)[0]
