import dataclasses
import random
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchinv.ideals
from branchinv.branch import m_power_basis
from branchinv.cli import _ideal_section, read_ideal_file, required_truncation
from branchinv.echelon import _Builder, close_under, quotient_dim
from branchinv.errors import (
    NotAnIntegralIdeal,
    NotInNormalization,
    RingMismatch,
)
from branchinv.ideals import (
    _multiplier_levels,
    _reduction_columns,
    colength_in_normalization,
    conductor_ideal,
    from_generators,
    h_invariant,
    inverse,
    min_generators,
    normalization_ideal,
    product,
    realizes_itself,
    trace,
)
from branchinv.series import TruncatedSeries, monomials, parse_poly
from conftest import at

tp = TruncatedSeries.t_power


def derivative_gens(ring):
    return tuple(g.derivative() for g in ring.generators)


class TestFromGenerators:
    def test_derivative_module_value_set(self, plane49):
        D = from_generators(plane49, derivative_gens(plane49))
        assert D.vmin == 3
        assert D.basis.gaps_below(D.membership_bound) == (0, 1, 2, 4, 5, 6, 9, 10, 14)

    def test_unit_generator_recovers_ring(self, plane49):
        I = from_generators(plane49, (TruncatedSeries.one(),))
        assert at(I.basis, plane49.truncation) == plane49.ring_basis

    def test_maximal_ideal_of_cusp(self, cusp):
        m = from_generators(cusp, (parse_poly("t^2"), parse_poly("t^3")))
        assert m.vmin == 2
        assert at(m.basis, cusp.truncation).pivot_valuations[:5] == (2, 3, 4, 5, 6)

    def test_zero_generator_rejected(self, cusp):
        with pytest.raises(ValueError):
            from_generators(cusp, (TruncatedSeries.zero(),))


class TestInverse:
    def test_deep_branch(self, diff_embdim7):
        assert diff_embdim7.v_Dinv == 3

    def test_four_generator_branch(self, diff_four_gens):
        assert diff_four_gens.v_Dinv == 18

    def test_ring_inverse_is_trivial(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        inv = inverse(R)
        assert inv.v_inverse == 0
        assert inv.realizer.terms() == {0: Fraction(1)}

    def test_realizer_multiplies_into_ring(self, plane49):
        D = from_generators(plane49, derivative_gens(plane49))
        inv = inverse(D)
        for g in D.generators:
            assert plane49.ring_basis.member(inv.realizer * g, plane49.conductor_c)

    def test_scan_bounds(self, corpus):
        for diff in corpus[:12]:
            ring = diff.ring
            D = diff.D
            inv = inverse(D)
            assert -D.vmin <= inv.v_inverse <= ring.conductor_c - D.vmin

    def test_inverse_of_normalization_is_conductor(self, plane49):
        rbar = normalization_ideal(plane49)
        assert inverse(rbar).v_inverse == plane49.conductor_c


class TestProduct:
    def test_product_with_ring_is_identity(self, cusp):
        m = from_generators(cusp, (parse_poly("t^2"), parse_poly("t^3")))
        R = from_generators(cusp, (TruncatedSeries.one(),))
        assert product(m, R).basis == m.basis

    def test_principal_shifts(self, cusp):
        a = from_generators(cusp, tuple(tp(2 + j) for j in range(2)))
        b = from_generators(cusp, tuple(tp(3 + j) for j in range(2)))
        ab = product(a, b)
        assert ab.vmin == 5

    def test_trace_valuation_of_deep_branch(self, diff_embdim7):
        assert trace(diff_embdim7.D).vmin == 10

    def test_ring_mismatch_rejected(self, cusp, plane49):
        a = from_generators(cusp, (tp(2),))
        b = from_generators(plane49, (tp(4),))
        with pytest.raises(RingMismatch):
            product(a, b)


class TestTrace:
    def test_trace_vmin_adds(self, diff_embdim7, diff_four_gens):
        assert trace(diff_embdim7.D).vmin == 7 + 3
        assert trace(diff_four_gens.D).vmin == 8 + 18

    def test_trace_of_ring_is_ring(self, line, cusp, plane49):
        for ring in (line, cusp, plane49):
            R = from_generators(ring, (TruncatedSeries.one(),))
            assert at(trace(R).basis, ring.truncation) == ring.ring_basis

    def test_trace_of_normalization_is_conductor(self, line, cusp, t345, plane49, four_gens):
        for ring in (line, cusp, t345, plane49, four_gens):
            assert trace(normalization_ideal(ring)).basis == conductor_ideal(ring).basis

    def test_realizer_product_at_conductor_keeps_vmin(self, cusp, plane49, four_gens):
        # every product g * h has valuation >= c and none seeds the closure:
        # t^c, one of the conductor seeds, gives the trace its vmin
        m = from_generators(cusp, (tp(2), tp(3)))
        shifted = from_generators(plane49, tuple(tp(j - 3) for j in range(plane49.multiplicity)))
        for I in (m, shifted, normalization_ideal(four_gens)):
            c = I.ring.conductor_c
            assert I.vmin + inverse(I).v_inverse == c
            assert trace(I).vmin == c == reference_trace(I).vmin

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_trace_matches_closed_product(self, line, cusp, t345, plane49, mono_5_6_14, data):
        ring = data.draw(st.sampled_from((line, cusp, t345, plane49, mono_5_6_14)))
        c, e = ring.conductor_c, ring.multiplicity
        vmin = data.draw(st.integers(-c, 2 * c))
        kind = data.draw(st.sampled_from(("random", "normalization", "conductor")))
        if kind == "normalization":
            gens = tuple(tp(vmin + j) for j in range(e))
        elif kind == "conductor":
            gens = tuple(tp(vmin + j) for j in range(max(c, 1)))
        else:
            coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
            gens = []
            for k in range(data.draw(st.integers(1, 3))):
                terms = data.draw(st.dictionaries(st.integers(vmin + (k > 0), vmin + 2 * c + 4),
                                                  coeff, max_size=3))
                if k == 0:
                    terms[vmin] = Fraction(1)
                if any(terms.values()):
                    gens.append(TruncatedSeries.from_terms(terms))
        I = from_generators(ring, gens)
        assert_levels_within_value_bound(I)
        tr, ref = trace(I), reference_trace(I)
        assert tr.vmin == ref.vmin
        assert tr.basis._rows == ref.basis._rows
        assert tr.basis.tail_from == ref.basis.tail_from

    def test_integral_ideal_contained_in_trace(self, cusp, t345):
        for ring in (cusp, t345):
            c = conductor_ideal(ring)
            tr = trace(c)
            for v, row in c.basis.pivots.items():
                assert tr.basis.reduce(row).is_zero()


class TestColength:
    def test_derivative_module(self, plane49):
        D = from_generators(plane49, derivative_gens(plane49))
        assert colength_in_normalization(D) == 9

    def test_ring_itself(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert colength_in_normalization(R) == 12

    def test_normalization_has_no_gaps(self, line):
        rbar = from_generators(line, (TruncatedSeries.one(),))
        assert colength_in_normalization(rbar) == 0

    def test_negative_vmin_rejected(self, cusp):
        I = from_generators(cusp, (tp(-2), tp(-1)))
        with pytest.raises(NotInNormalization):
            colength_in_normalization(I)


class TestHInvariant:
    def test_conductor(self, cusp, t345, plane49):
        for ring in (cusp, t345, plane49):
            c = conductor_ideal(ring)
            assert h_invariant(c) == ring.conductor_c - ring.delta

    def test_ring_is_zero(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert h_invariant(R) == 0

    def test_derivative_module(self, plane49):
        D = from_generators(plane49, derivative_gens(plane49))
        assert h_invariant(D) == 6

    def test_invariant_under_scaling(self, corpus):
        rng = random.Random(11)
        for diff in corpus[:10]:
            ring = diff.ring
            D = diff.D
            h0 = h_invariant(D)
            j = rng.randint(0, 3)
            unit = parse_poly(f"1+{rng.randint(1, 5)}*t")
            alpha = unit.shift(j)
            scaled = from_generators(ring, tuple(alpha * g for g in D.generators))
            assert h_invariant(scaled) == h0


class TestMinGenerators:
    def test_ring_is_principal(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert min_generators(R) == 1

    def test_maximal_ideal_of_cusp(self, cusp):
        m = from_generators(cusp, (parse_poly("t^2"), parse_poly("t^3")))
        assert min_generators(m) == 2

    def test_conductor_of_t345(self, t345):
        # the conductor (t^3, t^4, t^5) equals the maximal ideal here
        c = conductor_ideal(t345)
        assert min_generators(c) == 3


class TestRealizesItself:
    def test_conductor_realizes_itself(self, cusp, t345, plane49):
        for ring in (cusp, t345, plane49):
            assert realizes_itself(conductor_ideal(ring)) is True

    def test_ring_realizes_itself(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert realizes_itself(R) is True

    def test_shifted_conductor_copy_does_not(self, cusp):
        # t^2 * conductor sits inside R but its inverse reaches valuation -2
        shifted = from_generators(
            cusp, tuple(g.shift(2) for g in conductor_ideal(cusp).generators)
        )
        assert realizes_itself(shifted) is False
        assert inverse(shifted).v_inverse == -2

    def test_non_integral_rejected(self, cusp):
        I = from_generators(cusp, (tp(-1), tp(0)))
        with pytest.raises(NotAnIntegralIdeal):
            realizes_itself(I)


class TestModuleInvariants:
    def test_product_with_inverse_valuation(self, corpus):
        for diff in corpus[:15]:
            inv = inverse(diff.D)
            tr = product(diff.D, from_generators(diff.ring, inv.generators))
            assert tr.vmin == diff.D.vmin + inv.v_inverse

    def test_trace_lower_bound_chain(self, corpus):
        # h(I) >= lambda(R/tr(I)) >= h(tr(I))
        for diff in corpus[:8]:
            ring = diff.ring
            tr = trace(diff.D)
            lam_tr = quotient_dim(ring.ring_basis, tr.basis)
            assert diff.h_omega >= lam_tr
            assert lam_tr >= h_invariant(tr)


def value_bound_levels(I):
    """The levels z with z + v(I) inside v(R), from I's pivots and R's gaps."""
    c, gaps = I.ring.conductor_c, set(I.ring.gaps)
    values = [v for v in I.basis.pivot_valuations if v < I.membership_bound]
    return [z for z in range(-I.vmin, c - I.vmin + 1)
            if all(z + v not in gaps for v in values)]


def scan_levels(I):
    """The levels at which the scan found a multiplier: the valuations of
    inverse's generators up to c - vmin, past which it lists t powers."""
    hi = I.ring.conductor_c - I.vmin
    return [int(g.valuation()) for g in inverse(I).generators if g.valuation() <= hi]


def assert_levels_within_value_bound(I):
    """v(I^-1) lies among the levels z with z + v(I) inside v(R), and on a
    Gorenstein ring fills them (Jaeger's duality), so v(I^-1) = m0."""
    bound, levels = value_bound_levels(I), scan_levels(I)
    assert _multiplier_levels(I) == bound
    assert set(levels) <= set(bound)
    assert bound[0] <= inverse(I).v_inverse == levels[0]
    if I.ring.gorenstein:
        assert levels == bound


def reference_full_scan(I):
    """inverse's elimination by the deleted route: every level from -vmin up,
    not only from m0.  Returns v(I^-1), the realizer and the generators."""
    ring, c = I.ring, I.ring.conductor_c
    lo, hi = -I.vmin, c - I.vmin
    cols = _reduction_columns(ring, I.generators, lo, hi)
    aug = len(I.generators) * c
    b = _Builder()
    solutions = {}
    for w in range(hi, lo - 1, -1):
        num, den = cols[w]
        num[aug + w - lo] = den
        vec = b.reduce(num, 1)
        if min(vec) < aug:
            b.add(vec)
        else:
            scale = vec[aug + w - lo]
            solutions[w] = TruncatedSeries.from_terms(
                {k - aug + lo: Fraction(x, scale) for k, x in vec.items()})
    gens = tuple(solutions[w] for w in sorted(solutions)) + tuple(
        tp(hi + j) for j in range(1, max(c, 1)))
    return min(solutions), solutions[min(solutions)], gens


def reference_h(I):
    """h by the deleted route: close the normalized copy t^(-vmin) I and invert it."""
    ring = I.ring
    J = from_generators(ring, tuple(g.shift(-I.vmin) for g in I.generators))
    return colength_in_normalization(J) - ring.delta + inverse(J).v_inverse


def reference_trace(I):
    """tr(I) by the deleted route: close R :_K I, then its product with I."""
    return product(I, from_generators(I.ring, inverse(I).generators))


def reference_reduction_columns(ring, gens, w_lo, w_hi):
    """The reduction columns by the deleted route: each t^w * g_i reduced as a
    Fraction series, one level and one generator at a time."""
    c = ring.conductor_c
    cols = {}
    for w in range(w_lo, w_hi + 1):
        col = {}
        for i, g in enumerate(gens):
            rem = ring.ring_basis.reduce(g.shift(w))
            for e, cf in rem.terms().items():
                assert e < c
                col[i * c + e] = cf
        cols[w] = col
    return cols


def reference_inverse(I, monkeypatch):
    """inverse() run on a fresh copy of I with the deleted route's columns,
    brought to an integer column over their denominators' lcm."""
    def columns(ring, gens, w_lo, w_hi):
        out = {}
        for w, col in reference_reduction_columns(ring, gens, w_lo, w_hi).items():
            den = lcm(*(cf.denominator for cf in col.values()))
            out[w] = ({k: int(cf * den) for k, cf in col.items()}, den)
        return out

    with monkeypatch.context() as m:
        m.setattr(branchinv.ideals, "_reduction_columns", columns)
        return inverse(dataclasses.replace(I, _inverse=None))


def random_ideal_files(corpus, tmp_path, count, seed):
    """Seeded ideal files over the corpus rings, with shifts from -100 to 9:
    yields each ring, file and the generators the file stands for."""
    rng = random.Random(seed)
    for k in range(count):
        ring = corpus[k % 20].ring
        lines = []
        for _ in range(rng.randint(1, 3)):
            exps = sorted(rng.sample(range(13), rng.randint(1, 3)))
            lines.append("+".join(f"{rng.randint(1, 3)}*t^{x}" for x in exps)
                         + (f"-t^{rng.randint(0, 15)}" if rng.random() < 0.3 else ""))
        shift = rng.choice((-100, -20, -3, 0, 2, 5, 9))
        path = tmp_path / f"r{seed}-{k}.ideal"
        path.write_text(f"shift: {shift}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        yield ring, str(path), tuple(e.shift(-shift) for e in read_ideal_file(str(path))[1])


def scaled_derivative_modules(corpus, seed):
    """Each corpus D, then a copy alpha * D with alpha of valuation -4 to 4."""
    rng = random.Random(seed)
    for diff in corpus:
        D = diff.D
        yield D
        alpha = parse_poly(f"{rng.randint(1, 4)}+{rng.randint(1, 5)}*t^2").shift(
            rng.randint(-4, 4))
        yield from_generators(diff.ring, tuple(alpha * g for g in D.generators))


class TestDeletedRoutes:
    """h and the trace against the closures they no longer run."""

    @staticmethod
    def assert_routes_agree(I):
        assert h_invariant(I) == reference_h(I)
        tr, ref = trace(I), reference_trace(I)
        assert tr.vmin == ref.vmin and tr.basis == ref.basis

    def test_derivative_modules_and_scaled_copies(self, corpus):
        for I in scaled_derivative_modules(corpus, 8):
            self.assert_routes_agree(I)

    def test_random_ideal_files(self, corpus, tmp_path):
        # each file goes through the CLI's ideal section; the references'
        # closures size themselves, in many files past the ring's truncation
        negative = beyond = 0
        for ring, path, gens in random_ideal_files(corpus, tmp_path, 60, 80):
            sec = _ideal_section(ring, path, 4096)
            vmin = min(int(g.valuation()) for g in gens)
            c, e = ring.conductor_c, ring.multiplicity
            I = from_generators(ring, gens)
            ref = reference_trace(I)
            assert sec["vmin"] == vmin
            assert sec["h"] == reference_h(I)
            assert sec["trace_vmin"] == ref.vmin
            assert sec["trace_gaps"] == list(ref.basis.gaps_below(ref.membership_bound, ref.vmin))
            negative += vmin < 0
            beyond += c + max(vmin, c) + e + 1 > ring.truncation  # the CLI's cap
        assert negative >= 10 and beyond >= 5

    @staticmethod
    def assert_columns_agree(I, monkeypatch):
        """Each level's integer column over its denominator is the Fraction
        route's column, so the integer column is a positive multiple of it,
        and the scan on either finds the same inverse."""
        ring, c = I.ring, I.ring.conductor_c
        lo, hi = -I.vmin, c - I.vmin
        cols = _reduction_columns(ring, I.generators, lo, hi)
        ref = reference_reduction_columns(ring, I.generators, lo, hi)
        assert cols.keys() == ref.keys()
        for w, (num, den) in cols.items():
            assert den > 0 and all(num.values())
            assert {k: Fraction(a, den) for k, a in num.items()} == ref[w]
        inv, ref_inv = inverse(I), reference_inverse(I, monkeypatch)
        assert inv.v_inverse == ref_inv.v_inverse
        assert inv.realizer == ref_inv.realizer
        assert inv.generators == ref_inv.generators

    def test_reduction_columns_against_fraction_route(self, corpus, tmp_path, monkeypatch):
        for I in scaled_derivative_modules(corpus, 8):
            self.assert_columns_agree(I, monkeypatch)
        for ring, _path, gens in random_ideal_files(corpus, tmp_path, 60, 81):
            self.assert_columns_agree(from_generators(ring, gens), monkeypatch)

    def test_scan_stopped_at_value_bound_against_full_range(self, corpus, tmp_path):
        # the scan stops at m0; the full range from -vmin finds nothing below
        files = random_ideal_files(corpus, tmp_path, 60, 81)
        for I in chain(scaled_derivative_modules(corpus, 8),
                       (from_generators(ring, gens) for ring, _path, gens in files)):
            inv = inverse(I)
            assert (inv.v_inverse, inv.realizer, inv.generators) == reference_full_scan(I)
            assert_levels_within_value_bound(I)


def _random_series(rng, lo, hi):
    terms = {rng.randrange(lo, hi): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for _ in range(rng.randint(1, 4))}
    return TruncatedSeries.from_terms(terms)


def assert_tail_matches_uncut(full, tailed, rng, lo, bounds):
    """A tailed basis, relabeled at the uncut closure's N, against that
    closure cut below its tail."""
    tailed = at(tailed, full.truncation)
    cut = full.with_tail(tailed.tail_from)
    assert cut._rows == tailed._rows and cut.tail_from == tailed.tail_from
    assert full == tailed and tailed == cut
    assert len(full) == len(tailed)
    assert full.pivot_valuations == tailed.pivot_valuations
    assert full.pivots == tailed.pivots
    for _ in range(4):
        f = _random_series(rng, lo, full.truncation + 3)
        assert full.reduce(f) == tailed.reduce(f)
        for bound in bounds:
            assert full.member(f, bound) == tailed.member(f, bound)
        (grown_full, changed_full), (grown, changed) = full.insert(f), tailed.insert(f)
        assert changed_full == changed and grown_full == grown
        assert len(grown_full) == len(grown)


class TestTailOracle:
    def test_tailed_closures_match_uncut(self, corpus):
        # D, D^-1, t^c D and m D, closed from their a-priori tail c + vmin,
        # and m^2 .. m^(s+1) from c + d*e, equal the closures run to the N
        # the CLI reports
        rng = random.Random(6)
        for diff in corpus:
            ring = diff.ring
            N, c, gens = required_truncation(ring), ring.conductor_c, ring.generators
            D = diff.D
            ideals = {
                "D": D,
                "D^-1": from_generators(ring, inverse(D).generators),
                "t^c D": from_generators(ring, tuple(g.shift(c) for g in D.generators)),
                "m D": from_generators(ring, tuple(x * g for x in gens for g in D.generators)),
            }
            full = {}
            for name, I in ideals.items():
                full[name] = close_under(I.generators, gens, N)
                assert I.basis.tail_from <= I.membership_bound, (ring.name, name)
                assert_tail_matches_uncut(full[name], I.basis, rng, I.vmin,
                                          (I.membership_bound, N))
            assert quotient_dim(full["D"].with_tail(D.basis.tail_from),
                                full["m D"].with_tail(ideals["m D"].basis.tail_from)) \
                == quotient_dim(D.basis, ideals["m D"].basis) == diff.mu_Jmin
            assert quotient_dim(close_under([tp(0)], gens, N).with_tail(c),
                                full["t^c D"].with_tail(ideals["t^c D"].basis.tail_from)) \
                == quotient_dim(ring.ring_basis, ideals["t^c D"].basis) == diff.lambda_tcD
            if ring.order_s is None:
                continue
            powers = {}
            for d in range(2, ring.order_s + 2):
                tail = c + d * ring.multiplicity
                powers[d] = close_under(monomials(gens, d), gens, N).with_tail(tail)
                tailed = m_power_basis(ring, d)
                assert tailed.tail_from <= tail
                assert_tail_matches_uncut(close_under(monomials(gens, d), gens, N), tailed,
                                          rng, 0, (tail, N))
                if d > 2:
                    assert quotient_dim(powers[d - 1], powers[d]) == \
                        quotient_dim(m_power_basis(ring, d - 1), tailed)
