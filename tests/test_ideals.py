import random
from fractions import Fraction

import pytest

from branchinv.branch import m_power_basis
from branchinv.cli import _ideal_section, read_ideal_file
from branchinv.echelon import close_under, quotient_dim
from branchinv.errors import (
    NotAnIntegralIdeal,
    NotInNormalization,
    RingMismatch,
)
from branchinv.ideals import (
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
from branchinv.series import TruncatedSeries, monomials, parse_series
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
        m = from_generators(cusp, (parse_series("t^2"), parse_series("t^3")))
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
        m = from_generators(cusp, (parse_series("t^2"), parse_series("t^3")))
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

    def test_trace_of_ring_is_ring(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert at(trace(R).basis, plane49.truncation) == plane49.ring_basis

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
            unit = parse_series(f"1+{rng.randint(1, 5)}*t")
            alpha = unit.shift(j)
            scaled = from_generators(ring, tuple(alpha * g for g in D.generators))
            assert h_invariant(scaled) == h0


class TestMinGenerators:
    def test_ring_is_principal(self, plane49):
        R = from_generators(plane49, (TruncatedSeries.one(),))
        assert min_generators(R) == 1

    def test_maximal_ideal_of_cusp(self, cusp):
        m = from_generators(cusp, (parse_series("t^2"), parse_series("t^3")))
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


def reference_h(I):
    """h by the deleted route: close the normalized copy t^(-vmin) I and invert it."""
    ring = I.ring
    J = from_generators(ring, tuple(g.shift(-I.vmin) for g in I.generators))
    return colength_in_normalization(J) - ring.delta + inverse(J).v_inverse


def reference_trace(I):
    """tr(I) by the deleted route: close R :_K I, then its product with I."""
    return product(I, from_generators(I.ring, inverse(I).generators))


class TestDeletedRoutes:
    """h and the trace against the closures they no longer run."""

    @staticmethod
    def assert_routes_agree(I):
        assert h_invariant(I) == reference_h(I)
        tr, ref = trace(I), reference_trace(I)
        assert tr.vmin == ref.vmin and tr.basis == ref.basis

    def test_derivative_modules_and_scaled_copies(self, corpus):
        rng = random.Random(8)
        for diff in corpus:
            D = diff.D
            self.assert_routes_agree(D)
            alpha = parse_series(f"{rng.randint(1, 4)}+{rng.randint(1, 5)}*t^2").shift(
                rng.randint(-4, 4))
            self.assert_routes_agree(
                from_generators(diff.ring, tuple(alpha * g for g in D.generators)))

    def test_random_ideal_files(self, corpus, tmp_path):
        # each file goes through the CLI's ideal section; the references'
        # closures size themselves, in many files past the ring's truncation
        rng = random.Random(80)
        negative = beyond = 0
        for k in range(60):
            ring = corpus[k % 20].ring
            lines = []
            for _ in range(rng.randint(1, 3)):
                exps = sorted(rng.sample(range(13), rng.randint(1, 3)))
                lines.append("+".join(f"{rng.randint(1, 3)}*t^{x}" for x in exps)
                             + (f"-t^{rng.randint(0, 15)}" if rng.random() < 0.3 else ""))
            shift = rng.choice((-100, -20, -3, 0, 2, 5, 9))
            path = tmp_path / f"r{k}.ideal"
            path.write_text(f"shift: {shift}\n" + "\n".join(lines) + "\n", encoding="utf-8")
            sec = _ideal_section(ring, str(path), 4096)
            gens = tuple(e.shift(-shift) for e in read_ideal_file(str(path))[1])
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
        # and m^2 .. m^(s+1) from c + d*e, equal the closures run to N
        rng = random.Random(6)
        for diff in corpus:
            ring = diff.ring
            N, c, gens = ring.truncation, ring.conductor_c, ring.generators
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
