"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  All comparisons are exact integer/rational equality.
"""

import random
from contextlib import contextmanager

import pytest

from branchinv.berger import TORSION, verdict
from branchinv.branch import BranchSpec, analyze
from branchinv.differentials import compute
from branchinv.ideals import (
    conductor_ideal,
    from_generators,
    h_invariant,
    inverse,
    product,
    realizes_itself,
    trace,
)
from branchinv.semigroup import sieve
from branchinv.series import TruncatedSeries, parse_poly
from conftest import at, corpus_specs, random_primitive_tuples


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


def test_criterion_1_deep_branch_golden(diff_embdim7):
    with criterion(1, "seven-generator branch: exact invariants and bound verdict"):
        d = diff_embdim7
        ring = d.ring
        assert ring.embdim_n == 7
        assert ring.order_s == 1
        assert d.v_D == 7
        assert d.v_Dinv == 3
        assert trace(d.D).vmin == 10
        assert ring.conductor_c == 14
        assert d.lambda_tcD == 14
        assert d.h_omega == 3
        vd = verdict(d)
        assert vd.status == TORSION
        assert vd.rule == "R3"
        assert vd.bounds["main_bound"] == 4


def test_criterion_2_four_generator_golden(diff_four_gens):
    with criterion(2, "four-generator branch: exact invariants"):
        d = diff_four_gens
        assert trace(d.D).vmin == 26
        assert d.v_D == 8
        assert d.v_Dinv == 18
        assert d.lambda_tcD == 37
        assert d.h_omega == 15
        assert d.ring.conductor_c == 40
        assert 37 - d.ring.conductor_c + 18 == 15


def test_criterion_3_plane_branch_golden(diff_plane49):
    with criterion(3, "plane branch: gap sets of the ring and derivative module"):
        d = diff_plane49
        ring = d.ring
        assert ring.gaps == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)
        assert ring.delta == 12
        gaps_D = d.D.basis.gaps_below(d.D.membership_bound)
        assert gaps_D == (0, 1, 2, 4, 5, 6, 9, 10, 14)
        assert d.lambda_D == 9
        assert d.v_Dinv == 9
        assert d.h_omega == 6


def test_criterion_4_monomial_oracle_suite():
    with criterion(4, "200 random monomial branches agree with the sieve"):
        rng = random.Random(424242)
        tuples = random_primitive_tuples(200, rng, n_max=5, a_max=40)
        for gens in tuples:
            ring = analyze(
                BranchSpec.from_strings([f"t^{a}" for a in gens]),
                verify_stability=False,
            )
            data = sieve(gens)
            assert ring.gaps == data.gaps, gens
            assert ring.conductor_c == data.conductor, gens
            assert ring.delta == data.delta, gens
        ring = analyze(BranchSpec.from_strings(["t^5", "t^6", "t^14"]))
        assert ring.conductor_c == 14 and ring.delta == 8


def test_criterion_5_ceiling_and_consistency(corpus, diff_embdim7, diff_four_gens, diff_plane49):
    with criterion(5, "h <= v(D^-1) and both h formulas agree on every branch"):
        for d in list(corpus) + [diff_embdim7, diff_four_gens, diff_plane49]:
            ring = d.ring
            assert d.h_omega <= d.v_Dinv
            lhs = d.lambda_D - ring.delta + d.v_Dinv
            rhs = d.lambda_tcD - ring.conductor_c + d.v_Dinv
            assert lhs == rhs == d.h_omega


def test_criterion_6_invariance_properties(corpus):
    with criterion(6, "isomorphism invariance of h and trace on 50+ branches"):
        assert len(corpus) >= 50
        rng = random.Random(626262)
        for d in corpus:
            ring = d.ring
            j = rng.randint(0, 2)
            a1 = rng.randint(1, 4)
            alpha = parse_poly(f"1+{a1}*t").shift(j)
            scaled = from_generators(ring, tuple(alpha * g for g in d.D.generators))
            assert h_invariant(scaled) == d.h_omega
            # the trace of an isomorphic copy is the same module: alpha cancels
            tr_scaled, tr_D = trace(scaled), trace(d.D)
            assert tr_scaled.basis.pivot_valuations == tr_D.basis.pivot_valuations
            assert tr_scaled.basis == tr_D.basis
            inv = inverse(d.D)
            assert product(d.D, from_generators(ring, inv.generators)).vmin == d.D.vmin + inv.v_inverse


def test_criterion_7_conductor_colength(corpus):
    with criterion(7, "h(conductor) = c - delta and the conductor realizes itself"):
        for d in corpus:
            ring = d.ring
            cond = conductor_ideal(ring)
            assert h_invariant(cond) == ring.conductor_c - ring.delta
            assert realizes_itself(cond) is True


def test_criterion_8_gorenstein_containment(corpus):
    with criterion(8, "symmetric-semigroup branches: conductor tail inside the realized copy"):
        checked = 0
        for d in corpus:
            ring = d.ring
            if not ring.gorenstein or ring.embdim_n < 2:
                continue
            checked += 1
            J = from_generators(ring, tuple(d.alpha * g for g in d.D.generators))
            for j in range(ring.conductor_c, J.membership_bound):
                assert J.basis.member(TruncatedSeries.t_power(j), J.membership_bound), (ring.name, j)
        assert checked >= 5


def test_criterion_9_stability(corpus):
    with criterion(9, "golden invariants identical at N and 2N; no-verify agrees"):
        goldens = [
            ["t^8+t^9", "64*t^10 - 81*t^12", "8*t^12 - 9*t^13", "t^14", "t^15", "t^16", "t^17"],
            ["t^9", "t^14+t^15", "t^17", "t^29"],
            ["t^4+t^5", "t^9"],
        ]
        for texts in goldens:
            spec = BranchSpec.from_strings(texts)
            ring = analyze(spec)
            doubled = analyze(spec, initial_truncation=2 * ring.truncation)
            d1, d2 = compute(ring), compute(doubled)
            assert (d1.h_omega, d1.v_Dinv, d1.lambda_D, d1.lambda_tcD) == \
                   (d2.h_omega, d2.v_Dinv, d2.lambda_D, d2.lambda_tcD)
            assert ring.gaps == doubled.gaps
        for texts in corpus_specs()[:20]:
            spec = BranchSpec.from_strings(texts)
            fast = analyze(spec, verify_stability=False)
            slow = analyze(spec, verify_stability=True)
            assert fast.gaps == slow.gaps
            assert fast.embdim_n == slow.embdim_n
            assert fast.order_s == slow.order_s
            assert fast.gorenstein == slow.gorenstein
            assert fast.stable is False and slow.stable is True


def test_criterion_10_quasi_homogeneous_cusp(diff_cusp):
    with criterion(10, "cusp: h = 1, torsion proven, trace(D) equals the maximal ideal"):
        d = diff_cusp
        assert d.h_omega == 1
        vd = verdict(d)
        assert vd.status == TORSION
        ring = d.ring
        m_rows = {v: r for v, r in ring.ring_basis.pivots.items() if v != 0}
        assert at(trace(d.D).basis, ring.truncation).pivots == m_rows
