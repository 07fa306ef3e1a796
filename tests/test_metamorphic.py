"""Metamorphic tests: changes of the input that leave the ring, or its
isomorphism class, unchanged must leave every ring invariant unchanged.

- t -> t + a t^2 is an automorphism of k[[t]], so the new ring is
  isomorphic to R, and x_i'(t) changes by a unit factor, so D does too.
- x_i -> x_i + x_j^2 and an added generator x_1 x_2 leave R itself, and D,
  unchanged.

Rules R6-R8 read the realizer, which is not unique, so only the outcome of
R0-R5 is compared.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchinv.berger import REGULAR, verdict
from branchinv.branch import BranchSpec, analyze
from branchinv.differentials import compute
from branchinv.series import TruncatedSeries

# small branches, plane and not, monomial and not; every conductor is <= 40
BASES = (
    ("t^2", "t^3"),
    ("t^3", "t^4", "t^5"),
    ("t^4+t^5", "t^9"),
    ("t^5", "t^6", "t^14"),
    ("t^3", "t^7"),
    ("t^4", "t^6+t^7"),
    ("t^5+t^6", "t^7"),
    ("t^3+t^4", "t^5"),
    ("t^4+t^7", "t^5", "t^11"),
)
EARLY_RULES = ("R1", "R2", "R3", "R4", "R5")
A_VALUES = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


def invariants(gens):
    ring = analyze(BranchSpec(tuple(gens)))
    diff = compute(ring)
    v = verdict(diff)
    outcome = "R0" if v.status == REGULAR else v.rule if v.rule in EARLY_RULES else None
    return {"gaps": ring.gaps, "c": ring.conductor_c, "delta": ring.delta,
            "n": ring.embdim_n, "s": ring.order_s, "lambda_D": diff.lambda_D,
            "v_Dinv": diff.v_Dinv, "h": diff.h_omega, "R0-R5": outcome}


@cache
def base(texts):
    gens = BranchSpec.from_strings(texts).generators
    return gens, invariants(gens)


def test_bases_are_small():
    for texts in BASES:
        assert base(texts)[1]["c"] <= 40, texts


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), A_VALUES)
def test_reparametrization(texts, a):
    gens, expected = base(texts)
    t = TruncatedSeries.from_terms({1: Fraction(1), 2: Fraction(a)})
    moved = []
    for g in gens:
        out, power = TruncatedSeries.zero(), TruncatedSeries.one()
        for k in range(int(g.degree()) + 1):
            out = out + power.scale(g.coefficient(k))
            power = power * t
        moved.append(out)
    assert invariants(moved) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASES), st.data())
def test_square_of_a_generator_added(texts, data):
    gens, expected = base(texts)
    i = data.draw(st.integers(0, len(gens) - 1), label="i")
    j = data.draw(st.integers(0, len(gens) - 1), label="j")
    moved = list(gens)
    moved[i] = gens[i] + gens[j] * gens[j]
    assert invariants(moved) == expected


@pytest.mark.parametrize("texts", BASES)
def test_redundant_product_added(texts):
    gens, expected = base(texts)
    assert invariants(gens + (gens[0] * gens[1],)) == expected
