"""The derivative module D = R x_1'(t) + ... + R x_n'(t) and its invariants.

D is the torsion-free image of the module of differentials, so the minimal
colength h of an integral copy of it is computed entirely inside k((t)):
h = lambda(k[[t]]/D) - delta + v(D^{-1}).  The same number is recomputed
through the conductor shift t^c D as a mandatory cross-check; disagreement
aborts the run instead of reporting anything.

The realized copy J = alpha D (alpha realizes v(D^{-1})) carries alpha's large
coefficients and is never closed.  J is isomorphic to D, so mu(J) = mu(D).
Its least valuation is v(D^{-1}) + v(D), and m^s holds no valuation below
s*e: below that bound J is not in m^s, and no m^s closure runs.  Otherwise
membership is tested against the m^s basis.  Once J lies in m^s, m J lies
in m^(s+1), so J + m^(s+1) is the k-span of the n products alpha x_i' added
to the m^(s+1) basis.

Every closure here starts from its a-priori tail and sizes itself, so this
works on the ring at whatever truncation `analyze` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branch import RingData, m_power_basis
from .echelon import quotient_dim
from .errors import InternalInconsistency
from .ideals import (
    FractionalIdeal,
    colength_in_normalization,
    from_generators,
    inverse,
    min_generators,
)
from .series import TruncatedSeries


@dataclass(eq=False)
class DifferentialData:
    ring: RingData
    D: FractionalIdeal
    lambda_D: int
    v_D: int
    v_Dinv: int
    alpha: TruncatedSeries
    h_omega: int
    lambda_tcD: int
    maximal_torsion: bool
    in_ms: bool | None
    mu_Jmin: int
    mu_msJ: int | None


def derivative_module(ring: RingData) -> FractionalIdeal:
    """The R-span of the generator derivatives x_i'(t)."""
    gens = tuple(g.derivative() for g in ring.generators)
    return from_generators(ring, gens)


def compute(ring: RingData) -> DifferentialData:
    """All derivative-module invariants, cross-checked."""
    c = ring.conductor_c
    delta = ring.delta

    D = derivative_module(ring)
    v_D = D.vmin
    expected_vD = min(int(g.valuation()) for g in ring.generators) - 1
    if v_D != expected_vD:
        raise InternalInconsistency(f"v(D) = {v_D}, expected {expected_vD} in characteristic 0")

    lambda_D = colength_in_normalization(D)
    if lambda_D > delta:
        raise InternalInconsistency(f"lambda_D = {lambda_D} exceeds delta = {delta}")

    inv = inverse(D)
    v_Dinv, alpha = inv.v_inverse, inv.realizer
    h = lambda_D - delta + v_Dinv
    if h < 0 or h > v_Dinv:
        raise InternalInconsistency(f"h = {h} outside [0, v(D^-1) = {v_Dinv}]")

    tcD = from_generators(ring, tuple(g.shift(c) for g in D.generators))
    lambda_tcD = quotient_dim(ring.ring_basis, tcD.basis)
    if lambda_tcD > c:
        raise InternalInconsistency(f"lambda(R/t^c D) = {lambda_tcD} exceeds c = {c}")
    if lambda_tcD - c + v_Dinv != h:
        raise InternalInconsistency(
            f"h cross-check failed: {lambda_D} - {delta} + {v_Dinv} != "
            f"{lambda_tcD} - {c} + {v_Dinv}"
        )

    # inverse(D) has checked that every alpha * x_i' lies in R
    J_gens = tuple(alpha * g for g in D.generators)

    s = ring.order_s
    mu_Jmin = min_generators(D)
    in_ms: bool | None = None
    mu_msJ: int | None = None
    if s is not None:
        # J's least valuation below s*e decides in_ms with no m^s closure
        se = s * ring.multiplicity
        in_ms = v_Dinv + v_D >= se and all(
            m_power_basis(ring, s).member(g, c + se) for g in J_gens)
        if in_ms:
            span = m_power_basis(ring, s + 1)
            for g in J_gens:
                span, _ = span.insert(g)
            mu_msJ = quotient_dim(m_power_basis(ring, s), span)

    return DifferentialData(
        ring=ring,
        D=D,
        lambda_D=lambda_D,
        v_D=v_D,
        v_Dinv=v_Dinv,
        alpha=alpha,
        h_omega=h,
        lambda_tcD=lambda_tcD,
        maximal_torsion=(delta == lambda_D),
        in_ms=in_ms,
        mu_Jmin=mu_Jmin,
        mu_msJ=mu_msJ,
    )
