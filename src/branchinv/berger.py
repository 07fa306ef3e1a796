"""Torsion verdict engine for Berger's conjecture on a parametrized branch.

Every known sufficient criterion available from the computed invariants is
evaluated; the verdict cites the first rule that fires, in a fixed priority
order, and the full bounds record is attached regardless of which rule won.
Absence of torsion is never claimed: the criteria are one-sided, so a branch
that triggers nothing is reported Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .differentials import DifferentialData
from .errors import DomainError

REGULAR = "Regular"
TORSION = "TorsionProven"
INCONCLUSIVE = "Inconclusive"

#: rule id -> (short description, how the rule is established)
RULES: dict[str, tuple[str, str]] = {
    "R0": ("the branch is regular (n = 1); the differential module is free", "structure"),
    "R1": ("h = 0: a singular branch whose differential module surjects onto R has torsion",
           "literature (char-0 splitting)"),
    "R2": ("maximal torsion: delta equals the colength of the derivative module",
           "literature (maximal-torsion case)"),
    "R3": ("h below the binomial bound C(n+s,s)*s/(s+1)", "computed bound"),
    "R4": ("h in {1, 2}", "literature reduction plus the binomial bound"),
    "R5": ("Gorenstein branch with h in {1, 2, 3}", "literature reduction plus the refined bound"),
    "R6": ("the minimal realized copy is not contained in m^s", "computed bound"),
    "R7": ("the realized copy needs fewer than n generators", "computed bound"),
    "R8": ("h below the refined bound (depends on the chosen realizer)", "computed bound"),
}

# R3 is checked before R2: when both fire the report should cite the
# headline bound, and the golden branches expect exactly that.
RULE_ORDER = ("R0", "R1", "R3", "R2", "R4", "R5", "R6", "R7", "R8")


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str | None
    bounds: dict


def main_bound(n: int, s: int) -> Fraction:
    """The binomial torsion bound C(n+s, s) * s/(s+1)."""
    if n < 2 or s < 1:
        raise DomainError(f"main bound needs n >= 2 and s >= 1, got n={n}, s={s}")
    return comb(n + s, s) * Fraction(s, s + 1)


def refined_bound(n: int, s: int, mu_msJ: int) -> Fraction:
    """The realizer-dependent bound C(n+s-1,s-1)*(s^2+s(n-1)-1)/(s(s+1)) + 1 + mu(m^s/J)/n."""
    if n < 2 or s < 1 or mu_msJ < 0:
        raise DomainError(
            f"refined bound needs n >= 2, s >= 1, mu >= 0, got n={n}, s={s}, mu={mu_msJ}"
        )
    head = comb(n + s - 1, s - 1) * Fraction(s * s + s * (n - 1) - 1, s * (s + 1))
    return head + 1 + Fraction(mu_msJ, n)


def verdict(diff: DifferentialData) -> Verdict:
    """Evaluate all rules in priority order; first hit wins, all bounds reported."""
    ring = diff.ring
    n = ring.embdim_n
    s = ring.order_s
    h = diff.h_omega

    mb = main_bound(n, s) if (n >= 2 and s is not None) else None
    rb = None
    if n >= 2 and s is not None and diff.in_ms and diff.mu_msJ is not None:
        rb = refined_bound(n, s, diff.mu_msJ)

    bounds = {
        "h": h,
        "main_bound": mb,
        "refined_bound": rb,
        "n": n,
        "s": s,
        "delta": ring.delta,
        "lambda_D": diff.lambda_D,
        "v_Dinv": diff.v_Dinv,
        "c": ring.conductor_c,
        "mu_Jmin": diff.mu_Jmin,
        "mu_msJ": diff.mu_msJ,
        "gorenstein": ring.gorenstein,
        "maximal_torsion": diff.maximal_torsion,
        "in_ms": diff.in_ms,
    }

    hits = {
        "R0": n == 1,
        "R1": n >= 2 and h == 0,
        "R2": n >= 2 and diff.maximal_torsion,
        "R3": mb is not None and h < mb,
        "R4": n >= 2 and h in (1, 2),
        "R5": n >= 2 and ring.gorenstein and h in (1, 2, 3),
        "R6": diff.in_ms is False,
        "R7": n >= 2 and diff.mu_Jmin < n,
        "R8": rb is not None and h < rb,
    }

    for rule in RULE_ORDER:
        if hits[rule]:
            if rule == "R0":
                return Verdict(REGULAR, None, bounds)
            return Verdict(TORSION, rule, bounds)
    return Verdict(INCONCLUSIVE, None, bounds)
