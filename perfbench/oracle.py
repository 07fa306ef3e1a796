"""Independent checks of branchinv's outputs.

Nothing here imports branchinv or shares code with it.  The semigroup comes
from an Apery-set shortest-path computation (branchinv.semigroup uses a
dynamic-programming sieve); the realizer check is plain Fraction Gaussian
elimination; the verdict is derived again from the reported invariants with
this file's own rule table.  Each check returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd

# The realizer check enumerates every generator monomial of valuation below
# c, so it runs only where c is small.
REALIZER_MAX_C = 160


# ---------------------------------------------------------------------------
# numerical semigroups
# ---------------------------------------------------------------------------


def semigroup(gens) -> dict:
    """Gaps, conductor, delta, symmetry and minimal generators of <gens>.

    The Apery set of e = min(gens) holds the least element of each residue
    class mod e; it is found as shortest paths on the residues, with an edge
    of length a for every generator a.
    """
    gens = sorted(set(gens))
    g = 0
    for a in gens:
        g = gcd(g, a)
    if not gens or gens[0] < 1 or g != 1:
        raise ValueError(f"need positive generators with gcd 1, got {gens}")
    e = gens[0]
    apery = [None] * e
    apery[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > apery[r]:
            continue
        for a in gens:
            nd, nr = d + a, (d + a) % e
            if apery[nr] is None or nd < apery[nr]:
                apery[nr] = nd
                heapq.heappush(heap, (nd, nr))
    conductor = max(apery) - e + 1 if e > 1 else 0
    gaps = tuple(x for x in range(conductor) if x < apery[x % e])
    gapset = set(gaps)
    nonzero = sorted(w for w in apery if w)
    sums = {x + y for x in nonzero for y in nonzero}
    return {
        "gaps": gaps,
        "conductor": conductor,
        "delta": len(gaps),
        "symmetric": all((z in gapset) != ((conductor - 1 - z) in gapset)
                         for z in range(conductor)),
        "minimal": tuple([e] + [w for w in nonzero if w not in sums]),
    }


def expected_semigroup(item: dict) -> dict | None:
    """The semigroup the item's branch must have, where it is known apart
    from the program: <exponents> for monomial branches, <p, q> for the plane
    branch t^p + t^(p+1), t^q (one characteristic exponent, gcd(p, q) = 1)."""
    if item["oracle"] == "monomial":
        return semigroup([min(p) for p in item["gens"]])
    if item["oracle"] == "plane":
        return semigroup([min(item["gens"][0]), min(item["gens"][1])])
    return None


# ---------------------------------------------------------------------------
# polynomials as dicts exponent -> Fraction
# ---------------------------------------------------------------------------


def _mul(f: dict, g: dict, below: int) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            if e1 + e2 < below:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _derivative(f: dict) -> dict:
    return {e - 1: e * c for e, c in f.items() if e}


def _reduce(f: dict, pivots: dict) -> dict:
    """Remainder of f against rows with distinct leading exponents."""
    f = dict(f)
    while True:
        hits = sorted(e for e in f if e in pivots)
        if not hits:
            return f
        e = hits[0]
        a = f[e]
        for k, b in pivots[e].items():
            v = f.get(k, 0) - a * b
            if v:
                f[k] = v
            else:
                f.pop(k, None)


def monomials_below(gens: list[dict], c: int) -> list[dict]:
    """Every product of generators of valuation below c, reduced mod t^c
    (the empty product 1 included): they span R / t^c k[[t]]."""
    vals = [min(p) for p in gens]
    out = []

    def walk(i: int, prod: dict, v: int):
        if i == len(gens):
            out.append(prod)
            return
        while v < c:
            walk(i + 1, prod, v)
            prod, v = _mul(prod, gens[i], c), v + vals[i]

    walk(0, {0: Fraction(1)}, 0)
    return out


def realizer_problems(gens: list[dict], alpha: dict, c: int) -> list[str]:
    """Each alpha * x_i'(t) mod t^c must lie in the span of the generator
    monomials of valuation below c, i.e. alpha * D must lie in R."""
    pivots: dict[int, dict] = {}
    for m in monomials_below(gens, c):
        r = _reduce(m, pivots)
        if r:
            lead = min(r)
            pivots[lead] = {e: x / r[lead] for e, x in r.items()}
    problems = []
    for i, x in enumerate(gens):
        if _reduce(_mul(alpha, _derivative(x), c), pivots):
            problems.append(f"alpha * x_{i + 1}' is not in the ring mod t^{c}")
    return problems


# ---------------------------------------------------------------------------
# the verdict, derived again
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction | None:
    return None if x is None else Fraction(x["num"], x["den"])


def expected_verdict(r: dict) -> tuple[str, str | None, Fraction | None, Fraction | None]:
    """(status, rule, binomial bound, refined bound) from reported invariants.

    Rules in priority order: R0 regular; R1 h = 0; R3 h below the binomial
    bound C(n+s, s) s/(s+1); R2 maximal torsion; R4 h in {1, 2}; R5
    Gorenstein with h in {1, 2, 3}; R6 realized copy outside m^s; R7 fewer
    than n generators for the realized copy; R8 h below the refined bound
    C(n+s-1, s-1) (s^2 + s(n-1) - 1)/(s(s+1)) + 1 + mu(m^s/J)/n.
    """
    n, s, h = r["n"], r["s"], r["h"]
    main = refined = None
    if n >= 2 and s is not None:
        main = comb(n + s, s) * Fraction(s, s + 1)
        if r["in_ms"] and r["mu_msJ"] is not None:
            refined = (comb(n + s - 1, s - 1) * Fraction(s * s + s * (n - 1) - 1, s * (s + 1))
                       + 1 + Fraction(r["mu_msJ"], n))
    table = (
        ("R1", h == 0),
        ("R3", main is not None and h < main),
        ("R2", r["maximal_torsion"]),
        ("R4", h in (1, 2)),
        ("R5", r["gorenstein"] and h in (1, 2, 3)),
        ("R6", r["in_ms"] is False),
        ("R7", r["mu_Jmin"] < n),
        ("R8", refined is not None and h < refined),
    )
    if n == 1:
        return "Regular", None, main, refined
    for rule, fires in table:
        if fires:
            return "TorsionProven", rule, main, refined
    return "Inconclusive", None, main, refined


# ---------------------------------------------------------------------------
# checks of one output
# ---------------------------------------------------------------------------


def ring_problems(item: dict, r: dict) -> list[str]:
    """Semigroup and ring invariants: gaps, c, delta, n, s, Gorenstein."""
    p = []
    gaps, c, delta, n = r["gaps"], r["conductor"], r["delta"], r["n"]
    e = min(min(g) for g in item["gens"])
    gapset = set(gaps)
    if delta != len(gaps) or any(x >= c for x in gaps) or (c and c - 1 not in gapset):
        p.append(f"gaps {gaps} disagree with c = {c}, delta = {delta}")
    achieved = sum(1 << x for x in range(c) if x not in gapset)
    gapmask = sum(1 << x for x in gaps)
    if any((achieved << x) & gapmask for x in range(c) if (achieved >> x) & 1):
        p.append("achieved valuations below c are not closed under addition")
    if any(min(g) in gapset for g in item["gens"]):
        p.append("a generator's valuation is reported as a gap")
    want = expected_semigroup(item)
    if want is not None:
        if (tuple(gaps), c, delta) != (want["gaps"], want["conductor"], want["delta"]):
            p.append(f"semigroup differs from the sieve: c = {c} vs {want['conductor']}, "
                     f"delta = {delta} vs {want['delta']}")
        if r["gorenstein"] != want["symmetric"]:
            p.append("gorenstein flag differs from the sieve's symmetry")
        if item["oracle"] == "monomial" and n != len(want["minimal"]):
            p.append(f"n = {n}, but the semigroup has {len(want['minimal'])} minimal generators")
    if not 1 <= n <= len(item["gens"]) or (n == 1) != (delta == 0):
        p.append(f"embedding dimension {n} impossible here")
    if n == 2 and not (r["gorenstein"] and r["s"] == e - 1):
        p.append(f"n = 2 needs a Gorenstein branch with s = e - 1 = {e - 1}, got s = {r['s']}")
    if c > 2 * delta or (c == 2 * delta) != r["gorenstein"]:
        p.append(f"c = {c}, delta = {delta} contradict c <= 2 delta (= iff Gorenstein)")
    return p


def report_problems(item: dict, r: dict) -> list[str]:
    """Everything a full ``analyze --json`` report must satisfy."""
    p = ring_problems(item, r)
    e = min(min(g) for g in item["gens"])
    delta, h, lam, vinv = r["delta"], r["h"], r["lambda_D"], r["v_Dinv"]
    if r["vD"] != e - 1:
        p.append(f"vD = {r['vD']}, expected e - 1 = {e - 1}")
    if lam > delta or not 0 <= h <= vinv or h != lam - delta + vinv:
        p.append(f"h = {h}, lambda_D = {lam}, delta = {delta}, v_Dinv = {vinv} are inconsistent")
    if r["maximal_torsion"] != (lam == delta):
        p.append("maximal_torsion disagrees with lambda_D == delta")
    alpha = {r["alpha"]["offset"] + j: Fraction(x["num"], x["den"])
             for j, x in enumerate(r["alpha"]["coeffs"]) if x["num"]}
    if not alpha or min(alpha) != vinv:
        p.append(f"alpha has valuation {min(alpha) if alpha else None}, expected v_Dinv = {vinv}")
    elif r["conductor"] <= REALIZER_MAX_C:
        p += realizer_problems(item["gens"], alpha, r["conductor"])
    status, rule, main, refined = expected_verdict(r)
    vd = r["verdict"]
    if (vd["status"], vd["rule"]) != (status, rule):
        p.append(f"verdict {vd['status']}/{vd['rule']}, rules give {status}/{rule}")
    if (_frac(vd["bounds"]["main_bound"]), _frac(vd["bounds"]["refined_bound"])) != (main, refined):
        p.append("verdict bounds differ from the rule table's")
    if item["ideal"] is not None:
        p += ideal_problems(item, r)
    return p


def ideal_problems(item: dict, r: dict) -> list[str]:
    """The maximal ideal m gives h = 1, v(m^-1) = 0, trace m itself; the
    normalization gives h = c - delta, v_inverse = c, trace the conductor;
    a copy t^-k m keeps h and the trace, moves vmin by -k and v_inverse by +k."""
    sec, ideal = r["ideal"], item["ideal"]
    e, c, delta = min(min(g) for g in item["gens"]), r["conductor"], r["delta"]
    k = ideal["shift"]
    got = {key: sec[key] for key in ("shift", "vmin", "h", "v_inverse", "trace_vmin", "trace_gaps")}
    if ideal["kind"] == "normalization":
        want = {"shift": 0, "vmin": 0, "h": c - delta, "v_inverse": c,
                "trace_vmin": c, "trace_gaps": []}
    else:
        want = {"shift": k, "vmin": e - k, "h": 1, "v_inverse": k,
                "trace_vmin": e, "trace_gaps": [g for g in r["gaps"] if g > e]}
    p = [f"ideal {ideal['kind']}: {key} = {got[key]}, expected {want[key]}"
         for key in want if got[key] != want[key]]
    if ideal["kind"] == "maximal" and sec["realizes_itself"] is not True:
        p.append("the maximal ideal must realize itself")
    return p

