"""An independent route to the value semigroup of a plane branch (n = 2).

Write x = a t^e w(t) with w(0) = 1 and put u = t w(t)^(1/e), so that
x = a u^e.  Newton's iteration inverts u(t) exactly over Q, y(t(u)) is the
Puiseux expansion of y in x^(1/e), and its characteristic exponents give the
semigroup by Zariski's formula (Zariski, *Le probleme des modules pour les
branches planes*).  No closure, echelon form or truncation plan of the
package is involved.  So the oracle checks what the closure certificate
takes on trust from the closure: that no pivot of the closure is a value
outside v(R).
"""

from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchinv.branch import BranchSpec, analyze
from branchinv.cli import read_branch_file
from branchinv.series import TruncatedSeries

BRANCHES = Path(__file__).resolve().parents[1] / "branches"

# dense series mod u^K: a list of K Fractions, index = exponent


def _mul(a, b, K):
    out = [Fraction(0)] * K
    for i, x in enumerate(a[:K]):
        if x:
            for j, y in enumerate(b[:K - i]):
                if y:
                    out[i + j] += x * y
    return out


def _inverse(a, K):
    """1/a for a[0] != 0."""
    out = [Fraction(0)] * K
    out[0] = 1 / a[0]
    for k in range(1, K):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0]
    return out


def _power(a, alpha, K):
    """a^alpha for a[0] = 1, from a g' = alpha a' g:
    k g_k = sum_{j=1..k} (alpha j - (k - j)) a_j g_(k-j)."""
    g = [Fraction(0)] * K
    g[0] = Fraction(1)
    for k in range(1, K):
        g[k] = sum((alpha * j - (k - j)) * a[j] * g[k - j] for j in range(1, k + 1)) / k
    return g


def _compose(p, t, K):
    """p(t(u)) for a polynomial p (dense list) and t(u) of valuation >= 1."""
    out = [Fraction(0)] * K
    for coeff in reversed(p):
        out = _mul(out, t, K)
        out[0] += coeff
    return out


def _dense(f: TruncatedSeries, shift=0):
    terms = f.terms()
    out = [Fraction(0)] * (max(terms) - shift + 1)
    for k, a in terms.items():
        out[k - shift] = a
    return out


def puiseux(x: TruncatedSeries, y: TruncatedSeries, K: int):
    """(e, y(u) mod u^K) with x = a u^e; t(u) by Newton's iteration on
    t w(t)^(1/e) = u, doubling its precision each step."""
    e = int(x.valuation())
    xw = _dense(x, e)
    w = [c / xw[0] for c in xw]  # x = a t^e w(t), w(0) = 1
    dw = [k * c for k, c in enumerate(w)][1:] or [Fraction(0)]
    t, prec = [Fraction(0), Fraction(1)], 2
    while prec < K:
        prec = min(2 * prec, K)
        t = (t + [Fraction(0)] * prec)[:prec]
        W = _compose(w, t, prec)
        phi = _power(W, Fraction(1, e), prec)
        residual = _mul(t, phi, prec)
        residual[1] -= 1  # t phi(t) - u
        # d/dt (t phi) = phi (1 + t w' / (e w))
        ratio = _mul(_compose(dw, t, prec), _inverse(W, prec), prec)
        slope = [a + b / e for a, b in zip(phi, _mul(t, _mul(phi, ratio, prec), prec))]
        step = _mul(residual, _inverse(slope, prec), prec)
        t = [a - b for a, b in zip(t, step)]
    x_u = _compose(_dense(x), t, K)
    assert x_u == [xw[0] if k == e else 0 for k in range(K)]  # x = a u^e exactly
    return e, _compose(_dense(y), t, K)


def characteristic_exponents(x, y):
    """[beta_0, beta_1, ..., beta_g] of the branch (x, y), v(x) <= v(y)."""
    K = int(y.degree()) + 2
    while True:
        e, Y = puiseux(x, y, K)
        betas, g = [e], e
        for k, a in enumerate(Y):
            if a and k % g:
                betas.append(k)
                g = gcd(g, k)
                if g == 1:
                    return betas
        K *= 2
        assert K <= 1024, "no characteristic exponent brings the gcd to 1"


def zariski_semigroup(betas):
    """Minimal generators and conductor of the semigroup from the
    characteristic exponents: bar b_(i+1) = n_i bar b_i - b_i + b_(i+1),
    c = sum (n_i - 1) bar b_i - b_0 + 1, with n_i = e_(i-1)/e_i."""
    bars, ns, e = [betas[0], betas[1]], [], betas[0]
    for i in range(1, len(betas)):
        ns.append(e // gcd(e, betas[i]))
        e = gcd(e, betas[i])
        if i + 1 < len(betas):
            bars.append(ns[-1] * bars[i] - betas[i] + betas[i + 1])
    c = sum((n - 1) * b for n, b in zip(ns, bars[1:])) - betas[0] + 1
    return tuple(bars), c


def semigroup_gaps(gens, c):
    """The gaps of the numerical semigroup <gens>, all below c."""
    member = [False] * c
    member[0] = True
    for v in range(c):
        if member[v]:
            for b in gens:
                if v + b < c:
                    member[v + b] = True
    return tuple(v for v in range(c) if not member[v])


def assert_matches_oracle(x, y):
    if x.valuation() > y.valuation():
        x, y = y, x
    bars, c = zariski_semigroup(characteristic_exponents(x, y))
    gaps = semigroup_gaps(bars, c)
    assert c == 2 * len(gaps)  # a plane branch is Gorenstein: c = 2 delta
    ring = analyze(BranchSpec((x, y)))
    assert ring.embdim_n == 2
    assert (ring.gaps, ring.conductor_c, ring.delta) == (gaps, c, len(gaps))
    assert ring.conductor_c == 2 * ring.delta
    return bars


def test_cusp_with_two_pairs():
    x, y = TruncatedSeries.t_power(4), TruncatedSeries.from_terms({6: 1, 7: 1})
    assert characteristic_exponents(x, y) == [4, 6, 7]
    assert assert_matches_oracle(x, y) == (4, 6, 13)


def test_bundled_plane_branches():
    seen = []
    for path in sorted(BRANCHES.glob("*.branch")):
        spec = read_branch_file(str(path))
        if len(spec.generators) == 2:
            assert_matches_oracle(*spec.generators)
            seen.append(path.stem)
    assert {"cusp", "plane49", "plane13_19", "plane17_23"} <= set(seen)


def _designed_sequences(max_c=100):
    """Characteristic sequences (b_0, ..., b_g) with 2 or 3 pairs, b_0 <= 12,
    every b_i below 40 and c <= max_c."""
    out = []

    def extend(seq, e):
        for b in range(seq[-1] + 1, 40):
            g = gcd(e, b)
            if g == 1 and len(seq) > 1 and zariski_semigroup(seq + [b])[1] <= max_c:
                out.append(tuple(seq + [b]))
            elif 1 < g < e and len(seq) < 3:
                extend(seq + [b], g)

    for b0 in range(4, 13):
        extend([b0], b0)
    return out


DESIGNED = _designed_sequences()
NONZERO = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(DESIGNED), st.lists(NONZERO, min_size=3, max_size=3), st.data())
def test_designed_plane_branches(betas, coeffs, data):
    # y's terms at b_1, ..., b_g and x = t^b_0 give exactly the designed
    # exponents; a term added to x or y may change them, but the oracle and
    # the closure must still agree
    y_terms = {b: a for b, a in zip(betas[1:], coeffs)}
    x_terms = {betas[0]: Fraction(1)}
    if data.draw(st.booleans(), label="perturb"):
        x_terms[betas[0] + data.draw(st.integers(1, 3), label="x shift")] = data.draw(NONZERO)
        k = data.draw(st.integers(betas[1] + 1, betas[-1] + 2).filter(lambda k: k not in betas),
                      label="y term")
        y_terms[k] = data.draw(NONZERO)
    x, y = TruncatedSeries.from_terms(x_terms), TruncatedSeries.from_terms(y_terms)
    if len(x_terms) == 1 and len(y_terms) == len(betas) - 1:
        assert characteristic_exponents(x, y) == list(betas)
    assert_matches_oracle(x, y)


def test_designed_corpus_has_two_and_three_pairs():
    assert {len(b) - 1 for b in DESIGNED} == {2, 3}
    assert (4, 6, 7) in DESIGNED and (8, 12, 14, 15) in DESIGNED


@pytest.mark.parametrize("betas, bars, c", [
    ((2, 3), (2, 3), 2),
    ((4, 6, 7), (4, 6, 13), 16),
    ((8, 12, 14, 15), (8, 12, 26, 53), 84),
    ((17, 23), (17, 23), 352),
])
def test_zariski_formula(betas, bars, c):
    assert zariski_semigroup(list(betas)) == (bars, c)
