import random
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchinv.branch as branch_module
from branchinv.branch import (
    BranchSpec,
    analyze,
    embedding_dimension,
    is_gorenstein,
    m_power_basis,
    order_s,
)
from branchinv.cli import read_branch_file, required_truncation
from branchinv.echelon import close_under, quotient_dim
from branchinv.errors import (
    ImprimitiveParametrization,
    InternalInconsistency,
    NonPositiveValuationGenerator,
    TruncationExhausted,
)
from branchinv.ideals import from_generators
from branchinv.semigroup import sieve
from branchinv.series import TruncatedSeries, monomials
from conftest import perturb_verification, random_branch_texts, record_certificates

BRANCHES = Path(__file__).resolve().parents[1] / "branches"


def full_ladder_order(ring):
    """The unbounded m^d ladder, with no closed form and no Hilbert bound:
    the reference that order_s is checked against."""
    n = ring.embdim_n
    d = 1
    while quotient_dim(m_power_basis(ring, d), m_power_basis(ring, d + 1)) == comb(n + d - 1, d):
        d += 1
    return d - 1


def _closed_at(exps, N):
    """(c, gaps, n, s) of the monomial branch <exps> at truncation N, or the
    text naming what N lacks: the first m^d of the full ladder whose tail
    is not below N.

    The ring is closed at N.  m^d mod t^N is spanned by the monomials whose
    exponents are sums of at least d generators, so its valuations are
    counted directly: echelon closures of the full ladder at every N would
    take about a minute over the pairs up to 40.
    """
    gens = tuple(TruncatedSeries.t_power(a) for a in exps)
    e, maxdeg = min(exps), max(exps)
    achieved = set(close_under([TruncatedSeries.one()], gens, N).pivot_valuations)
    top = N - maxdeg - 1  # the closure certifies the valuations below this
    c = top
    while c - 1 >= 0 and c - 1 in achieved:
        c -= 1
    if top - c < e or c >= top:
        return "no certified conductor run"
    gaps = tuple(v for v in range(c) if v not in achieved)
    power = achieved - {0}  # the valuations of m^d below N, d = 1, 2, ...
    d = 1
    while True:
        tail = c + (d + 1) * e
        if tail >= N:
            return f"m^{d + 1} needs truncation above {tail}"
        higher = {v + a for v in power for a in exps if v + a < N}
        h = len(power) - len(higher)
        power = higher
        if d == 1:
            n = h
            if n == 1:
                return c, gaps, 1, None
        elif h != comb(n + d - 1, d):
            return c, gaps, n, d - 1
        d += 1


def reference_truncation(exps, verify=True, cap=4096):
    """The truncation `analyze` reports for <exps>, with its invariants, or
    its exit-3 text, from closures at every N of the doubling sequence: the
    reference for the truncation plan, which closes the ring only until the
    conductor certifies and finds n and s once."""
    N = max(64, 4 * max(exps) + 16)
    limit = cap // 2 if verify else cap
    while True:
        found = _closed_at(exps, N)
        if not isinstance(found, str):
            break
        if N >= limit:
            return f"no stable analysis below truncation {cap} ({found})"
        N = min(2 * N, limit)
    if verify:
        if 2 * N > cap:
            return f"doubling verification needs truncation {2 * N}, above the cap {cap}"
        assert _closed_at(exps, 2 * N) == found
    return N, found


def _analyzed(exps, verify=True, cap=4096):
    try:
        ring = analyze(BranchSpec.from_strings([f"t^{a}" for a in exps]),
                       verify_stability=verify, max_truncation=cap)
    except TruncationExhausted as exc:
        return str(exc)
    return ring.truncation, (ring.conductor_c, ring.gaps, ring.embdim_n, ring.order_s)


def _primitive_pairs(top):
    return [(a, b) for b in range(3, top + 1) for a in range(2, b) if gcd(a, b) == 1]


class TestAnalyzeGolden:
    def test_regular_line(self, line):
        assert line.embdim_n == 1
        assert line.delta == 0
        assert line.conductor_c == 0
        assert line.gaps == ()
        assert line.is_regular()

    def test_plane_branch_gaps(self, plane49):
        assert plane49.gaps == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)
        assert plane49.delta == 12
        assert plane49.conductor_c == 24
        assert plane49.embdim_n == 2

    def test_monomial_branch_against_sieve(self, mono_5_6_14):
        data = sieve([5, 6, 14])
        assert mono_5_6_14.conductor_c == data.conductor == 14
        assert mono_5_6_14.delta == data.delta == 8
        assert mono_5_6_14.gaps == data.gaps == (1, 2, 3, 4, 7, 8, 9, 13)

    def test_deep_branch(self, embdim7):
        assert embdim7.conductor_c == 14
        assert embdim7.embdim_n == 7
        assert embdim7.order_s == 1

    def test_four_generator_branch(self, four_gens):
        assert four_gens.conductor_c == 40
        assert four_gens.embdim_n == 4


class TestEmbeddingDimension:
    def test_line(self, line):
        assert embedding_dimension(line) == 1

    def test_deep_branch(self, embdim7):
        assert embedding_dimension(embdim7) == 7

    def test_redundant_generator_detected(self):
        # t^4+t^5 and t^4 together give t^5, so the ring is k[[t^4, t^5]]
        # and t^9 = t^4*t^5 contributes nothing to m/m^2
        ring = analyze(BranchSpec.from_strings(["t^4+t^5", "t^9", "t^4"]))
        assert ring.embdim_n == 2
        assert ring.gaps == sieve([4, 5]).gaps


class TestOrder:
    def test_deep_branch_has_order_one(self, embdim7):
        assert order_s(embdim7) == 1

    def test_cusp(self, cusp):
        # dim m^2/m^3 = 2 < 3 = C(3,2), so the pattern breaks at degree 2
        assert order_s(cusp) == 1
        m2 = m_power_basis(cusp, 2)
        m3 = m_power_basis(cusp, 3)
        assert quotient_dim(m2, m3) == 2

    def test_three_generators(self, t345):
        assert order_s(t345) == 1

    def test_monomial_plane_pair(self):
        # k[[t^4, t^5]] = k[[x,y]]/(x^5 - y^4): the relation has degree 4
        ring = analyze(BranchSpec.from_strings(["t^4", "t^5"]))
        assert ring.order_s == 3

    def test_corpus_against_full_ladder(self, corpus):
        planes = bounded = 0
        for d in corpus:
            ring = d.ring
            n, s, e = ring.embdim_n, ring.order_s, ring.multiplicity
            if n < 2:
                continue
            assert full_ladder_order(ring) == s, ring.name
            if n == 2:
                planes += 1
                assert s == e - 1, ring.name
            else:
                bounded += comb(n + s, s + 1) > e  # stopped by H(d) <= e
        assert planes >= 10 and bounded >= 5

    def test_primitive_pairs_against_full_ladder(self):
        for b in range(3, 21):
            for a in range(2, b):
                if gcd(a, b) != 1:
                    continue
                ring = analyze(BranchSpec.from_strings([f"t^{a}", f"t^{b}"]),
                               verify_stability=False)
                assert ring.order_s == full_ladder_order(ring) == a - 1, (a, b)

    @pytest.mark.parametrize("gens, truncation", [((9, 10, 12), 128), ((9, 11, 15), 152)])
    def test_hilbert_bound_keeps_truncation(self, gens, truncation):
        # H(3) <= 9 < C(5,3) ends the ladder without closing m^4, but the room
        # c + 4e that m^4 would need still sets the truncation
        ring = analyze(BranchSpec.from_strings([f"t^{a}" for a in gens]),
                       verify_stability=False)
        assert ring.order_s == 2 and ring.truncation == truncation
        assert max(ring._mpow) == 3

    @pytest.mark.parametrize("a", [4, 5, 7, 8, 10, 11, 13, 16, 19, 20])
    def test_plane_order_closes_no_higher_power(self, a):
        ring = analyze(BranchSpec.from_strings([f"t^{a}", f"t^{a + 3}"]),
                       verify_stability=False)
        assert ring.order_s == a - 1
        assert max(ring._mpow) <= 2


class TestGorenstein:
    def test_cusp_symmetric(self, cusp):
        assert is_gorenstein(cusp) is True

    def test_t345_not_symmetric(self, t345):
        assert t345.gaps == (1, 2)
        assert is_gorenstein(t345) is False

    def test_line_trivially_symmetric(self, line):
        assert is_gorenstein(line) is True

    def test_plane_branches_always_symmetric(self, plane49):
        assert is_gorenstein(plane49) is True


class TestValidation:
    def test_constant_generator_rejected(self):
        with pytest.raises(NonPositiveValuationGenerator):
            analyze(BranchSpec.from_strings(["1+t"]))

    def test_zero_generator_rejected(self):
        with pytest.raises(NonPositiveValuationGenerator):
            analyze(BranchSpec.from_strings(["t^2", "0"]))

    def test_empty_spec_rejected(self):
        with pytest.raises(NonPositiveValuationGenerator):
            analyze(BranchSpec(()))

    def test_monomial_imprimitive_rejected(self):
        with pytest.raises(ImprimitiveParametrization) as exc:
            analyze(BranchSpec.from_strings(["t^2", "t^4"]))
        assert exc.value.d == 2

    def test_single_generator_reparametrization_rejected(self):
        with pytest.raises(ImprimitiveParametrization):
            analyze(BranchSpec.from_strings(["t^2+t^3"]))

    def test_disguised_reparametrization_rejected(self):
        # both generators are polynomials in u = t^2+t^3, so the value
        # semigroup is 2N even though the exponents have gcd 1
        with pytest.raises(ImprimitiveParametrization):
            analyze(BranchSpec.from_strings(["t^2+t^3", "t^4+2*t^5+t^6"]))

    def test_hidden_odd_witness_not_mistaken_for_imprimitive(self):
        # t^5 = (t^4+t^5) - (t^2)^2 appears only through cancellation
        ring = analyze(BranchSpec.from_strings(["t^2", "t^4+t^5"]))
        assert ring.gaps == (1, 3)
        assert ring.conductor_c == 4

    def test_single_uniformizer_is_regular(self):
        ring = analyze(BranchSpec.from_strings(["t+t^2"]))
        assert ring.is_regular()


class TestStability:
    def test_doubling_leaves_invariants_fixed(self, plane49):
        bigger = analyze(plane49.spec, initial_truncation=2 * plane49.truncation)
        assert bigger.gaps == plane49.gaps
        assert bigger.embdim_n == plane49.embdim_n
        assert bigger.order_s == plane49.order_s
        assert bigger.gorenstein == plane49.gorenstein

    def test_no_verify_flag_reflected(self):
        ring = analyze(BranchSpec.from_strings(["t^2", "t^3"]), verify_stability=False)
        assert ring.stable is False
        assert ring.gaps == (1,)

    def test_room_moves_before_verifying(self, monkeypatch):
        # 64 certifies the ring; room asks for 89, so the ring is reported
        # there with the same rows, and only that ring is verified
        tried = []
        analyze_at = branch_module._analyze_at

        def recording(spec, gens, N):
            tried.append(N)
            return analyze_at(spec, gens, N)

        monkeypatch.setattr(branch_module, "_analyze_at", recording)
        certified = record_certificates(monkeypatch)
        ring = analyze(BranchSpec.from_strings(["t^4+t^5", "t^9"]), room=lambda ring: 89)
        assert tried == [64] and certified == [89]
        assert ring.truncation == 89 and ring.stable is True

    def test_verification_honours_cap(self):
        with pytest.raises(TruncationExhausted, match="needs truncation 128"):
            analyze(BranchSpec.from_strings(["t^4+t^5", "t^9"]), max_truncation=100)

    def test_verified_retries_stop_at_half_the_cap(self):
        # <30,31> needs N > 870 + 31*30 = 1800; 1120 doubles past 2048, half
        # the cap, so 2048 is tried last and its check at 4096 fits
        ring = analyze(BranchSpec.from_strings(["t^30", "t^31"]))
        assert ring.truncation == 2048 and ring.stable is True
        assert ring.gaps == sieve((30, 31)).gaps

    # Doubling from 2880 passes the cap 4096; the cap itself is then tried.
    @pytest.mark.parametrize("pair", [(38, 41), (40, 43), (41, 44), (37, 38), (37, 39),
                                      (38, 39), (39, 40)])
    def test_cap_tried_before_giving_up(self, pair):
        ring = analyze(BranchSpec.from_strings([f"t^{a}" for a in pair]),
                       verify_stability=False)
        data = sieve(pair)
        assert ring.truncation == 4096
        assert ring.gaps == data.gaps
        assert (ring.conductor_c, ring.delta) == (data.conductor, data.delta)
        assert ring.gorenstein == data.symmetric
        assert ring.order_s == pair[0] - 1

    def test_unverified_pairs_against_reference(self):
        for pair in _primitive_pairs(40):
            assert _analyzed(pair, verify=False) == reference_truncation(pair, verify=False), pair

    @pytest.mark.parametrize("verify, cap", [(True, 4096), (True, 1024), (False, 1024)])
    def test_pairs_against_reference(self, verify, cap):
        for pair in _primitive_pairs(20):
            assert _analyzed(pair, verify, cap) == reference_truncation(pair, verify, cap), pair

    def test_self_sized_closures_equal_uncut_closures(self, corpus):
        # every closure but the ring's stops at its a-priori tail plus e,
        # whatever the ring's truncation N; the uncut closure at N, cut below
        # the tail, has the same rows and tail, and quotient_dim counts what
        # the uncut closures' pivots count at N
        def assert_same(tailed, full, name):
            cut = full.with_tail(tailed.tail_from)
            assert (tailed._rows, tailed.tail_from) == (cut._rows, cut.tail_from), name

        for d in corpus:
            ring = d.ring
            N, c, e, gens = ring.truncation, ring.conductor_c, ring.multiplicity, ring.generators
            full = {0: close_under([TruncatedSeries.one()], gens, N)}
            assert_same(ring.ring_basis, full[0], (ring.name, 0))
            for k, basis in ring._mpow.items():
                assert basis.truncation == (max(c, 1) if k == 1 else c + k * e) + e
                full[k] = close_under(monomials(gens, k), gens, N)
                assert_same(basis, full[k], (ring.name, k))
            for k in ring._mpow:
                if k + 1 in ring._mpow:
                    assert quotient_dim(ring._mpow[k], ring._mpow[k + 1]) \
                        == len(full[k]) - len(full[k + 1]), (ring.name, k)
            ideals = {
                "D": d.D,
                "t^c D": from_generators(ring, tuple(g.shift(c) for g in d.D.generators)),
                "m D": from_generators(ring, tuple(x * g for x in gens for g in d.D.generators)),
            }
            for name, I in ideals.items():
                assert I.basis.truncation == I.membership_bound + e
                full[name] = close_under(I.generators, gens, N)
                assert_same(I.basis, full[name], (ring.name, name))
            assert quotient_dim(d.D.basis, ideals["m D"].basis) \
                == len(full["D"]) - len(full["m D"]) == d.mu_Jmin
            assert quotient_dim(ring.ring_basis, ideals["t^c D"].basis) \
                == len(full[0]) - len(full["t^c D"]) == d.lambda_tcD

    def test_verification_compares_the_basis(self, monkeypatch):
        # one coefficient of one row of the certified basis changed, with the
        # gaps unchanged, fails the check
        perturb_verification(monkeypatch)
        with pytest.raises(InternalInconsistency, match="closure certificate failed"):
            analyze(BranchSpec.from_strings(["t^4+t^5", "t^9"]))

    def test_verification_runs_no_closure(self, monkeypatch):
        # n and s are functions of the certified rows, and the certificate
        # reduces products against them, so the check closes nothing
        events = []

        def spy(name):
            fn = getattr(branch_module, name)

            def wrapped(*args, **kwargs):
                events.append((name, args[2]) if name == "_analyze_at" else name)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("_analyze_at", "close_under", "m_power_basis", "_certify_closure"):
            monkeypatch.setattr(branch_module, name, spy(name))
        ring = analyze(BranchSpec.from_strings(["t^3", "t^4", "t^5"]))
        start = events.index("_certify_closure")
        assert "m_power_basis" in events[:start]
        assert events[start + 1:] == []
        assert [event for event in events if isinstance(event, tuple)] \
            == [("_analyze_at", ring.truncation)]

    def test_certified_rows_against_doubled_closure(self):
        # the deleted 2N re-closure is the oracle: at twice the truncation the
        # CLI reports, the ring closes to exactly the certified rows and tail
        specs = [read_branch_file(str(p)) for p in sorted(BRANCHES.glob("*.branch"))]
        specs += [BranchSpec.from_strings(texts, name=" ".join(texts))
                  for texts in random_branch_texts(30, random.Random(20261018))]
        for spec in specs:
            ring = analyze(spec, room=required_truncation)
            double = branch_module._analyze_at(spec, ring.generators, 2 * ring.truncation)
            assert (double._rows, double.tail_from) \
                == (ring.ring_basis._rows, ring.conductor_c), ring.name

    def test_truncation_cap_respected(self):
        # <39, 40> has conductor 38*39 = 1482; a tiny cap cannot certify it
        with pytest.raises(TruncationExhausted):
            analyze(BranchSpec.from_strings(["t^39", "t^40"]), max_truncation=256)


class TestSemigroupProperties:
    def test_monomial_random_suite(self):
        rng = random.Random(7)
        from conftest import random_primitive_tuples

        for gens in random_primitive_tuples(25, rng, n_max=4, a_max=24):
            ring = analyze(
                BranchSpec.from_strings([f"t^{a}" for a in gens]),
                verify_stability=False,
            )
            data = sieve(gens)
            assert ring.gaps == data.gaps, gens
            assert ring.conductor_c == data.conductor, gens
            assert ring.delta == data.delta, gens
            assert ring.gorenstein == data.symmetric, gens

    def test_value_semigroup_closed_under_addition(self, plane49):
        achieved = set(plane49.ring_basis.pivot_valuations)
        half = plane49.truncation // 2
        for u in achieved:
            for v in achieved:
                if u < half and v < half and u + v < plane49.truncation:
                    assert u + v in achieved

    def test_regular_iff_delta_zero(self, line, cusp, plane49):
        for ring in (line, cusp, plane49):
            assert (ring.embdim_n == 1) == (ring.delta == 0) == (ring.conductor_c == 0)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=18), min_size=2, max_size=4))
def test_analysis_matches_sieve_when_primitive(gens):
    from math import gcd

    g = 0
    for a in gens:
        g = gcd(g, a)
    spec = BranchSpec.from_strings([f"t^{a}" for a in sorted(gens)])
    if g != 1:
        with pytest.raises(ImprimitiveParametrization):
            analyze(spec, verify_stability=False)
        return
    ring = analyze(spec, verify_stability=False)
    data = sieve(sorted(gens))
    assert ring.gaps == data.gaps
    assert ring.conductor_c == data.conductor
