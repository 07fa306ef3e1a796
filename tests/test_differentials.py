from branchinv.branch import m_power_basis
from branchinv.differentials import compute, derivative_module
from branchinv.echelon import quotient_dim
from branchinv.ideals import from_generators, h_invariant, min_generators, trace
from branchinv.series import monomials
from conftest import at


def realized_copy(d):
    """The closure of alpha * D, which compute never builds."""
    return from_generators(d.ring, tuple(d.alpha * g for g in d.D.generators))


class TestDerivativeModule:
    def test_plane_branch(self, plane49):
        D = derivative_module(plane49)
        assert D.vmin == 3
        assert D.basis.gaps_below(D.membership_bound) == (0, 1, 2, 4, 5, 6, 9, 10, 14)

    def test_regular_branch_gives_full_ring(self, line):
        D = derivative_module(line)
        assert D.vmin == 0
        assert at(D.basis, line.truncation) == line.ring_basis

    def test_deep_branch_valuation(self, embdim7):
        assert derivative_module(embdim7).vmin == 7


class TestCompute:
    def test_deep_branch(self, diff_embdim7):
        d = diff_embdim7
        assert d.h_omega == 3
        assert d.v_Dinv == 3
        assert d.lambda_tcD == 14
        assert d.ring.conductor_c == 14
        assert d.v_D == 7

    def test_four_generator_branch(self, diff_four_gens):
        d = diff_four_gens
        assert d.h_omega == 15
        assert d.v_Dinv == 18
        assert d.lambda_tcD == 37
        assert d.ring.conductor_c == 40
        assert d.v_D == 8

    def test_plane_branch(self, diff_plane49):
        d = diff_plane49
        assert d.h_omega == 6
        assert d.v_Dinv == 9
        assert d.lambda_D == 9
        assert d.ring.delta == 12

    def test_regular_branch(self, line):
        d = compute(line)
        assert d.h_omega == 0
        assert d.maximal_torsion is True
        assert d.lambda_D == 0 == d.ring.delta
        assert d.in_ms is None and d.mu_msJ is None

    def test_cusp_is_quasi_homogeneous(self, diff_cusp):
        assert diff_cusp.h_omega == 1
        assert diff_cusp.maximal_torsion is True


class TestInvariants:
    def test_ceiling_and_consistency(self, corpus):
        for d in corpus:
            ring = d.ring
            assert d.h_omega <= d.v_Dinv
            assert d.lambda_D - ring.delta + d.v_Dinv == d.lambda_tcD - ring.conductor_c + d.v_Dinv
            assert d.lambda_tcD <= ring.conductor_c
            assert 0 <= d.lambda_D <= ring.delta

    def test_realized_copy_attains_h(self, corpus):
        # oracle: close J and J + m^(s+1) outright, which compute avoids
        # through mu(J) = mu(D) and J + m^(s+1) = span(alpha x_i') + m^(s+1);
        # membership in m^s is tested outright too, also where J's least
        # valuation v(D^-1) + v(D) below s*e decides it in compute
        with_ms = by_valuation = 0
        for d in corpus:
            ring = d.ring
            J = realized_copy(d)
            assert quotient_dim(ring.ring_basis, J.basis) == d.h_omega
            assert min_generators(J) == d.mu_Jmin
            s = ring.order_s
            if s is None:
                assert d.in_ms is None and d.mu_msJ is None
                continue
            ms = m_power_basis(ring, s)
            in_ms = all(ms.member(g, ring.conductor_c + s * ring.multiplicity)
                        for g in J.generators)
            assert in_ms == d.in_ms, ring.name
            by_valuation += d.v_Dinv + d.v_D < s * ring.multiplicity
            if in_ms:
                with_ms += 1
                union = from_generators(
                    ring, J.generators + tuple(monomials(ring.generators, s + 1)))
                assert quotient_dim(ms, union.basis) == d.mu_msJ, ring.name
            else:
                assert d.mu_msJ is None
        assert with_ms >= 10 and by_valuation >= 1

    def test_trace_of_realized_copy_matches_trace_of_module(self, corpus):
        for d in corpus[:8]:
            tr_J = trace(realized_copy(d))
            assert tr_J.basis.pivot_valuations == trace(d.D).basis.pivot_valuations

    def test_h_invariant_route_agrees(self, corpus):
        for d in corpus[:10]:
            assert h_invariant(d.D) == d.h_omega

    def test_alpha_attains_scan_minimum(self, corpus):
        for d in corpus[:12]:
            assert d.alpha.valuation() == d.v_Dinv
