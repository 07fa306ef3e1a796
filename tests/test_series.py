from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchinv.errors import DegreeLimitExceeded, ParseError
from branchinv.series import (
    INF,
    MAX_COEFFICIENT_BITS,
    MAX_NESTING,
    TruncatedSeries,
    _power,
    parse_poly,
)


def conv_oracle(a: dict, b: dict) -> dict:
    """Schoolbook convolution, independent of TruncatedSeries internals."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


class TestValuation:
    def test_polynomial(self):
        assert parse_poly("t^8+t^9").derivative().valuation() == 7

    def test_zero_series_is_infinite(self):
        assert TruncatedSeries.zero().valuation() == INF
        assert TruncatedSeries.zero().degree() == -INF

    def test_laurent_leading_term(self):
        f = TruncatedSeries.from_terms({-3: Fraction(1), 1: Fraction(1)})
        assert f.valuation() == -3
        assert [f.coefficient(e) for e in (-4, -3, 0, 1, 2)] == [0, 1, 0, 1, 0]

    def test_normalization_strips_leading_zeros(self):
        f = TruncatedSeries(0, (Fraction(0), Fraction(0), Fraction(5), Fraction(0)))
        assert (f.offset, f.coeffs, f.valuation()) == (2, (Fraction(5),), 2)


class TestArithmetic:
    def test_monomial_product(self):
        assert (parse_poly("t^2") * parse_poly("t^3")).terms() == {5: Fraction(1)}

    def test_difference_of_squares(self):
        h = parse_poly("1+t") * parse_poly("1-t")
        assert h.terms() == {0: Fraction(1), 2: Fraction(-1)}

    def test_square_against_convolution_oracle(self):
        f = parse_poly("t^4+t^5")
        expected = conv_oracle(f.terms(), f.terms())
        assert (f * f).terms() == expected
        assert expected == {8: Fraction(1), 9: Fraction(2), 10: Fraction(1)}

    def test_scalar_and_shift(self):
        f = parse_poly("t^2+t^3")
        assert (f * Fraction(1, 2)).terms() == {2: Fraction(1, 2), 3: Fraction(1, 2)}
        assert f.shift(-2).terms() == {0: Fraction(1), 1: Fraction(1)}


class TestDerivative:
    def test_known_values(self):
        assert parse_poly("t^8+t^9").derivative().terms() == {
            7: Fraction(8), 8: Fraction(9)}
        assert parse_poly("t^4+t^5").derivative().terms() == {
            3: Fraction(4), 4: Fraction(5)}

    def test_constant(self):
        assert parse_poly("1").derivative().is_zero()


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=4,
).map(lambda d: TruncatedSeries.from_terms(d))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_valuations_add_under_product(f, g):
    p = f * g
    if f.is_zero() or g.is_zero():
        assert p.is_zero()
    else:
        assert p.valuation() == f.valuation() + g.valuation()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_product_matches_convolution_oracle(f, g):
    assert (f * g).terms() == conv_oracle(f.terms(), g.terms())


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_derivative_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs.terms() == rhs.terms()


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_derivative_is_linear(f, g):
    assert (f + g).derivative().terms() == (f.derivative() + g.derivative()).terms()


class TestParser:
    def test_known_expansion(self):
        assert parse_poly("64*t^10 - 81*t^12").terms() == {
            10: Fraction(64), 12: Fraction(-81)}

    def test_identity(self):
        f = parse_poly("t")
        assert f.terms() == {1: Fraction(1)} and f.degree() == 1

    def test_power_expansion_oracle(self):
        # (t^2+1)^2 expanded by the convolution oracle
        base = {0: Fraction(1), 2: Fraction(1)}
        assert parse_poly("(t^2+1)^2").terms() == conv_oracle(base, base)
        # an odd exponent with several bits exercises the squaring path
        assert parse_poly("(1+t)^37").terms() == {k: Fraction(comb(37, k)) for k in range(38)}

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool),
           st.integers(0, 40), st.integers(0, 70))
    def test_one_term_power_matches_squaring(self, a, d, k):
        # the closed form a^k t^(d*k) against repeated squaring by products
        base = TruncatedSeries.t_power(d, a)
        out, f, n = TruncatedSeries.one(), base, k
        while n:
            if n & 1:
                out = out * f
            n >>= 1
            f = f * f
        assert _power(base, k) == out
        assert parse_poly(f"({a.numerator}/{a.denominator}*t^{d})^{k}") == out

    def test_large_exponent_is_one_term(self):
        f = parse_poly("t^1000000")
        assert f.terms() == {1000000: Fraction(1)}
        assert str(f) == "t^1000000"

    def test_nesting_limit(self):
        assert parse_poly("(" * MAX_NESTING + "t" + ")" * MAX_NESTING).terms() == {1: Fraction(1)}
        with pytest.raises(ParseError) as exc:
            parse_poly("(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1))
        assert exc.value.position == MAX_NESTING

    def test_degree_limit(self):
        # a power or product past the limit is refused unexpanded; sums and
        # degrees at the limit pass
        assert parse_poly("(1+t)^5 + t^5", max_degree=5).degree() == 5
        assert parse_poly("t^2*t^3", max_degree=5).degree() == 5
        for text, degree, position in (("(1+t)^6", 6, 6), ("t^3*(1+t^2)^1", 5, 3),
                                       ("(t+t^2)^40000", 80000, 8)):
            with pytest.raises(DegreeLimitExceeded) as exc:
                parse_poly(text, max_degree=4)
            assert (exc.value.degree, exc.value.position) == (degree, position)

    def test_coefficient_limit(self):
        # a power or product whose coefficients could pass the limit is
        # refused unexpanded, at the operator; the degree is checked first
        assert parse_poly(f"2^{MAX_COEFFICIENT_BITS}*t").degree() == 1
        assert parse_poly("(1+t)^37 * (1/3 - t)^20").degree() == 57
        for text, position in ((f"2^{MAX_COEFFICIENT_BITS + 1}", 2), ("t + 3^5000*t^2", 6),
                               ("(2*t-1)^5000", 8), ("2^8000*2^8000", 6)):
            with pytest.raises(ParseError, match="pass the limit") as exc:
                parse_poly(text)
            assert exc.value.position == position
        with pytest.raises(DegreeLimitExceeded):
            parse_poly("(2*t-1)^5000", max_degree=4)
        with pytest.raises(ParseError, match="integer of 2458 digits") as exc:
            parse_poly("t + " + "9" * 2458)
        assert exc.value.position == 4

    def test_rational_literals(self):
        assert parse_poly("1/2*t + 3").terms() == {0: Fraction(3), 1: Fraction(1, 2)}

    def test_leading_minus(self):
        assert parse_poly("-t^2+t^3").terms() == {2: Fraction(-1), 3: Fraction(1)}

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2t")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x^2")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("t^(1/2)")
        with pytest.raises(ParseError):
            parse_poly("t^1/2")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("t^2 + x")
        assert exc.value.position == 6

    def test_roundtrip_through_canonical_printer(self):
        for text in ("t^8+t^9", "64*t^10 - 81*t^12", "(t^2+1)^2", "1/2*t - 7", "-t + t^4"):
            expr = parse_poly(text)
            assert parse_poly(str(expr)).terms() == expr.terms()
