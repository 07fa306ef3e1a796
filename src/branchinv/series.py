"""Exact Laurent polynomials in one variable t, and a parser for polynomial
expressions in t over the rationals.

A :class:`TruncatedSeries` stores exact rational coefficients from a starting
exponent (which may be negative) to its degree.  Sums, products, shifts and
derivatives stay exact.  Where a computation needs only the coefficients
below some t^N, as the echelon bases do, the reader makes the cut.

The grammar accepted by :func:`parse_poly` (whitespace insignificant)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := 't' | rational | '(' expr ')'
    rational := int ('/' positive-int)?

Implicit multiplication is rejected: write ``2*t``, not ``2t``.  Parentheses
nest at most :data:`MAX_NESTING` deep, and no power or product may build a
coefficient past :data:`MAX_COEFFICIENT_BITS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .errors import DegreeLimitExceeded, ParseError

INF = float("inf")  # the valuation of the zero series, and minus its degree


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class TruncatedSeries:
    """An exact rational Laurent polynomial sum c_j t^(offset+j).

    Invariants: if any coefficient is stored, the first and the last are
    nonzero (so ``valuation() == offset``); the zero polynomial is stored as
    ``offset=0, coeffs=()``.
    """

    offset: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [_as_fraction(c) for c in self.coeffs]
        offset = self.offset
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            offset += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            offset = 0
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "TruncatedSeries":
        return cls(0, ())

    @classmethod
    def one(cls) -> "TruncatedSeries":
        return cls(0, (Fraction(1),))

    @classmethod
    def t_power(cls, e: int, coeff=1) -> "TruncatedSeries":
        return cls(e, (_as_fraction(coeff),))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction]) -> "TruncatedSeries":
        items = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if not items:
            return cls.zero()
        lo, hi = min(items), max(items)
        coeffs = [items.get(e, Fraction(0)) for e in range(lo, hi + 1)]
        return cls(lo, tuple(coeffs))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int | float:
        """Exponent of the lowest nonzero term; INF for the zero series."""
        return self.offset if self.coeffs else INF

    def terms(self) -> dict[int, Fraction]:
        return {self.offset + j: c for j, c in enumerate(self.coeffs) if c != 0}

    def coefficient(self, e: int) -> Fraction:
        j = e - self.offset
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def degree(self) -> int | float:
        """Largest exponent with a nonzero coefficient; -INF for zero."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else -INF

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        terms = self.terms()
        for e, c in other.terms().items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return TruncatedSeries.from_terms(terms)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.offset, tuple(-c for c in self.coeffs))

    def scale(self, a) -> "TruncatedSeries":
        a = _as_fraction(a)
        return TruncatedSeries(self.offset, tuple(a * c for c in self.coeffs))

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms().items():
            for e2, c2 in other.terms().items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
        return TruncatedSeries.from_terms(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k (k may be negative)."""
        return TruncatedSeries(self.offset + k, self.coeffs)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt."""
        terms = {e - 1: e * c for e, c in self.terms().items() if e != 0}
        return TruncatedSeries.from_terms(terms)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return format_terms(self.terms())

    def __repr__(self) -> str:
        return f"TruncatedSeries({self})"


def format_terms(terms: Mapping[int, Fraction]) -> str:
    """Canonical ASCII form, exponents ascending; reparses under the grammar."""
    pieces = []
    for e in sorted(terms):
        c = terms[e]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_OPS = set("+-*^/()")

#: Deepest parenthesis nesting :func:`parse_poly` accepts.
MAX_NESTING = 100

#: Largest coefficient size, in bits, that a power or product may build.
MAX_COEFFICIENT_BITS = 8192

# 10^d < 2^(10d/3): an integer of at most this many digits stays under the
# bit limit, and under Python's default limit of 4300 digits on int <-> str
_MAX_DIGITS = MAX_COEFFICIENT_BITS * 3 // 10


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _size_bits(f: TruncatedSeries) -> int:
    """ceil(log2 max(H, L)), L the lcm of f's denominators and H the largest
    coefficient of the integral L*f.  With n terms in f, the numerators of
    f^k are at most (nH)^k and its denominators divide L^k; a product f*g is
    bounded alike, by min(n_f, n_g) H_f H_g and L_f L_g."""
    L = lcm(*(c.denominator for c in f.coeffs))
    H = max(abs(c.numerator) * (L // c.denominator) for c in f.coeffs)
    return _ceil_log2(max(H, L))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # tokens: ("int", digits, pos), ("t", "t", pos), (op, op, pos)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > _MAX_DIGITS:
                raise ParseError(f"integer of {j - i} digits is longer than {_MAX_DIGITS}", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "t":
            if i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
                raise ParseError(f"unexpected name {text[i:i+2]!r}; only the variable 't' is allowed", i)
            tokens.append(("t", "t", i))
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalpha():
            raise ParseError(f"unknown variable {ch!r}; only 't' is allowed", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent that builds the polynomial bottom-up, with no tree.

    Each parenthesis level costs four stack frames, so nesting is capped at
    :data:`MAX_NESTING` and deeper input is a :class:`ParseError`, not a
    ``RecursionError``.  A power or product whose degree would pass
    `max_degree` is refused before it is expanded, and so is one whose
    coefficients could pass :data:`MAX_COEFFICIENT_BITS`; the degree is
    checked first.
    """

    def __init__(self, text: str, max_degree: int | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.max_degree = max_degree

    def check_degree(self, degree, pos: int):
        if self.max_degree is not None and degree > self.max_degree:
            raise DegreeLimitExceeded(degree, self.max_degree, pos)

    @staticmethod
    def check_bits(bits: int, pos: int):
        if bits > MAX_COEFFICIENT_BITS:
            raise ParseError(
                f"coefficients of up to {bits} bits pass the limit of {MAX_COEFFICIENT_BITS}", pos)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse(self) -> TruncatedSeries:
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r} after expression", tok[2])
        return poly

    def expr(self) -> TruncatedSeries:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        poly = self.term()
        if negate:
            poly = -poly
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> TruncatedSeries:
        poly = self.factor()
        while True:
            tok = self.peek()
            if tok[0] == "*":
                self.advance()
                rhs = self.factor()
                if not (poly.is_zero() or rhs.is_zero()):
                    self.check_degree(poly.degree() + rhs.degree(), tok[2])
                    terms = min(len(poly.coeffs), len(rhs.coeffs))
                    self.check_bits(_size_bits(poly) + _size_bits(rhs) + _ceil_log2(terms), tok[2])
                poly = poly * rhs
            elif tok[0] in ("t", "int", "("):
                raise ParseError(
                    f"implicit multiplication before {tok[1]!r} is not allowed; write '*'", tok[2]
                )
            else:
                return poly

    def factor(self) -> TruncatedSeries:
        poly = self.base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            self.advance()
            exponent = int(tok[1])
            if self.peek()[0] == "/":
                raise ParseError("non-integer exponent", self.peek()[2])
            if not poly.is_zero():
                self.check_degree(poly.degree() * exponent, tok[2])
                self.check_bits(exponent * (_size_bits(poly) + _ceil_log2(len(poly.coeffs))), tok[2])
            poly = _power(poly, exponent)
        return poly

    def base(self) -> TruncatedSeries:
        tok = self.peek()
        if tok[0] == "t":
            self.advance()
            return TruncatedSeries.t_power(1)
        if tok[0] == "int":
            self.advance()
            num = int(tok[1])
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("int")
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("denominator must be positive", den_tok[2])
                return TruncatedSeries.t_power(0, Fraction(num, den))
            return TruncatedSeries.t_power(0, num)
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.advance()
            self.depth += 1
            poly = self.expr()
            self.depth -= 1
            self.expect(")")
            return poly
        raise ParseError(f"expected 't', a number, or '(', found {tok[1] or 'end of input'!r}", tok[2])


def _power(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """f^k: a^k t^(d*k) at once for an exact one-term f = a t^d, otherwise by
    repeated squaring."""
    if len(f.coeffs) == 1:
        return TruncatedSeries.t_power(f.offset * k, f.coeffs[0] ** k)
    out = TruncatedSeries.one()
    while k:
        if k & 1:
            out = out * f
        k >>= 1
        if k:
            f = f * f
    return out


def parse_poly(text: str, max_degree: int | None = None) -> TruncatedSeries:
    """Parse an exact polynomial in t.

    Raises :class:`ParseError` with a position, and :class:`DegreeLimitExceeded`
    when a power or product would pass `max_degree`.
    """
    return _Parser(text, max_degree).parse()


def monomials(gens: Iterable[TruncatedSeries], degree: int) -> list[TruncatedSeries]:
    """All products of exactly `degree` generators (with repetition)."""
    from itertools import combinations_with_replacement

    out = []
    for combo in combinations_with_replacement(tuple(gens), degree):
        prod = TruncatedSeries.one()
        for g in combo:
            prod = prod * g
        out.append(prod)
    return out
