"""Exact truncated power/Laurent series in one variable t, and a parser for
polynomial expressions in t over the rationals.

A :class:`TruncatedSeries` stores exact rational coefficients from a starting
exponent (which may be negative) up to, but not including, a truncation
exponent.  Everything at or beyond the truncation is unknown, and every
operation reports the tightest truncation it can certify for its result.
Polynomials are represented as series with infinite truncation: they are
known exactly.

The grammar accepted by :func:`parse_poly` (whitespace insignificant)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := 't' | rational | '(' expr ')'
    rational := int ('/' positive-int)?

Implicit multiplication is rejected: write ``2*t``, not ``2t``.  Parentheses
nest at most :data:`MAX_NESTING` deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DegreeLimitExceeded, InsufficientTruncation, ParseError

INF = float("inf")

Exponent = int
Truncation = Union[int, float]  # int, or INF for exactly-known series


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class TruncatedSeries:
    """An exact rational series sum c_j t^(offset+j), known for exponents < truncation.

    Invariants: if any stored coefficient is nonzero, the first one is nonzero
    (so ``valuation() == offset``); trailing zeros are stripped; the zero
    series is stored as ``offset=0, coeffs=()`` at any truncation.
    """

    offset: int
    coeffs: tuple[Fraction, ...]
    truncation: Truncation = INF

    def __post_init__(self):
        coeffs = [_as_fraction(c) for c in self.coeffs]
        offset = self.offset
        # drop coefficients at exponents >= truncation
        if self.truncation != INF:
            keep = int(self.truncation) - offset
            coeffs = coeffs[: max(keep, 0)]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            offset += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            offset = 0
        if coeffs and self.truncation != INF and offset >= self.truncation:
            coeffs, offset = [], 0
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: Truncation = INF) -> "TruncatedSeries":
        return cls(0, (), truncation)

    @classmethod
    def one(cls, truncation: Truncation = INF) -> "TruncatedSeries":
        return cls(0, (Fraction(1),), truncation)

    @classmethod
    def t_power(cls, e: int, coeff=1, truncation: Truncation = INF) -> "TruncatedSeries":
        return cls(e, (_as_fraction(coeff),), truncation)

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction], truncation: Truncation = INF) -> "TruncatedSeries":
        items = {e: _as_fraction(c) for e, c in terms.items() if c != 0}
        if not items:
            return cls.zero(truncation)
        lo, hi = min(items), max(items)
        coeffs = [items.get(e, Fraction(0)) for e in range(lo, hi + 1)]
        return cls(lo, tuple(coeffs), truncation)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no known coefficient is nonzero (zero up to truncation)."""
        return not self.coeffs

    def valuation(self) -> Truncation:
        """Exponent of the lowest nonzero term; INF for the zero series."""
        return self.offset if self.coeffs else INF

    def vstar(self) -> Truncation:
        # valuation capped at truncation; what multiplication bookkeeping needs
        return min(self.valuation(), self.truncation)

    def terms(self) -> dict[int, Fraction]:
        return {self.offset + j: c for j, c in enumerate(self.coeffs) if c != 0}

    def coefficient(self, e: int) -> Fraction:
        if e >= self.truncation:
            raise InsufficientTruncation(
                f"coefficient of t^{e} requested but series only known below t^{self.truncation}"
            )
        j = e - self.offset
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    def degree(self) -> Truncation:
        """Largest exponent with a known nonzero coefficient; -INF for zero."""
        return self.offset + len(self.coeffs) - 1 if self.coeffs else -INF

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        trunc = min(self.truncation, other.truncation)
        terms = self.terms()
        for e, c in other.terms().items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return TruncatedSeries.from_terms(terms, trunc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.offset, tuple(-c for c in self.coeffs), self.truncation)

    def scale(self, a) -> "TruncatedSeries":
        a = _as_fraction(a)
        if a == 0:
            return TruncatedSeries.zero(self.truncation)
        return TruncatedSeries(self.offset, tuple(a * c for c in self.coeffs), self.truncation)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        trunc = min(self.truncation + other.vstar(), other.truncation + self.vstar())
        out: dict[int, Fraction] = {}
        for e1, c1 in self.terms().items():
            for e2, c2 in other.terms().items():
                e = e1 + e2
                if e >= trunc:
                    continue
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return TruncatedSeries.from_terms(out, trunc)

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k (k may be negative)."""
        return TruncatedSeries(self.offset + k, self.coeffs, self.truncation + k)

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dt; the truncation drops by one."""
        terms = {e - 1: e * c for e, c in self.terms().items() if e != 0}
        return TruncatedSeries.from_terms(terms, self.truncation - 1)

    def truncate(self, bound: Truncation) -> "TruncatedSeries":
        return TruncatedSeries(self.offset, self.coeffs, min(self.truncation, bound))

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return format_terms(self.terms())

    def __repr__(self) -> str:
        t = "inf" if self.truncation == INF else str(self.truncation)
        return f"TruncatedSeries({self}, truncation={t})"


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
    `max_degree` is refused before it is expanded.
    """

    def __init__(self, text: str, max_degree: int | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.max_degree = max_degree

    def check_degree(self, degree, pos: int):
        if self.max_degree is not None and degree > self.max_degree:
            raise DegreeLimitExceeded(degree, self.max_degree, pos)

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
    if len(f.coeffs) == 1 and f.truncation == INF:
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
    """Parse an exact polynomial in t into a series known exactly (INF truncation).

    Raises :class:`ParseError` with a position, and :class:`DegreeLimitExceeded`
    when a power or product would pass `max_degree`.
    """
    return _Parser(text, max_degree).parse()


def parse_series(text: str, truncation: Truncation = INF) -> TruncatedSeries:
    return parse_poly(text).truncate(truncation)


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
