"""Exact Puiseux polynomials in one uniformizer q.

A value is a finite rational combination of rational powers of q, kept in
canonical form: terms sorted by strictly increasing exponent, no zero
coefficients, zero = no terms.  val() is the smallest exponent (+infinity for
zero).  This is a ring, not a field; only monomials are inverted, which is
all the theta machinery needs.  Powers of monomials are closed-form,
(c q^e)^k = c^k q^(ek), and so is monomial_product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import INF, format_fraction, is_square, sqrt_exact

Term = tuple[Fraction, Fraction]  # (exponent, coefficient)


class NotMonomialError(ValueError):
    """Operation requires a single-term value."""


class CoefficientNotASquareError(ValueError):
    """Monomial square root demanded a non-square rational coefficient."""


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[Fraction, Fraction] = {}
    for e, c in terms:
        e, c = Fraction(e), Fraction(c)
        acc[e] = acc.get(e, Fraction(0)) + c
    return tuple((e, acc[e]) for e in sorted(acc) if acc[e] != 0)


@dataclass(frozen=True)
class PuiseuxNumber:
    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    # ---------- constructors ----------

    @staticmethod
    def zero() -> "PuiseuxNumber":
        return PuiseuxNumber(())

    @staticmethod
    def one() -> "PuiseuxNumber":
        return PuiseuxNumber(((Fraction(0), Fraction(1)),))

    @staticmethod
    def monomial(coeff, exponent) -> "PuiseuxNumber":
        return PuiseuxNumber(((Fraction(exponent), Fraction(coeff)),))

    @staticmethod
    def rational(x) -> "PuiseuxNumber":
        return PuiseuxNumber(((Fraction(0), Fraction(x)),))

    # ---------- structure ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def val(self):
        """The valuation: smallest exponent, +infinity for zero."""
        return self.terms[0][0] if self.terms else INF

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ZeroDivisionError("zero has no leading coefficient")
        return self.terms[0][1]

    # ---------- ring operations ----------

    def __add__(self, other: "PuiseuxNumber") -> "PuiseuxNumber":
        return PuiseuxNumber(self.terms + other.terms)

    def __sub__(self, other: "PuiseuxNumber") -> "PuiseuxNumber":
        return self + (-other)

    def __neg__(self) -> "PuiseuxNumber":
        return PuiseuxNumber(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "PuiseuxNumber") -> "PuiseuxNumber":
        return PuiseuxNumber(
            tuple(
                (e1 + e2, c1 * c2)
                for e1, c1 in self.terms
                for e2, c2 in other.terms
            )
        )

    def __pow__(self, k: int) -> "PuiseuxNumber":
        if not isinstance(k, int):
            raise TypeError("integer exponent required")
        if self.is_monomial():
            e, c = self.terms[0]
            return PuiseuxNumber.monomial(c**k, e * k)
        if k < 0:
            return self.inverse_monomial() ** (-k)
        if k == 0:
            return PuiseuxNumber.one()
        half = self ** (k // 2)  # square-and-multiply
        return half * half * self if k & 1 else half * half

    def inverse_monomial(self) -> "PuiseuxNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if not self.is_monomial():
            raise NotMonomialError(f"not a monomial: {self}")
        e, c = self.terms[0]
        return PuiseuxNumber.monomial(Fraction(1) / c, -e)

    def sqrt_monomial(self) -> "PuiseuxNumber":
        """Exact square root of a monomial c*q^r with c a rational square."""
        if not self.is_monomial():
            raise NotMonomialError(f"not a monomial: {self}")
        e, c = self.terms[0]
        if not is_square(c):
            raise CoefficientNotASquareError(f"{c} is not a rational square")
        return PuiseuxNumber.monomial(sqrt_exact(c), e / 2)

    def divide_by_monomial(self, m: "PuiseuxNumber") -> "PuiseuxNumber":
        if m.is_zero():
            raise ZeroDivisionError("division by zero")
        return self * m.inverse_monomial()

    # ---------- text form ----------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            body = _render_term(mag, e)
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"PuiseuxNumber({self})"

    @staticmethod
    def parse(text: str) -> "PuiseuxNumber":
        return _parse_puiseux(text)


def monomial_product(factors: Iterable[tuple[int, PuiseuxNumber]]) -> PuiseuxNumber:
    """prod m^k over (k, m) pairs of monomials, as one monomial: exponents
    add up to sum k*val(m), coefficients multiply as Fraction powers."""
    exp, coeff = Fraction(0), Fraction(1)
    for k, m in factors:
        if k:
            if not m.is_monomial():
                raise NotMonomialError(f"not a monomial: {m}")
            e, c = m.terms[0]
            exp += k * e
            coeff *= c**k
    return PuiseuxNumber.monomial(coeff, exp)


def _render_term(coeff: Fraction, exp: Fraction) -> str:
    if exp == 0:
        return format_fraction(coeff)
    if exp == 1:
        q = "q"
    else:
        q = f"q^({format_fraction(exp)})"
    if coeff == 1:
        return q
    return f"{format_fraction(coeff)}*{q}"


_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>-?\d+(?:/\d+)?)\s*(?:\*\s*)?)?
        (?P<q>q(?:\^(?:\((?P<pexp>-?\d+(?:/\d+)?)\)|(?P<iexp>-?\d+)))?)?
        \s*$""",
    re.VERBOSE,
)


def _parse_puiseux(text: str) -> PuiseuxNumber:
    s = text.strip()
    if not s:
        raise ValueError("empty Puiseux literal")
    # split on top-level +/- (binary operators, not signs inside parentheses
    # or a leading sign)
    sign = 1
    depth = 0
    start = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur = start
    pieces: list[tuple[int, str]] = []
    i = start
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > cur:
            pieces.append((sign, s[cur:i]))
            sign = -1 if ch == "-" else 1
            cur = i + 1
        i += 1
    pieces.append((sign, s[cur:]))

    terms: list[Term] = []
    for sgn, piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"bad Puiseux term: {piece!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("q") is None:
            exp = Fraction(0)
        elif m.group("pexp") is not None:
            exp = Fraction(m.group("pexp"))
        elif m.group("iexp") is not None:
            exp = Fraction(m.group("iexp"))
        else:
            exp = Fraction(1)
        terms.append((exp, sgn * coeff))
    return PuiseuxNumber(tuple(terms))
