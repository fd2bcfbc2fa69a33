"""Exact Puiseux polynomials in one uniformizer q.

A value is a finite rational combination of rational powers of q, kept in
canonical form: terms sorted by strictly increasing exponent, no zero
coefficients, zero = no terms.  val() is the smallest exponent (+infinity for
zero).  This is a ring, not a field; only monomials are inverted, which is
all the theta machinery needs.  Powers of monomials are closed-form,
(c q^e)^k = c^k q^(ek).

A product with a nonzero monomial c q^e is already canonical: it shifts
every exponent by e and scales every coefficient by c != 0, so the order
holds and no coefficient vanishes.  `PuiseuxNumber._trusted` builds such a
value without running `_canonical` again, and `_shifted` is that product;
`__mul__` takes it whenever either factor is a monomial, and so do the
monomial powers and inverses.  The non-Archimedean kernels (`nonarch`) form
each monomial from integers and hand it over the same way.  Every other
value reads its exponents and coefficients by linalg._as_fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .linalg import _as_fraction
from .rationals import INF, format_fraction, is_square, parse_fraction, sqrt_exact

Term = tuple[Fraction, Fraction]  # (exponent, coefficient)


class NotMonomialError(ValueError):
    """Operation requires a single-term value."""


class CoefficientNotASquareError(ValueError):
    """Monomial square root demanded a non-square rational coefficient."""


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[Fraction, Fraction] = {}
    for e, c in terms:
        e, c = _as_fraction(e, "exponent"), _as_fraction(c, "coefficient")
        acc[e] = acc.get(e, Fraction(0)) + c
    return tuple((e, acc[e]) for e in sorted(acc) if acc[e] != 0)


@dataclass(frozen=True)
class PuiseuxNumber:
    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    # ---------- constructors ----------

    @classmethod
    def _trusted(cls, terms: tuple[Term, ...]) -> "PuiseuxNumber":
        """A value from terms that are canonical already: Fraction pairs,
        strictly increasing exponents, no zero coefficient."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", terms)
        return x

    @staticmethod
    def zero() -> "PuiseuxNumber":
        return PuiseuxNumber(())

    @staticmethod
    def one() -> "PuiseuxNumber":
        return PuiseuxNumber(((Fraction(0), Fraction(1)),))

    @staticmethod
    def monomial(coeff, exponent) -> "PuiseuxNumber":
        return PuiseuxNumber(((exponent, coeff),))

    @staticmethod
    def rational(x) -> "PuiseuxNumber":
        return PuiseuxNumber(((0, x),))

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
        if len(other.terms) == 1:
            return self._shifted(*other.terms[0])
        if len(self.terms) == 1:
            return other._shifted(*self.terms[0])
        return PuiseuxNumber(
            tuple(
                (e1 + e2, c1 * c2)
                for e1, c1 in self.terms
                for e2, c2 in other.terms
            )
        )

    def _shifted(self, exponent: Fraction, coeff: Fraction) -> "PuiseuxNumber":
        """self * coeff q^exponent for a nonzero coeff, canonical as it
        stands (module docstring)."""
        return PuiseuxNumber._trusted(
            tuple((e + exponent, c * coeff) for e, c in self.terms)
        )

    def __pow__(self, k: int) -> "PuiseuxNumber":
        if not isinstance(k, int):
            raise TypeError("integer exponent required")
        if self.is_monomial():
            e, c = self.terms[0]
            return PuiseuxNumber._trusted(((e * k, c**k),))
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
        return PuiseuxNumber._trusted(((-e, 1 / c),))

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
        # parse_fraction refuses a zero denominator with a ValueError
        coeff = parse_fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("q") is None:
            exp = Fraction(0)
        elif m.group("pexp") or m.group("iexp"):
            exp = parse_fraction(m.group("pexp") or m.group("iexp"))
        else:
            exp = Fraction(1)
        terms.append((exp, sgn * coeff))
    return PuiseuxNumber(tuple(terms))
