"""Exact rational helpers shared across the package.

All arithmetic in this package is done with ``fractions.Fraction``; floats
never enter a computation.  These helpers cover the "p/q" string convention
used by every JSON interface, plus the few square-root facts needed for
cocycle normalization.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf  # the only non-Fraction value a valuation may take


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction.

    Raises ValueError on anything else (floats included: exactness is a
    package-wide contract).
    """
    s = text.strip()
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    """Render a Fraction as "p/q" ("p" when the denominator is 1)."""
    return str(Fraction(x))


def parse_value(text: str) -> Fraction | float:
    """Like parse_fraction but also accepts "inf" for +infinity."""
    if text.strip() == "inf":
        return INF
    return parse_fraction(text)


def format_value(x: Fraction | float) -> str:
    if x == INF:
        return "inf"
    return format_fraction(x)


def is_square(x: Fraction) -> bool:
    """True iff x is the square of a rational."""
    if x < 0:
        return False
    p, q = x.numerator, x.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


def sqrt_exact(x: Fraction) -> Fraction:
    """Exact square root of a rational square.  Pre: is_square(x)."""
    if not is_square(x):
        raise ValueError(f"{x} is not a rational square")
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
