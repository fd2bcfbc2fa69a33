from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troptheta.puiseux import (
    CoefficientNotASquareError,
    NotMonomialError,
    PuiseuxNumber,
)
from troptheta.rationals import INF

F = Fraction
P = PuiseuxNumber


def test_canonical_form():
    x = P(((F(1), F(2)), (F(0), F(3)), (F(1), F(-2))))
    assert x.terms == ((F(0), F(3)),)
    assert P(((F(2), F(0)),)) == P.zero()
    assert P.zero().is_zero()


def test_val():
    assert P.zero().val() == INF
    assert P.monomial(3, F(1, 2)).val() == F(1, 2)
    x = P.monomial(1, 2) + P.monomial(5, F(-1, 3))
    assert x.val() == F(-1, 3)
    assert (x - x).val() == INF


def test_val_ultrametric_examples():
    a = P.monomial(1, 1)
    b = P.monomial(-1, 1)
    assert (a + b).val() == INF  # exact cancellation
    c = P.monomial(2, 1)
    assert (a + c).val() == 1


def test_arithmetic():
    q = P.monomial(1, 1)
    half = P.monomial(1, F(1, 2))
    x = half * half
    assert x == q
    y = (q + P.one()) * (q - P.one())
    assert y == q * q - P.one()
    assert (q ** 3).terms == ((F(3), F(1)),)
    assert (q ** 0) == P.one()
    assert (q ** -2) == P.monomial(1, -2)


def test_negative_power_requires_monomial():
    with pytest.raises(NotMonomialError):
        (P.one() + P.monomial(1, 1)) ** -1
    with pytest.raises(ZeroDivisionError):
        P.zero() ** -1


def test_sqrt_monomial():
    assert P.monomial(4, 3).sqrt_monomial() == P.monomial(2, F(3, 2))
    assert P.monomial(F(9, 4), F(-1, 3)).sqrt_monomial() == P.monomial(
        F(3, 2), F(-1, 6)
    )
    with pytest.raises(CoefficientNotASquareError):
        P.monomial(2, 1).sqrt_monomial()
    with pytest.raises(NotMonomialError):
        (P.one() + P.monomial(1, 1)).sqrt_monomial()
    with pytest.raises(NotMonomialError):
        P.zero().sqrt_monomial()


def test_divide_by_monomial():
    x = P.monomial(6, 2) + P.monomial(3, 1)
    assert x.divide_by_monomial(P.monomial(3, 1)) == P.monomial(2, 1) + P.one()
    with pytest.raises(ZeroDivisionError):
        x.divide_by_monomial(P.zero())
    with pytest.raises(NotMonomialError):
        x.divide_by_monomial(x)


def test_string_format():
    assert str(P.zero()) == "0"
    assert str(P.one()) == "1"
    assert str(P.monomial(1, 1)) == "q"
    assert str(P.monomial(-1, 1)) == "-q"
    assert str(P.monomial(3, F(1, 2)) + P.monomial(1, 1)) == "3*q^(1/2) + q"
    assert str(P.monomial(F(-2, 3), 2) + P.one()) == "1 - 2/3*q^(2)"
    assert str(P.monomial(1, F(-1, 2))) == "q^(-1/2)"


def test_parse_examples():
    assert P.parse("0") == P.zero()
    assert P.parse("3*q^(1/2) + q") == P.monomial(3, F(1, 2)) + P.monomial(1, 1)
    assert P.parse("1 - 2/3*q^(2)") == P.one() + P.monomial(F(-2, 3), 2)
    assert P.parse("-q + 1") == P.one() - P.monomial(1, 1)
    assert P.parse("q^2") == P.monomial(1, 2)
    assert P.parse("q^(-1/2)") == P.monomial(1, F(-1, 2))
    assert P.parse("7") == P.rational(7)
    with pytest.raises(ValueError):
        P.parse("")
    with pytest.raises(ValueError):
        P.parse("q^^2")
    with pytest.raises(ValueError):
        P.parse("2.5*q")


# ---------- properties ----------

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


@st.composite
def puiseux_numbers(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = tuple(
        (draw(rationals), draw(rationals)) for _ in range(n)
    )
    return P(terms)


@given(puiseux_numbers(), puiseux_numbers())
@settings(max_examples=150)
def test_val_is_ultrametric(x, y):
    v = (x + y).val()
    assert v >= min(x.val(), y.val())
    if x.val() != y.val():
        assert v == min(x.val(), y.val())


@given(puiseux_numbers(), puiseux_numbers())
@settings(max_examples=150)
def test_val_is_multiplicative(x, y):
    prod = x * y
    if x.is_zero() or y.is_zero():
        assert prod.is_zero()
    else:
        assert prod.val() == x.val() + y.val()


@given(puiseux_numbers(), puiseux_numbers(), puiseux_numbers())
@settings(max_examples=100)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + P.zero() == x
    assert x * P.one() == x


@given(puiseux_numbers())
@settings(max_examples=150)
def test_parse_format_roundtrip(x):
    assert P.parse(str(x)) == x


@given(puiseux_numbers())
@settings(max_examples=100)
def test_monomial_inverse_and_square(x):
    if not x.is_monomial():
        return
    assert x * x.inverse_monomial() == P.one()
    sq = x * x
    root = sq.sqrt_monomial()
    assert root.val() == x.val()
    assert root == x or root == -x


# ---------- closed-form powers ----------


def repeated_product(x, k):
    """x^k by k plain multiplications: the definition the closed form and
    square-and-multiply must reproduce."""
    out = P.one()
    for _ in range(k):
        out = out * x
    return out


@st.composite
def short_puiseux_numbers(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    terms = tuple((draw(rationals), draw(rationals)) for _ in range(n))
    return P(terms)


@given(short_puiseux_numbers(), st.integers(min_value=0, max_value=40))
@settings(max_examples=80, deadline=None)
def test_power_equals_repeated_multiplication(x, k):
    assert x**k == repeated_product(x, k)


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=6).filter(bool),
    rationals,
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=120)
def test_negative_power_of_monomial(c, e, k):
    x = P.monomial(c, e)
    assert x**-k == repeated_product(x.inverse_monomial(), k)
    assert x**-k * x**k == P.one()
    assert x**-k == P.monomial(c**-k, -k * e)


def test_power_of_zero_and_one():
    assert P.zero() ** 0 == P.one()
    for k in (1, 2, 7, 40):
        assert P.zero() ** k == P.zero()
        assert P.one() ** k == P.one()
        assert P.one() ** -k == P.one()
    with pytest.raises(ZeroDivisionError):
        P.zero() ** -1
    with pytest.raises(TypeError):
        P.one() ** F(1, 2)


# ---------- the trusted constructor ----------


@contextmanager
def checked_trusted():
    """Check every value that PuiseuxNumber._trusted returns against a full
    canonicalization of its terms, and collect them."""
    original = P.__dict__["_trusted"]
    made = []

    def checking(cls, terms):
        x = original.__func__(cls, terms)
        assert x == P(x.terms)
        assert all(type(e) is type(c) is Fraction for e, c in x.terms)
        made.append(x)
        return x

    P._trusted = classmethod(checking)
    try:
        yield made
    finally:
        P._trusted = original


def product_by_definition(x, y):
    return P(tuple((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms))


@given(
    puiseux_numbers(),
    st.fractions(min_value=-10, max_value=10, max_denominator=6).filter(bool),
    rationals,
    st.integers(min_value=-6, max_value=6),
)
@settings(max_examples=150)
def test_trusted_values_are_canonical(x, c, e, k):
    m = P.monomial(c, e)
    with checked_trusted() as made:
        products = [m * x, x * m, x._shifted(e, c)]
        zeros = [m * P.zero(), P.zero() * m]
        powers = [m**k, m.inverse_monomial()]
    assert len(made) == 7
    assert products == [product_by_definition(x, m)] * 3
    assert zeros == [P.zero()] * 2
    assert powers == [P.monomial(c**k, e * k), P.monomial(1 / c, -e)]
