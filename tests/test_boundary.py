"""Every public entry reads its arguments once, at the boundary.

A point of N_R is g rationals (linalg.point) and a lattice vector is g exact
integers (linalg.lattice_vector): a wrong length raises ShapeMismatchError
and a non-integer lattice vector raises TypeError.  `BOUNDARY` lists every
public entry of theta, nonarch, varieties and geometry that takes a point,
a lattice vector, a profile or coefficient rep, or an expression
multiplicity; a new entry belongs in it.  The regression cases below are
inputs that used to be truncated or dropped into a quietly wrong answer.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from troptheta.geometry import corner_locus, linearity_cell
from troptheta.linalg import RatMatrix, ShapeMismatchError
from troptheta.nonarch import NAThetaFunction, construct_rational_function, evaluate_at_point
from troptheta.puiseux import PuiseuxNumber
from troptheta.theta import (
    TropicalThetaExpression,
    TropicalThetaFunction,
    ValuationProfile,
    kummer_check,
    level_n_function,
    riemann_theta,
    verify_transformation,
)
from troptheta.varieties import (
    TropicalPolarizationData,
    embed_M_dual,
    embed_Mprime,
    polarization_map,
    reduce_mod_lattice,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

D2 = TropicalPolarizationData(g=2, P=RatMatrix([[2, 1], [1, 2]]), Lambda=[[1, 0], [0, 1]])
TH = riemann_theta(D2)
H = level_n_function(TH, [(F(1, 2), 0), (F(-1, 2), 0)])
SERIES = NAThetaFunction.from_json_dict(json.loads((FIXTURES / "series_g2_index4.json").read_text()))
COCYCLE = SERIES.cocycle
RATIO = construct_rational_function(SERIES, SERIES)
V = (F(1, 7), F(2, 11))
CELL = linearity_cell(TH, V)
DOMAIN = corner_locus(TH).domain


def monomials(v):
    return tuple(PuiseuxNumber.monomial(1, x) for x in v)


# name -> (kind, call): a point, a lattice vector, or one integer
BOUNDARY = {
    # theta
    "TropicalThetaFunction.evaluate": ("point", TH.evaluate),
    "TropicalThetaFunction.__call__": ("point", TH),
    "TropicalThetaFunction.translate": ("point", TH.translate),
    "TropicalThetaFunction.c_trop": ("vector", TH.c_trop),
    "TropicalThetaFunction.extended_w": ("vector", TH.extended_w),
    "verify_transformation samples": ("point", lambda v: verify_transformation(TH, [v])),
    "verify_transformation shifts": ("vector", lambda n: verify_transformation(TH, [V], [n])),
    "ValuationProfile rep": (
        "vector",
        lambda n: TropicalThetaFunction(base=D2, factor=TH.factor, profile=ValuationProfile(((n, F(0)),))),
    ),
    "TropicalThetaExpression shift": ("point", lambda s: TropicalThetaExpression(((1, s, TH), (-1, (0, 0), TH)))),
    "TropicalThetaExpression multiplicity": ("integer", lambda m: TropicalThetaExpression(((m, (0, 0), TH),))),
    "TropicalThetaExpression.evaluate": ("point", H.expression.evaluate),
    "PeriodicPLFunction.evaluate": ("point", H.evaluate),
    "PeriodicPLFunction.__call__": ("point", H),
    "PeriodicPLFunction.check_periodicity samples": ("point", lambda v: H.check_periodicity([v])),
    "PeriodicPLFunction.check_periodicity shifts": ("vector", lambda n: H.check_periodicity([V], [n])),
    "level_n_function shifts": ("point", lambda s: level_n_function(TH, [s, tuple(-x for x in s)])),
    "kummer_check samples": ("point", lambda v: kummer_check(H, [v])),
    # nonarch
    "PeriodMatrix.t n'": ("vector", lambda n: COCYCLE.period.t(n, (1, 0))),
    "PeriodMatrix.t u": ("vector", lambda u: COCYCLE.period.t((1, 0), u)),
    "NACocycle.value": ("vector", COCYCLE.value),
    "NACocycle.t_lambda n1": ("vector", lambda n: COCYCLE.t_lambda(n, (1, 0))),
    "NACocycle.t_lambda n2": ("vector", lambda n: COCYCLE.t_lambda((1, 0), n)),
    "NAThetaFunction coefficient rep": (
        "vector",
        lambda n: NAThetaFunction(cocycle=COCYCLE, coeffs=((n, PuiseuxNumber.one()),)),
    ),
    "NAThetaFunction.coefficient": ("vector", SERIES.coefficient),
    "evaluate_at_point": ("point", lambda v: evaluate_at_point(SERIES, monomials(v))),
    "NARationalFunction.val_at": ("point", lambda v: RATIO.val_at(monomials(v))),
    # varieties
    "embed_Mprime": ("vector", lambda n: embed_Mprime(D2, n)),
    "embed_M_dual": ("vector", lambda m: embed_M_dual(D2, m)),
    "reduce_mod_lattice": ("point", lambda v: reduce_mod_lattice(D2, v)),
    "polarization_map": ("point", lambda v: polarization_map(D2, v)),
    # geometry
    "linearity_cell": ("point", lambda v: linearity_cell(TH, v)),
    "LinearityCell.contains": ("point", CELL.contains),
    "FundamentalDomain.contains": ("point", DOMAIN.contains),
    "FundamentalDomain.lattice_coordinates": ("point", DOMAIN.lattice_coordinates),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_public_entries_parse_their_arguments(name):
    # the well-formed argument is read; a point or lattice vector of another
    # length raises ShapeMismatchError, and a lattice vector or
    # multiplicity holding 3/2 or 2.0 raises TypeError
    kind, call = BOUNDARY[name]
    good = {"point": V, "vector": (1, -1), "integer": 2}[kind]
    call(good)
    if kind != "integer":
        for wrong in (good[:1], (*good, good[0])):
            with pytest.raises(ShapeMismatchError):
                call(wrong)
    if kind != "point":
        for x in (F(3, 2), 2.0):
            with pytest.raises(TypeError):
                call(x if kind == "integer" else (x, *good[1:]))


# name -> (call, error): each call used to return an answer for an input it
# had cut down, shown on the right of each comment
TRUNCATED = {
    # c_trop((1, 0))
    "c_trop of (3/2, 0)": (lambda: TH.c_trop((F(3, 2), 0)), TypeError),
    # w(0, 0)
    "extended_w of (1/2, 0.9)": (lambda: TH.extended_w((F(1, 2), 0.9)), TypeError),
    # ok, having checked the shift (0, 0)
    "verify_transformation by (1/2, 0)": (lambda: verify_transformation(TH, [V], shifts=[(F(1, 2), 0)]), TypeError),
    "check_periodicity by (1/2, 0)": (lambda: H.check_periodicity([V], [(F(1, 2), 0)]), TypeError),
    # the third coordinate dropped
    "PeriodicPLFunction at 3 coordinates": (lambda: H((*V, F(5))), ShapeMismatchError),
    "kummer_check at 3 coordinates": (lambda: kummer_check(H, [(*V, F(5))]), ShapeMismatchError),
    "check_periodicity at 3 coordinates": (lambda: H.check_periodicity([(*V, F(5))]), ShapeMismatchError),
    # c(1, 0), and a partial product over the zip of (1,) and (1, 1)
    "NACocycle.value of (1,)": (lambda: COCYCLE.value((1,)), ShapeMismatchError),
    "PeriodMatrix.t of (1,) and (1, 1)": (lambda: COCYCLE.period.t((1,), (1, 1)), ShapeMismatchError),
    # t_lambda((1, 0), ...) and a_(1, 0)
    "t_lambda of (3/2, 0)": (lambda: COCYCLE.t_lambda((F(3, 2), 0), (1, 0)), TypeError),
    "coefficient of (3/2, 0)": (lambda: SERIES.coefficient((F(3, 2), 0)), TypeError),
    # KeyError and IndexError
    "coefficient of (1, 2, 3)": (lambda: SERIES.coefficient((1, 2, 3)), ShapeMismatchError),
    "coefficient of (1,)": (lambda: SERIES.coefficient((1,)), ShapeMismatchError),
    # the rep (0, 2)
    "profile rep (1/2, 7/3)": (lambda: ValuationProfile((((F(1, 2), F(7, 3)), F(0)),)), TypeError),
    # multiplicity 1
    "multiplicity 3/2": (lambda: TropicalThetaExpression(((F(3, 2), (0, 0), TH),)), TypeError),
    # P^T (1/2, 0), not a period
    "embed_Mprime of (1/2, 0)": (lambda: embed_Mprime(D2, (F(1, 2), 0)), TypeError),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_truncated_input_raises(name):
    call, error = TRUNCATED[name]
    with pytest.raises(error):
        call()
