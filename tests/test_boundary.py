"""Every public entry reads its arguments once, at the boundary.

A point of N_R is g rationals (linalg.point) and a lattice vector is g exact
integers (linalg.lattice_vector): a wrong length raises ShapeMismatchError,
a non-integer lattice vector raises TypeError, and so does a str or bytes,
which would read as its characters.  `BOUNDARY` lists every public entry of
theta, nonarch, varieties, geometry and lattice that takes a point, a
lattice vector, a profile or coefficient rep, or an expression
multiplicity; a new entry belongs in it.  `MATRICES` lists every g x g field of a public
constructor, each read by linalg.square_rows: any other shape raises
ShapeMismatchError naming the field.  `SCALARS` lists the exact scalars
(ell, w, the partial sums' cutoff, a Puiseux coefficient or exponent, and
the lattice entries' ell, c0 and radius), read by linalg._as_fraction, so a
float raises TypeError.  The regression cases are inputs that used to be
truncated, read as characters or taken as binary fractions into a quietly
wrong answer.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from troptheta.crosschecks import suite_b
from troptheta.geometry import corner_locus, linearity_cell
from troptheta.lattice import CosetLattice, GramForm, enumerate_below, lll_reduce, minimize_quadratic
from troptheta.linalg import RatMatrix, ShapeMismatchError
from troptheta.nonarch import (
    NACocycle,
    NAThetaFunction,
    PeriodMatrix,
    build_riemann_theta,
    canonical_cocycle,
    construct_rational_function,
    evaluate_at_point,
)
from troptheta.puiseux import PuiseuxNumber
from troptheta.theta import (
    AutomorphyFactor,
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
    # lattice
    "CosetLattice.decompose": ("vector", CosetLattice(((2, 1), (0, 2))).decompose),
    "CosetLattice.congruent": ("vector", lambda u: CosetLattice(((2, 1), (0, 2))).congruent(u, (0, 0))),
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
    # ((1, 5), (1,)), a rep of the wrong length; ((1.5,), (0.0,)); False; IndexError
    "decompose of (3, 5) at g = 1": (lambda: CosetLattice([[2]]).decompose((3, 5)), ShapeMismatchError),
    "decompose of (1.5,)": (lambda: CosetLattice([[2]]).decompose((1.5,)), TypeError),
    "congruent of (1,) and (3, 7)": (lambda: CosetLattice([[2]]).congruent((1,), (3, 7)), ShapeMismatchError),
    "decompose of ()": (lambda: CosetLattice([[2]]).decompose(()), ShapeMismatchError),
}


@pytest.mark.parametrize("name", sorted(TRUNCATED))
def test_truncated_input_raises(name):
    call, error = TRUNCATED[name]
    with pytest.raises(error):
        call()


# name -> (call, good g x g matrix, the field's name in the message)
I2 = ((1, 0), (0, 1))
MATRICES = {
    "TropicalPolarizationData P": (lambda P: TropicalPolarizationData(g=2, P=P, Lambda=I2), ((2, 1), (1, 2)), "P"),
    "TropicalPolarizationData Lambda": (
        lambda L: TropicalPolarizationData(g=2, P=((2, 1), (1, 2)), Lambda=L),
        I2,
        "Lambda",
    ),
    "AutomorphyFactor Lambda": (lambda L: AutomorphyFactor(Lambda=L, ell=(0, 0)), I2, "Lambda"),
    "NACocycle Lambda": (lambda L: NACocycle(COCYCLE.period, L, COCYCLE.generators), COCYCLE.Lambda, "Lambda"),
    "build_riemann_theta Lambda": (lambda L: build_riemann_theta(COCYCLE.period, L), I2, "Lambda"),
    "canonical_cocycle Lambda": (lambda L: canonical_cocycle(COCYCLE.period, L), I2, "Lambda"),
    "suite_b Lambda": (lambda L: suite_b(COCYCLE.period, L, samples=2), I2, "Lambda"),
    "PeriodMatrix": (PeriodMatrix, COCYCLE.period.entries, "period matrix"),
    "CosetLattice": (CosetLattice, ((2, 1), (0, 2)), "coset lattice matrix"),
    "GramForm": (GramForm, ((2, 1), (1, 2)), "gram matrix"),
    "minimize_quadratic": (lambda B: minimize_quadratic(B, (0, 0)), ((2, 1), (1, 2)), "gram matrix"),
    "enumerate_below": (lambda B: list(enumerate_below(B, (0, 0), 1)), ((2, 1), (1, 2)), "gram matrix"),
    "lll_reduce": (lll_reduce, ((2, 1), (1, 2)), "gram matrix"),
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_constructors_read_each_matrix_once(name):
    # the good 2 x 2 matrix is read; a ragged one, 2 rows of 3 and 3 rows
    # of 2 raise ShapeMismatchError naming the field, and so does an empty
    # one where the matrix sets g itself
    call, good, field = MATRICES[name]
    call(good)
    call([list(row) for row in good])  # nested lists read as tuples do
    wrong = [(good[0], good[1][:1]), tuple((*r, r[0]) for r in good), (*good, good[0])]
    if field in ("period matrix", "gram matrix"):
        wrong.append(())
    for matrix in wrong:
        with pytest.raises(ShapeMismatchError, match=f"^{field} shape mismatch"):
            call(matrix)


X = tuple(PuiseuxNumber.monomial(1, x) for x in V)
# name -> (the field's name in the message, call): each exact scalar, read
# by the JSON readers' rule
SCALARS = {
    "ell": ("ell", lambda x: AutomorphyFactor(Lambda=[[1]], ell=(x,))),
    "w": ("w", lambda x: ValuationProfile(entries=(((0,), x),))),
    "cutoff": ("cutoff", lambda x: evaluate_at_point(SERIES, X, x)),
    "monomial coefficient": ("coefficient", lambda x: PuiseuxNumber.monomial(x, 1)),
    "monomial exponent": ("exponent", lambda x: PuiseuxNumber.monomial(1, x)),
    "rational": ("coefficient", PuiseuxNumber.rational),
    "minimize_quadratic ell": ("ell", lambda x: minimize_quadratic([[2]], [x])),
    "minimize_quadratic c0": ("c0", lambda x: minimize_quadratic([[2]], [1], c0=x)),
    "enumerate_below radius": ("radius", lambda x: enumerate_below([[2]], (0,), x)),
}


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_exact_scalars_refuse_floats(name):
    # a Fraction, an int and a "p/q" literal are read exactly; 0.1 used to
    # be taken as 3602879701896397/36028797018963968 (a monomial's exponent
    # 0.5 as 1/2)
    field, call = SCALARS[name]
    for x in (F(1, 10), 1, "1/10"):
        call(x)
    with pytest.raises(TypeError, match=f"^{field}: exact rational required, got float"):
        call(0.1)


# name -> call: each used to read a str as its characters, "12" as (1, 2)
AS_CHARACTERS = {
    "c_trop": lambda: TH.c_trop("12"),
    "theta at a str": lambda: TH("12"),
    "theta at bytes": lambda: TH.evaluate(b"12"),
    "embed_Mprime": lambda: embed_Mprime(D2, "12"),
    "AutomorphyFactor ell": lambda: AutomorphyFactor(Lambda=I2, ell="12"),
    "minimize_quadratic ell": lambda: minimize_quadratic(((2, 1), (1, 2)), "12"),
    "enumerate_below center": lambda: enumerate_below(((2, 1), (1, 2)), "12", 1),
    # g = True used to be read as g = 1
    "TropicalPolarizationData g = True": lambda: TropicalPolarizationData(g=True, P=[[2]], Lambda=[[1]]),
}


@pytest.mark.parametrize("name", sorted(AS_CHARACTERS))
def test_strings_are_not_vectors(name):
    with pytest.raises(TypeError):
        AS_CHARACTERS[name]()


def test_ranges_and_generators_stay_vectors():
    assert TH.c_trop(range(1, 3)) == TH.c_trop((1, 2))
    assert TH(x for x in V) == TH(V)
