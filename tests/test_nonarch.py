"""Tests for the non-Archimedean theta layer."""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troptheta.linalg import RatMatrix, matvec
from troptheta.nonarch import (
    _fold,
    _mono,
    _monomial,
    CocycleMismatchError,
    CutoffBelowMinimumError,
    NACocycle,
    NAThetaFunction,
    NotAmpleError,
    PeriodMatrix,
    ZeroCoordinateError,
    build_riemann_theta,
    canonical_cocycle,
    construct_rational_function,
    evaluate_at_point,
    theta_basis,
    tropicalize,
    verify_cocycle,
)
from troptheta.puiseux import CoefficientNotASquareError, PuiseuxNumber
from troptheta.rationals import INF
from troptheta.theta import TropicalThetaFunction, riemann_theta
from troptheta.varieties import InvalidDataError, TropicalPolarizationData

P = PuiseuxNumber.parse


def pm1():
    return PeriodMatrix(entries=((P("q^(2)"),),))


def pm2():
    q, q2 = P("q"), P("q^(2)")
    return PeriodMatrix(entries=((q2, q), (q, q2)))


# ---------- independent extension oracle ----------


def oracle_coefficients(f, box):
    """Rebuild a_u inside a box using only single-generator steps of the
    defining relation a_{u + lambda(e_i)} = t(e_i, u) c(e_i) a_u, never the
    closed-form cocycle.  Inconsistent revisits fail loudly."""
    g = f.g
    period = f.cocycle.period
    gens = f.cocycle.generators
    table = {rep: a for rep, a in f.coeffs}
    # c(-e_i) from the relation with c(0) = 1
    steps = []
    for i in range(g):
        e = tuple(1 if k == i else 0 for k in range(g))
        lam = tuple(matvec(f.cocycle.Lambda, e))
        steps.append((e, lam, gens[i]))
        neg = tuple(-x for x in e)
        neg_lam = tuple(-x for x in lam)
        c_neg = (gens[i] * period.t(e, neg_lam)).inverse_monomial()
        steps.append((neg, neg_lam, c_neg))
    limit = box + max(
        (abs(x) for _, lam, _ in steps for x in lam), default=0
    ) * (2 * box + 2)
    frontier = list(table)
    while frontier:
        u = frontier.pop()
        for e, lam, c_e in steps:
            v = tuple(a + b for a, b in zip(u, lam))
            if max(abs(x) for x in v) > limit:
                continue
            a_u = table[u]
            a_v = period.t(e, u) * c_e * a_u if not a_u.is_zero() else a_u
            if v in table:
                assert table[v] == a_v, f"inconsistent extension at {v}"
            else:
                table[v] = a_v
                frontier.append(v)
    return {
        u: table[u]
        for u in product(range(-box, box + 1), repeat=g)
        if u in table
    }


@pytest.mark.parametrize("make,box", [(pm1, 4), (pm2, 2)])
def test_extension_matches_step_oracle(make, box):
    period = make()
    g = period.g
    ident = tuple(tuple(1 if i == j else 0 for j in range(g)) for i in range(g))
    f = build_riemann_theta(period, ident)
    expected = oracle_coefficients(f, box)
    assert set(expected) == set(product(range(-box, box + 1), repeat=g))
    for u, a in expected.items():
        assert f.coefficient(u) == a


def test_extension_oracle_nontrivial_coefficient():
    # multi-term a_0 so the oracle exercises monomial * series products
    coc = canonical_cocycle(pm1(), [[2]])
    f = NAThetaFunction(
        cocycle=coc,
        coeffs=(((0,), P("1 + q^(1/2)")), ((1,), P("q"))),
    )
    expected = oracle_coefficients(f, 5)
    for u, a in expected.items():
        assert f.coefficient(u) == a


# ---------- period matrices ----------


def test_period_matrix_rejects_bad_entries():
    with pytest.raises(InvalidDataError):
        PeriodMatrix(entries=((P("1 + q"),),))  # not a monomial
    with pytest.raises(InvalidDataError):
        PeriodMatrix(entries=((P("-q"),),))  # nonpositive coefficient
    with pytest.raises(InvalidDataError):
        # degenerate exponent matrix
        PeriodMatrix(entries=((P("q"), P("q")), (P("q"), P("q"))))


def test_pairing_is_exponent_matrix():
    assert pm2().pairing() == RatMatrix(((F(2), F(1)), (F(1), F(2))))


def test_t_is_bimultiplicative():
    period = pm2()
    rng = random.Random(7)
    for _ in range(25):
        n1, n2, u1, u2 = (
            tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)
        )
        both = tuple(a + b for a, b in zip(n1, n2))
        assert period.t(both, u1) == period.t(n1, u1) * period.t(n2, u1)
        both = tuple(a + b for a, b in zip(u1, u2))
        assert period.t(n1, both) == period.t(n1, u1) * period.t(n1, u2)


# ---------- cocycles ----------


def test_cocycle_requires_symmetric_pairs():
    q, q2, q3 = P("q"), P("q^(2)"), P("q^(3)")
    skew = PeriodMatrix(entries=((q2, q), (q3, q2)))
    with pytest.raises(InvalidDataError):
        NACocycle(period=skew, Lambda=((1, 0), (0, 1)), generators=(q, q))


def test_cocycle_requires_symmetric_pair_coefficients():
    # equal exponents, but t(e'_0, lambda(e'_1)) = 2q and t(e'_1, lambda(e'_0)) = 3q
    q2 = P("q^(2)")
    skew = PeriodMatrix(entries=((q2, P("2*q")), (P("3*q"), q2)))
    with pytest.raises(InvalidDataError):
        NACocycle(period=skew, Lambda=((1, 0), (0, 1)), generators=(P("q"), P("q")))


def test_cocycle_value_on_generators():
    coc = build_riemann_theta(pm2(), ((1, 0), (0, 1))).cocycle
    assert coc.value((0, 0)) == PuiseuxNumber.one()
    assert coc.value((1, 0)) == coc.generators[0]
    assert coc.value((0, 1)) == coc.generators[1]


def test_verify_cocycle_passes():
    for period, lam in [(pm1(), [[1]]), (pm2(), [[1, 0], [0, 1]]), (pm1(), [[2]])]:
        coc = canonical_cocycle(period, lam)
        report = verify_cocycle(coc, samples=20, seed=3)
        assert report.ok
        assert report.checked >= period.g**2 + 20


def test_cocycle_relation_exhaustive_small_box():
    coc = canonical_cocycle(pm2(), ((1, 0), (0, 1)))
    rng = range(-2, 3)
    for n1 in product(rng, repeat=2):
        for n2 in product(rng, repeat=2):
            total = tuple(a + b for a, b in zip(n1, n2))
            assert coc.value(total) == coc.value(n1) * coc.value(n2) * coc.t_lambda(n1, n2)


# ---------- theta functions ----------


def test_riemann_coefficients_g1():
    f = build_riemann_theta(pm1(), [[1]])
    for n in range(-3, 4):
        assert f.coefficient((n,)) == P(f"q^({n * n})")


def test_riemann_coefficients_g2():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    for n in product(range(-2, 3), repeat=2):
        e = n[0] ** 2 + n[0] * n[1] + n[1] ** 2
        assert f.coefficient(n) == P(f"q^({e})")


def test_riemann_needs_square_diagonal():
    bad = PeriodMatrix(entries=((P("2*q^(2)"),),))
    with pytest.raises(CoefficientNotASquareError):
        build_riemann_theta(bad, [[1]])


def test_riemann_needs_principal():
    from troptheta.theta import NotPrincipalError

    with pytest.raises(NotPrincipalError):
        build_riemann_theta(pm1(), [[2]])


def test_noncanonical_rep_is_rescaled():
    # a_2 given; a_0 must be a_2 / (t(1, 0) c(1)) so that extending back
    # from 0 reproduces a_2 exactly
    coc = canonical_cocycle(pm1(), [[2]])
    f = NAThetaFunction(cocycle=coc, coeffs=(((2,), P("q^(3)")),))
    assert f.coefficient((2,)) == P("q^(3)")
    assert f.coefficient((0,)) == P("q")  # q^3 / (t(1,0) c(1)) = q^3 / q^2


def test_duplicate_coset_rejected():
    coc = canonical_cocycle(pm1(), [[2]])
    with pytest.raises(InvalidDataError):
        NAThetaFunction(
            cocycle=coc, coeffs=(((0,), P("1")), ((2,), P("q^(2)")))
        )


def test_zero_theta_rejected():
    coc = canonical_cocycle(pm1(), [[2]])
    with pytest.raises(InvalidDataError):
        NAThetaFunction(
            cocycle=coc,
            coeffs=(((0,), PuiseuxNumber.zero()), ((1,), PuiseuxNumber.zero())),
        )


def test_invariance_detects_corruption():
    f = build_riemann_theta(pm1(), [[1]])
    assert f.verify_invariance(samples=10, seed=1).ok
    f.coefficient((3,))  # populate the cache
    f._table[(3,)] = P("q^(8)")  # should be q^(9)
    report = f.verify_invariance(samples=10, seed=1)
    assert not report.ok


# ---------- basis ----------


def test_theta_basis_cardinality_and_leading_matrix():
    for k in (1, 2, 3, 4):
        coc = canonical_cocycle(pm1(), [[k]])
        basis = theta_basis(pm1(), coc)
        assert len(basis) == k
        for i, b in enumerate(basis):
            assert b.verify_invariance(samples=8, seed=i).ok
            for j in range(k):
                want = PuiseuxNumber.one() if i == j else PuiseuxNumber.zero()
                assert b.coefficient((j,)) == want


def test_theta_basis_rejects_indefinite():
    coc = canonical_cocycle(pm1(), [[-1]])
    with pytest.raises(NotAmpleError):
        theta_basis(pm1(), coc)


# ---------- tropicalization ----------


def test_tropicalize_riemann_matches_tropical_riemann():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    trop = tropicalize(f)
    data = TropicalPolarizationData(
        g=2, P=RatMatrix(((F(2), F(1)), (F(1), F(2)))), Lambda=((1, 0), (0, 1))
    )
    ref = riemann_theta(data)
    rng = random.Random(11)
    for _ in range(25):
        v = tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))
        assert trop.evaluate(v) == ref.evaluate(v)


def test_tropicalize_profile_and_linear_part():
    coc = canonical_cocycle(pm1(), [[2]])
    b0, b1 = theta_basis(pm1(), coc)
    t0, t1 = tropicalize(b0), tropicalize(b1)
    # c(e') = q^2 and (1/2) P Lambda = 2, so the linear part vanishes
    assert t0.factor.ell == (F(0),)
    assert dict(t0.profile.entries) == {(0,): F(0), (1,): INF}
    assert dict(t1.profile.entries) == {(0,): INF, (1,): F(0)}


def test_tropicalize_lambda_zero_is_constant():
    zero_coc = NACocycle(
        period=pm1(), Lambda=((0,),), generators=(PuiseuxNumber.one(),)
    )
    f = NAThetaFunction(cocycle=zero_coc, coeffs=(((0,), P("2 + q")),))
    trop = tropicalize(f)
    assert trop.factor.is_zero()
    for v in (F(0), F(5, 3), F(-7)):
        assert trop.evaluate((v,)).value == F(0)


# ---------- pointwise evaluation ----------


def test_partial_sum_g1_frozen():
    f = build_riemann_theta(pm1(), [[1]])
    x = (P("q^(1/2)"),)
    out = evaluate_at_point(f, x, F(4))
    # terms q^(n^2 + n/2) for n = -2..1
    assert out.value == P("1 + q^(1/2) + q^(3/2) + q^(3)")
    assert out.terms == 4
    assert out.trop_value == F(0)
    assert out.dominant_unique
    assert out.value.val() == out.trop_value


def test_partial_sum_minimal_cutoff_keeps_dominant():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    trop = tropicalize(f)
    rng = random.Random(23)
    hits = 0
    for _ in range(20):
        x = tuple(
            PuiseuxNumber.monomial(rng.choice([1, 2, 3]), F(rng.randint(-40, 40), den))
            for den in (7, 11)
        )
        cutoff = trop.evaluate(tuple(c.val() for c in x)).value
        out = evaluate_at_point(f, x, cutoff)
        if out.dominant_unique:
            hits += 1
            assert out.value.val() == out.trop_value
    assert hits >= 15  # generic points dominate uniquely


def test_partial_sum_tie_flagged():
    f = build_riemann_theta(pm1(), [[1]])
    out = evaluate_at_point(f, (P("q"),), F(0))
    # val(a_n x^n) = n^2 + n ties at n = 0 and n = -1
    assert out.terms == 2
    assert not out.dominant_unique
    assert out.value == P("2")


def test_partial_sum_errors():
    f = build_riemann_theta(pm1(), [[1]])
    with pytest.raises(CutoffBelowMinimumError):
        evaluate_at_point(f, (P("q"),), F(-1))
    with pytest.raises(ZeroCoordinateError):
        evaluate_at_point(f, (PuiseuxNumber.zero(),), F(1))
    with pytest.raises(InvalidDataError):
        evaluate_at_point(f, (P("1 + q"),), F(1))


def test_partial_sum_cutoff_monotone():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    x = (P("q"), P("2*q^(1/3)"))
    prev = 0
    for cutoff in (F(0), F(2), F(5), F(9)):
        out = evaluate_at_point(f, x, cutoff)
        assert out.terms >= prev
        prev = out.terms
        for exp, _ in out.value.terms:
            assert exp >= out.trop_value


def box_partial_sum(f, x, cutoff, box):
    """Independent oracle: scan the box |u_i| <= box for a_u x^u with val at
    most cutoff, x^u built directly as prod c_j^u_j t^<u, val x>.  Returns
    the sum, the term count, and the least val on the box's outer ring of
    width 2 (every coset of a level <= 2 series meets it)."""
    coeffs = [xj.leading_coefficient() for xj in x]
    v = [xj.val() for xj in x]
    total, count, edge = PuiseuxNumber.zero(), 0, None
    for u in product(range(-box, box + 1), repeat=len(x)):
        a = f.coefficient(u)
        if a.is_zero():
            continue
        coeff = F(1)
        for c, k in zip(coeffs, u):
            coeff *= c**k
        term = a * PuiseuxNumber.monomial(coeff, sum(k * vj for k, vj in zip(u, v)))
        if max(map(abs, u)) >= box - 1:
            edge = term.val() if edge is None else min(edge, term.val())
        if term.val() <= cutoff:
            total, count = total + term, count + 1
    return total, count, edge


def lambda_zero_series():
    zero_coc = NACocycle(
        period=pm2(), Lambda=((0, 0), (0, 0)), generators=(PuiseuxNumber.one(),) * 2
    )
    coeffs = (
        ((0, 0), P("2 + q")),
        ((1, 0), PuiseuxNumber.monomial(F(1, 3), F(1, 2))),
        ((-1, 2), PuiseuxNumber.monomial(3, F(2))),
        ((2, -1), PuiseuxNumber.monomial(-1, F(-1))),
    )
    return NAThetaFunction(cocycle=zero_coc, coeffs=coeffs)


@pytest.mark.parametrize(
    "make",
    [
        lambda: theta_basis(pm1(), canonical_cocycle(pm1(), [[2]]))[1],
        lambda: theta_basis(pm2(), canonical_cocycle(pm2(), [[2, 0], [0, 2]]))[3],
        lambda: build_riemann_theta(pm2(), ((1, 0), (0, 1))),
        lambda_zero_series,
    ],
    ids=["level2-g1", "level2-g2", "riemann-g2", "lambda0-g2"],
)
def test_partial_sum_matches_box_scan(make):
    f = make()
    rng = random.Random(41)
    for _ in range(5):
        x = tuple(
            PuiseuxNumber.monomial(rng.choice([1, 2, -3]), F(rng.randint(-9, 9), rng.randint(2, 4)))
            for _ in range(f.g)
        )
        cutoff = tropicalize(f).evaluate(tuple(c.val() for c in x)).value + rng.choice([0, 1, F(5, 2)])
        out = evaluate_at_point(f, x, cutoff)
        total, count, edge = box_partial_sum(f, x, cutoff, box=12)
        # the dominant term is inside the box and the outer ring is above the
        # cutoff: the box is wide enough to hold every term
        assert count >= 1 and (edge is None or edge > cutoff)
        assert (out.value, out.terms) == (total, count)


# ---------- rational functions ----------


def test_rational_function_descends():
    coc = canonical_cocycle(pm1(), [[2]])
    b0, b1 = theta_basis(pm1(), coc)
    h = construct_rational_function(b0, b1)
    rng = random.Random(5)
    for _ in range(20):
        v = (F(rng.randint(-30, 30), rng.randint(1, 7)),)
        shifted = (v[0] + 2,)  # the period lattice is 2Z here
        assert h.h_trop.evaluate(v) == h.h_trop.evaluate(shifted)


def test_rational_function_val_matches_tropical():
    coc = canonical_cocycle(pm1(), [[2]])
    b0, b1 = theta_basis(pm1(), coc)
    h = construct_rational_function(b0, b1)
    rng = random.Random(9)
    checked = 0
    for _ in range(40):
        x = (PuiseuxNumber.monomial(rng.choice([1, 2, 5]), F(rng.randint(-20, 20), rng.randint(1, 6))),)
        vd, ok = h.val_at(x)
        if ok:
            checked += 1
            assert vd == h.h_trop.evaluate((x[0].val(),))
    assert checked >= 20


def test_val_at_evaluates_each_theta_once(count_calls):
    # machine-independent gate: the minimal cutoff and the dominant tie set
    # come from one integer argmin per (theta, point), not one each, and the
    # Fraction path of evaluate is never taken
    coc = canonical_cocycle(pm1(), [[2]])
    h = construct_rational_function(*theta_basis(pm1(), coc))
    least = count_calls(TropicalThetaFunction._least_terms)
    evaluate = count_calls(TropicalThetaFunction.evaluate)
    vd, ok = h.val_at((PuiseuxNumber.monomial(2, F(3, 7)),))
    assert (len(least), len(evaluate)) == (2, 0)
    assert ok and vd == h.h_trop.evaluate((F(3, 7),))


def test_rational_function_rejects_mismatched_cocycles():
    coc = canonical_cocycle(pm1(), [[2]])
    other = NACocycle(
        period=pm1(), Lambda=((2,),), generators=(P("2*q^(2)"),)
    )
    b0 = theta_basis(pm1(), coc)[0]
    f = NAThetaFunction(cocycle=other, coeffs=(((0,), P("1")),))
    with pytest.raises(CocycleMismatchError):
        construct_rational_function(b0, f)


# ---------- serialization ----------


def test_json_roundtrip():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    blob = json.dumps(f.to_json_dict(), sort_keys=True)
    g = NAThetaFunction.from_json_dict(json.loads(blob))
    assert g == f
    assert json.dumps(g.to_json_dict(), sort_keys=True) == blob


# ---------- closed-form monomials ----------


def power_by_products(m, k):
    """m^k by |k| plain multiplications (inverting first when k < 0)."""
    base = m if k >= 0 else m.inverse_monomial()
    out = PuiseuxNumber.one()
    for _ in range(abs(k)):
        out = out * base
    return out


def t_by_products(period, nprime, u):
    """t(u', u) = prod_{i,j} T[i][j]^(n'_i u_j), factor by factor."""
    out = PuiseuxNumber.one()
    for i, ni in enumerate(nprime):
        for j, uj in enumerate(u):
            out = out * power_by_products(period.entries[i][j], ni * uj)
    return out


def value_by_products(coc, n):
    """c(n) from the generators and the pair values t(e'_i, lambda(e'_j)),
    factor by factor."""
    g = coc.g
    basis = [tuple(int(k == i) for k in range(g)) for i in range(g)]
    pair = [
        [t_by_products(coc.period, basis[i], matvec(coc.Lambda, basis[j])) for j in range(g)]
        for i in range(g)
    ]
    out = PuiseuxNumber.one()
    for i, ni in enumerate(n):
        out = out * power_by_products(coc.generators[i], ni)
        out = out * power_by_products(pair[i][i], ni * (ni - 1) // 2)
        for j in range(i + 1, g):
            out = out * power_by_products(pair[i][j], ni * n[j])
    return out


def test_cocycle_value_and_t_match_product_definitions():
    period = PeriodMatrix(
        entries=((P("4*q^(2)"), P("2/3*q")), (P("2/3*q"), P("9*q^(5/2)")))
    )
    coc = NACocycle(
        period=period, Lambda=((2, 0), (0, 2)), generators=(P("3*q^(1/2)"), P("1/5*q^(-1)"))
    )
    rng = random.Random(5)
    box = list(product(range(-6, 7), repeat=2))
    for n in box:
        assert coc.value(n) == value_by_products(coc, n)
        for u in rng.sample(box, 4):
            assert period.t(n, u) == t_by_products(period, n, u)


small_exponents = st.fractions(min_value=-3, max_value=3, max_denominator=4)
diagonal_exponents = st.fractions(min_value=10, max_value=14, max_denominator=4)
positive = st.fractions(min_value=F(1, 5), max_value=6, max_denominator=5)
signed = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def series_with_rational_data(draw):
    """A series on a symmetric period with positive rational coefficients
    and rational exponents (diagonally dominant, so nondegenerate),
    Lambda = dI, signed generator coefficients, and a_rep on every coset."""
    g = draw(st.integers(min_value=1, max_value=3))
    T = {}
    for i in range(g):
        for j in range(i, g):
            e = draw(diagonal_exponents if i == j else small_exponents)
            T[i, j] = T[j, i] = PuiseuxNumber.monomial(draw(positive), e)
    d = draw(st.integers(min_value=1, max_value=3))
    period = PeriodMatrix(entries=tuple(tuple(T[i, j] for j in range(g)) for i in range(g)))
    coc = NACocycle(
        period=period,
        Lambda=tuple(tuple(d * (i == j) for j in range(g)) for i in range(g)),
        generators=tuple(PuiseuxNumber.monomial(draw(signed), draw(small_exponents)) for _ in range(g)),
    )
    series = st.lists(st.tuples(small_exponents, signed), max_size=2).map(PuiseuxNumber)
    coeffs = [(rep, draw(series)) for rep in product(range(d), repeat=g)]
    coeffs[0] = (coeffs[0][0], PuiseuxNumber.one())
    return NAThetaFunction(cocycle=coc, coeffs=tuple(coeffs))


def small_vectors(g):
    return st.tuples(*[st.integers(min_value=-6, max_value=6)] * g)


@given(series_with_rational_data(), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_product_definitions(f, data):
    coc, g = f.cocycle, f.g
    d = coc.Lambda[0][0]
    n, u = data.draw(small_vectors(g)), data.draw(small_vectors(g))
    assert coc.period.t(n, u) == t_by_products(coc.period, n, u)
    assert coc.t_lambda(n, u) == t_by_products(coc.period, n, matvec(coc.Lambda, u))
    assert coc.value(n) == value_by_products(coc, n)
    # a_u = t(m, rep) c(m) a_rep for u = rep + d m, rep the stored rep of u's coset
    rep, a = next((r, a) for r, a in f.coeffs if all((x - y) % d == 0 for x, y in zip(u, r)))
    m = tuple((x - y) // d for x, y in zip(u, rep))
    assert f.coefficient(u) == t_by_products(coc.period, m, rep) * value_by_products(coc, m) * a


def test_kernel_folds_powers():
    a, b = PuiseuxNumber.monomial(2, F(1, 3)), PuiseuxNumber.monomial(F(-3, 5), -2)
    D = 3
    folded = _fold([(_mono(a, D), 3), (_mono(b, D), -2), (_mono(a, D), 0)])
    assert _monomial(D, folded) == a**3 * b**-2
    assert _monomial(D, _fold([])) == PuiseuxNumber.one()
    with pytest.raises(ValueError):
        _mono(PuiseuxNumber.one() + a, D)


def test_riemann_coefficient_far_out_is_closed_form():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    u = (85, 85)
    pairing = pm2().exponent_rows()
    e = sum(u[i] * pairing[i][j] * u[j] for i in range(2) for j in range(2)) / 2
    assert e == 21675
    assert f.coefficient(u) == PuiseuxNumber.monomial(1, e)


def test_tropicalize_is_cached_per_series():
    f = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    assert tropicalize(f) is tropicalize(f)
    g = build_riemann_theta(pm2(), ((1, 0), (0, 1)))
    assert tropicalize(g) == tropicalize(f)
