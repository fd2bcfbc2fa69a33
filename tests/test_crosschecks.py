from fractions import Fraction

import pytest

from troptheta.crosschecks import (
    CheckOutcome,
    sample_points,
    sample_shifts,
    seeded_period,
    suite_a,
    suite_b,
    suite_c,
)
from troptheta import linalg, varieties
from troptheta.linalg import identity, is_symmetric
from troptheta.nonarch import (
    CocycleMismatchError,
    PeriodMatrix,
    build_riemann_theta,
    canonical_cocycle,
    construct_rational_function,
    theta_basis,
    tropicalize,
)
from troptheta.puiseux import PuiseuxNumber
from troptheta.theta import NotPrincipalError, TropicalThetaFunction, verify_transformation

F = Fraction
Q = PuiseuxNumber.parse

PM1 = PeriodMatrix(((Q("q^(2)"),),))
PM2 = PeriodMatrix(((Q("q^(2)"), Q("q")), (Q("q"), Q("q^(2)"))))


def level2_pair():
    cocycle = canonical_cocycle(PM1, ((2,),))
    return theta_basis(PM1, cocycle)


def fixtures_for_suite_a():
    out = [
        build_riemann_theta(PM1, ((1,),)),
        build_riemann_theta(PM2, ((1, 0), (0, 1))),
        build_riemann_theta(seeded_period(3, 11), identity(3)),
    ]
    out.extend(level2_pair())
    return out


def test_suite_a_holds_on_principal_and_level_two_series():
    for f in fixtures_for_suite_a():
        outcomes = suite_a(f)
        assert len(outcomes) == 1
        assert outcomes[0].name == "transformation-law"
        assert outcomes[0].passed, outcomes[0].detail
        assert outcomes[0].detail == "350 exact identities"


@pytest.mark.parametrize("f", fixtures_for_suite_a(), ids=["riemann-g1", "riemann-g2", "riemann-g3", "level2-0", "level2-1"])
def test_transformation_law_runs_in_integers(count_calls, f):
    # both sides of the law come off the integer argmin entry: one
    # _least_terms per sample and one per (sample, shift), and no period is
    # embedded and no c_trop, matvec or vecdot formed per (point, shift)
    counted = [varieties.embed_Mprime, linalg.matvec, linalg.vecdot, TropicalThetaFunction.c_trop]
    calls = [count_calls(fn) for fn in counted]
    least = count_calls(TropicalThetaFunction._least_terms)
    (outcome,) = suite_a(f, samples=9, shifts=4, seed=2)
    assert outcome.passed and outcome.detail == "36 exact identities"
    assert [len(c) for c in calls] == [0, 0, 0, 0]
    assert len(least) == 9 * (4 + 1)


def test_transformation_law_failures_stay_exact(monkeypatch):
    # one shifted point's terms moved by 1 in D w(u), so its value by 1/D at
    # any scale of its denominator: the one failure carries Fractions equal
    # to f(v + P^T n) + c_trop(n) + <Lam n, v> from theta values, and suite
    # A's detail names it as before
    f = fixtures_for_suite_a()[1]
    trop = tropicalize(f)
    points, shifts = sample_points(2, 5, 3), sample_shifts(2, 3, 4)
    v, n = points[2], shifts[1]
    target = tuple(a + b for a, b in zip(v, (sum(p * x for p, x in zip(col, n)) for col in zip(*trop.base.P.entries))))
    least_terms = TropicalThetaFunction._least_terms

    def perturbed(self, q, V):
        terms = least_terms(self, q, V)
        return [(u, w + 1) for u, w in terms] if tuple(F(x, q) for x in V) == target else terms

    monkeypatch.setattr(TropicalThetaFunction, "_least_terms", perturbed)
    lam_n = [sum(a * b for a, b in zip(row, n)) for row in trop.factor.Lambda]
    lhs, rhs = trop(v), trop(target) + trop.c_trop(n) + sum(a * b for a, b in zip(lam_n, v))
    assert lhs != rhs
    report = verify_transformation(trop, points, shifts)
    (failure,) = report.failures
    assert (failure.point, failure.shift, failure.lhs, failure.rhs) == (v, n, lhs, rhs)
    assert type(failure.lhs) is type(failure.rhs) is Fraction
    (outcome,) = suite_a(f, samples=5, shifts=3, seed=3)
    assert outcome.detail == f"1/15 failed; first at v={v} n={n}: {lhs} != {rhs}"


def test_suite_b_standard_periods_match_exactly():
    for pm in (PM1, PM2):
        outcomes = suite_b(pm)
        assert [o.name for o in outcomes] == ["riemann-match", "even-valuations"]
        assert all(o.passed for o in outcomes), outcomes
        assert outcomes[0].detail.startswith("100/100")


def test_suite_b_seeded_periods():
    for g, seed in ((1, 3), (2, 5), (3, 9)):
        outcomes = suite_b(seeded_period(g, seed), samples=40, seed=seed)
        assert all(o.passed for o in outcomes), (g, seed, outcomes)


def test_suite_b_requires_a_principal_polarization():
    with pytest.raises(NotPrincipalError):
        suite_b(PM1, ((2,),))


def test_suite_c_level_two_basis_pair():
    f1, f2 = level2_pair()
    outcomes = suite_c(f1, f2)
    assert [o.name for o in outcomes] == [
        "difference-periodic",
        "valuation-identity",
    ]
    assert all(o.passed for o in outcomes), outcomes


def test_suite_c_difference_is_not_constant():
    f1, f2 = level2_pair()
    ht = construct_rational_function(f1, f2).h_trop
    values = {ht((F(k, 7),)) for k in range(-6, 7)}
    assert len(values) >= 2


def test_suite_c_rejects_mismatched_cocycles():
    f1, _ = level2_pair()
    other = build_riemann_theta(PM1, ((1,),))
    with pytest.raises(CocycleMismatchError):
        suite_c(f1, other)


def test_sample_points_are_seed_deterministic():
    a = sample_points(2, 6, 42)
    assert a == sample_points(2, 6, 42)
    assert a != sample_points(2, 6, 43)
    for p in a:
        assert {x.denominator for x in p} <= {1, 7, 11, 13}


def test_sample_shifts_are_nonzero():
    for n in sample_shifts(3, 25, 0):
        assert any(n)


def test_seeded_period_is_symmetric_and_deterministic():
    pm = seeded_period(3, 11)
    rows = pm.exponent_rows()
    assert is_symmetric(rows)
    assert pm == seeded_period(3, 11)
    assert pm != seeded_period(3, 12)


def test_seeded_draws_are_pinned_beyond_seed_zero():
    # the exact draws, recorded before the spreads became constants: L L^T
    # for seeded_period(3, 11), and 25 nonzero shifts at seed 0
    assert seeded_period(3, 11).exponent_rows() == ((4, 4, 2), (4, 8, 6), (2, 6, 14))
    assert sample_shifts(3, 25, 0) == (
        (3, 0, 3), (0, -3, -1), (1, 0, 0), (3, 3, -1), (0, -1, 1), (-2, 1, -2), (-1, -2, 3),
        (-3, 1, 3), (-1, 1, 2), (3, 1, -2), (-1, -3, 2), (-3, 3, 2), (-1, 0, 1), (-3, -1, 0),
        (-1, 1, 2), (-2, 1, 0), (0, 3, 1), (-1, -3, 3), (1, -3, -3), (2, 3, 0), (2, 3, 3),
        (2, 2, -3), (1, 0, 3), (3, -1, -2), (2, -1, 2),
    )


def test_check_outcome_serialization():
    o = CheckOutcome(name="x", passed=True, detail="42/42")
    assert o.to_json_dict() == {"name": "x", "passed": True, "detail": "42/42"}
