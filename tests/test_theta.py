import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from troptheta import geometry, lattice, theta as theta_module
from troptheta.crosschecks import sample_points, sample_shifts, seeded_period
from troptheta.lattice import CosetLattice, NotPositiveDefiniteError, _over_common_denominator
from troptheta.linalg import RatMatrix, ShapeMismatchError, inverse, matmul, matvec, solve, transpose
from troptheta.nonarch import (
    CutoffBelowMinimumError,
    NACocycle,
    NAThetaFunction,
    PeriodMatrix,
    build_riemann_theta,
    canonical_cocycle,
    evaluate_at_point,
    theta_basis,
    tropicalize,
)
from troptheta.puiseux import PuiseuxNumber
from troptheta.rationals import INF
from troptheta.theta import (
    AutomorphyFactor,
    EmptyProfileError,
    IncompatibleError,
    NonzeroAutomorphyError,
    NotPrincipalError,
    ShiftsDoNotSumToZeroError,
    TropicalThetaExpression,
    TropicalThetaFunction,
    ValuationProfile,
    default_shifts,
    difference_to_periodic,
    expression_automorphy,
    is_even,
    kummer_check,
    level_n_function,
    riemann_theta,
    verify_transformation,
)
from troptheta.varieties import TropicalPolarizationData, embed_Mprime

F = Fraction


def data_of(P, Lam):
    return TropicalPolarizationData(g=len(P), P=RatMatrix(P), Lambda=Lam)


D1 = data_of([[2]], [[1]])
D2 = data_of([[2, 1], [1, 2]], [[1, 0], [0, 1]])
D3 = data_of([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

TH1 = riemann_theta(D1)
TH2 = riemann_theta(D2)
TH3 = riemann_theta(D3)

# level-2 pair of translated thetas merged into one profile: two corners/period
L2 = TropicalThetaFunction(
    base=D1,
    factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
    profile=ValuationProfile(entries=(((0,), F(0)), ((1,), F(1, 2)))),
)

# non-principal g=2 profile with an infinite entry
NP2 = TropicalThetaFunction(
    base=D2,
    factor=AutomorphyFactor(Lambda=[[2, 0], [0, 2]], ell=(F(0), F(0))),
    profile=ValuationProfile(
        entries=(
            ((0, 0), F(0)),
            ((0, 1), F(1, 3)),
            ((1, 0), F(1, 2)),
            ((1, 1), INF),
        )
    ),
)

FIXTURES = [TH1, TH2, TH3, L2, NP2]


# ---------- oracle: naive box minimization via the profile extension rule ----------

def oracle_w(theta, u):
    """Recompute the extended profile from scratch: find the coset rep by
    exact solving, then apply w(u0 + Lam n) = w(u0) + c_trop(n) + [n, u0]."""
    P = theta.base.P.entries
    Lam = theta.factor.Lambda
    ell = theta.factor.ell
    B = tuple(matvec(P, col) for col in transpose(Lam))  # columns P*Lam_j
    for rep, w in theta.profile.entries:
        try:
            n = solve(Lam, tuple(a - b for a, b in zip(u, rep)))
        except ShapeMismatchError:
            if tuple(u) == rep:
                return w
            continue
        if all(c.denominator == 1 for c in n):
            if w == INF:
                return INF
            n = tuple(c.numerator for c in n)
            quad = F(1, 2) * sum(
                n[i] * matvec(P, matvec(Lam, n))[i] for i in range(len(n))
            )
            lin = sum(e * c for e, c in zip(ell, n))
            pair = sum(a * b for a, b in zip(matvec(P, rep), n))
            return w + quad + lin + pair
    return INF


def oracle_evaluate(theta, v, box):
    best, wits = None, []
    for u in itertools.product(range(-box, box + 1), repeat=theta.g):
        w = oracle_w(theta, u)
        if w == INF:
            continue
        val = w + sum(F(a) * b for a, b in zip(u, v))
        if best is None or val < best:
            best, wits = val, [u]
        elif val == best:
            wits.append(u)
    return best, sorted(wits)


# ---------- worked examples ----------

def test_riemann_worked_examples_g1():
    r = TH1.evaluate((F(-3, 2),))
    assert r.value == F(-1, 2)
    assert r.witnesses == ((1,),)
    assert TH1.evaluate((F(1, 2),)).value == 0
    tie = TH1.evaluate((F(-1),))
    assert tie.value == 0
    assert tie.witnesses == ((0,), (1,))
    assert tie.canonical == (0,)


def test_riemann_worked_example_g2():
    r = TH2.evaluate((F(-2), F(-1)))
    assert r.value == F(-1)
    assert r.witnesses == ((1, 0),)


def test_transformation_law_worked_example():
    # f(-3/2) = f(-3/2 + 2) + c_trop(1) + <lambda(e'), -3/2>
    lhs = TH1.evaluate((F(-3, 2),)).value
    rhs = TH1.evaluate((F(1, 2),)).value + TH1.c_trop((1,)) + 1 * F(-3, 2)
    assert lhs == rhs == F(-1, 2)


def test_c_trop_is_quadratic_with_beta_polarization():
    rng = random.Random(3)
    for theta in (TH2, NP2):
        B = matmul(theta.base.P.entries, theta.factor.Lambda)
        for _ in range(25):
            n1 = tuple(rng.randint(-4, 4) for _ in range(2))
            n2 = tuple(rng.randint(-4, 4) for _ in range(2))
            lhs = (
                theta.c_trop(tuple(a + b for a, b in zip(n1, n2)))
                - theta.c_trop(n1)
                - theta.c_trop(n2)
            )
            rhs = sum(n1[i] * matvec(B, n2)[i] for i in range(2))
            assert lhs == rhs


# ---------- oracle equivalence ----------

def test_evaluate_matches_box_oracle():
    rng = random.Random(17)
    for theta in (TH1, L2):
        for _ in range(12):
            v = (F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])),)
            want_val, want_wits = oracle_evaluate(theta, v, box=30)
            got = theta.evaluate(v)
            assert got.value == want_val
            assert list(got.witnesses) == want_wits
    for theta in (TH2, NP2):
        for _ in range(6):
            v = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(2))
            want_val, want_wits = oracle_evaluate(theta, v, box=12)
            got = theta.evaluate(v)
            assert got.value == want_val
            assert list(got.witnesses) == want_wits
            assert all(abs(x) < 12 for wit in want_wits for x in wit)


def test_extended_w_matches_oracle():
    rng = random.Random(23)
    for theta in FIXTURES:
        for _ in range(20):
            u = tuple(rng.randint(-9, 9) for _ in range(theta.g))
            assert theta.extended_w(u) == oracle_w(theta, u)


# ---------- the integer kernel against a Fraction box scan ----------

# every way a theta's data can need a denominator: fractional P (so P Lam
# has odd numerators over 2), fractional ell and w, an inf entry, a
# non-diagonal Lambda of index 3 (P and Lambda commute, so P Lambda is
# symmetric), and a non-ample theta with a finite support
KERNEL_CASES = {
    "fractional-P": riemann_theta(data_of([[F(3, 2), F(1, 2)], [F(1, 2), 1]], [[1, 0], [0, 1]])),
    "fractional-ell-and-w": TropicalThetaFunction(
        base=D2,
        factor=AutomorphyFactor(Lambda=[[2, 0], [0, 2]], ell=(F(1, 3), F(-3, 4))),
        profile=ValuationProfile(
            entries=(
                ((0, 0), F(1, 5)),
                ((0, 1), F(-2, 3)),
                ((1, 0), F(7, 4)),
                ((1, 1), F(0)),
            )
        ),
    ),
    "inf-entry": NP2,
    "index-3": TropicalThetaFunction(
        base=data_of([[1, F(1, 2)], [F(1, 2), 1]], [[1, 0], [0, 1]]),
        factor=AutomorphyFactor(Lambda=[[2, 1], [1, 2]], ell=(F(1, 2), F(-1, 6))),
        profile=ValuationProfile(
            entries=tuple(
                zip(CosetLattice(((2, 1), (1, 2))).representatives(), (F(0), F(5, 6), INF))
            )
        ),
    ),
    "non-ample": TropicalThetaFunction(
        base=D2,
        factor=AutomorphyFactor(Lambda=[[0, 0], [0, 0]], ell=(F(0), F(0))),
        profile=ValuationProfile(
            entries=(((0, 0), F(1, 2)), ((1, -1), F(-1, 3)), ((-2, 1), INF))
        ),
    ),
}
SCAN = 10  # |n_i| <= SCAN in the box scan


def scan_c_trop(theta, n):
    """(1/2) n^T P Lam n + <ell, n> in Fractions."""
    P, Lam, ell = theta.base.P.entries, theta.factor.Lambda, theta.factor.ell
    lam_n = [sum(a * b for a, b in zip(row, n)) for row in Lam]
    quad = sum(x * sum(p * y for p, y in zip(row, lam_n)) for x, row in zip(n, P))
    return F(1, 2) * quad + sum(e * x for e, x in zip(ell, n))


def terms_below(theta, v, bound):
    """geometry._terms_below at the rational point v and bound: v = V / q
    over its common denominator, and the bound floored over D q, which is
    exact since D q (w(u) + <u, v>) is an integer."""
    q = math.lcm(*(F(c).denominator for c in v))
    V = [int(F(c) * q) for c in v]
    return geometry._terms_below(theta, q, V, math.floor(F(bound) * theta._kernel.D * q))


def box_scan(theta):
    """u -> (w(u), n) for u = rep + Lam n, |n_i| <= SCAN, straight from
    w(rep + Lam n) = w(rep) + (1/2) n^T P Lam n + <ell, n> + n^T P rep in
    Fractions; a non-ample theta is its profile."""
    P, Lam = theta.base.P.entries, theta.factor.Lambda
    table = {}
    box = range(-SCAN, SCAN + 1) if theta.is_ample else range(1)
    for rep, w in theta.profile.entries:
        for n in itertools.product(box, repeat=theta.g):
            u = tuple(r + sum(a * b for a, b in zip(row, n)) for r, row in zip(rep, Lam))
            if w == INF:
                table[u] = (INF, n)
                continue
            pair = sum(x * sum(p * r for p, r in zip(row, rep)) for x, row in zip(n, P))
            table[u] = (w + scan_c_trop(theta, n) + pair, n)
    return table


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_integer_kernel_matches_fraction_box_scan(name):
    theta = KERNEL_CASES[name]
    table = box_scan(theta)
    for u in itertools.product(range(-7, 8), repeat=theta.g):
        if theta.is_ample:
            assert u in table, u  # the scan covers every u of this box
        assert theta.extended_w(u) == table.get(u, (INF,))[0], u
    for n in itertools.product(range(-4, 5), repeat=theta.g):
        assert theta.c_trop(n) == scan_c_trop(theta, n), n

    D = theta._kernel.D
    for v in [(F(-7, 3), F(5, 4)), (F(1, 2), F(-3, 2)), (F(0), F(0)), (F(-5, 2), F(-11, 3))]:
        values = sorted(
            (w + sum(a * b for a, b in zip(u, v)), u)
            for u, (w, _) in table.items()
            if w != INF
        )
        lowest = values[0][0]
        third, u3 = values[min(2, len(values) - 1)]
        sixth = values[min(5, len(values) - 1)][0]
        # bounds equal to a term's value (the test is <=), between values,
        # and below every coset minimum (nothing); every term carries
        # D w(u), D times the scan's w(u), as an int
        for bound in (lowest, third, sixth + F(1, 7), lowest - 1):
            want = sorted((u, D * table[u][0]) for value, u in values if value <= bound)
            assert all(max(map(abs, table[u][1])) < SCAN - 1 for u, _ in want)
            got = terms_below(theta, v, bound)
            assert got == want, (v, bound)
            assert all(type(w) is int for _, w in got)
        assert terms_below(theta, v, lowest - 1) == []
        assert u3 in dict(terms_below(theta, v, third))


# ---------- the competitor sweep against a Fraction brute force ----------

small_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def sweep_cases(draw):
    """(theta, v, offset) for every shape of theta the sweep serves: g <= 3,
    Lam = d I with a fractional symmetric P, or a non-diagonal Lam with
    P = a I + b Lam (so P Lam is symmetric), fractional ell and w, inf
    entries, and non-ample thetas with a finite support."""
    g = draw(st.integers(1, 3))
    unit = [[int(i == j) for j in range(g)] for i in range(g)]
    kinds = ["scalar", "non-ample"] + (["non-diagonal"] if g > 1 else [])
    kind = draw(st.sampled_from(kinds))
    value = st.one_of(small_rationals, st.just(INF))
    if kind == "non-diagonal":
        lam = {2: [[2, 1], [1, 2]], 3: [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}[g]
        a = draw(st.sampled_from([F(1, 2), F(1), F(3, 2)]))
        b = draw(st.sampled_from([F(0), F(1, 3), F(1, 2)]))
        P = [[a * unit[i][j] + b * lam[i][j] for j in range(g)] for i in range(g)]
    else:
        # diagonally dominant, so positive definite
        P = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            P[i][i] = draw(st.sampled_from([F(3, 2), F(2), F(5, 2), F(3)]))
        for i, j in itertools.combinations(range(g), 2):
            P[i][j] = P[j][i] = draw(st.sampled_from([F(-1, 2), F(-1, 3), F(0), F(1, 3), F(1, 2)]))
        d = draw(st.integers(1, 2 if g == 3 else 3))
        lam = [[d * x for x in row] for row in unit]
    if kind == "non-ample":
        reps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * g), min_size=1, max_size=5, unique=True))
        factor = AutomorphyFactor(Lambda=[[0] * g for _ in range(g)], ell=(F(0),) * g)
    else:
        reps = CosetLattice(tuple(map(tuple, lam))).representatives()
        factor = AutomorphyFactor(Lambda=lam, ell=tuple(draw(small_rationals) for _ in range(g)))
    ws = [draw(value) for _ in reps]
    ws[draw(st.integers(0, len(reps) - 1))] = draw(small_rationals)  # one finite value
    theta = TropicalThetaFunction(
        base=data_of(P, unit), factor=factor, profile=ValuationProfile(entries=tuple(zip(reps, ws)))
    )
    v = tuple(draw(st.builds(F, st.integers(-9, 9), st.integers(1, 4))) for _ in range(g))
    return theta, v, draw(st.sampled_from([F(-1), F(0), F(1, 3), F(1), F(5, 2)]))


def brute_terms(theta, v, bound):
    """Every (u, w(u)) with w(u) + <u, v> <= bound, w(u) straight from the
    transformation law in Fractions.  Each coset is scanned over a box that
    holds its sublevel ellipsoid: with B = P Lam, the real minimizer n* of
    its quadratic and r = bound - its real minimum, |n_i - n*_i| <=
    sqrt(2 r (B^-1)_ii) < isqrt(floor(2 r (B^-1)_ii)) + 1."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    if not theta.is_ample:
        return sorted((u, w) for u, w in theta.profile.finite_entries() if w + dot(u, v) <= bound)
    P, Lam, ell = theta.base.P.entries, theta.factor.Lambda, theta.factor.ell
    B = [[dot(row, col) for col in zip(*Lam)] for row in P]
    B_inv = inverse(B)
    out = []
    for rep, w0 in theta.profile.finite_entries():
        lin = [e + dot(row, rep) + dot(col, v) for e, row, col in zip(ell, P, zip(*Lam))]
        center = [-dot(row, lin) for row in B_inv]
        low = w0 + dot(rep, v) + dot(lin, center) / 2
        if bound < low:
            continue
        reach = [math.isqrt(math.floor(2 * (bound - low) * B_inv[i][i])) + 1 for i in range(theta.g)]
        box = [range(math.floor(c - e), math.ceil(c + e) + 1) for c, e in zip(center, reach)]
        for n in itertools.product(*box):
            u = tuple(r + dot(row, n) for r, row in zip(rep, Lam))
            w = w0 + scan_c_trop(theta, n) + dot(n, [dot(row, rep) for row in P])
            if w + dot(u, v) <= bound:
                out.append((u, w))
    return sorted(out)


@given(sweep_cases())
@example((KERNEL_CASES["index-3"], (F(-7, 3), F(5, 4)), F(5, 2)))
@example((KERNEL_CASES["inf-entry"], (F(1, 2), F(-3, 2)), F(1)))
@example((KERNEL_CASES["fractional-ell-and-w"], (F(-5, 2), F(-11, 3)), F(0)))
@example((KERNEL_CASES["non-ample"], (F(1, 3), F(-2)), F(5, 2)))
@example((TH3, (F(1, 2), F(-1, 3), F(7, 4)), F(5, 2)))
@settings(max_examples=60, deadline=None)
def test_terms_below_matches_fraction_brute_force(case):
    # the integer sweep returns every term below the bound with D w(u), D
    # the kernel's denominator, as an int; offsets -1 (nothing), 0 (the
    # minimal terms, ties included) and above
    theta, v, offset = case
    bound = theta.evaluate(v).value + offset
    got = terms_below(theta, v, bound)
    D = theta._kernel.D
    assert got == [(u, D * w) for u, w in brute_terms(theta, v, bound)]
    assert all(type(x) is int for u, w in got for x in (*u, w))
    assert (offset < 0) == (got == [])


@st.composite
def finite_coset_cases(draw):
    """(theta, v) for the ample thetas of `sweep_cases` with more than one
    coset (Lam = 2I, 3I or non-diagonal), every coset finite.  Half of them
    have ell = 0, w = 0 at every rep and v on half integers, where several
    cosets tie."""
    theta, v, _ = draw(sweep_cases().filter(lambda case: case[0].is_ample and case[0]._cosets.index > 1))
    g, reps = theta.g, theta.profile.reps
    tie = draw(st.booleans())
    ws = [F(0) if tie else draw(small_rationals) for _ in reps]
    ell = (F(0),) * g if tie else theta.factor.ell
    if tie:
        v = tuple(F(draw(st.integers(-4, 4)), 2) for _ in range(g))
    factor = AutomorphyFactor(Lambda=theta.factor.Lambda, ell=ell)
    return TropicalThetaFunction(base=theta.base, factor=factor, profile=ValuationProfile(tuple(zip(reps, ws)))), v


# P = I, Lam = 2I, ell = 0 and w = 0: at v = 0 the nine points of
# {-1, 0, 1}^2 tie at 0, in all four cosets
LEVEL2_TIES = TropicalThetaFunction(
    base=data_of([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    factor=AutomorphyFactor(Lambda=[[2, 0], [0, 2]], ell=(0, 0)),
    profile=ValuationProfile(tuple((rep, 0) for rep in itertools.product((0, 1), repeat=2))),
)


@given(finite_coset_cases())
@example((LEVEL2_TIES, (F(0), F(0))))
@example((LEVEL2_TIES, (F(1, 2), F(-1, 2))))
@settings(max_examples=60, deadline=None)
def test_least_terms_match_fraction_brute_force(case):
    # the flat coset loop of _least_terms against `brute_terms`, which has
    # no walk: below evaluate's value the brute force finds no term, and at
    # it every term it finds is a least term, ties between cosets included
    theta, v = case
    D = theta._kernel.D
    value = {(u, w): w + sum(a * b for a, b in zip(u, v)) for u, w in brute_terms(theta, v, theta.evaluate(v).value)}
    low = min(value.values())
    assert low == theta.evaluate(v).value
    q = math.lcm(*(c.denominator for c in v))
    V = [c.numerator * (q // c.denominator) for c in v]
    assert theta._least_terms(q, V) == [(u, D * w) for (u, w), x in value.items() if x == low]


def test_least_terms_keep_ties_between_cosets():
    terms = LEVEL2_TIES._least_terms(1, (0, 0))
    assert terms == [(u, 0) for u in itertools.product((-1, 0, 1), repeat=2)]
    assert {LEVEL2_TIES._cosets.decompose(u)[0] for u, _ in terms} == set(LEVEL2_TIES.profile.reps)


# ---------- profile reps anywhere in their cosets ----------


@given(sweep_cases().filter(lambda case: case[0].is_ample), st.data())
@settings(max_examples=30, deadline=None)
def test_profile_reps_may_be_any_member_of_their_cosets(case, data):
    # each canonical rep moved to rep + Lam m, its w moved by the
    # transformation law (the canonical theta's extended_w): the same theta,
    # value for value, witness for witness and mesh byte for mesh byte; and
    # the same for a Fourier series whose coefficients are given there
    theta, v, _ = case
    g, lam = theta.g, theta.factor.Lambda
    shift = st.tuples(*[st.integers(-3, 3)] * g)
    moved = [
        tuple(r + x for r, x in zip(rep, matvec(lam, data.draw(shift))))
        for rep in theta.profile.reps
    ]
    twin = TropicalThetaFunction(
        base=theta.base,
        factor=theta.factor,
        profile=ValuationProfile(entries=tuple((u, theta.extended_w(u)) for u in moved)),
    )
    point = st.tuples(*[st.builds(F, st.integers(-9, 9), st.integers(1, 4))] * g)
    for x in [v, *data.draw(st.lists(point, min_size=3, max_size=3))]:
        assert twin.evaluate(x) == theta.evaluate(x)
    for u in [*moved, *data.draw(st.lists(shift, min_size=5, max_size=5))]:
        assert twin.extended_w(u) == theta.extended_w(u)
    assert geometry.export_mesh(geometry.corner_locus(twin), "json") == geometry.export_mesh(
        geometry.corner_locus(theta), "json"
    )

    period = PeriodMatrix(entries=tuple(tuple(PuiseuxNumber(((x, F(1)),)) for x in row) for row in theta.base.P.entries))
    coeffs = [
        (rep, PuiseuxNumber.zero() if w == INF else PuiseuxNumber(((w, F(k)), (w + 1, F(1)))))
        for k, (rep, w) in enumerate(theta.profile.entries, 1)
    ]
    f = NAThetaFunction(cocycle=canonical_cocycle(period, lam), coeffs=tuple(coeffs))
    shifted = NAThetaFunction(cocycle=f.cocycle, coeffs=tuple((u, f.coefficient(u)) for u in moved))
    assert shifted.coeffs == f.coeffs



@given(sweep_cases().filter(lambda case: case[0].is_ample), st.data())
@settings(max_examples=40, deadline=None)
def test_least_terms_are_the_witnesses_of_evaluate(case, data):
    # the integer seed of corner_locus: at x = 0 and at other points,
    # _least_terms gives evaluate's witnesses, each with D w(u) as an int,
    # also with profile reps moved off the canonical box and ell moved far
    # from 0 (the coset minima then lie far from n = 0)
    theta, v, _ = case
    g, lam = theta.g, theta.factor.Lambda
    far = data.draw(st.sampled_from([0, 10**6, 10**30]))
    ell = tuple(e + far * data.draw(st.integers(-2, 2)) for e in theta.factor.ell)
    shift = st.tuples(*[st.integers(-3, 3)] * g)
    entries = tuple(
        (tuple(r + x for r, x in zip(rep, matvec(lam, data.draw(shift)))), w) for rep, w in theta.profile.entries
    )
    theta = TropicalThetaFunction(
        base=theta.base, factor=AutomorphyFactor(Lambda=lam, ell=ell), profile=ValuationProfile(entries=entries)
    )
    D = theta._kernel.D
    for x in [(F(0),) * g, v]:
        q = math.lcm(*(c.denominator for c in x))
        V = [c.numerator * (q // c.denominator) for c in x]
        terms = theta._least_terms(q, V)
        res = theta.evaluate(x)
        assert tuple(u for u, _ in terms) == res.witnesses
        assert all(type(n) is int for u, w in terms for n in (*u, w))
        assert all(w == D * theta.extended_w(u) for u, w in terms)
        assert {F(q * w + D * sum(a * b for a, b in zip(u, V)), D * q) for u, w in terms} == {res.value}
    zero = theta._least_terms(1, (0,) * g)
    assert zero[0][0] == theta.evaluate((0,) * g).canonical


def series_of(theta):
    """A Fourier series over q^P whose tropicalization is theta: cocycle
    values q^(ell_i + (P Lam)_ii / 2) and a_rep = q^(w(rep)) (0 for inf)."""
    g, lam = theta.g, theta.factor.Lambda
    P = theta.base.P.entries
    period = PeriodMatrix(entries=tuple(tuple(PuiseuxNumber.monomial(1, x) for x in row) for row in P))
    B = [[sum(P[i][k] * lam[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
    gens = tuple(PuiseuxNumber.monomial(1, e + B[i][i] / 2) for i, e in enumerate(theta.factor.ell))
    coeffs = tuple(
        (rep, PuiseuxNumber.zero() if w == INF else PuiseuxNumber.monomial(1, w)) for rep, w in theta.profile.entries
    )
    return NAThetaFunction(cocycle=NACocycle(period=period, Lambda=lam, generators=gens), coeffs=coeffs)


@given(sweep_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_integer_readers_match_evaluate(case, data):
    # theta(v) and _least(q, V) give evaluate's value and witnesses, and the
    # partial sums of a series tropicalizing to theta give evaluate's value
    # as their minimal valuation and its uniqueness as their dominance: for
    # every kind of theta, with profile reps moved off the canonical box, ell
    # moved far from 0, at points 10^30 away and at ties.  Both paths raise the same
    # errors on a wrong point length, a profile with no finite value, and a
    # cutoff below the minimum
    theta, v, _ = case
    g, lam = theta.g, theta.factor.Lambda
    if theta.is_ample:
        far = data.draw(st.sampled_from([0, 10**30]))
        ell = tuple(e + far * data.draw(st.integers(-2, 2)) for e in theta.factor.ell)
        shift = st.tuples(*[st.integers(-3, 3)] * g)
        entries = tuple(
            (tuple(r + x for r, x in zip(rep, matvec(lam, data.draw(shift)))), w) for rep, w in theta.profile.entries
        )
        theta = TropicalThetaFunction(
            base=theta.base, factor=AutomorphyFactor(Lambda=lam, ell=ell), profile=ValuationProfile(entries=entries)
        )
    f = series_of(theta)
    away = tuple(c + 10**30 * k for c, k in zip(v, data.draw(st.tuples(*[st.integers(-1, 1)] * g))))
    # vertices of v's linearity cell are ties, often across cosets
    ties = list(geometry.linearity_cell(theta, v).vertices[:2]) if theta.evaluate(v).unique else []
    for x in [v, away, *ties]:
        res = theta.evaluate(x)
        assert theta(x) == res.value and theta._least(*_over_common_denominator(x)) == (res.value, res.witnesses)
        if not theta.is_ample:  # evaluate reads _least here too: scan the support in Fractions
            values = {u: w + sum(a * b for a, b in zip(u, x)) for u, w in theta.profile.finite_entries()}
            low = min(values.values())
            assert (res.value, res.witnesses) == (low, tuple(sorted(u for u in values if values[u] == low)))
        point = tuple(PuiseuxNumber.monomial(1, c) for c in x)
        out = evaluate_at_point(f, point)
        assert (out.trop_value, out.dominant_unique) == (res.value, res.unique)
        assert out.terms == len(res.witnesses)
        with pytest.raises(CutoffBelowMinimumError, match=f"below minimal valuation {res.value}$"):
            evaluate_at_point(f, point, res.value - F(1, 7))
    for call in (theta, theta.evaluate, lambda x: evaluate_at_point(f, tuple(PuiseuxNumber.monomial(1, c) for c in x))):
        with pytest.raises(ShapeMismatchError):
            call((*v, F(1)))
    hollow = ValuationProfile(entries=theta.profile.entries)
    object.__setattr__(hollow, "entries", tuple((rep, INF) for rep, _ in hollow.entries))
    empty = TropicalThetaFunction(base=theta.base, factor=theta.factor, profile=hollow)
    for call in (empty, empty.evaluate):
        with pytest.raises(EmptyProfileError):
            call(v)


@given(sweep_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_least_terms_do_not_depend_on_the_scale_of_the_denominator(case, data):
    # the law check hands _least_terms its shifted point over D q, often not
    # in lowest terms: every scale k q of one point gives the same terms, for
    # every kind of theta, with profile reps moved off the canonical box; and
    # each coset's centre, read off the per-theta frame as Z / (a q), is the
    # rational -U^-1 B^-1 L / (D q) for B = P Lam, B^-1 a plain inverse
    theta, v, _ = case
    g, lam = theta.g, theta.factor.Lambda
    if theta.is_ample:
        shift = st.tuples(*[st.integers(-3, 3)] * g)
        entries = tuple(
            (tuple(r + x for r, x in zip(rep, matvec(lam, data.draw(shift)))), w) for rep, w in theta.profile.entries
        )
        theta = TropicalThetaFunction(base=theta.base, factor=theta.factor, profile=ValuationProfile(entries=entries))
    q = math.lcm(*(c.denominator for c in v))
    V = [c.numerator * (q // c.denominator) for c in v]
    centres = []

    def recording(walk, scale, C):
        centres.append((scale, C))
        return argmin(walk, scale, C)

    argmin = theta_module._argmin
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theta_module, "_argmin", recording)
        want = theta._least_terms(q, V)
    for k in range(2, 8):
        assert theta._least_terms(k * q, [k * x for x in V]) == want
    if not theta.is_ample:
        assert centres == []
        return
    _, U_inv, _, _ = theta._form._reduction
    frame = theta._frame
    assert centres == [(frame.a * q, Z) for *_, Z in theta._coset_centres(q, V)]
    B_inv = inverse(matmul(theta.base.P.entries, lam))
    for (scale, C), (*_, L, _) in zip(centres, theta._coset_quadratics(q, V), strict=True):
        BL = matvec(B_inv, L)
        old = [-sum(x * y for x, y in zip(row, BL)) / (theta._kernel.D * q) for row in U_inv]
        assert [F(x, scale) for x in C] == old


@given(sweep_cases())
@settings(max_examples=40, deadline=None)
def test_both_coset_queries_share_one_centre(case):
    # at one point, the centre of each coset that the least terms hand
    # lattice._argmin (in reduced coordinates m, over a q) and the centre
    # that the terms below a bound hand lattice.enumerate_below are one
    # point n = U m; the bound is the largest coset minimum, so every coset
    # is enumerated
    theta, v, _ = case
    if not theta.is_ample:
        return
    q = math.lcm(*(c.denominator for c in v))
    V = [c.numerator * (q // c.denominator) for c in v]
    least, below = [], []

    def recording_argmin(walk, scale, C):
        out = argmin(walk, scale, C)
        least.append(([F(x, scale) for x in C], out[1][0]))
        return out

    def recording_enumerate(B, center, radius):
        below.append(tuple(center))
        return enumerate_below(B, center, radius)

    argmin, enumerate_below = theta_module._argmin, geometry.enumerate_below
    D = theta._kernel.D
    U = theta._form._reduction[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theta_module, "_argmin", recording_argmin)
        mp.setattr(geometry, "enumerate_below", recording_enumerate)
        theta._least_terms(q, V)
        # each coset's minimum, at the first winner the walk returned for it
        minima = [
            q * w_u + D * sum(x * y for x, y in zip(u, V))
            for (rep, (w, base)), (_, m) in zip(theta._coset_constants.items(), least, strict=True)
            for u, w_u in theta._coset_terms(rep, w, base, [[sum(x * y for x, y in zip(row, m)) for row in U]])
        ]
        geometry._terms_below(theta, q, V, max(minima))
    assert len(least) == len(theta._coset_constants)
    assert below == [tuple(sum(x * y for x, y in zip(row, m)) for row in U) for m, _ in least]


@pytest.mark.parametrize("g, level, calls, nodes", [(1, 1, 48, 96), (1, 2, 48, 96), (2, 1, 48, 144), (2, 2, 48, 160)])
def test_walk_nodes_per_least_terms(walk_nodes, count_calls, g, level, calls, nodes):
    # machine-independent gate on the shapes of the nonarch benchmark: the
    # transformation-law check of a Riemann series (Lam = I) and of a level-2
    # basis series (Lam = 2I, one finite coset) at g = 1 and 2, counting its
    # _least_terms calls and the nodes that the nearest-first walk of
    # lattice._argmin enters.  A walk with one finite coset enters at least
    # g + 1 nodes per call, one per level and a leaf: 2, 2, 3 and 3.33 here
    period = seeded_period(g, 7)
    lam = [[level * int(i == j) for j in range(g)] for i in range(g)]
    f = build_riemann_theta(period, lam) if level == 1 else theta_basis(period, canonical_cocycle(period, lam))[-1]
    trop = tropicalize(f)
    least = count_calls(theta_module.TropicalThetaFunction._least_terms)
    del walk_nodes[:]
    assert verify_transformation(trop, sample_points(g, 6, 5), sample_shifts(g, 7, 6)).ok
    assert (len(least), len(walk_nodes)) == (calls, nodes)


def test_one_form_per_theta(count_calls):
    # machine-independent gate: a theta holds its form once, as the kernel's
    # integer K = D P Lam, and reduces that one form once: across building a
    # fresh theta, its values, the law check and its divisor, the reduction
    # sees K alone and LLL runs once
    case = KERNEL_CASES["index-3"]
    lattice._reduced.cache_clear()
    forms, reductions = count_calls(lattice._reduced), count_calls(lattice.lll_reduce)
    theta = TropicalThetaFunction(base=case.base, factor=case.factor, profile=case.profile)
    point = (F(-7, 3), F(5, 4))
    assert theta(point) == theta.evaluate(point).value
    assert verify_transformation(theta, [point, (F(1, 2), F(-3, 2))]).ok
    assert geometry.corner_locus(theta).cells
    assert forms == [(theta._kernel.B,)]
    assert len(reductions) == 1


def test_automorphy_data_takes_vectors_of_the_rank(count_calls):
    # c_trop, extended_w and the law check raise on a shift, lattice point or
    # sample of another length (zip used to truncate, or an index ran past the
    # end); is_ample is read once per theta
    for call, x in [(TH2.c_trop, (1, 2, 3)), (TH2.c_trop, ()), (TH2.extended_w, (1, 2, 3)), (TH2.extended_w, (1,))]:
        with pytest.raises(ShapeMismatchError):
            call(x)
    point = (F(1, 3), F(-1, 2))
    for samples, shifts in [([point], [(1, 0, 0)]), ([point], [(1,)]), ([(F(1, 3),)], [(1, 0)]), ([(*point, F(0))], None)]:
        with pytest.raises(ShapeMismatchError):
            verify_transformation(TH2, samples, shifts)
    theta = TropicalThetaFunction(base=NP2.base, factor=NP2.factor, profile=NP2.profile)
    calls = count_calls(AutomorphyFactor.lambda_is_zero)
    assert verify_transformation(theta, [point, (F(0), F(2, 3))]).ok
    assert theta.is_ample and len(calls) == 1


# ---------- invariants ----------

def rational_grid(g, count, seed, span=6):
    rng = random.Random(seed)
    return [
        tuple(F(rng.randint(-span * 4, span * 4), rng.choice([1, 2, 3, 4, 5])) for _ in range(g))
        for _ in range(count)
    ]


def test_quasi_periodicity_grid():
    shift_range = [n for n in itertools.product((-3, -1, 0, 1, 2, 3), repeat=1)]
    report = verify_transformation(TH1, rational_grid(1, 50, seed=1), shifts=shift_range)
    assert report.ok and report.checked == 300

    for theta in (TH2, NP2, L2):
        report = verify_transformation(theta, rational_grid(theta.g, 12, seed=2))
        assert report.ok


def test_transformation_fails_for_corrupted_profile():
    broken = TropicalThetaFunction(
        base=D1,
        factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
        profile=ValuationProfile(entries=(((0,), F(0)), ((1,), F(1, 2)))),
    )
    # same data but with ell inconsistent with the profile it was built for
    skewed = TropicalThetaFunction(
        base=broken.base,
        factor=AutomorphyFactor(Lambda=[[2]], ell=(F(1, 3),)),
        profile=broken.profile,
    )
    # the law still holds for skewed (it is a theta for its own factor)...
    assert verify_transformation(skewed, rational_grid(1, 8, seed=3)).ok
    # ...but checking skewed's samples against broken's factor must fail
    wrong = [
        v
        for v in rational_grid(1, 8, seed=3)
        if broken.evaluate(v).value != skewed.evaluate(v).value
    ]
    assert wrong  # the two functions genuinely differ


def test_piecewise_affine_on_segments():
    # exact subdivision of a segment at witness changes, then interpolation
    rng = random.Random(31)
    for theta in (TH1, TH2, L2):
        for _ in range(6):
            a = tuple(F(rng.randint(-10, 10), 3) for _ in range(theta.g))
            b = tuple(F(rng.randint(-10, 10), 3) for _ in range(theta.g))
            if a == b:
                continue
            for lo, hi, witness in affine_pieces(theta, a, b):
                w = theta.extended_w(witness)
                for s in (lo, (lo + hi) / 2, hi):
                    p = point_on(a, b, s)
                    assert theta.evaluate(p).value == w + sum(
                        F(x) * y for x, y in zip(witness, p)
                    )


def point_on(a, b, s):
    return tuple(x + s * (y - x) for x, y in zip(a, b))


def affine_pieces(theta, a, b, lo=F(0), hi=F(1), depth=0):
    """Exact piece decomposition of f along [a,b]: if one witness serves both
    endpoints, concavity of a min of affines makes the piece affine."""
    assert depth < 60, "subdivision failed to terminate"
    wa = theta.evaluate(point_on(a, b, lo)).witnesses
    wb = theta.evaluate(point_on(a, b, hi)).witnesses
    common = sorted(set(wa) & set(wb))
    if common:
        return [(lo, hi, common[0])]
    # find the crossing parameter of the two endpoint forms
    u1, u2 = wa[0], wb[0]
    c1, c2 = theta.extended_w(u1), theta.extended_w(u2)
    pa, pb = point_on(a, b, lo), point_on(a, b, hi)
    d = tuple(y - x for x, y in zip(pa, pb))
    slope1 = sum(F(x) * y for x, y in zip(u1, d))
    slope2 = sum(F(x) * y for x, y in zip(u2, d))
    base1 = c1 + sum(F(x) * y for x, y in zip(u1, pa))
    base2 = c2 + sum(F(x) * y for x, y in zip(u2, pa))
    if slope1 == slope2:
        mid = (lo + hi) / 2
    else:
        s = (base1 - base2) / (slope2 - slope1)  # in [0,1] units of [pa,pb]
        mid = lo + s * (hi - lo)
        if not (lo < mid < hi):
            mid = (lo + hi) / 2
    return affine_pieces(theta, a, b, lo, mid, depth + 1) + affine_pieces(
        theta, a, b, mid, hi, depth + 1
    )


# ---------- translation ----------

def test_translate_matches_shifted_evaluation():
    rng = random.Random(37)
    for theta in (TH1, TH2, NP2):
        v0 = tuple(F(rng.randint(-6, 6), 2) for _ in range(theta.g))
        shifted = theta.translate(v0)
        for v in rational_grid(theta.g, 10, seed=41):
            assert shifted.evaluate(v).value == theta.evaluate(
                tuple(a + b for a, b in zip(v, v0))
            ).value


def test_translate_updates_factor():
    v0 = (F(1, 2), F(-1, 3))
    shifted = TH2.translate(v0)
    assert shifted.factor.ell == tuple(matvec(transpose(TH2.factor.Lambda), v0))
    assert shifted.factor.Lambda == TH2.factor.Lambda


# ---------- evenness ----------

def test_evenness():
    assert is_even(TH1) and is_even(TH2) and is_even(TH3)
    assert not is_even(TH1.translate((F(1, 3),)))
    rng = random.Random(43)
    for theta in (TH1, TH2):
        for _ in range(10):
            v = tuple(F(rng.randint(-9, 9), 2) for _ in range(theta.g))
            assert theta.evaluate(v).value == theta.evaluate(tuple(-x for x in v)).value


# ---------- lambda = 0 ----------

def zero_factor(g):
    return AutomorphyFactor(
        Lambda=tuple(tuple(0 for _ in range(g)) for _ in range(g)),
        ell=tuple(F(0) for _ in range(g)),
    )


def test_lambda_zero_constant():
    theta = TropicalThetaFunction(
        base=D1,
        factor=zero_factor(1),
        profile=ValuationProfile(entries=(((0,), F(0)),)),
    )
    for v in rational_grid(1, 10, seed=47):
        r = theta.evaluate(v)
        assert r.value == 0 and r.witnesses == ((0,),)


def test_lambda_zero_finite_support_min():
    theta = TropicalThetaFunction(
        base=D1,
        factor=zero_factor(1),
        profile=ValuationProfile(entries=(((0,), F(0)), ((2,), F(-1)))),
    )
    # min(0, -1 + 2v): breakpoint at v = 1/2
    assert theta.evaluate((F(0),)).value == -1
    assert theta.evaluate((F(1),)).value == 0
    assert theta.evaluate((F(1, 2),)).witnesses == ((0,), (2,))


def test_lambda_zero_requires_trivial_factor():
    with pytest.raises(ShapeMismatchError):
        TropicalThetaFunction(
            base=D1,
            factor=AutomorphyFactor(Lambda=[[0]], ell=(F(1),)),
            profile=ValuationProfile(entries=(((0,), F(0)),)),
        )


def test_empty_profile_rejected():
    with pytest.raises(EmptyProfileError):
        ValuationProfile(entries=(((0,), INF),))


# ---------- construction errors ----------

def test_riemann_requires_principal():
    with pytest.raises(NotPrincipalError):
        riemann_theta(data_of([[2]], [[2]]))


def test_indefinite_form_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        TropicalThetaFunction(
            base=data_of([[1, 2], [2, 1]], [[1, 0], [0, 1]]),
            factor=AutomorphyFactor(Lambda=[[1, 0], [0, 1]], ell=(F(0), F(0))),
            profile=ValuationProfile(entries=(((0, 0), F(0)),)),
        )


def test_profile_coset_count_enforced():
    with pytest.raises(ShapeMismatchError):
        TropicalThetaFunction(
            base=D1,
            factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
            profile=ValuationProfile(entries=(((0,), F(0)),)),
        )
    with pytest.raises(ShapeMismatchError):
        TropicalThetaFunction(
            base=D1,
            factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
            profile=ValuationProfile(entries=(((0,), F(0)), ((2,), F(1)))),
        )


# ---------- expressions ----------

def test_expression_automorphy_cancellation():
    w = (F(1, 2), F(1, 3))
    neg_w = tuple(-x for x in w)
    expr = TropicalThetaExpression(
        terms=((1, w, TH2), (1, neg_w, TH2), (-2, (F(0), F(0)), TH2))
    )
    total = expression_automorphy(expr)
    assert total.is_zero()
    h = difference_to_periodic(expr)
    assert h.check_periodicity(rational_grid(2, 10, seed=53)).ok


@seed(36)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expression_sums_terms_over_mixed_denominators(data):
    # the expression reads every term's value over one denominator: it must
    # equal the sum of the terms' Fraction paths (evaluate), with a theta
    # beside its own translate (a different kernel D), a lambda = 0 term and
    # shifts over mixed denominators
    g = data.draw(st.sampled_from([1, 2]))
    theta = data.draw(st.sampled_from([TH1, L2] if g == 1 else [TH2, NP2]))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    vec = st.tuples(*[rational] * g)
    moved = theta.translate(data.draw(vec))
    support = st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * g), rational), min_size=1, max_size=3, unique_by=lambda e: e[0])
    flat = TropicalThetaFunction(base=theta.base, factor=zero_factor(g), profile=ValuationProfile(entries=tuple(data.draw(support))))
    thetas = data.draw(st.permutations([theta, moved, flat])) + data.draw(st.lists(st.sampled_from([theta, moved, flat]), max_size=2))
    terms = tuple((data.draw(st.integers(-3, 3)), data.draw(vec), t) for t in thetas)
    v = data.draw(vec)
    want = sum(m * t.evaluate(tuple(a + b for a, b in zip(v, s))).value for m, s, t in terms)
    assert TropicalThetaExpression(terms).evaluate(v) == want


def test_expression_residual_factor_reported():
    expr = TropicalThetaExpression(
        terms=((1, (F(1, 2),), TH1), (-1, (F(0),), TH1))
    )
    with pytest.raises(NonzeroAutomorphyError) as info:
        difference_to_periodic(expr)
    # residual Lambda cancels, residual ell = Lambda^T (1/2) = 1/2
    assert info.value.factor.lambda_is_zero()
    assert info.value.factor.ell == (F(1, 2),)


def test_expression_base_mismatch():
    with pytest.raises(IncompatibleError):
        TropicalThetaExpression(terms=((1, (F(0),), TH1), (1, (F(0), F(0)), TH2)))


def test_level_n_function_and_kummer():
    w = (F(3, 4),)
    h = level_n_function(TH1, [w, tuple(-x for x in w)])
    samples = rational_grid(1, 20, seed=59)
    assert h.check_periodicity(samples).ok
    assert kummer_check(h, samples).ok

    h2 = level_n_function(TH2, [(F(1), F(1, 2)), (F(-1), F(-1, 2))])
    samples2 = rational_grid(2, 8, seed=61)
    assert h2.check_periodicity(samples2).ok
    assert kummer_check(h2, samples2).ok

    # the Riemann theta with its one profile rep given at 2 = 0 + Lam 2
    moved = TropicalThetaFunction(base=D1, factor=TH1.factor, profile=ValuationProfile(entries=(((2,), TH1.extended_w((2,))),)))
    h3 = level_n_function(moved, [w, tuple(-x for x in w)])
    assert [h3(v) for v in samples] == [h(v) for v in samples]


def test_periodicity_over_a_rational_pairing():
    # with P over a denominator p > 1 the shifted side is an integer pair
    # over p times the sample's denominator, so the two sides are compared
    # across different denominators
    theta = riemann_theta(data_of([[F(5, 2), F(1, 3)], [F(1, 3), F(3, 2)]], [[1, 0], [0, 1]]))
    h = level_n_function(theta, [(F(1, 2), F(1, 5)), (F(-1, 2), F(-1, 5))])
    samples = rational_grid(2, 8, seed=71)
    report = h.check_periodicity(samples)
    assert report.ok and report.checked == 8 * 8
    for v in samples[:3]:
        assert {h(tuple(a + b for a, b in zip(v, embed_Mprime(theta.base, n)))) for n in default_shifts(2)} == {h(v)}


def test_level_n_shift_sum_enforced():
    with pytest.raises(ShiftsDoNotSumToZeroError):
        level_n_function(TH1, [(F(1),), (F(1),)])
    with pytest.raises(NotPrincipalError):
        level_n_function(L2, [(F(1),), (F(-1),)])


def test_level_3_function_periodic():
    shifts = [(F(1, 3),), (F(1, 3),), (F(-2, 3),)]
    h = level_n_function(TH1, shifts)
    assert h.check_periodicity(rational_grid(1, 15, seed=67)).ok


def test_kummer_rejects_uneven_theta():
    shifted = TH1.translate((F(1, 5),))
    expr = TropicalThetaExpression(terms=((1, (F(0),), shifted), (-1, (F(0),), shifted)))
    h = difference_to_periodic(expr)
    with pytest.raises(IncompatibleError):
        kummer_check(h, [(F(0),)])


# ---------- serialization ----------

def test_theta_json_roundtrip():
    for theta in (TH1, TH2, NP2, L2):
        data = theta.to_json_dict()
        again = TropicalThetaFunction.from_json_dict(data)
        assert again == theta
    # infinite entries survive the roundtrip as "inf"
    blob = NP2.to_json_dict()
    assert any(e["w"] == "inf" for e in blob["profile"])
