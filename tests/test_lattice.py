"""Lattice minimization tests.

Expected values for the worked examples were frozen from the brute-force
oracles below (plain box scans in exact arithmetic); the oracles run in the
tests as well so the frozen values stay honest.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from troptheta import lattice
from troptheta.lattice import (
    CosetLattice,
    GramForm,
    NegativeRadiusError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    enumerate_below,
    ldlt_decompose,
    lll_reduce,
    _column_hnf,
    minimize_quadratic,
)
from troptheta.linalg import (
    RatMatrix,
    ShapeMismatchError,
    det,
    identity,
    inverse,
    matmul,
    matvec,
    rows_from,
    transpose,
    vecdot,
)
from troptheta.theta import AutomorphyFactor, TropicalThetaFunction, ValuationProfile, riemann_theta
from troptheta.varieties import TropicalPolarizationData

F = Fraction


# ---------- oracles ----------

def _scaled(values):
    """The values as int64 numerators over one common denominator."""
    den = math.lcm(*(F(v).denominator for v in values))
    return np.array([int(F(v) * den) for v in values], dtype=np.int64), den


def _box(g, box, bound):
    """The box |n_i| <= box as int64 rows, once bound (a Python int bounding
    every intermediate of the caller's scan) shows int64 cannot overflow."""
    assert bound < 2**63, "box scan would overflow int64"
    return np.array(list(itertools.product(range(-box, box + 1), repeat=g)))


def brute_minimum(B, ell, c0=F(0), box=12):
    """Exhaustive scan of the box |n_i| <= box.  Independent of the package
    internals on purpose: no factorization, just the quadratic in exact
    integers, 2 den q(n) = n^T (den B) n + 2 <den ell, n> + 2 den c0."""
    g = len(B)
    flat, den = _scaled([*(x for row in B for x in row), *ell, c0])
    Bn, ln, cn = flat[: g * g].reshape(g, g), flat[g * g : -1], int(flat[-1])
    top = int(np.abs(flat).max())
    n = _box(g, box, (g * box) ** 2 * top + 2 * g * box * top + 2 * top)
    vals = np.einsum("ki,ij,kj->k", n, Bn, n) + 2 * (n @ ln) + 2 * cn
    best = int(vals.min())
    return F(best, 2 * den), sorted(tuple(map(int, m)) for m in n[vals == best])


def brute_ball(B, center, radius, box=12):
    """Every n in the box with (1/2)(n - c)^T B (n - c) <= radius, tested in
    exact integers: for B = Bn/db and c = cn/dc that is
    rd (dc n - cn)^T Bn (dc n - cn) <= rn for rn/rd = 2 db dc^2 radius."""
    g = len(B)
    flat, db = _scaled([x for row in B for x in row])
    cn, dc = _scaled(center)
    r = 2 * db * dc * dc * F(radius)
    reach = dc * box + int(np.abs(cn).max())  # bounds |dc n_i - cn_i|
    quad_top = (g * reach) ** 2 * int(np.abs(flat).max()) * r.denominator
    n = _box(g, box, max(quad_top, abs(r.numerator)))
    d = dc * n - cn
    vals = np.einsum("ki,ij,kj->k", d, flat.reshape(g, g), d) * r.denominator
    return sorted(tuple(map(int, m)) for m in n[vals <= r.numerator])


def random_pd(rng, g, denoms=(1, 2, 3, 4)):
    """Random symmetric strictly diagonally dominant matrix: always PD."""
    a = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i):
            a[i][j] = a[j][i] = F(rng.randint(-4, 4), rng.choice(denoms))
    for i in range(g):
        a[i][i] = sum(abs(a[i][j]) for j in range(g) if j != i) + F(rng.randint(1, 5))
    return tuple(tuple(r) for r in a)


# ---------- ldlt ----------

def test_ldlt_worked_example():
    L, D = ldlt_decompose([[2, 1], [1, 2]])
    assert L.entries == ((F(1), F(0)), (F(1, 2), F(1)))
    assert D == (F(2), F(3, 2))


def test_ldlt_recomposes_exactly():
    rng = random.Random(7)
    for _ in range(40):
        g = rng.randint(1, 4)
        B = random_pd(rng, g)
        L, D = ldlt_decompose(B)
        Dm = tuple(tuple(D[i] if i == j else F(0) for j in range(g)) for i in range(g))
        back = matmul(matmul(L.entries, Dm), transpose(L.entries))
        assert back == B


def test_ldlt_reports_first_bad_pivot():
    with pytest.raises(NotPositiveDefiniteError) as info:
        ldlt_decompose([[1, 2], [2, 1]])
    assert info.value.pivot_index == 2
    with pytest.raises(NotPositiveDefiniteError) as info:
        ldlt_decompose([[0, 0], [0, 1]])
    assert info.value.pivot_index == 1


def test_ldlt_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        ldlt_decompose([[1, 2], [0, 1]])


def test_gram_form_shape_checks():
    with pytest.raises(ShapeMismatchError):
        GramForm(RatMatrix(((F(1), F(0)),)))
    with pytest.raises(NotSymmetricError):
        GramForm(RatMatrix(((F(1), F(2)), (F(0), F(1)))))
    assert GramForm(RatMatrix(((F(2), F(1)), (F(1), F(2))))).is_positive_definite()
    assert not GramForm(RatMatrix(((F(1), F(2)), (F(2), F(1))))).is_positive_definite()


# ---------- lll ----------

def _check_reduced(G):
    g = len(G)
    L, D = ldlt_decompose(G)
    for k in range(1, g):
        for j in range(k):
            assert 2 * abs(L[k, j]) <= 1
        assert D[k] >= (F(3, 4) - L[k, k - 1] ** 2) * D[k - 1]


def test_lll_worked_examples():
    U, G = lll_reduce([[2, 1], [1, 2]])
    assert U == ((1, 0), (0, 1))
    assert G.entries == ((F(2), F(1)), (F(1), F(2)))

    U, G = lll_reduce([[5, 4], [4, 5]])
    assert G[0, 0] <= 5
    _check_reduced(G.entries)


def test_lll_congruence_and_unimodularity():
    from troptheta.linalg import int_det

    rng = random.Random(11)
    for _ in range(30):
        g = rng.randint(2, 4)
        B = random_pd(rng, g)
        # skew the form so reduction has work to do
        S = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
        for i in range(g - 1):
            S[i][i + 1] = rng.randint(-3, 3)
        Bs = matmul(matmul(transpose(S), B), S)
        U, G = lll_reduce(Bs)
        assert abs(int_det(U)) == 1
        assert matmul(matmul(transpose(U), Bs), U) == G.entries
        _check_reduced(G.entries)


def test_lll_preserves_minimum():
    rng = random.Random(13)
    for _ in range(20):
        g = rng.randint(2, 3)
        B = random_pd(rng, g)
        ell = tuple(F(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(g))
        U, G = lll_reduce(B)
        direct = minimize_quadratic(B, ell)
        via = minimize_quadratic(G, matvec(transpose(U), ell))
        assert direct.value == via.value
        assert sorted(tuple(int(x) for x in matvec(U, m)) for m in via.argmin) == list(
            direct.argmin
        )


# ---------- the integral reduction against Fraction references ----------

def reference_ldlt(rows):
    """The Fraction LDL^T that `_gso` replaced: (L, D), raising
    NotPositiveDefiniteError at the first nonpositive pivot."""
    g = len(rows)
    L = [[F(0)] * g for _ in range(g)]
    D = [F(0)] * g
    for j in range(g):
        d = rows[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if d <= 0:
            raise NotPositiveDefiniteError(j + 1)
        D[j] = d
        L[j][j] = F(1)
        for i in range(j + 1, g):
            L[i][j] = (rows[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / d
    return L, D


def reference_lll(rows):
    """The Fraction LLL that the integral one replaced: the whole LDL^T is
    recomputed after every size-reduction step, and delta = 3/4.  Returns
    U."""
    g = len(rows)
    G = [[F(x) for x in r] for r in rows]
    U = [list(r) for r in identity(g)]
    k = 1
    while k < g:
        L, D = reference_ldlt(G)
        for j in range(k - 1, -1, -1):
            mu = L[k][j]
            if 2 * abs(mu) > 1:
                m = round(mu)
                for i in range(g):
                    U[i][k] -= m * U[i][j]
                    G[i][k] -= m * G[i][j]
                for i in range(g):
                    G[k][i] -= m * G[j][i]
                L, D = reference_ldlt(G)
        if D[k] >= (F(3, 4) - L[k][k - 1] ** 2) * D[k - 1]:
            k += 1
        else:
            for row in U:
                row[k], row[k - 1] = row[k - 1], row[k]
            for row in G:
                row[k], row[k - 1] = row[k - 1], row[k]
            G[k], G[k - 1] = G[k - 1], G[k]
            k = max(k - 1, 1)
    return tuple(map(tuple, U))


def sheared_sum_form(g, seed):
    """V^T (I + J) V, V the product of 3g seeded column operations
    col_i += m col_j with |m| <= 3."""
    rng = random.Random(seed)
    V = [list(r) for r in identity(g)]
    for _ in range(3 * g):
        i, j = rng.sample(range(g), 2)
        m = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in V:
            row[i] += m * row[j]
    I_J = [[2 if i == j else 1 for j in range(g)] for i in range(g)]
    return tuple(tuple(F(x) for x in r) for r in matmul(transpose(V), matmul(I_J, V)))


@st.composite
def sheared_forms(draw):
    """S^T A S for g <= 8: A diagonally dominant with fractional
    off-diagonal entries, S a product of up to 2g column operations whose
    multipliers reach 1000."""
    g = draw(st.integers(2, 8))
    A = [[F(0)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i):
            A[i][j] = A[j][i] = F(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 2, 3, 5))))
    for i in range(g):
        A[i][i] = sum(abs(A[i][j]) for j in range(g) if j != i) + F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    S = [list(r) for r in identity(g)]
    multipliers = st.one_of(st.integers(-3, 3), st.integers(-1000, 1000))
    for i, j, m in draw(st.lists(st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), multipliers), max_size=2 * g)):
        if i != j:
            for row in S:
                row[i] += m * row[j]
    return matmul(transpose(S), matmul(A, S))


@given(sheared_forms())
@example(sheared_sum_form(16, 16))
@settings(max_examples=40, deadline=None)
def test_lll_matches_the_fraction_reference(B):
    # the integral LLL takes the same steps as the Fraction one, in the same
    # order, so it returns the same basis
    U, G = lll_reduce(B)
    assert U == reference_lll(B)
    assert G.entries == matmul(matmul(transpose(U), B), U)


@given(sheared_forms(), st.integers(0, 2**32))
@example(sheared_sum_form(16, 16), 0)
@settings(max_examples=20, deadline=None)
def test_reduction_and_argmin_do_not_depend_on_the_scale_of_the_form(B, seed):
    # a theta reduces its form over the kernel's denominator D, D P Lam, in
    # place of P Lam: scaling a form by c > 0 changes neither the basis LLL
    # returns, nor any argmin, nor any point below a bound scaled with it
    rng = random.Random(seed)
    g = len(B)
    ell = [F(rng.randint(-99, 99), rng.choice((1, 2, 3, 7))) for _ in range(g)]
    c0 = F(rng.randint(-9, 9), rng.choice((1, 4)))
    centre = [F(rng.randint(-30, 30), rng.choice((1, 2, 5))) for _ in range(g)]
    U, G = lll_reduce(B)
    least = minimize_quadratic(B, ell, c0)
    # the nearest lattice points to the centre lie at distance radius from it
    radius = minimize_quadratic(B, [-x for x in matvec(B, centre)]).value + _objective_value(B, [0] * g, 0, centre)
    points = enumerate_below(B, centre, radius)
    assert points
    for c in (2, 6, F(1, 3)):
        cB = [[c * x for x in row] for row in B]
        assert lll_reduce(cB) == (U, RatMatrix([[c * x for x in row] for row in G.entries]))
        scaled = minimize_quadratic(cB, [c * x for x in ell], c * c0)
        assert (scaled.value, scaled.argmin) == (c * least.value, least.argmin)
        assert enumerate_below(cB, centre, c * radius) == points


def test_pivot_index_matches_the_fraction_reference():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        g = rng.randint(1, 5)
        A = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1):
                A[i][j] = A[j][i] = F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        try:
            reference_ldlt(A)
        except NotPositiveDefiniteError as exc:
            expected = exc.pivot_index
        else:
            continue
        for call in (lattice._gso, ldlt_decompose, lll_reduce, lambda B: minimize_quadratic(B, [0] * g)):
            with pytest.raises(NotPositiveDefiniteError) as info:
                call(A)
            assert info.value.pivot_index == expected
        checked += 1
    assert checked > 100


def test_one_factorization_per_reduction(monkeypatch):
    # machine-independent gate: lll_reduce factors the form once and keeps
    # the factorization current in place; it never recomputes it
    gso, calls = lattice._gso, []

    def counting_gso(rows):
        calls.append(rows)
        return gso(rows)

    def no_ldlt(*args):
        raise AssertionError("lll_reduce read the Fraction LDL^T")

    monkeypatch.setattr(lattice, "_gso", counting_gso)
    monkeypatch.setattr(lattice, "_ldlt", no_ldlt)
    for B in (sheared_sum_form(8, 8), sheared_sum_form(12, 12), [[2, 3], [3, 7]]):
        del calls[:]
        lll_reduce(B)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "P, Lam",
    [
        ([[2, 1], [1, 2]], [[1, 0], [0, 1]]),
        ([[2, 3], [3, 7]], [[1, 0], [0, 1]]),
        ([["1/2", "1/3"], ["1/3", "5/4"]], [[2, 0], [0, 2]]),
        ([[2, 3, 0], [3, 7, 1], [0, 1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[1, 0], [0, 1]], [[2, 1], [1, 3]]),
    ],
)
def test_each_inverse_of_a_reduction_is_the_inverse(P, Lam):
    # the one inverse that a reduction keeps, U G^-1, and U^-1 equal a plain
    # Fraction inverse of their matrices, and so do G^-1 and B^-1 = U G^-1 U^T
    # read off it, and the divisor's region frame M^-1
    g = len(P)
    theta = TropicalThetaFunction(
        base=TropicalPolarizationData(g=g, P=RatMatrix(rows_from(P)), Lambda=Lam),
        factor=AutomorphyFactor(Lambda=Lam, ell=(0,) * g),
        profile=ValuationProfile(entries=tuple((r, 0) for r in CosetLattice(Lam).representatives())),
    )
    B = matmul(rows_from(P), Lam)
    lattice._reduced.cache_clear()
    U, U_inv, _, (UA, ua) = lattice._reduced(lattice._gram_rows(B))
    G = matmul(transpose(U), matmul(B, U))
    assert U_inv == tuple(tuple(int(x) for x in r) for r in inverse(U))
    assert ua > 0
    UG_inv = tuple(tuple(F(x, ua) for x in r) for r in UA)
    assert UG_inv == matmul(U, inverse(G))
    assert matmul(U_inv, UG_inv) == inverse(G)
    assert matmul(UG_inv, transpose(U)) == inverse(B)
    frame = theta._frame
    assert frame.a > 0 and tuple(tuple(F(x, frame.a) for x in r) for r in frame.A) == inverse(frame.M)


# ---------- minimize_quadratic ----------

def test_minimize_worked_examples():
    r = minimize_quadratic([[2]], [F(-3, 2)])
    assert (r.value, r.argmin) == (F(-1, 2), ((1,),))
    assert r.canonical == (1,)

    r = minimize_quadratic([[2, 1], [1, 2]], [-2, -1])
    assert (r.value, r.argmin) == (F(-1), ((1, 0),))


def test_minimize_tie_returns_full_argmin_set():
    # f(n) = n^2 - n has the two minimizers 0 and 1
    r = minimize_quadratic([[2]], [-1])
    assert r.value == 0
    assert r.argmin == ((0,), (1,))
    assert r.canonical == (0,)


def test_minimize_constant_term_shifts_value_only():
    r0 = minimize_quadratic([[2, 0], [0, 2]], [1, -3])
    r1 = minimize_quadratic([[2, 0], [0, 2]], [1, -3], c0=F(7, 3))
    assert r1.value - r0.value == F(7, 3)
    assert r1.argmin == r0.argmin


def test_minimize_matches_brute_force():
    rng = random.Random(2024)
    for _ in range(60):
        g = rng.randint(1, 3)
        B = random_pd(rng, g)
        ell = tuple(F(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(g))
        got = minimize_quadratic(B, ell)
        want_val, want_arg = brute_minimum(B, ell)
        assert got.value == want_val
        assert list(got.argmin) == want_arg
        # the box scan must have been wide enough to certify the argmin set
        assert all(abs(x) < 12 for m in want_arg for x in m)


def test_box_scans_match_fraction_loops():
    # the integer scans above against the plain Fraction loops they replace,
    # on a small box
    rng = random.Random(31)
    for _ in range(30):
        g = rng.randint(1, 3)
        B = random_pd(rng, g)
        ell = tuple(F(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(g))
        c0 = F(rng.randint(-5, 5), rng.choice([1, 2, 7]))
        center = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(g))
        radius = F(rng.randint(0, 30), rng.choice([1, 2, 5]))
        box = list(itertools.product(range(-3, 4), repeat=g))

        def q(n, c=(0,) * g):
            d = [F(x) - F(y) for x, y in zip(n, c)]
            return F(1, 2) * sum(d[i] * B[i][j] * d[j] for i in range(g) for j in range(g))

        vals = {n: q(n) + sum(F(e) * x for e, x in zip(ell, n)) + c0 for n in box}
        low = min(vals.values())
        assert brute_minimum(B, ell, c0, box=3) == (low, [n for n in box if vals[n] == low])
        assert brute_ball(B, center, radius, box=3) == [n for n in box if q(n, center) <= radius]


@st.composite
def separable_problems(draw):
    """(B, ell, c0, value, argmin) with B = U^T diag(d) U, U unimodular and
    g <= 10.  In m = U n the objective is sum_i (d_i/2) m_i^2 + b_i m_i + c0
    with b = U^-T ell, so each m_i is the integer nearest -b_i/d_i, or both
    nearest at a half-integer, and the argmin is U^-1 times their product.
    The centres -b_i/d_i are drawn first: some tie, some lie near 10^30."""
    g = draw(st.integers(1, 10))
    d = [F(draw(st.integers(1, 9)), draw(st.integers(1, 4))) for _ in range(g)]
    # U by row operations row_i += k row_j, U^-1 by the inverse column ones
    U, V = [list(r) for r in identity(g)], [list(r) for r in identity(g)]
    ops = st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), st.integers(-2, 2))
    for i, j, k in draw(st.lists(ops, max_size=2 * g)):
        if i != j:
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
            for row in V:
                row[j] -= k * row[i]
    ties = draw(st.sets(st.integers(0, g - 1), max_size=4))
    centre, choices = [], []
    for i in range(g):
        far = draw(st.sampled_from((0, 0, 10**30, -(10**30))))
        base = far + draw(st.integers(-20, 20))
        if i in ties:
            centre.append(base + F(1, 2))
            choices.append((base, base + 1))
        else:
            den = draw(st.sampled_from((1, 3, 7, 13)))
            c = base + F(draw(st.integers(0, den - 1)), den)
            centre.append(c)
            choices.append((math.floor(c + F(1, 2)),))
    b = [-di * c for di, c in zip(d, centre)]
    B = [[sum(U[k][i] * d[k] * U[k][j] for k in range(g)) for j in range(g)] for i in range(g)]
    ell = [sum(U[k][i] * b[k] for k in range(g)) for i in range(g)]
    c0 = F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    m = [x[0] for x in choices]
    value = c0 + sum(di * x * x / 2 + bi * x for di, bi, x in zip(d, b, m))
    argmin = sorted(tuple(vecdot(row, m) for row in V) for m in itertools.product(*choices))
    return B, ell, c0, value, argmin


@given(separable_problems())
@settings(max_examples=60, deadline=None)
def test_minimize_matches_separable_oracle(problem):
    # an oracle with no reduction, rounding or enumeration of its own, up to
    # g = 10 and with centres near 10^30
    B, ell, c0, value, argmin = problem
    got = minimize_quadratic(B, ell, c0)
    assert got.value == value
    assert list(got.argmin) == argmin


def _objective_value(B, ell, c0, n):
    """(1/2) n^T B n + ell^T n + c0 in plain Fractions."""
    return F(1, 2) * sum(x * vecdot(row, n) for x, row in zip(n, B)) + vecdot(ell, n) + c0


def box_argmin(A, t):
    """Every integer y minimizing (y - t)^T A (y - t), by a numpy scan of a
    certified box: for y0 the rounding of t and delta its value, each
    minimizer has (y_i - t_i)^2 <= (A^-1)_ii delta (Cauchy-Schwarz in the
    A-norm).  In integers, with A = An/da and t = tn/dt, the scan compares
    (dt y - tn)^T An (dt y - tn)."""
    g = len(A)
    Ainv = inverse(A)
    e = [math.floor(x + F(1, 2)) - x for x in t]
    delta = sum(e[i] * A[i][j] * e[j] for i in range(g) for j in range(g))
    ranges = []
    for i in range(g):
        h = math.isqrt(math.floor(Ainv[i][i] * delta)) + 1  # > sqrt((A^-1)_ii delta)
        near = range(math.floor(t[i]) - h, math.ceil(t[i]) + h + 1)
        ranges.append([y for y in near if (y - t[i]) ** 2 <= Ainv[i][i] * delta])
    flat, _ = _scaled([x for row in A for x in row])
    tn, dt = _scaled(t)
    reach = max(dt * (abs(y) + abs(x)) for r, x in zip(ranges, t) for y in r)  # >= |dt y_i - tn_i|
    assert (g * reach) ** 2 * int(np.abs(flat).max()) < 2**63, "box scan would overflow int64"
    y = np.array(list(itertools.product(*ranges)))
    d = dt * y - tn
    vals = np.einsum("ki,ij,kj->k", d, flat.reshape(g, g), d)
    return [tuple(map(int, x)) for x in y[vals == vals.min()]]


@st.composite
def skewed_problems(draw):
    """(B, ell, c0, A, S, V, z, f) with B = S^T A S, g <= 6: A diagonally
    dominant with nonzero off-diagonal entries, or at g <= 4 also 2I or
    I + J, S a unimodular shear and V = S^-1.  The real minimizer is z + f,
    z an integer point with some coordinates near 10^30 and f small; a
    half-integer f ties, as q(n) = q(2 (z + f) - n), and with A = 2I each
    half-integer coordinate doubles the argmin."""
    g = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("dominant", "2I", "I+J") if g <= 4 else ("dominant",)))
    if shape == "2I":
        A = [[F(2 * int(i == j)) for j in range(g)] for i in range(g)]
    elif shape == "I+J":
        A = [[F(1 + int(i == j)) for j in range(g)] for i in range(g)]
    else:
        A = [[F(0)] * g for _ in range(g)]
        for i in range(g):
            for j in range(i):
                A[i][j] = A[j][i] = F(draw(st.sampled_from((-1, 1))), draw(st.integers(2, 4)))
        for i in range(g):
            A[i][i] = sum(abs(A[i][j]) for j in range(g) if j != i) + draw(st.integers(1, 3))
    # S by row operations row_i += k row_j, V by the inverse column ones
    S, V = [list(r) for r in identity(g)], [list(r) for r in identity(g)]
    ops = st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), st.integers(-2, 2))
    for i, j, k in draw(st.lists(ops, max_size=2 * g)):
        if i != j:
            S[i] = [a + k * b for a, b in zip(S[i], S[j])]
            for row in V:
                row[j] -= k * row[i]
    B = matmul(transpose(S), matmul(A, S))
    z = [draw(st.sampled_from((0, 0, 10**30, -(10**30)))) + draw(st.integers(-20, 20)) for _ in range(g)]
    if draw(st.booleans()):
        f = [F(draw(st.integers(0, 1)), 2) for _ in range(g)]
    else:
        f = [F(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 3, 7, 13)))) for _ in range(g)]
    ell = [-x for x in matvec(B, [a + b for a, b in zip(z, f)])]
    c0 = F(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
    return B, ell, c0, A, S, V, z, f


@given(skewed_problems())
@settings(max_examples=80, deadline=None)
def test_minimize_matches_box_scan_on_skewed_forms(problem):
    # skewed forms: the value is a plain Fraction objective at every argmin
    # point, and the argmin, ties and far centres included, is a box scan in
    # the coordinates y = S (n - z) of the well-conditioned A, which needs no
    # reduction, rounding or walk of the library's
    B, ell, c0, A, S, V, z, f = problem
    got = minimize_quadratic(B, ell, c0)
    assert {_objective_value(B, ell, c0, n) for n in got.argmin} == {got.value}
    scan = sorted(tuple(a + b for a, b in zip(z, matvec(V, y))) for y in box_argmin(A, matvec(S, f)))
    assert list(got.argmin) == scan
    if any(x.denominator == 2 for x in f):
        assert len(scan) >= 2
    if A == [[2 * int(i == j) for j in range(len(A))] for i in range(len(A))]:
        assert len(scan) == 2 ** sum(x.denominator == 2 for x in matvec(S, f))


def babai(walk, q, C):
    """Babai's nearest-plane point x for the centre C / q of the form whose
    `_walk` data is walk, and its scaled distance S = sum_i Dk_i e_i^2: from
    the last coordinate down, x_i is the integer nearest its level's centre
    G_i / k given the x_j above it (ties round up), e_i = k x_i - G_i.  An
    oracle for the first leaf of the nearest-first walk, computed apart
    from it."""
    lq, Lk, _, Dk = walk
    g = len(Lk)
    k = lq * q
    x = [0] * g
    S = 0
    for i in range(g - 1, -1, -1):
        G = lq * C[i] - sum(Lk[j][i] * (q * x[j] - C[j]) for j in range(i + 1, g))
        x[i] = (2 * G + k) // (2 * k)
        e = k * x[i] - G
        S += Dk[i] * e * e
    return tuple(x), S


@pytest.mark.parametrize("g, total", [(4, 13), (8, 16), (10, 19)])
def test_walk_leaves_per_minimization(walk_nodes, g, total):
    # machine-independent gate: the walk is nearest-first, so its first leaf
    # is Babai's nearest-plane point (the oracle above) and each later leaf
    # lies at or below the best distance so far.  A minimization so visits
    # only lattice points at or below Babai's value, and its argmin is the
    # leaves at the last distance.  A full walk below Babai's distance
    # visits every such point: 13, 16 and 27 leaves here.
    B = [[2 if i == j else 1 for j in range(g)] for i in range(g)]  # P = I + J
    U, _, walk, _ = lattice._reduced(lattice._gram_rows(B))
    U_inv = inverse(U)
    rng = random.Random(g)
    count = 0
    for k in range(10):
        far = rng.choice((-1, 1)) * 10**30 if k % 5 == 4 else 0
        ell = [far + F(rng.randint(-400, 400), rng.choice((7, 11, 13))) for _ in range(g)]
        del walk_nodes[:]
        got = minimize_quadratic(B, ell)
        leaves = [(x, t) for i, t, x in walk_nodes if i < 0]
        centre = [-x for x in matvec(inverse(B), ell)]
        m = matvec(U_inv, centre)  # the centre in the walk's coordinates
        q = math.lcm(*(x.denominator for x in m))
        seed, S = babai(walk, q, [int(x * q) for x in m])
        distances = [t for _, t in leaves]
        assert leaves[0] == (seed, S)
        assert all(b <= a for a, b in itertools.pairwise(distances))
        seed_value = _objective_value(B, ell, 0, matvec(U, seed))
        points = enumerate_below(B, centre, seed_value - _objective_value(B, ell, 0, centre))
        assert {tuple(matvec(U, x)) for x, _ in leaves} <= set(points)
        assert set(got.argmin) == {tuple(matvec(U, x)) for x, t in leaves if t == distances[-1]}
        count += len(leaves)
    assert count == total


def test_minimize_errors():
    with pytest.raises(NotPositiveDefiniteError):
        minimize_quadratic([[1, 2], [2, 1]], [0, 0])
    with pytest.raises(NotSymmetricError):
        minimize_quadratic([[1, 1], [0, 1]], [0, 0])
    with pytest.raises(ShapeMismatchError):
        minimize_quadratic([[2, 0], [0, 2]], [1])


def test_one_reduction_per_form_across_evaluations(monkeypatch, solve_calls):
    # machine-independent gates: the form P Lam is the theta's, not the
    # point's, so 50 values of one theta share one cached LLL reduction,
    # and each centre is a product with the cached inverse, not a solve
    U = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    P = matmul(transpose(U), matmul([[3, 1, 1], [1, 3, 1], [1, 1, 3]], U))
    theta = riemann_theta(TropicalPolarizationData(g=3, P=RatMatrix(P), Lambda=identity(3)))
    calls = []
    reduce = lattice.lll_reduce

    def counting_reduce(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    lattice._reduced.cache_clear()
    monkeypatch.setattr(lattice, "lll_reduce", counting_reduce)
    rng = random.Random(50)
    for _ in range(50):
        theta.evaluate(tuple(F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3)))
    assert len(calls) == 1
    assert solve_calls == []


# ---------- enumerate_below ----------

def test_enumerate_worked_example():
    pts = enumerate_below([[2, 1], [1, 2]], (0, 0), 1)
    assert pts == [
        (-1, 0),
        (-1, 1),
        (0, -1),
        (0, 0),
        (0, 1),
        (1, -1),
        (1, 0),
    ]


def test_enumerate_boundary_membership():
    # radius exactly on the boundary keeps the boundary points...
    assert (1, 0) in enumerate_below([[2, 1], [1, 2]], (0, 0), 1)
    # ...and an epsilon below drops them
    assert enumerate_below([[2, 1], [1, 2]], (0, 0), F(99, 100)) == [(0, 0)]


def test_enumerate_zero_radius_and_errors():
    assert enumerate_below([[2]], (F(1, 2),), 0) == []
    assert enumerate_below([[2]], (1,), 0) == [(1,)]
    with pytest.raises(NegativeRadiusError):
        enumerate_below([[2]], (0,), -1)


def test_enumerate_matches_brute_force():
    rng = random.Random(99)
    for _ in range(40):
        g = rng.randint(1, 3)
        B = random_pd(rng, g)
        center = tuple(F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(g))
        radius = F(rng.randint(0, 9), rng.choice([1, 2]))
        got = enumerate_below(B, center, radius)
        assert got == brute_ball(B, center, radius)
        assert all(abs(x) < 12 for p in got for x in p)


def test_enumerate_scales_with_known_count():
    # unit form, radius r: integer points in a sphere of squared radius 2r
    pts = enumerate_below([[1, 0], [0, 1]], (0, 0), F(1, 2))
    assert len(pts) == 5  # origin plus the four unit vectors


# ---------- coset lattice ----------

def fraction_inverse(lam):
    return inverse(tuple(tuple(F(x) for x in r) for r in lam))


def oracle_congruent(lam_inv, x, y):
    """x - y in Lam Z^g iff Lam^{-1} (x - y) is integral."""
    return all(c.denominator == 1 for c in matvec(lam_inv, [a - b for a, b in zip(x, y)]))


def lex_scan_representatives(lam):
    """The lexicographically first point of each class in {0..d-1}^g,
    d = |det Lam|, in scan order: the definition of the representatives.
    Classes are told apart by the integer vector d Lam^{-1} x mod d, which
    is 0 exactly on the sublattice, so index 60 scans quickly."""
    lam_inv = fraction_inverse(lam)
    d = abs(det(lam).numerator)
    scaled = [[int(d * c) for c in row] for row in lam_inv]
    seen = set()
    reps = []
    for cand in itertools.product(range(d), repeat=len(lam)):
        key = tuple(sum(a * x for a, x in zip(row, cand)) % d for row in scaled)
        if key not in seen:
            seen.add(key)
            reps.append(cand)
            if len(reps) == d:
                break
    return tuple(reps)


@st.composite
def coset_matrices(draw):
    """Random nonsingular integer g x g matrices, g <= 3, index <= 60."""
    g = draw(st.integers(min_value=1, max_value=3))
    bound = {1: 60, 2: 9, 3: 4}[g]
    entry = st.integers(min_value=-bound, max_value=bound)
    lam = tuple(tuple(draw(entry) for _ in range(g)) for _ in range(g))
    assume(0 < abs(det(lam)) <= 60)
    return lam


def shift(lam, u, n):
    return tuple(a + b for a, b in zip(u, matvec(lam, n)))


@given(coset_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_coset_lattice_matches_scan_oracles(lam, rng):
    H, V = _column_hnf(lam)
    g = len(lam)
    assert H == matmul(lam, V)
    assert abs(det(V)) == 1
    for i in range(g):
        assert all(H[i][j] == 0 for j in range(i + 1, g))
        assert all(0 <= H[i][j] < H[i][i] for j in range(i))
    cosets = CosetLattice(lam)
    reps = cosets.representatives()
    assert reps == lex_scan_representatives(lam)
    assert cosets.index == len(reps) == abs(det(lam))
    rep_set = set(reps)
    lam_inv = fraction_inverse(lam)
    for _ in range(10):
        u = tuple(rng.randint(-50, 50) for _ in range(g))
        rep, n = cosets.decompose(u)
        assert rep in rep_set
        assert u == shift(lam, rep, n)
        m = tuple(rng.randint(-3, 3) for _ in range(g))
        for v in (shift(lam, u, m), tuple(rng.randint(-50, 50) for _ in range(g))):
            assert cosets.congruent(u, v) == oracle_congruent(lam_inv, u, v)


def test_coset_lattice_diag_6_6_6():
    lam = ((6, 0, 0), (0, 6, 0), (0, 0, 6))
    cosets = CosetLattice(lam)
    reps = cosets.representatives()
    assert len(reps) == cosets.index == 216
    assert reps == tuple(itertools.product(range(6), repeat=3))
    for rep in reps:
        for n in ((0, 0, 0), (1, -2, 3), (-7, 0, 5)):
            assert cosets.decompose(shift(lam, rep, n)) == (rep, n)


def test_coset_lattice_nondiagonal_box_and_errors():
    # Lam = [[2, 1], [0, 2]] has column HNF [[1, 0], [2, 4]]: reps (0, 0..3)
    cosets = CosetLattice(((2, 1), (0, 2)))
    assert cosets.representatives() == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert cosets.decompose((5, -3)) == ((0, 3), (4, -3))
    assert cosets.congruent((1, 0), (0, 2))
    assert not cosets.congruent((1, 0), (0, 0))
    with pytest.raises(ShapeMismatchError):
        CosetLattice(((1, 2), (2, 4)))
    with pytest.raises(ShapeMismatchError):
        CosetLattice(((1, 2),))
