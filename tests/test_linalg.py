"""The one fraction-free elimination against a plain Fraction reference.

`linalg._echelon` (Bareiss) does every exact solve, inverse, determinant
and rank in the package.  This file keeps its own Gauss-Jordan elimination
over Fractions and compares det, solve, inverse, adjugate_int, the integer
rank and geometry._affine_span (on homogeneous points) against it on
seeded matrices, singular and rank-deficient ones included, and on
collinear and coplanar point sets.
"""

import random
from fractions import Fraction as F

import pytest

from troptheta.geometry import _affine_span, _homogeneous_points, _x
from troptheta.linalg import (
    ShapeMismatchError,
    _echelon,
    adjugate_int,
    det,
    int_det,
    int_rows_from,
    inverse,
    rows_from,
    solve,
)


def reference(rows, width):
    """Gauss-Jordan over Fractions, pivots from the first `width` columns:
    (reduced row echelon rows, determinant of a square `width` block)."""
    a = [[F(x) for x in r] for r in rows]
    d, r = F(1), 0
    for col in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            d = -d
        d *= a[r][col]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(map(tuple, a[:r])), d if r == len(rows) == width else F(0)


def entry(rng, frac):
    if frac:
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-5, 5)


def rows_of_rank(rng, m, n, rank, frac):
    """m x n rows spanned by `rank` random rows, shuffled, with zero rows
    and repeated rows possible: many pivots need a swap."""
    basis = [[entry(rng, frac) for _ in range(n)] for _ in range(rank)]
    rows = basis[:m]
    while len(rows) < m:
        coeffs = [rng.choice((0, 0, 1, -1, 2, F(1, 2) if frac else 3)) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), 0) for j in range(n)])
    rng.shuffle(rows)
    return tuple(map(tuple, rows))


def square_cases():
    """Seeded n x n matrices, n = 1..4, int and Fraction entries; about a
    third are singular."""
    rng = random.Random(7)
    for _ in range(1200):
        n, frac = rng.randint(1, 4), rng.random() < 0.5
        rank = rng.randint(0, n - 1) if rng.random() < 0.35 else n
        yield rows_of_rank(rng, n, n, rank, frac), frac, rng


def test_det_solve_inverse_adjugate_match_the_reference():
    singular = 0
    for A, frac, rng in square_cases():
        n = len(A)
        b = tuple(entry(rng, frac) for _ in range(n))
        rref, d = reference(A, n)
        assert det(A) == d and type(det(A)) is F, A
        singular += d == 0
        if d == 0:
            for call in (lambda: solve(A, b), lambda: inverse(A)):
                with pytest.raises(ShapeMismatchError):
                    call()
            if not frac:
                with pytest.raises(ShapeMismatchError):
                    adjugate_int(A)
            continue
        x = reference([(*r, c) for r, c in zip(A, b)], n)[0]
        assert solve(A, b) == tuple(r[n] for r in x), A
        eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        inv = tuple(r[n:] for r in reference([(*r, *e) for r, e in zip(A, eye)], n)[0])
        assert inverse(A) == inv, A
        if not frac:
            adj = adjugate_int(A)
            assert adj == tuple(tuple(d * x for x in r) for r in inv), A
            assert all(type(x) is int for r in adj for x in r)
            assert int_det(A) == d
    assert 300 < singular < 600


def test_rank_and_reduced_rows_of_non_square_rows():
    # _echelon's pivot rows over the last pivot are the reduced row
    # echelon form: the rows _affine_span returns
    rng = random.Random(11)
    for _ in range(1500):
        m, n, frac = rng.randint(1, 5), rng.randint(1, 4), rng.random() < 0.5
        rows = rows_of_rank(rng, m, n, rng.randint(0, min(m, n)), frac)
        rref, _ = reference(rows, n)
        out, rank, p, _ = _echelon(rows, n)
        assert rank == len(rref), rows
        assert tuple(tuple(F(x, p) for x in r) for r in out[:rank]) == rref, rows
        assert all(x == 0 for r in out[rank:] for x in r)


def test_affine_span_of_collinear_and_coplanar_points():
    rng = random.Random(13)
    for _ in range(800):
        g, frac = rng.randint(2, 3), rng.random() < 0.5
        k = rng.randint(1, g - 1)  # 1: collinear; 2 at g = 3: coplanar
        base = [entry(rng, frac) for _ in range(g)]
        dirs = [[entry(rng, frac) for _ in range(g)] for _ in range(k)]
        pts = [tuple(base)]
        for _ in range(rng.randint(1, 5)):
            t = [entry(rng, frac) for _ in dirs]
            pts.append(tuple(x + sum(c * d[i] for c, d in zip(t, dirs)) for i, x in enumerate(base)))
        pts = tuple(pts)
        rref, _ = reference([[q - b for b, q in zip(pts[0], p)] for p in pts[1:]], g)
        span = tuple(map(_x, _affine_span(_homogeneous_points(pts, "points"))))
        assert span == rref and len(span) <= k, pts
        assert all(type(x) is F for r in span for x in r)


def test_integer_points_give_exact_spans():
    # a pair (v, -v) of primitive integer vectors: binary floats read the
    # span of {0, v, -v} as rank 2
    span = _affine_span(((0, 0, 0, 1), (-29, -30, -30, 1), (29, 30, 30, 1)))
    assert span == ((29, 30, 30, 29),)
    assert _x(span[0]) == (F(1), F(30, 29), F(30, 29))
    assert all(type(x) is int for x in span[0])
    # coplanar integer normals, as _cut's edge test passes them
    coplanar = ((3, 3, 1), (2, 0, 2), (2, 3, 0))
    assert len(_affine_span(((0, 0, 0, 1), *((*c, 1) for c in coplanar)))) == 2
    assert _echelon(coplanar, 3)[1] == 2
    assert det(coplanar) == 0


def test_row_swaps_flip_the_sign():
    assert det(((0, 1), (1, 0))) == -1
    assert det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1
    assert det(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 1
    assert adjugate_int(((0, 1), (1, 0))) == ((0, -1), (-1, 0))
    assert adjugate_int(((0, 2), (3, 1))) == ((1, -2), (-3, 0))
    assert det(((F(0), F(1, 2)), (F(1, 3), F(5)))) == F(-1, 6)


def test_singular_and_ragged_input_raise():
    singular = ((1, 2), (2, 4))
    with pytest.raises(ShapeMismatchError):
        solve(singular, (1, 1))
    with pytest.raises(ShapeMismatchError):
        adjugate_int(singular)
    with pytest.raises(ShapeMismatchError):
        inverse(singular)
    with pytest.raises(ShapeMismatchError):
        solve(((1, 0), (0, 1)), (1,))
    with pytest.raises(ShapeMismatchError):
        det(((1, 2),))
    with pytest.raises(TypeError):
        solve(((1.5,),), (1,))
    with pytest.raises(TypeError):
        adjugate_int(((F(1, 2), 0), (0, 1)))


@pytest.mark.parametrize("text", ["1/0", "0.5", "1e3", "x"])
def test_string_entries_follow_the_exact_literal_rule(text):
    # a string entry is a "p/q" or "p" literal: a zero denominator or a
    # decimal is a ValueError naming the field, not a ZeroDivisionError or
    # a silently rounded value
    with pytest.raises(ValueError, match="^P: not an exact rational literal"):
        rows_from([["1", text]], "P")
    with pytest.raises(ValueError, match="^Lambda: not an exact rational literal"):
        int_rows_from([["1", text]], "Lambda")
    assert rows_from([["-3/6", "2"]], "P") == ((F(-1, 2), F(2)),)
    assert int_rows_from([["4/2", 1]], "Lambda") == ((2, 1),)
