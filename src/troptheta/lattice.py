"""Exact minimization of convex quadratics over integer lattice points.

Objectives have the form q(n) = (1/2) n^T B n + ell^T n + c0 with B symmetric
positive-definite over the rationals and n ranging over Z^g.  `_gso`, a
fraction-free LDL^T in integers (Cohen, Algorithm 2.6.7), factors each form
and checks it positive-definite.  `_reduced` reduces each form once, cached
for both entry points: the integral LLL keeps that factorization current in
place, and one inverse U G^-1 = A / a of the reduced form G = U^T B U gives
every coset centre: the real minimizer -G^-1 U^T ell is -A^T ell / a.
`_argmin`, the integer argmin entry, is one nearest-first walk
(Schnorr-Euchner) around an integer centre: each level starts at the
integer nearest its centre, so the first leaf is Babai's nearest-plane
point, and the walk keeps only nodes at or below the best leaf so far,
with no separate Babai pass; `minimize_quadratic` is its Fraction wrapper
and reads the minimum off the best leaf's integer distance: one Fraction
value per call, none per point.  `enumerate_below` walks an ellipsoid of a
given radius completely (Fincke-Pohst, `_ellipsoid_points`).  A GramForm holds
its own reduction, so minimizing or enumerating many times over one form
neither re-validates it nor hashes it into that cache.  Every comparison is
exact; floats never appear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Iterator, Sequence

from .linalg import (
    RatMatrix,
    Row,
    Rows,
    IntRows,
    IntVec,
    ShapeMismatchError,
    _as_fraction,
    _as_int,
    _vector,
    adjugate_int,
    identity,
    is_symmetric,
    lattice_vector,
    matmul,
    matvec,
    point,
    square_rows,
    transpose,
    vecdot,
)


class NotSymmetricError(ValueError):
    """The quadratic form matrix is not symmetric."""


class NotPositiveDefiniteError(ValueError):
    """The form has a nonpositive LDL^T pivot.

    pivot_index is 1-based: the first pivot d_k <= 0.
    """

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"form not positive-definite: pivot {pivot_index} nonpositive")


class NegativeRadiusError(ValueError):
    """enumerate_below called with radius < 0."""


@dataclass(frozen=True)
class GramForm:
    """A symmetric rational g x g quadratic form.

    Symmetry is enforced at construction; positive-definiteness is
    established by `_gso`, so that the failure carries the offending pivot
    index.
    """

    matrix: RatMatrix

    def __post_init__(self):
        rows = _gram_rows(self.matrix)
        if not isinstance(self.matrix, RatMatrix):
            object.__setattr__(self, "matrix", RatMatrix(rows))

    @property
    def g(self) -> int:
        return self.matrix.rows

    @property
    def rows(self) -> Rows:
        return self.matrix.entries

    def is_positive_definite(self) -> bool:
        try:
            _gso(self.rows)
        except NotPositiveDefiniteError:
            return False
        return True

    @functools.cached_property
    def _reduction(self):
        """`_reduced` of this form, read once: a form that is enumerated
        many times skips the cache's key hashing on every call."""
        return _reduced(self.rows)


def _gram_rows(B) -> Rows:
    """Coerce GramForm / RatMatrix / nested sequences to symmetric rows."""
    if isinstance(B, GramForm):
        return B.rows
    rows = B.entries if isinstance(B, RatMatrix) else B
    # square of its own size, and at least 1 x 1
    rows = square_rows(rows, len(rows) or 1, "gram matrix", _as_fraction)
    if not is_symmetric(rows):
        raise NotSymmetricError("gram matrix must be symmetric")
    return rows


def _integral(rows) -> tuple[int, list[list[int]]]:
    """(s, s rows) in integers, s the lcm of the entries' denominators."""
    s = math.lcm(*(x.denominator for row in rows for x in row))
    return s, [[x.numerator * (s // x.denominator) for x in row] for row in rows]


def _gso(rows) -> tuple[int, list[list[int]], list[int], list[list[int]]]:
    """The fraction-free LDL^T (s, b, d, lam) of a symmetric form (Cohen,
    Algorithm 2.6.7): b = s rows by `_integral`, d[i] its leading i x i minor
    (d[0] = 1), lam[k][j] = d[j+1] L_kj for j <= k and D_j = d[j+1] / (s d[j]),
    each division exact.  NotPositiveDefiniteError(k + 1) at the first d[k+1] <= 0."""
    s, b = _integral(rows)
    g = len(b)
    d, lam = [1] * (g + 1), [[0] * g for _ in range(g)]
    for k in range(g):
        for j in range(k + 1):
            u = b[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        if u <= 0:
            raise NotPositiveDefiniteError(k + 1)
        d[k + 1] = u
    return s, b, d, lam


def _ldlt(s: int, d: list[int], lam: list[list[int]]) -> tuple[Rows, Row]:
    """`_gso`'s (s, d, lam) in Fractions: B = L D L^T, L unit lower triangular."""
    L = tuple(tuple(Fraction(x, d[j + 1]) for j, x in enumerate(row)) for row in lam)
    return L, tuple(Fraction(d[j + 1], s * d[j]) for j in range(len(lam)))


def ldlt_decompose(B) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """Exact LDL^T factorization of a symmetric positive-definite form."""
    s, _, d, lam = _gso(_gram_rows(B))
    L, D = _ldlt(s, d, lam)
    return RatMatrix(L), D


def lll_reduce(B) -> tuple[IntRows, RatMatrix]:
    """Lattice-reduce a positive-definite form: B_red = U^T B U.

    U is unimodular with integer entries (columns are the new basis in old
    coordinates).  B_red satisfies the size-reduction condition |mu_kj| <= 1/2
    and the Lovasz condition with delta = 3/4.  Integral LLL (de Weger 1987;
    Cohen, Algorithm 2.6.7): each size reduction and swap updates one `_gso`
    in place.  Step k size-reduces b_k against b_{k-1}, ..., b_0 (m =
    lam_kj / d_{j+1} rounded half to even, if 2 |lam_kj| > d_{j+1}), then
    tests 4 d_{k+1} d_{k-1} >= 3 d_k^2 - 4 lam_{k,k-1}^2.
    """
    s, b, d, lam = _gso(_gram_rows(B))
    g = len(b)
    U = [list(r) for r in identity(g)]
    k = 1
    while k < g:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                m = round(Fraction(lam[k][j], d[j + 1]))
                for row in U:
                    row[k] -= m * row[j]
                lam[k][j] -= m * d[j + 1]
                for i in range(j):
                    lam[k][i] -= m * lam[j][i]
        t = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * t * t:
            k += 1
            continue
        # swap b_{k-1} and b_k: lam_{k,k-1} stays, d_k and the lam below move
        for row in U:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, g):
            x = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * x) // d[k]
            lam[i][k - 1] = (dk * x + t * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    G = matmul(matmul(transpose(U), b), U)
    return tuple(map(tuple, U)), RatMatrix(tuple(tuple(Fraction(x, s) for x in row) for row in G))


def _walk(s: int, d: list[int], lam: list[list[int]]) -> tuple[int, list[list[int]], int, list[int]]:
    """The integer data of both walks, `_argmin` and `_ellipsoid_points`,
    from the form's `_gso`, computed once per form: lq = den(L), the scaled
    Lk = lq L and Dk = dq D, and dq = den(D).  For a centre c = C / q and
    k = lq q, level i of a walk sees x_i's centre gamma_i = G_i / k given
    the x_j above it, G_i = lq C_i - sum_{j>i} Lk[j][i] (q x_j - C_j), and
    e_i = k x_i - G_i; as x^T G x = sum_i D_i (x_i + sum_{j>i} L[j][i] x_j)^2,
    (x-c)^T G (x-c) = sum_i Dk_i e_i^2 / (dq k^2)."""
    L, D = _ldlt(s, d, lam)
    lq = math.lcm(*(x.denominator for row in L for x in row))
    return lq, [[x.numerator * (lq // x.denominator) for x in row[:j]] for j, row in enumerate(L)], *_over_common_denominator(D)


def _over_common_denominator(values: Row) -> tuple[int, list[int]]:
    """(q, [q v for v in values]) with q the lcm of the denominators."""
    q = math.lcm(*(v.denominator for v in values))
    return q, [v.numerator * (q // v.denominator) for v in values]


def _ellipsoid_points(walk, q: int, C: list[int], R: int) -> Iterator[IntVec]:
    """Every integer x with sum_i Dk_i e_i^2 <= R around the centre C / q,
    in the integers of `_walk`: one complete walk (Fincke-Pohst) from the
    last coordinate down, in which level i takes exactly the x_i with
    |e_i| <= isqrt(r // Dk_i), r the budget the levels above left over."""
    lq, Lk, _, Dk = walk
    g = len(Dk)
    k = lq * q
    x = [0] * g

    def recurse(i: int, r: int) -> Iterator[IntVec]:
        if i < 0:
            yield tuple(x)
            return
        G = lq * C[i] - sum(Lk[j][i] * (q * x[j] - C[j]) for j in range(i + 1, g))
        m = math.isqrt(r // Dk[i])
        for xi in range(-((m - G) // k), (G + m) // k + 1):
            x[i] = xi
            e = k * xi - G
            yield from recurse(i - 1, r - Dk[i] * e * e)

    yield from recurse(g - 1, R)


def enumerate_below(B, center: Sequence, radius) -> list[IntVec]:
    """All n in Z^g with (1/2) (n-center)^T B (n-center) <= radius, sorted
    lexicographically.  A GramForm B carries its reduction (`_reduction`)."""
    U, U_inv, walk, _ = _reduction(B)
    radius = _as_fraction(radius, "radius")
    if radius < 0:
        raise NegativeRadiusError(f"radius {radius} < 0")
    # U^-1 c = (U^-1 C) / q and U m in integers: c over its common denominator q
    q, C = _over_common_denominator(point(center, len(U), "center"))
    lq, _, dq, _ = walk
    C_red = [sum(map(mul, row, C)) for row in U_inv]
    # the walk's budget for 2 radius: sum_i Dk_i e_i^2 <= 2 radius dq k^2, in integers
    leaves = _ellipsoid_points(walk, q, C_red, 2 * radius.numerator * dq * (lq * q) ** 2 // radius.denominator)
    return sorted([tuple([sum(map(mul, row, m)) for row in U]) for m in leaves])


def _reduction(B):
    """`_reduced` of B; a GramForm was validated when it was built and
    carries its own, so repeated calls on one form skip both."""
    return B._reduction if isinstance(B, GramForm) else _reduced(_gram_rows(B))


@functools.lru_cache(maxsize=32)
def _reduced(rows: Rows) -> tuple[IntRows, IntRows, tuple, tuple[IntRows, int]]:
    """(U, U^-1, walk, (A, a)) for B = rows, cached: U from `lll_reduce`,
    walk from the `_gso` of G = U^T B U, and the form's one inverse
    U G^-1 = A / a, G^-1 = s adj(s G) / a in integers, a = d_g > 0, off which
    every coset centre is read; U^-1 = (U G^-1)^T B.  It calls `lll_reduce`
    by name, for a trace of that layer, so it factors G again."""
    U, G = lll_reduce(rows)
    s, b, d, lam = _gso(G.entries)
    a, (t, B) = d[-1], _integral(rows)
    A = matmul(U, [[s * x for x in row] for row in adjugate_int(b)])
    U_inv = tuple(tuple(x // (a * t) for x in row) for row in matmul(transpose(A), B))
    return U, U_inv, _walk(s, d, lam), (A, a)


def _column_hnf(A: IntRows) -> tuple[IntRows, IntRows]:
    """Column Hermite normal form H = A V of a nonsingular integer matrix:
    H lower triangular with 0 <= H[i][j] < H[i][i], V unimodular.  Euclid's
    algorithm on column pairs clears each row right of the diagonal, then
    the entries left of it are reduced modulo the pivot."""
    g = len(A)
    M = [list(r) for r in A] + [list(r) for r in identity(g)]  # H over V
    for i in range(g):
        for j in range(i + 1, g):
            while M[i][j]:
                q = M[i][i] // M[i][j]
                for row in M:
                    row[i], row[j] = row[j], row[i] - q * row[j]
        if M[i][i] == 0:
            raise ShapeMismatchError("coset lattice matrix must be nonsingular")
        if M[i][i] < 0:
            for row in M:
                row[i] = -row[i]
        for j in range(i):
            q = M[i][j] // M[i][i]
            for row in M:
                row[j] -= q * row[i]
    return tuple(map(tuple, M[:g])), tuple(map(tuple, M[g:]))


@dataclass(frozen=True)
class CosetLattice:
    """The sublattice Lam * Z^g = H * Z^g of Z^g (H = Lam V its column
    Hermite normal form), with coset bookkeeping.

    Representatives are the box prod_i [0, H[i][i]) in lex order, and
    back-substitution down the triangle reduces any u into it.  Each is the
    lex-smallest point of its class in {0..|det Lam|-1}^g: if x = r + H k >= 0,
    the first nonzero k_i is positive (else x_i < 0), so x > r.
    """

    matrix: IntRows

    def __post_init__(self):
        object.__setattr__(self, "matrix", square_rows(self.matrix, len(self.matrix), "coset lattice matrix", _as_int))
        object.__setattr__(self, "_hnf", _column_hnf(self.matrix))

    @property
    def g(self) -> int:
        return len(self.matrix)

    @property
    def index(self) -> int:
        return math.prod(self._hnf[0][i][i] for i in range(self.g))

    def congruent(self, x: Sequence[int], y: Sequence[int]) -> bool:
        return self.decompose(x)[0] == self.decompose(y)[0]

    def representatives(self) -> tuple[IntVec, ...]:
        return tuple(product(*(range(self._hnf[0][i][i]) for i in range(self.g))))

    def decompose(self, u: Sequence[int]) -> tuple[IntVec, IntVec]:
        """u = rep + Lam * n with rep in representatives(); returns (rep, n)."""
        return self._decompose(lattice_vector(u, self.g, "u"))

    def _decompose(self, u: IntVec) -> tuple[IntVec, IntVec]:
        """`decompose` of a u that linalg.lattice_vector already read."""
        H, V = self._hnf
        rep, k = list(u), []
        for j in range(self.g):
            k.append(rep[j] // H[j][j])
            for i in range(j, self.g):
                rep[i] -= k[j] * H[i][j]
        return tuple(rep), tuple(sum(map(mul, row, k)) for row in V)

    def normal_form(self, entries, move, name: str, error: type[ValueError]) -> dict:
        """{rep: value} over representatives(), sorted, from (u, value)
        entries given at any member u = rep + Lam n of their cosets: a value
        given at u != rep is moved to rep by move(rep, n, value), and a second
        entry in one coset raises error("<name> reps u and u' are congruent")."""
        out: dict = {}
        for u, value in entries:
            rep, n = self.decompose(u)
            if rep in out:
                raise error(f"{name} reps {u} and {out[rep][0]} are congruent")
            out[rep] = u, move(rep, n, value) if any(n) else value
        return {rep: value for rep, (_, value) in sorted(out.items())}


@dataclass(frozen=True)
class QuadraticMinimum:
    """Result of minimize_quadratic: the exact minimum and every attaining
    lattice vector (sorted lexicographically)."""

    value: Fraction
    argmin: tuple[IntVec, ...]

    @property
    def canonical(self) -> IntVec:
        return self.argmin[0]


def minimize_quadratic(B, ell: Sequence, c0=Fraction(0)) -> QuadraticMinimum:
    """Minimize (1/2) n^T B n + ell^T n + c0 over n in Z^g, exactly.

    Returns the minimum value and the complete argmin set.  B must be
    symmetric positive-definite (NotSymmetricError / NotPositiveDefiniteError
    otherwise, the latter with its 1-based pivot index).  A GramForm B
    carries its reduction, as for `enumerate_below`.

    The Fraction wrapper of `_argmin`, the integer argmin entry, for exact
    ell and c0: in the LLL-reduced form, the real minimizer is c = -A^T ell / a
    (`_reduced`), and the nearest-first walk around it returns every lattice
    point at the least scaled distance S, so the argmin is complete, and
    the minimum is q(c) + S / (2 dq k^2) (`_walk`), with
    q(c) = c0 + (1/2) (U^T ell)^T c: one value per call, and no objective
    evaluated at any point, for any g.
    """
    U, _, walk, (A, a) = _reduction(B)
    ell = tuple(_as_fraction(v, "ell") for v in _vector(ell, "ell"))
    if len(ell) != len(U):
        raise ShapeMismatchError("linear part length mismatch")
    ell_red = matvec(transpose(U), ell)
    center = tuple(-x / a for x in matvec(transpose(A), ell))
    q, C = _over_common_denominator(center)
    gap, winners = _argmin(walk, q, C)
    lq, _, dq, _ = walk
    value = _as_fraction(c0, "c0") + vecdot(ell_red, center) / 2 + Fraction(gap, 2 * dq * (lq * q) ** 2)
    argmin = sorted(tuple(sum(map(mul, row, m)) for row in U) for m in winners)
    return QuadraticMinimum(value=value, argmin=tuple(argmin))


def _argmin(walk, q: int, C: list[int]) -> tuple[int, list[IntVec]]:
    """(S, winners): every lattice point nearest the centre C / q of the
    form with `_walk` data walk, in its coordinates, and its scaled distance
    S = sum_i Dk_i e_i^2 in the integers of `_walk`.

    One nearest-first walk (Schnorr-Euchner 1994), by plain recursion: from
    the last coordinate down, each level starts at the integer nearest its
    centre gamma_i = G_i / k given the x_j above it (ties round up), so the
    first leaf is Babai's nearest-plane point, then steps outward, up and
    then down, and leaves each side at its first node whose partial
    distance exceeds the best leaf's.  A leaf at the best distance is kept,
    so the argmin is complete.  Each call of `node` is one node of the
    search tree, with t the partial distance of the levels above; a call
    at level -1 is a leaf."""
    lq, Lk, _, Dk = walk
    k, g = lq * q, len(Dk)
    x, y = [0] * g, [0] * g  # y_j = q x_j - C_j
    best, winners = None, []

    def node(i: int, t: int) -> None:
        nonlocal best, winners
        if i < 0:  # a leaf, at distance t <= best
            if best is None or t < best:
                best, winners = t, []
            winners.append(tuple(x))
            return
        G = lq * C[i]
        for j in range(i + 1, g):
            G -= Lk[j][i] * y[j]
        d, x0 = Dk[i], (2 * G + k) // (2 * k)
        xi, step = x0, 1
        while step:
            e = k * xi - G
            s = t + d * e * e
            if best is None or s <= best:
                x[i], y[i] = xi, q * xi - C[i]
                node(i - 1, s)
                xi += step
            else:  # this side is done: go down from x0 - 1, or stop
                xi, step = x0 - 1, -1 if step > 0 else 0

    node(g - 1, 0)
    return best, winners
