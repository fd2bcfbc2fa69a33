"""Small exact linear algebra over int and Fraction entries.

Everything operates on immutable nested tuples; matrices are tuples of row
tuples.  One fraction-free elimination, `_echelon` (Bareiss 1968), does
all row reduction: each row is scaled to integers and every division in it
is exact.  `det`, `int_det`, `solve`, `inverse` (one elimination of
[A | I]) and `adjugate_int` read its pivots, swap parity and reduced rows,
and so do the affine spans and edge ranks in `geometry`.  Sizes are the
rank g of a form (g <= 3 in geometry).

The public entries of `theta`, `nonarch`, `varieties`, `geometry` and
`lattice` read their arguments through the parsers here, once: a point
through `point` (g rationals, each Fraction(x)), a lattice vector, profile
or coefficient rep through `lattice_vector` or `int_vector_from` (exact
integers by `_as_int`), every g x g field of a constructor (P, Lambda, a
period, Gram or coset lattice matrix) through `square_rows`, shape first,
and the mesh reader's matrices through `rows_from`.  An exact scalar (ell,
w, a cutoff, c0, a radius, a Puiseux exponent or coefficient) is read by
`_as_fraction`: a Fraction, an int or a "p/q" literal, never a float.  A
str or bytes is never a vector: it would read as its characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .rationals import parse_fraction

Row = tuple[Fraction, ...]
Rows = tuple[Row, ...]
IntVec = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


class ShapeMismatchError(ValueError):
    """Operands have incompatible or non-square dimensions."""


def _as_fraction(x, name: str = "matrix") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:  # the package's exact-literal rule, naming the field
            return parse_fraction(x)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    raise TypeError(f"{name}: exact rational required, got {type(x).__name__}: {x!r}")


def _as_int(x, name: str) -> int:
    if type(x) is int:
        return x
    if isinstance(x, (Fraction, str)) and (f := _as_fraction(x, name)).denominator == 1:
        return f.numerator
    raise TypeError(f"{name}: integer required, got {type(x).__name__}: {x!r}")


def json_list(data, name: str) -> Sequence:
    """data, checked to be a list: a string would read as its characters
    and a mapping as its keys."""
    if not isinstance(data, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {type(data).__name__}: {data!r}")
    return data


def _vector(v, name: str):
    """v, which may be any iterable but a str or bytes: one of those would
    read as its characters."""
    if isinstance(v, (str, bytes, bytearray)):
        raise TypeError(f"{name} must be a sequence, got {type(v).__name__}: {v!r}")
    return v


def _rows(data, name: str, entry) -> tuple:
    rows = tuple(
        tuple(entry(x, name) for x in json_list(row, f"each row of {name}"))
        for row in json_list(data, name)
    )
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatchError(f"{name}: ragged rows")
    return rows


def rows_from(data: Sequence[Sequence], name: str = "matrix") -> Rows:
    return _rows(data, name, _as_fraction)


def int_rows_from(data: Sequence[Sequence], name: str = "matrix") -> IntRows:
    return _rows(data, name, _as_int)


def int_vector_from(data: Sequence, name: str) -> IntVec:
    return tuple(_as_int(x, name) for x in json_list(data, name))


def square_rows(data: Sequence[Sequence], g: int, name: str, entry) -> tuple:
    """data as g rows of g entries, each read by entry(x, name).  The shape
    is checked before any entry is read."""
    rows = [json_list(row, f"each row of {name}") for row in json_list(data, name)]
    if len(rows) != g:
        raise ShapeMismatchError(f"{name} shape mismatch: {len(rows)} row(s), not g = {g}")
    for row in rows:
        if len(row) != g:
            raise ShapeMismatchError(f"{name} shape mismatch: a row of length {len(row)}, not g = {g}")
    return tuple(tuple(entry(x, name) for x in row) for row in rows)


def point(v: Sequence, g: int, name: str = "point") -> Row:
    """A point of N_R: v as g rationals, Fraction(x) each."""
    p = tuple([x if type(x) is Fraction else Fraction(x) for x in _vector(v, name)])
    if len(p) != g:
        raise ShapeMismatchError(f"{name} has length {len(p)}, not g = {g}")
    return p


def lattice_vector(n: Sequence, g: int, name: str = "lattice vector") -> IntVec:
    """A lattice vector: n as g exact integers by `_as_int`, so 3/2 and 2.0
    raise TypeError; an int entry is taken as it is."""
    vec = tuple([x if type(x) is int else _as_int(x, name) for x in _vector(n, name)])
    if len(vec) != g:
        raise ShapeMismatchError(f"{name} has length {len(vec)}, not g = {g}")
    return vec


def identity(n: int) -> IntRows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def matmul(a, b):
    if len(b) == 0 or any(len(r) != len(b) for r in a):
        raise ShapeMismatchError("matmul shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def matvec(a, v):
    if any(len(r) != len(v) for r in a):
        raise ShapeMismatchError("matvec shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vecdot(u, v):
    if len(u) != len(v):
        raise ShapeMismatchError("dot shape mismatch")
    return sum(x * y for x, y in zip(u, v))


def is_symmetric(rows) -> bool:
    n = len(rows)
    return all(len(r) == n for r in rows) and all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(i)
    )


def _echelon(rows, width: int) -> tuple[list[list[int]], int, int, bool]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), pivots taken
    in order from the first `width` columns.  Each row is first scaled to
    integers by the lcm of its denominators; every entry then stays a minor
    of the scaled rows (Sylvester's identity), so each division is exact.

    Returns (rows, rank, p, odd): pivot rows first, each with the last pivot
    p in its own pivot column and 0 in the other pivot columns, and odd the
    parity of the row swaps.  So [A | B] with A square and nonsingular ends
    as [p I | R]: A^-1 B = R / p, the scaled A has determinant (-1)^odd p,
    and for an integer A and B = I, adj(A) = (-1)^odd R.
    """
    m = []
    for row in rows:
        row = [x if type(x) is int else _as_fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    rank, prev, odd = 0, 1, False
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            odd = not odd
        top = m[rank]
        p = top[col]
        for i, row in enumerate(m):
            if i != rank:
                f = row[col]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return m, rank, prev, odd


def _square(rows, right) -> tuple[list[list[int]], int, bool]:
    """(rows, p, odd) of _echelon on [A | right]; A square and nonsingular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(right) != n:
        raise ShapeMismatchError("square system shape mismatch")
    m, rank, p, odd = _echelon([(*a, *b) for a, b in zip(rows, right)], n)
    if rank < n:
        raise ShapeMismatchError("singular system")
    return m, p, odd


def det(rows) -> Fraction:
    """(-1)^odd times the last pivot, over the product of the row scales."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatchError("det of non-square matrix")
    _, rank, p, odd = _echelon(rows, n)
    if rank < n:
        return Fraction(0)
    scale = prod(lcm(*(_as_fraction(x).denominator for x in r)) for r in rows)
    return Fraction(-p if odd else p, scale)


def solve(rows, rhs) -> Row:
    """Solve A x = rhs exactly.  Raises ShapeMismatchError if A is singular."""
    m, p, _ = _square(rows, [(b,) for b in rhs])
    return tuple(Fraction(r[-1], p) for r in m)


def inverse(rows) -> Rows:
    """A^-1 from one elimination of [A | I]."""
    m, p, _ = _square(rows, identity(len(rows)))
    return tuple(tuple(Fraction(x, p) for x in r[len(rows):]) for r in m)


def adjugate_int(rows: IntRows) -> IntRows:
    """Adjugate of an integer matrix with nonzero determinant, as integers."""
    m, _, odd = _square(int_rows_from(rows), identity(len(rows)))
    return tuple(tuple(-x if odd else x for x in r[len(rows):]) for r in m)


def int_det(rows: IntRows) -> int:
    d = det(rows)
    assert d.denominator == 1
    return d.numerator


@dataclass(frozen=True)
class RatMatrix:
    """Immutable matrix of exact rationals."""

    entries: Rows

    def __post_init__(self):
        object.__setattr__(self, "entries", rows_from(self.entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "RatMatrix":
        return RatMatrix(transpose(self.entries))

    def det(self) -> Fraction:
        return det(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]
