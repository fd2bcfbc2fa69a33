"""Small exact linear algebra over Fraction entries.

Everything operates on immutable nested tuples; matrices are tuples of row
tuples.  Sizes here are tiny (g <= 3 in every caller), so plain Gaussian
elimination with exact rationals is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Row = tuple[Fraction, ...]
Rows = tuple[Row, ...]
IntVec = tuple[int, ...]
IntRows = tuple[tuple[int, ...], ...]


class ShapeMismatchError(ValueError):
    """Operands have incompatible or non-square dimensions."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")


def rows_from(data: Sequence[Sequence]) -> Rows:
    rows = tuple(tuple(_as_fraction(x) for x in row) for row in data)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatchError("ragged rows")
    return rows


def int_rows_from(data: Sequence[Sequence]) -> IntRows:
    rows = []
    for row in data:
        out = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                f = _as_fraction(x)
                if f.denominator != 1:
                    raise TypeError(f"integer required, got {x!r}")
                x = f.numerator
            out.append(x)
        rows.append(tuple(out))
    rows = tuple(rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ShapeMismatchError("ragged rows")
    return rows


def identity(n: int) -> IntRows:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(rows):
    return tuple(zip(*rows)) if rows else ()


def matmul(a, b):
    if len(b) == 0 or any(len(r) != len(b) for r in a):
        raise ShapeMismatchError("matmul shape mismatch")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a
    )


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


def det(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeMismatchError("det of non-square matrix")
    a = [[_as_fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return result


def solve(rows, rhs) -> Row:
    """Solve A x = rhs exactly.  Raises ShapeMismatchError if A is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ShapeMismatchError("solve shape mismatch")
    a = [[_as_fraction(x) for x in row] + [_as_fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ShapeMismatchError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def inverse(rows) -> Rows:
    n = len(rows)
    cols = [solve(rows, tuple(Fraction(int(i == j)) for i in range(n))) for j in range(n)]
    return transpose(tuple(cols))


def adjugate_int(rows: IntRows) -> IntRows:
    """Adjugate of an integer matrix with nonzero determinant, as integers."""
    d = det(rows)
    if d == 0:
        raise ShapeMismatchError("adjugate of singular matrix not supported")
    inv = inverse(rows)
    out = []
    for row in inv:
        out_row = []
        for x in row:
            y = d * x
            assert y.denominator == 1
            out_row.append(y.numerator)
        out.append(tuple(out_row))
    return tuple(out)


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
        if self.entries and any(len(r) != len(self.entries[0]) for r in self.entries):
            raise ShapeMismatchError("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "RatMatrix":
        return RatMatrix(transpose(self.entries))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(matmul(self.entries, other.entries))

    def matvec(self, v) -> Row:
        return matvec(self.entries, v)

    def det(self) -> Fraction:
        return det(self.entries)

    def inverse(self) -> "RatMatrix":
        return RatMatrix(inverse(self.entries))

    def solve(self, rhs) -> Row:
        return solve(self.entries, rhs)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]
