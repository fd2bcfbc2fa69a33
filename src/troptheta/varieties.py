"""Polarized tropical abelian varieties in coordinates.

A rank-g datum consists of the pairing matrix P (P[i][j] = [e'_i, e_j], the
pairing of the i-th period generator with the j-th character) and an integer
polarization matrix Lambda (column j = coordinates of lambda(e'_j) in the
character basis).  The induced bilinear form beta = P * Lambda must be
symmetric positive-definite.  Points of N_R are coordinate tuples
v = (<e_1, v>, ..., <e_g, v>); the period lattice embeds as n |-> P^T n.
Each entry here reads a point once, as g rationals (linalg.point), and a
lattice vector once, as g exact integers (linalg.lattice_vector), so a
wrong length raises ShapeMismatchError and a non-integer lattice vector, a
str or bytes raises TypeError.  The datum reads g as an exact integer and P
and Lambda once each by linalg.square_rows, g x g of exact rationals and
integers; its JSON reader hands the document's fields to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from .linalg import (
    IntRows,
    IntVec,
    RatMatrix,
    ShapeMismatchError,
    _as_fraction,
    _as_int,
    adjugate_int,
    int_det,
    is_symmetric,
    lattice_vector,
    matmul,
    matvec,
    point,
    solve,
    square_rows,
    transpose,
)
from .lattice import NotPositiveDefiniteError, _gso
from .rationals import format_fraction

TropPoint = tuple[Fraction, ...]


class InvalidDataError(ValueError):
    """Structurally valid JSON that violates a mathematical precondition."""


@dataclass(frozen=True)
class TropicalPolarizationData:
    """Pairing and polarization matrices of a polarized tropical torus."""

    g: int
    P: RatMatrix
    Lambda: IntRows

    def __post_init__(self):
        g = _as_int(self.g, "g")
        if g < 1:
            raise InvalidDataError(f"g must be at least 1, got {g}")
        P = self.P.entries if isinstance(self.P, RatMatrix) else self.P
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "P", RatMatrix(square_rows(P, g, "P", _as_fraction)))
        object.__setattr__(self, "Lambda", square_rows(self.Lambda, g, "Lambda", _as_int))

    @property
    def beta_rows(self):
        return matmul(self.P.entries, self.Lambda)

    def index(self) -> int:
        """[M : lambda(M')] = |det Lambda|."""
        return abs(int_det(self.Lambda))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "P": [[format_fraction(x) for x in row] for row in self.P.entries],
            "Lambda": [list(row) for row in self.Lambda],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TropicalPolarizationData":
        try:
            return cls(g=data["g"], P=data["P"], Lambda=data["Lambda"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDataError(f"malformed variety data: {exc}") from exc


@dataclass(frozen=True)
class SigmaPoint:
    """A point of the quotient torus: canonical representative plus the
    integer period shift that reduced the input."""

    rep: TropPoint
    shift: IntVec


@dataclass(frozen=True)
class ValidityReport:
    pairing_nondegenerate: bool
    beta_symmetric: bool
    beta_positive_definite: bool
    first_bad_pivot: int | None
    index: int | None
    principal: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.pairing_nondegenerate
            and self.beta_symmetric
            and self.beta_positive_definite
            and self.index not in (None, 0)
        )


def validate(data: TropicalPolarizationData) -> ValidityReport:
    """Check nondegeneracy of the pairing and that beta = P*Lambda is a
    symmetric positive-definite form; report |det Lambda| and principality."""
    nondeg = data.P.det() != 0
    beta = data.beta_rows
    symmetric = is_symmetric(beta)
    pd = False
    pivot = None
    if symmetric:
        try:
            _gso(beta)
            pd = True
        except NotPositiveDefiniteError as exc:
            pivot = exc.pivot_index
    idx = abs(int_det(data.Lambda))
    return ValidityReport(
        pairing_nondegenerate=nondeg,
        beta_symmetric=symmetric,
        beta_positive_definite=pd,
        first_bad_pivot=pivot,
        index=idx if idx != 0 else None,
        principal=(idx == 1) if idx != 0 else None,
    )


def require_valid(data: TropicalPolarizationData) -> None:
    report = validate(data)
    if not report.ok:
        raise InvalidDataError(f"invalid polarization data: {report}")


def embed_Mprime(data: TropicalPolarizationData, n: Sequence[int]) -> TropPoint:
    """Embed the period lattice generator combination n into N_R: P^T n."""
    return matvec(transpose(data.P.entries), lattice_vector(n, data.g, "n"))


def embed_M_dual(data: TropicalPolarizationData, m: Sequence[int]) -> TropPoint:
    """Embed the character lattice into N'_R (used by the dual torus): P m."""
    return matvec(data.P.entries, lattice_vector(m, data.g, "m"))


def reduce_mod_lattice(data: TropicalPolarizationData, v: Sequence) -> SigmaPoint:
    """Reduce v in N_R into the half-open fundamental parallelepiped
    {P^T t : t in [0,1)^g}; rep = v - P^T shift."""
    import math

    v = point(v, data.g)
    try:
        t = solve(transpose(data.P.entries), v)
    except ShapeMismatchError:
        raise InvalidDataError("degenerate pairing: cannot reduce") from None
    shift = tuple(math.floor(c) for c in t)
    return SigmaPoint(rep=tuple(map(sub, v, embed_Mprime(data, shift))), shift=shift)


def dual(data: TropicalPolarizationData) -> TropicalPolarizationData:
    """The dual torus: roles of M and M' swap, the pairing transposes.

    The polarization carried over is sign(det Lambda) * adj(Lambda), the
    canonical integral multiple of Lambda^{-1}; for principal data this is
    exactly Lambda^{-1} and dual(dual(data)) == data.  For non-principal data
    the double dual scales Lambda by the positive integer |det Lambda|^(g-2).
    """
    d = int_det(data.Lambda)
    if d == 0:
        raise InvalidDataError("dual needs an invertible polarization")
    adj = adjugate_int(data.Lambda)
    sign = 1 if d > 0 else -1
    lam_dual = tuple(tuple(sign * x for x in row) for row in adj)
    return TropicalPolarizationData(
        g=data.g, P=data.P.transpose(), Lambda=lam_dual
    )


def polarization_map(data: TropicalPolarizationData, v: Sequence) -> TropPoint:
    """The map N_R -> N'_R induced by lambda: coordinate i = <lambda(e'_i), v>,
    i.e. Lambda^T v.  Sends embedded periods P^T n to embedded characters
    P (Lambda n), hence descends to the quotient tori."""
    return matvec(transpose(data.Lambda), point(v, data.g))
