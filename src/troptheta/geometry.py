"""Polyhedral structure of tropical theta functions.

A tropical theta function is a min of affine forms l_u(x) = w(u) + <u, x>.
Its domains of linearity are the cells where one witness u attains the min;
the corner locus (the points with >= 2 witnesses) is the tropical theta
divisor.  Everything here is exact: cells come out as rational H- and
V-representations, the divisor as a polyhedral complex clipped to one
fundamental parallelepiped, with lattice identifications and the quotient
counts (Betti numbers, Euler characteristic) computed from them.

Soundness of the competitor pools: for any box R and any single witness u,
f <= l_u everywhere, so every u'' active somewhere in R satisfies
l_{u''} <= l_u somewhere in R, hence at a corner of R (their difference is
affine).  Sweeping the corners with bound l_u(corner) is one ellipsoid
enumeration per coset and corner, finite by positive-definiteness.

The box is certified up front (Voronoi 1908; Conway-Sloane, ch. 2).  The
cell of u = rep + Lam n lies in u's cell within its own coset, since the
min over all competitors is at most the min over that coset.  With
B = P Lam, l_{u + Lam k}(x) - l_u(x) = (1/2) k^T B k + k^T (ell + P u +
Lam^T x) >= 0 for all k iff z = -B^-1 (ell + P u + Lam^T x) lies in the
Voronoi cell Vor_B(0) of (Z^g, B): the coset cell is x0 - Lam^-T B Vor_B(0),
x0 = -Lam^-T (ell + P u).  Each e_j is a lattice vector, so |(B z)_j| <=
B_jj / 2 on Vor_B(0), and coordinate i of the cell lies within
(1/2) sum_j |(Lam^-T)_ij| B_jj of x0_i: the slab bound, exact rational, one
per theta, attained by the cubes of diag(2, 2, 2).

Polytopes are held in double-description form (Motzkin-Raiffa-Thompson-
Thrall 1953; Fukuda-Prodon 1996): a dict from each vertex to the frozenset
of applied halfspaces tight there.  `_cut`, the one primitive, intersects
such a polytope with one halfspace.  Two vertices span an edge iff the
normals tight at both have rank g-1 (those constraints cut out the smallest
face holding both), so each new vertex is one exact interpolation along a
crossing edge, with no linear solve.  A cell is its box cut by its pool of
competitors; cut by the domain's 2g halfspaces it says whether it meets the
domain.  Tight sets stay complete under `_cut`, so each facet's piece of the
divisor is a face of that one clip: the vertices whose tight set holds the
facet plane.  Only unbounded cells (non-ample functions) use the g-subset
enumeration `_vertices_of`.

The corner locus is periodic: by the transformation law
w(u + Lam d) = w(u) + c_trop(d) + [d, u], l_{u+Lam d}(x) - l_{u''+Lam d}(x)
= l_u(x + tau) - l_{u''}(x + tau) for tau = P^T d, so the cell of u + Lam d
is the cell of u moved by -tau (same normals, offsets b - <a, tau>,
witnesses shifted by Lam d; lex order is kept).  One cell is built per coset
class and moved to the rest of its class; a moved cell meets the domain iff
the built one meets the domain moved by +tau.  That test runs in lattice
coordinates t (x = P^T t), computed once per built vertex: the domain is
[0, 1]^g there, moved by +tau it is the box [d, d + 1], and a plane
<a, x> >= b reads <P a, t> >= b.  A translate whose coordinate bounds miss
the box is dropped unclipped; the rest are clipped to it exactly once (a
polytope can miss a box that its bounds meet), and the clip gives the kept
translate's pieces with their t.  A built vertex's t moves by -d, so only
the vertices the cut creates are mapped back to x, and the quotient keys
points and pieces by the carried t, with no matvec per point.  The tie
set at a certified vertex is read off its tight set: the cell's witness and
the pool witnesses of every plane tight there, which is complete by the
pool soundness above.  The pool offsets w(u) - w(u'') come from the theta's
integer kernel (`theta` module docstring).
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Sequence

from .lattice import enumerate_below
from .linalg import (
    IntVec,
    RatMatrix,
    Row,
    ShapeMismatchError,
    _echelon,
    identity,
    inverse,
    matvec,
    solve,
    transpose,
    vecdot,
)
from .theta import TropicalThetaFunction
from .varieties import InvalidDataError, TropPoint, as_point


class OnCornerLocusError(ValueError):
    """The query point lies on the corner locus; carries the tie set."""

    def __init__(self, ties: tuple[IntVec, ...]):
        self.ties = ties
        super().__init__(f"point lies on the corner locus; witnesses {ties}")


class RankTooLargeError(ValueError):
    """Vertex enumeration is only provided for g <= 3."""


class UnsupportedFormatError(ValueError):
    """Unknown export format, or format/rank mismatch."""


_MAX_RANK = 3
Halfspace = tuple[IntVec, Fraction]  # <normal, x> >= offset
Polytope = dict[TropPoint, frozenset]  # vertex -> tight applied halfspaces
_BOX_MARGIN = Fraction(1, 2)  # added to _build_cell's slab bound
_SEED_PROBES = 64  # probe points in _generic_seed


# ---------- exact polyhedral helpers ----------


def _vertices_of(ineqs, g):
    """Vertices of { <a,x> >= b for ineqs }: every g-subset of tight
    constraints with a unique solution that satisfies the rest.  Exact; for
    unbounded polyhedra, where `_cut` has no bounded polytope to start from."""
    found, rejected = set(), set()
    for subset in combinations(ineqs, g):
        try:
            x = solve([a for a, _ in subset], [b for _, b in subset])
        except ShapeMismatchError:
            continue
        if x in found or x in rejected:
            continue
        if all(vecdot(a, x) >= b for a, b in ineqs):
            found.add(x)
        else:
            rejected.add(x)
    return tuple(sorted(found))


def _cut(poly: Polytope, halfspace: Halfspace) -> Polytope:
    """poly intersected with { <a, x> >= b }: the one polytope primitive.

    Vertices with <a,v> > b stay; vertices on the plane stay and gain it as
    tight.  Each new vertex lies on an edge from a kept p to a cut n, at
    p + s_p/(s_p - s_n)(n - p) with s = <a,.> - b.  (p, n) is an edge iff
    the normals tight at both have rank g-1.  A plane tight at a point
    inside an edge is tight at both ends, so the new vertex's tight set is
    the shared set plus the new plane.  Returns poly itself when every
    vertex is strictly inside, and {} when every vertex is cut.  Most pool
    planes cut nothing, so s is kept as an integer over a positive integer;
    the edge test's rank is one fraction-free elimination.
    """
    a, b = halfspace
    an = [(c.numerator, c.denominator) for c in a]
    bn, bd = b.numerator, b.denominator
    rows = []
    for v, tight in poly.items():
        num, den = 0, 1
        for (cn, cd), x in zip(an, v):
            if cn:
                xd = cd * x.denominator
                num = num * xd + cn * x.numerator * den
                den *= xd
        rows.append((v, tight, num * bd - bn * den, den * bd))
    if all(s > 0 for _, _, s, _ in rows):
        return poly
    cut = [row for row in rows if row[2] < 0]
    out: Polytope = {}
    for p, tight, s_p, d_p in rows:
        if s_p == 0:
            out[p] = tight | {halfspace}
        elif s_p > 0:
            out[p] = tight
            for n, tight_n, s_n, d_n in cut:
                shared = tight & tight_n
                if len(shared) < len(a) - 1 or (
                    _echelon([h[0] for h in shared], len(a))[1] < len(a) - 1
                ):
                    continue
                t = Fraction(s_p * d_n, s_p * d_n - s_n * d_p)
                x = tuple(pc + t * (nc - pc) for pc, nc in zip(p, n))
                out[x] = shared | {halfspace}
    return out


def _clip(poly: Polytope, halfspaces) -> Polytope:
    for h in halfspaces:
        if not poly:
            break
        poly = _cut(poly, h)
    return poly


def _affine_span(points):
    """Reduced row echelon basis of the direction space of the affine hull:
    the pivot rows of one fraction-free elimination over their pivot."""
    if len(points) <= 1:
        return ()
    base = points[0]
    rows, rank, p, _ = _echelon(
        [[q - b for b, q in zip(base, pt)] for pt in points[1:]], len(base)
    )
    return tuple(tuple(Fraction(x, p) for x in row) for row in rows[:rank])


def _gcd_normalize(normal: IntVec, num: int, den: int) -> Halfspace:
    """<normal, x> >= num / den with the normal's entries made coprime."""
    g = gcd(*normal)
    if g == 0:
        raise InvalidDataError("zero normal")
    return tuple(a // g for a in normal), Fraction(num, den * g)


# ---------- cells ----------


@dataclass(frozen=True)
class Facet:
    """A codimension-1 face of a cell: the locus where the cell's witness
    ties with `witnesses` (every competitor sharing the supporting plane)."""

    normal: IntVec
    offset: Fraction
    witnesses: tuple[IntVec, ...]
    vertices: tuple[TropPoint, ...]


@dataclass(frozen=True)
class LinearityCell:
    """Closure of the region where one witness attains the min.

    halfspaces are the supporting competitors (normal u'' - u, offset
    w(u) - w(u'')); vertices are exact rational points.  dim < g marks a
    degenerate cell (only possible at special profiles); span records a
    basis of its affine hull's direction space.
    """

    witness: IntVec
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[TropPoint, ...]
    dim: int
    span: tuple[Row, ...]
    facets: tuple[Facet, ...]
    bounded: bool = True

    @property
    def g(self) -> int:
        return len(self.witness)

    def contains(self, v: Sequence) -> bool:
        point = as_point(v)
        return all(vecdot(a, point) >= b for a, b in self.halfspaces)

    def to_json_dict(self) -> dict:
        return {
            "witness": list(self.witness),
            "halfspaces": [
                {"normal": list(a), "offset": str(b)} for a, b in self.halfspaces
            ],
            "vertices": [[str(c) for c in p] for p in self.vertices],
            "dim": self.dim,
            "span": [[str(c) for c in d] for d in self.span],
            "bounded": self.bounded,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearityCell":
        # facet data is not serialized; deserialized cells carry geometry only
        return cls(
            witness=tuple(int(x) for x in data["witness"]),
            halfspaces=tuple(
                (tuple(int(x) for x in h["normal"]), Fraction(h["offset"]))
                for h in data["halfspaces"]
            ),
            vertices=tuple(
                tuple(Fraction(c) for c in p) for p in data["vertices"]
            ),
            dim=int(data["dim"]),
            span=tuple(tuple(Fraction(c) for c in d) for d in data["span"]),
            facets=(),
            bounded=bool(data["bounded"]),
        )


def _terms_below(theta: TropicalThetaFunction, v, bound) -> list[IntVec]:
    """All u with w(u) + <u, v> <= bound, sorted."""
    point = as_point(v)
    if not theta.is_ample:
        return sorted(
            rep
            for rep, w in theta.profile.finite_entries()
            if w + vecdot(rep, point) <= bound
        )
    form = theta._form
    B_inv = form._reduction[-1]
    lam = theta.factor.Lambda
    out = set()
    for rep, lin, const in theta._coset_quadratics(point):
        center = tuple(-c for c in matvec(B_inv, lin))
        # B center = -lin, so the minimum is <lin, center>/2 + const
        center_val = vecdot(lin, center) / 2 + const
        if bound < center_val:
            continue
        for n in enumerate_below(form, center, bound - center_val):
            out.add(tuple(r + vecdot(row, n) for r, row in zip(rep, lam)))
    return sorted(out)


def _cell_box(theta: TropicalThetaFunction, u: IntVec):
    """(x0, halfwidths): x0 = -Lam^-T (ell + P u) and the slab bound plus
    `_BOX_MARGIN`, a box that holds the cell of u strictly inside."""
    lam_inv_t, half = theta._cell_frame
    y = [e + vecdot(row, u) for e, row in zip(theta.factor.ell, theta.base.P.entries)]
    return tuple(-vecdot(r, y) for r in lam_inv_t), tuple(h + _BOX_MARGIN for h in half)


def _build_cell(
    theta: TropicalThetaFunction, u: IntVec
) -> tuple[LinearityCell, Polytope, dict]:
    """The global cell of witness u and its polytope, clipped once inside
    `_cell_box`: the cell lies in u's coset cell x0 - Lam^-T (P Lam) Vor(0),
    which the lattice vectors e_j confine to the slab bound (module docstring).

    The pool's halfspaces cut to the box give the true cell cut to the box
    (a point of the box beaten by an outside competitor is beaten by its
    local witness, which is pooled), which is the cell; the margin keeps the
    box planes off its vertices, so a polytope touching the box raises.  The
    box corners are `_cut` by the pool, most violated plane first (d|d|/<a,a>,
    d = b - <a, x0>, is the signed distance d/|a| made exact).  Tight sets
    stay complete, so edges are the vertex pairs whose shared tight normals
    have rank g-1 and a facet is the vertices whose tight set holds its
    plane.  The polytope and the pool (normal -> (offset, witnesses)) are
    returned for corner_locus's domain cuts and tie sets; offsets
    w(u) - w(u'') are differences of integer kernel numerators.
    """
    g = theta.base.g
    D = theta._kernel.D
    w_u = theta._w_numerator(u)
    value_u = Fraction(w_u, D)
    center, halfwidths = _cell_box(theta, u)

    # box planes (lower, upper) per axis; each corner is tight on g of them
    planes = [
        ((e, c - h), (tuple(-x for x in e), -(c + h)))
        for e, c, h in zip(identity(g), center, halfwidths)
    ]
    poly: Polytope = {
        tuple(c + h if s else c - h for c, h, s in zip(center, halfwidths, signs)):
            frozenset(pair[s] for pair, s in zip(planes, signs))
        for signs in product((0, 1), repeat=g)
    }
    box = frozenset(h for pair in planes for h in pair)

    # u'' can only win somewhere in the box if l_{u''} <= l_u at a box corner
    # (their difference is affine), so pool per corner with its own bound
    others = set()
    for corner in poly:
        others.update(_terms_below(theta, corner, value_u + vecdot(u, corner)))
    others.discard(u)
    groups: dict[IntVec, tuple[Fraction, list[IntVec]]] = {}
    for other in others:
        normal = tuple(o - a for o, a in zip(other, u))
        a, b = _gcd_normalize(normal, w_u - theta._w_numerator(other), D)
        cur = groups.get(a)
        if cur is None or b > cur[0]:
            groups[a] = (b, [other])
        elif b == cur[0]:
            cur[1].append(other)

    # d = b - <a, x0> in integers over x0's denominator
    den = lcm(*(c.denominator for c in center))
    scaled = [c.numerator * (den // c.denominator) for c in center]

    def key(con):
        a, b = con
        d = b.numerator * den - b.denominator * vecdot(a, scaled)
        return Fraction(d * abs(d), (b.denominator * den) ** 2 * vecdot(a, a))

    pool = [(a, b) for a, (b, _) in sorted(groups.items())]
    poly = _clip(poly, sorted(pool, key=key, reverse=True))
    if not poly or any(box & tight for tight in poly.values()):
        raise InvalidDataError(
            f"cell of witness {u} is not inside its certified box: centre "
            f"({', '.join(map(str, center))}), halfwidths "
            f"({', '.join(map(str, halfwidths))}), pool of {len(groups)} halfspaces"
        )

    verts = tuple(sorted(poly))
    tight = []
    facet_list = []
    span = _affine_span(verts)
    dim = len(span)
    on_plane: dict[Halfspace, list[TropPoint]] = {}
    for p in verts:
        for h in poly[p]:
            on_plane.setdefault(h, []).append(p)
    for a, (b, wits) in sorted(groups.items()):
        tight_verts = tuple(on_plane.get((a, b), ()))
        if not tight_verts:
            continue
        # a tight set with >= g vertices is a codimension-1 face; planes
        # only grazing lower faces are implied by the facets and dropped
        if dim == g and len(tight_verts) < g:
            continue
        tight.append((a, b))
        if dim == g:
            facet_list.append(Facet(a, b, tuple(sorted([u, *wits])), tight_verts))
    return LinearityCell(
        witness=u,
        halfspaces=tuple(tight),
        vertices=verts,
        dim=dim,
        span=span,
        facets=tuple(facet_list),
    ), poly, groups


def linearity_cell(theta: TropicalThetaFunction, v) -> LinearityCell:
    """The maximal domain of linearity containing v; the witness must be
    unique at v (otherwise the tie set is reported via OnCornerLocusError)."""
    g = theta.base.g
    if g > _MAX_RANK:
        raise RankTooLargeError(f"vertex enumeration capped at g <= {_MAX_RANK}")
    result = theta.evaluate(as_point(v))
    if not result.unique:
        raise OnCornerLocusError(result.witnesses)
    u = result.canonical
    if not theta.is_ample:
        # finite support: the competitor set is the whole profile; the cell
        # of a uniquely witnessed point is always full-dimensional, though
        # possibly unbounded, so no vertex certification is attempted
        D = theta._kernel.D
        w_u = theta._w_numerator(u)
        groups: dict[IntVec, Fraction] = {}
        for rep, _ in theta.profile.finite_entries():
            if rep == u:
                continue
            normal = tuple(o - a_ for o, a_ in zip(rep, u))
            a, b = _gcd_normalize(normal, w_u - theta._w_numerator(rep), D)
            if a not in groups or b > groups[a]:
                groups[a] = b
        ineqs = tuple(sorted(groups.items()))
        return LinearityCell(
            witness=u,
            halfspaces=ineqs,
            vertices=_vertices_of(ineqs, g),
            dim=g,
            span=tuple(tuple(map(Fraction, row)) for row in identity(g)),
            facets=(),
            bounded=False,
        )
    return _build_cell(theta, u)[0]


# ---------- fundamental domain ----------


@dataclass(frozen=True)
class FundamentalDomain:
    """The closed parallelepiped { P^T t : t in [0,1]^g } with exact
    halfspace data for clipping."""

    matrix: RatMatrix  # P^T; columns are the period basis vectors
    corners: tuple[TropPoint, ...]
    halfspaces: tuple[tuple[Row, Fraction], ...]

    @property
    def g(self) -> int:
        return self.matrix.rows

    def contains(self, v: Sequence) -> bool:
        point = as_point(v)
        return all(vecdot(a, point) >= b for a, b in self.halfspaces)

    def lattice_coordinates(self, v: Sequence) -> TropPoint:
        """t with v = P^T t: the lower halfspace normals are the rows of
        (P^T)^-1."""
        point = as_point(v)
        return tuple(vecdot(a, point) for a, _ in self.halfspaces[::2])

    def to_json_dict(self) -> dict:
        return {
            "matrix": [[str(c) for c in row] for row in self.matrix.entries],
            "corners": [[str(c) for c in p] for p in self.corners],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FundamentalDomain":
        Pt = RatMatrix(
            tuple(tuple(Fraction(c) for c in row) for row in data["matrix"])
        )
        return cls(
            matrix=Pt,
            corners=tuple(
                tuple(Fraction(c) for c in p) for p in data["corners"]
            ),
            halfspaces=_parallelepiped_halfspaces(Pt),
        )


def _parallelepiped_halfspaces(Pt: RatMatrix):
    inv_rows = inverse(Pt.entries)
    halfspaces = []
    for i in range(Pt.rows):
        row = tuple(inv_rows[i])
        halfspaces.append((row, Fraction(0)))
        halfspaces.append((tuple(-c for c in row), Fraction(-1)))
    return tuple(halfspaces)


def _domain(theta: TropicalThetaFunction) -> FundamentalDomain:
    g = theta.base.g
    Pt = RatMatrix(transpose(theta.base.P.entries))
    corners = tuple(
        sorted(tuple(matvec(Pt.entries, s)) for s in product((0, 1), repeat=g))
    )
    return FundamentalDomain(
        matrix=Pt, corners=corners, halfspaces=_parallelepiped_halfspaces(Pt)
    )


# ---------- the corner locus ----------


@dataclass(frozen=True)
class SkeletonPiece:
    """A clipped codimension-1 piece of the corner locus: the tie locus of
    `witnesses` intersected with one cell and the fundamental domain."""

    witnesses: tuple[IntVec, ...]
    vertices: tuple[TropPoint, ...]

    @property
    def dim(self) -> int:
        return len(_affine_span(self.vertices))

    def to_json_dict(self) -> dict:
        return {
            "witnesses": [list(u) for u in self.witnesses],
            "vertices": [[str(c) for c in p] for p in self.vertices],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkeletonPiece":
        return cls(
            witnesses=tuple(tuple(int(x) for x in u) for u in data["witnesses"]),
            vertices=tuple(
                tuple(Fraction(c) for c in p) for p in data["vertices"]
            ),
        )


@dataclass(frozen=True)
class QuotientSummary:
    """Cell counts of the complex modulo the period lattice.

    zero_cells are canonical representatives (lattice coordinates in
    [0,1)^g mapped back).  one_cell_count counts classes of clipped pieces:
    edges for g <= 2 (none for g = 1), and for g = 3 the 2-dimensional
    pieces, not edges.  Both count the complex after it is clipped to the
    chosen parallelepiped, whose seams add points and edge fragments, so
    two bases of one torus can give different counts: 4 / 5 for
    P = [[2,1],[1,3]], 6 / 7 for its shear [[2,3],[3,7]].  The Betti
    numbers and the Euler characteristic V - E + (-1)^g C, computed for
    g <= 2, are intrinsic: the seams add as many points as edge fragments."""

    zero_cells: tuple[TropPoint, ...]
    one_cell_count: int
    top_cell_count: int
    betti0: int | None
    betti1: int | None
    euler_characteristic: int | None

    def to_json_dict(self) -> dict:
        return {
            "zero_cells": [[str(c) for c in p] for p in self.zero_cells],
            "one_cell_count": self.one_cell_count,
            "top_cell_count": self.top_cell_count,
            "betti0": self.betti0,
            "betti1": self.betti1,
            "euler_characteristic": self.euler_characteristic,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuotientSummary":
        def opt(x):
            return None if x is None else int(x)

        return cls(
            zero_cells=tuple(
                tuple(Fraction(c) for c in p) for p in data["zero_cells"]
            ),
            one_cell_count=int(data["one_cell_count"]),
            top_cell_count=int(data["top_cell_count"]),
            betti0=opt(data["betti0"]),
            betti1=opt(data["betti1"]),
            euler_characteristic=opt(data["euler_characteristic"]),
        )


@dataclass(frozen=True)
class CellComplex:
    """Linearity cells meeting the fundamental domain, the clipped corner
    locus, and the quotient topology."""

    g: int
    cells: tuple[LinearityCell, ...]
    skeleton: tuple[SkeletonPiece, ...]
    domain: FundamentalDomain
    quotient: QuotientSummary

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "domain": self.domain.to_json_dict(),
            "cells": [c.to_json_dict() for c in self.cells],
            "skeleton": [p.to_json_dict() for p in self.skeleton],
            "quotient": self.quotient.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CellComplex":
        return cls(
            g=int(data["g"]),
            cells=tuple(
                LinearityCell.from_json_dict(c) for c in data["cells"]
            ),
            skeleton=tuple(
                SkeletonPiece.from_json_dict(p) for p in data["skeleton"]
            ),
            domain=FundamentalDomain.from_json_dict(data["domain"]),
            quotient=QuotientSummary.from_json_dict(data["quotient"]),
        )


def _generic_seed(theta: TropicalThetaFunction, fd: FundamentalDomain):
    # k = 0 would probe the domain's centre P^T (1/2, ..., 1/2), a
    # half-period, which the divisors of the usual thetas pass through
    g = theta.base.g
    for k in range(1, _SEED_PROBES + 1):
        t = tuple(
            Fraction(1, 2) + Fraction((i + 1) * k, 64 * (i + 2) * g + 257)
            for i in range(g)
        )
        result = theta.evaluate(tuple(matvec(fd.matrix.entries, t)))
        if result.unique:
            return result.canonical
    matrix = [[str(c) for c in row] for row in fd.matrix.entries]
    raise InvalidDataError(
        f"no generic seed point found in the domain after {_SEED_PROBES} "
        f"probes; P^T = {matrix}"
    )


def _quotient_point(t: TropPoint):
    """The class of a point modulo the lattice: its lattice coordinates t
    reduced into [0, 1)^g."""
    return tuple(c % 1 for c in t)


def _canonical_shift(ts):
    """The lattice coordinates ts of a piece moved by the lattice vector
    that takes their barycenter into [0, 1)^g, sorted: the piece's key
    modulo the lattice."""
    shift = [sum(c) / len(ts) // 1 for c in zip(*ts)]
    return tuple(sorted(tuple(c - s for c, s in zip(t, shift)) for t in ts))


def _vertex_ties(u: IntVec, poly: Polytope, groups) -> dict:
    """The tie set at each vertex of u's certified cell: u and the witnesses
    of every pool plane tight there.  Complete: a witness u' at p ties with
    u at a point of the box, so it is pooled; its plane is tight at p, and
    the cell satisfies the deepest pooled plane of that normal, so the two
    are one plane, with u' among its witnesses and in poly[p]."""
    return {
        p: tuple(sorted({u, *(v for a, _ in tight for v in groups[a][1])}))
        for p, tight in poly.items()
    }


def _minus(p, t):
    return tuple(c - s for c, s in zip(p, t))


def _apart(bounds, d) -> bool:
    """Whether the box prod [lo_i - d_i, hi_i - d_i] misses [0, 1]^g."""
    return any(hi < di or lo > di + 1 for (lo, hi), di in zip(bounds, d))


def _translate(cell: LinearityCell, tau, u: IntVec, offsets):
    """The cell of u = cell.witness + Lam d, for tau = P^T d: points move by
    -tau, witnesses by Lam d, and halfspace i takes offsets[i], its offset b
    moved to b - <a, tau>.  Each vertex moves once, and the facets (a
    full-dimensional cell's halfspaces, in order) reuse the moved vertices
    and offsets.  Returns the moved cell and the vertex -> moved vertex map."""
    back = _minus(cell.witness, u)
    moved = {p: _minus(p, tau) for p in cell.vertices}
    facets = tuple(
        Facet(
            f.normal,
            b,
            tuple(_minus(w, back) for w in f.witnesses),
            tuple(map(moved.get, f.vertices)),
        )
        for f, b in zip(cell.facets, offsets)
    )
    return replace(
        cell,
        witness=u,
        halfspaces=tuple((h[0], b) for h, b in zip(cell.halfspaces, offsets)),
        vertices=tuple(moved.values()),
        facets=facets,
    ), moved


def corner_locus(theta: TropicalThetaFunction) -> CellComplex:
    """The tropical theta divisor in one fundamental parallelepiped.

    BFS across the witnesses around each kept cell, from a generic seed
    cell; every cell whose closure meets the domain is kept, and quotient
    counts are taken modulo the period lattice.  `_build_cell` runs once
    per coset class (`theta._cosets`); every other cell of the class is
    that cell moved by -P^T d (module docstring).  Each kept translate is
    clipped to the domain once, in lattice coordinates t (x = P^T t), where
    the domain is the unit box; its skeleton pieces are faces of that clip,
    deduplicated, and their vertices carry t into the quotient keys.  The
    tie sets at a built cell's vertices come from their tight sets
    (`_vertex_ties`), so `theta.evaluate` runs only for the seed probes.
    """
    g = theta.base.g
    if g > _MAX_RANK:
        raise RankTooLargeError(f"corner locus capped at g <= {_MAX_RANK}")
    if not theta.is_ample:
        raise InvalidDataError("corner locus needs an ample polarization")
    fd = _domain(theta)
    D, DP, Pt = theta._kernel.D, theta._kernel.P, fd.matrix.entries
    axes = [(e, tuple(-x for x in e)) for e in identity(g)]
    # class rep -> (Lam-coordinates of the built witness, its cell, sorted
    # neighbors, its polytope in t, the t -> vertex map, its halfspaces in
    # t, and the polytope's t bounds)
    classes: dict[IntVec, tuple] = {}
    seen: set[IntVec] = set()
    kept = []
    pieces = set()
    coords: dict[TropPoint, TropPoint] = {}  # skeleton vertex -> its t
    queue = deque([_generic_seed(theta, fd)])
    while queue:
        u = queue.popleft()
        if u in seen:
            continue
        seen.add(u)
        rep, n = theta._cosets.decompose(u)
        if rep not in classes:
            cell, poly, groups = _build_cell(theta, u)
            # every neighbor ties with u at a vertex of the cell
            ties = _vertex_ties(u, poly, groups)
            neighbors = tuple(sorted(set().union(*ties.values()) - {u}))
            # <a, x> >= b is <D P a, t> >= D b in t, with D P the kernel's
            # integer P; an invertible linear map keeps the tight sets and
            # their ranks, so _cut runs unchanged
            lift = {h: (matvec(DP, h[0]), D * h[1]) for h in set().union(*poly.values())}
            poly_t = {
                fd.lattice_coordinates(p): frozenset(map(lift.__getitem__, tight))
                for p, tight in poly.items()
            }
            bounds = [(min(c), max(c)) for c in zip(*poly_t)]
            planes = [lift[h] for h in cell.halfspaces]
            classes[rep] = (n, cell, neighbors, poly_t, dict(zip(poly_t, poly)), planes, bounds)
        n0, cell, neighbors, poly_t, vertex_of, planes, bounds = classes[rep]
        # the cell of u is cell - P^T d, with lattice coordinates in
        # [lo - d, hi - d], and the domain is [0, 1]^g in them: a box apart
        # from it needs no clip.  A box that meets it can still hold a cell
        # that misses it, so the exact clip by the box [d, d + 1] decides.
        d = _minus(n, n0)
        if _apart(bounds, d):
            continue
        box = [h for (e, f), k in zip(axes, d) for h in ((e, k), (f, -k - 1))]
        clipped = _clip(poly_t, box)
        if not clipped:
            continue
        tau = tuple(matvec(Pt, d))
        moved_cell, moved = _translate(
            cell, tau, u, [(b - vecdot(a, d)) / D for a, b in planes]
        )
        kept.append(moved_cell)
        # each piece is a face of the clip: tight sets stay complete, so its
        # vertices are those whose tight set holds the facet plane.  A vertex
        # of the built cell moves with it; only the box cut's own vertices
        # are mapped back to x.
        on_plane: dict[Halfspace, list[TropPoint]] = {}
        for t, tight in clipped.items():
            t_moved = _minus(t, d)
            p = vertex_of.get(t)
            q = moved[p] if p is not None else tuple(matvec(Pt, t_moved))
            coords[q] = t_moved
            for h in tight:
                on_plane.setdefault(h, []).append(q)
        # only full-dimensional cells have facets
        for plane, moved_facet in zip(planes, moved_cell.facets):
            verts = on_plane.get(plane)
            if verts:
                pieces.add((tuple(sorted(verts)), moved_facet.witnesses))
        back = _minus(cell.witness, u)
        queue.extend(_minus(w, back) for w in neighbors)

    kept = tuple(sorted(kept, key=lambda c: c.witness))
    skeleton = tuple(SkeletonPiece(w, v) for v, w in sorted(pieces))

    quotient = _quotient_summary(theta, fd, kept, skeleton, coords)
    return CellComplex(
        g=g, cells=kept, skeleton=skeleton, domain=fd, quotient=quotient
    )


def _quotient_summary(theta, fd, kept_cells, skeleton, coords) -> QuotientSummary:
    """Quotient counts; coords maps each skeleton vertex to its lattice
    coordinates, which key points and pieces modulo the lattice."""
    g = fd.g
    c_count = len({theta._cosets.decompose(c.witness)[0] for c in kept_cells if c.dim == g})
    # g <= 2: the divisor is a graph, points for g = 1, points and edges for
    # g = 2, whose nodes are the pieces' lex extremes (interior points are
    # tangencies against the clipping parallelepiped).  g = 3: vertex classes
    # and 2-dimensional piece classes; graph invariants of the 2-dimensional
    # skeleton are out of scope.  A piece with max(2, g) or more vertices is
    # an edge for g = 2 and 2-dimensional for g = 3.
    nodes: dict[TropPoint, int] = {}  # quotient point -> union-find index
    piece_keys = set()
    links = []
    for piece in skeleton:
        ts = [coords[p] for p in piece.vertices]
        ends = ts if g == 3 else (ts[0], ts[-1])
        ids = [nodes.setdefault(_quotient_point(t), len(nodes)) for t in ends]
        if len(ts) >= max(2, g):
            piece_keys.add(_canonical_shift(ts))
            links.append(ids)
    zero = tuple(sorted(tuple(matvec(fd.matrix.entries, t)) for t in nodes))
    v_count, e_count = len(nodes), len(piece_keys)
    if g == 3:
        return QuotientSummary(zero, e_count, c_count, None, None, None)

    # union-find over quotient nodes through quotient edges
    parent = list(range(v_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in links:
        parent[find(p)] = find(q)
    b0 = len({find(i) for i in range(v_count)})
    return QuotientSummary(
        zero_cells=zero,
        one_cell_count=e_count,
        top_cell_count=c_count,
        betti0=b0,
        betti1=e_count - v_count + b0,
        euler_characteristic=v_count - e_count + (-1) ** g * c_count,
    )


# ---------- export ----------


def _fmt(x) -> str:
    return f"{float(x):.6f}"


def _cycle_order(points):
    """Order coplanar points around their barycenter; exact comparisons."""
    if len(points) <= 3:
        return tuple(sorted(points))
    g = len(points[0])
    basis = _affine_span(tuple(sorted(points)))
    if len(basis) != 2:
        return tuple(sorted(points))
    bary = tuple(sum(p[i] for p in points) / len(points) for i in range(g))
    planar = []
    for p in sorted(points):
        d = tuple(c - b for c, b in zip(p, bary))
        planar.append((vecdot(d, basis[0]), vecdot(d, basis[1]), p))

    def half(xy):
        x, y, _ = xy
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross((a[0], a[1]), (b[0], b[1]))
        if c != 0:
            return -1 if c > 0 else 1
        return -1 if a[2] < b[2] else (1 if a[2] > b[2] else 0)

    ordered = sorted(planar, key=functools.cmp_to_key(cmp))
    return tuple(p for _, _, p in ordered)


def _export_json(complex_: CellComplex) -> bytes:
    blob = json.dumps(
        complex_.to_json_dict(), sort_keys=True, separators=(",", ":")
    )
    return (blob + "\n").encode("ascii")


def _export_svg(complex_: CellComplex) -> bytes:
    if complex_.g != 2:
        raise UnsupportedFormatError("svg export needs g = 2")
    fd = complex_.domain
    xs = [c[0] for c in fd.corners]
    ys = [c[1] for c in fd.corners]
    pad = Fraction(1, 2)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}">',
    ]
    t_corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ring = [
        tuple(matvec(fd.matrix.entries, t)) for t in t_corners
    ]
    path = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in ring)
    lines.append(
        f'<polygon points="{path}" fill="none" stroke="#888888" '
        'stroke-width="0.02"/>'
    )
    for piece in complex_.skeleton:
        pts = piece.vertices
        if len(pts) >= 2:
            a, b = pts[0], pts[-1]
            lines.append(
                f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                'stroke="#000000" stroke-width="0.04"/>'
            )
        else:
            lines.append(
                f'<circle cx="{_fmt(pts[0][0])}" cy="{_fmt(pts[0][1])}" '
                'r="0.05" fill="#000000"/>'
            )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


def _export_obj(complex_: CellComplex) -> bytes:
    if complex_.g != 3:
        raise UnsupportedFormatError("obj export needs g = 3")
    verts: list[TropPoint] = []
    index: dict[TropPoint, int] = {}
    elements = []
    for piece in complex_.skeleton:
        pts = _cycle_order(piece.vertices)
        ids = []
        for p in pts:
            if p not in index:
                verts.append(p)
                index[p] = len(verts)
            ids.append(index[p])
        if len(ids) >= 3:
            elements.append("f " + " ".join(str(i) for i in ids))
        elif len(ids) == 2:
            elements.append("l " + " ".join(str(i) for i in ids))
    lines = ["# corner locus mesh"]
    for p in verts:
        lines.append("v " + " ".join(_fmt(c) for c in p))
    lines.extend(elements)
    return ("\n".join(lines) + "\n").encode("ascii")


def export_mesh(complex_: CellComplex, format: str = "json") -> bytes:
    """Serialize a cell complex deterministically.  json works for every
    rank; svg projects g = 2, obj writes g = 3 surfaces."""
    if format == "json":
        return _export_json(complex_)
    if format == "svg":
        return _export_svg(complex_)
    if format == "obj":
        return _export_obj(complex_)
    raise UnsupportedFormatError(f"unknown format {format!r}")
