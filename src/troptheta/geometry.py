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

Polytopes are held in double-description form (Motzkin-Raiffa-Thompson-
Thrall 1953; Fukuda-Prodon 1996): a dict from each vertex to the frozenset
of applied halfspaces tight there.  `_cut`, the one primitive, intersects
such a polytope with one halfspace.  Two vertices span an edge iff the
normals tight at both have rank g-1 (those constraints cut out the smallest
face holding both), so each new vertex is one exact interpolation along a
crossing edge, with no linear solve.  A cell is its box cut by its pool of
competitors; cut by the domain's 2g halfspaces it says whether it meets the
domain, and each facet (its vertices, with the facet plane made tight) cut
the same way is a piece of the divisor.  Only unbounded cells (non-ample
functions) use the g-subset enumeration `_vertices_of`.

The corner locus builds only cells that meet the domain.  The cell of w
lies in { <v - w, x> >= w(w) - w(v) } for every v, so before a candidate is
built the domain polytope is cut by these halfspaces for the witnesses
already known around the kept cells that reached it; an empty cut proves
the cell misses the domain.  The tie set at a certified vertex is read off
its tight set: the cell's witness and the pool witnesses of every plane
tight there, which is complete by the pool soundness above.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Sequence

from .lattice import CosetLattice, enumerate_below
from .linalg import (
    IntVec,
    RatMatrix,
    Row,
    ShapeMismatchError,
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
_MAX_ROUNDS = 24  # box-growth rounds in _build_cell
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
    planes cut nothing, so s is kept as an integer over a positive integer.
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
                normals = ((0,) * len(a), *(h[0] for h in shared))
                if len(_affine_span(normals)) < len(a) - 1:
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
    """Row-reduced basis of the direction space of the affine hull."""
    if len(points) <= 1:
        return ()
    base = points[0]
    rows = [list(q - p for p, q in zip(base, pt)) for pt in points[1:]]
    g = len(base)
    col = 0
    r = 0
    while r < len(rows) and col < g:
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
    return tuple(tuple(row) for row in rows[:r])


def _gcd_normalize(normal: IntVec, offset: Fraction) -> Halfspace:
    g = 0
    for a in normal:
        g = gcd(g, abs(int(a)))
    if g == 0:
        raise InvalidDataError("zero normal")
    return tuple(int(a) // g for a in normal), Fraction(offset) / g


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
    """All u with w(u) + <u, v> <= bound."""
    point = as_point(v)
    if not theta.is_ample:
        return sorted(
            rep
            for rep, w in theta.profile.finite_entries()
            if w + vecdot(rep, point) <= bound
        )
    B = theta._B_rows
    lam = theta.factor.Lambda
    lam_t_v = matvec(transpose(lam), point)
    out = set()
    for rep, w in theta.profile.finite_entries():
        pr = matvec(theta.base.P.entries, rep)
        lin = tuple(map(sum, zip(theta.factor.ell, pr, lam_t_v)))
        center = solve(B, tuple(-c for c in lin))
        # B center = -lin, so the minimum is <lin, center>/2 + the constant
        center_val = vecdot(lin, center) / 2 + w + vecdot(rep, point)
        if bound < center_val:
            continue
        for n in enumerate_below(B, center, bound - center_val):
            out.add(tuple(r + vecdot(row, n) for r, row in zip(rep, lam)))
    return sorted(out)


def _box_halfspaces(center, halfwidth, g):
    out = []
    for i, c in enumerate(center):
        e = tuple(int(j == i) for j in range(g))
        out += [(e, c - halfwidth), (tuple(-x for x in e), -(c + halfwidth))]
    return out


def _build_cell(
    theta: TropicalThetaFunction, u: IntVec, center, wcache: dict
) -> tuple[LinearityCell, Polytope, dict]:
    """The global cell of witness u and its polytope: competitors pooled
    over a growing box, certified once the polytope stays strictly inside.

    If Q is the intersection of the pool's halfspaces, then Q cut to the box
    equals the true cell cut to the box (any point of the box beaten by some
    outside competitor is beaten by its local witness, which is in the
    pool); so Q inside the box certifies Q = cell.  center should be a point
    in or near the cell; pool sizes stay small when it is.

    Each round `_cut`s the box corners, tight on their g box planes, by the
    pool, most violated plane first (d|d|/<a,a>, d = b - <a, centre>, is the
    signed distance d/|a| made exact).  Tight sets stay complete, so edges
    are the vertex pairs whose shared tight normals have rank g-1, a vertex
    touches the box iff a box plane is in its tight set, and a facet is the
    vertices whose tight set holds its plane.  The polytope and the pool
    (normal -> (offset, witnesses)) are returned for corner_locus's domain
    cuts and tie sets; wcache memoizes extended_w across calls.
    """
    g = theta.base.g
    w_u = theta.extended_w(u)
    center = as_point(center)
    halfwidth = Fraction(13, 7)

    for round_ in range(_MAX_ROUNDS):
        corners = [
            tuple(c + s * halfwidth for c, s in zip(center, signs))
            for signs in product((-1, 1), repeat=g)
        ]
        # u'' can only win somewhere in the box if l_{u''} <= l_u at a box
        # corner (their difference is affine), so pool per corner with the
        # corner's own bound
        groups: dict[IntVec, tuple[Fraction, list[IntVec]]] = {}
        for corner in corners:
            for other in _terms_below(theta, corner, w_u + vecdot(u, corner)):
                if other == u:
                    continue
                if other not in wcache:
                    wcache[other] = theta.extended_w(other)
                normal = tuple(int(o - a) for o, a in zip(other, u))
                a, b = _gcd_normalize(normal, w_u - wcache[other])
                cur = groups.get(a)
                if cur is None or b > cur[0]:
                    groups[a] = (b, [other])
                elif b == cur[0] and other not in cur[1]:
                    cur[1].append(other)
        box = frozenset(_box_halfspaces(center, halfwidth, g))
        poly = {
            c: frozenset(h for h in box if vecdot(h[0], c) == h[1])
            for c in corners
        }

        # d = b - <a, centre> in integers over the centre's denominator
        den = lcm(*(c.denominator for c in center))
        scaled = [c.numerator * (den // c.denominator) for c in center]

        def key(con):
            a, b = con
            d = b.numerator * den - b.denominator * vecdot(a, scaled)
            return Fraction(d * abs(d), (b.denominator * den) ** 2 * vecdot(a, a))

        pool = [(a, b) for a, (b, _) in sorted(groups.items())]
        poly = _clip(poly, sorted(pool, key=key, reverse=True))
        if poly and not any(box & tight for tight in poly.values()):
            break
        if round_ == _MAX_ROUNDS - 1:
            raise InvalidDataError(
                f"cell of witness {u} did not stabilize after {_MAX_ROUNDS} "
                f"rounds: last centre ({', '.join(map(str, center))}), "
                f"halfwidth {halfwidth}, pool of {len(groups)} halfspaces"
            )
        # vertices inside the box are certified cell points: retarget the
        # box onto their bounding region, widening exponentially as backup
        margin = Fraction(2, 3) * 2 ** max(0, round_ - 1)
        if poly:
            lo = [min(p[i] for p in poly) for i in range(g)]
            hi = [max(p[i] for p in poly) for i in range(g)]
            center = tuple((a + b) / 2 for a, b in zip(lo, hi))
            halfwidth = max((b - a) / 2 for a, b in zip(lo, hi)) + margin
        else:
            halfwidth = margin

    verts = tuple(sorted(poly))
    tight = []
    facet_list = []
    span = _affine_span(verts)
    dim = len(span)
    for a, (b, wits) in sorted(groups.items()):
        tight_verts = tuple(p for p in verts if (a, b) in poly[p])
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
    point = as_point(v)
    result = theta.evaluate(point)
    if not result.unique:
        raise OnCornerLocusError(result.witnesses)
    u = result.canonical
    if not theta.is_ample:
        # finite support: the competitor set is the whole profile; the cell
        # of a uniquely witnessed point is always full-dimensional, though
        # possibly unbounded, so no vertex certification is attempted
        w_u = theta.extended_w(u)
        groups: dict[IntVec, Fraction] = {}
        for rep, w in theta.profile.finite_entries():
            if rep == u:
                continue
            a, b = _gcd_normalize(
                tuple(int(o - a_) for o, a_ in zip(rep, u)), w_u - w
            )
            if a not in groups or b > groups[a]:
                groups[a] = b
        ineqs = tuple(sorted(groups.items()))
        return LinearityCell(
            witness=u,
            halfspaces=ineqs,
            vertices=_vertices_of(ineqs, g),
            dim=g,
            span=tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(g))
                for i in range(g)
            ),
            facets=(),
            bounded=False,
        )
    return _build_cell(theta, u, point, {})[0]


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
        return tuple(self.matrix.solve(as_point(v)))

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
    [0,1)^g mapped back).  Euler characteristic and Betti numbers are
    computed for g <= 2; the divisor graph may carry subdivision points
    from the clipping seams, which changes no invariant."""

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
    g = theta.base.g
    for k in range(_SEED_PROBES):
        t = tuple(
            Fraction(1, 2) + Fraction((i + 1) * k, 64 * (i + 2) * g + 257)
            for i in range(g)
        )
        point = tuple(matvec(fd.matrix.entries, t))
        result = theta.evaluate(point)
        if result.unique:
            return result.canonical, point
    matrix = [[str(c) for c in row] for row in fd.matrix.entries]
    raise InvalidDataError(
        f"no generic seed point found in the domain after {_SEED_PROBES} "
        f"probes; P^T = {matrix}"
    )


def _quotient_point(fd: FundamentalDomain, p: TropPoint):
    return tuple(c % 1 for c in fd.lattice_coordinates(p))


def _canonical_shift(fd: FundamentalDomain, points):
    """Lattice translate moving the barycenter into [0,1)^g coordinates."""
    g = fd.g
    bary = tuple(sum(p[i] for p in points) / len(points) for i in range(g))
    t = fd.lattice_coordinates(bary)
    shift_t = tuple(c - (c % 1) for c in t)
    delta = tuple(matvec(fd.matrix.entries, shift_t))
    return tuple(tuple(c - d for c, d in zip(p, delta)) for p in points)


def _misses_domain(theta, w, around, wcache, domain: Polytope) -> bool:
    """Whether the cell of w certainly misses the domain.

    The cell of w lies in { <v - w, x> >= w(w) - w(v) } for every v, since
    l_w <= l_v on it.  So if the domain polytope cut by these halfspaces for
    the known witnesses `around` is empty, so is the cell's meet with the
    domain.  The test is exact and one-sided: a cell it passes is built and
    checked as before.
    """
    for v in (w, *around):
        if v not in wcache:
            wcache[v] = theta.extended_w(v)
    halfspaces = [
        _gcd_normalize(
            tuple(a - b for a, b in zip(v, w)), wcache[w] - wcache[v]
        )
        for v in around
        if v != w
    ]
    return not _clip(domain, halfspaces)


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


def corner_locus(theta: TropicalThetaFunction) -> CellComplex:
    """The tropical theta divisor in one fundamental parallelepiped.

    BFS across the witnesses around each kept cell, from a generic seed
    cell; every cell whose closure meets the domain is kept, facets are
    clipped to the domain and deduplicated, and quotient counts are taken
    modulo the period lattice.  A candidate is built only if the domain cut
    by its halfspaces against the witnesses around the kept cells that
    reached it is not empty (`_misses_domain`).  The tie sets at a kept
    cell's vertices come from their tight sets (`_vertex_ties`), so
    `theta.evaluate` runs only for the seed probes.
    """
    g = theta.base.g
    if g > _MAX_RANK:
        raise RankTooLargeError(f"corner locus capped at g <= {_MAX_RANK}")
    if not theta.is_ample:
        raise InvalidDataError("corner locus needs an ample polarization")
    fd = _domain(theta)
    seed, seed_point = _generic_seed(theta, fd)
    domain = {
        c: frozenset(h for h in fd.halfspaces if vecdot(h[0], c) == h[1])
        for c in fd.corners
    }

    built: set[IntVec] = set()
    kept = []
    pieces = set()
    wcache: dict[IntVec, Fraction] = {}
    # known[w]: the witnesses around every kept cell that reached w so far
    known: dict[IntVec, set[IntVec]] = {}
    queue = deque([(seed, seed_point)])
    while queue:
        u, hint = queue.popleft()
        if u in built:
            continue
        built.add(u)
        if _misses_domain(theta, u, known.pop(u, ()), wcache, domain):
            continue
        cell, poly, groups = _build_cell(theta, u, hint, wcache)
        if not _clip(poly, fd.halfspaces):
            continue
        kept.append(cell)
        # clip the facets (only full-dimensional cells have them) to the
        # domain: a facet is its vertices with the plane added as tight
        for facet in cell.facets:
            plane = (facet.normal, facet.offset)
            face = {p: poly[p] | {plane} for p in facet.vertices}
            verts = tuple(sorted(_clip(face, fd.halfspaces)))
            if verts:
                pieces.add((verts, facet.witnesses))
        # facet witnesses reach the facet-sharing neighbors; the tie sets at
        # the cell's vertices reach everything else that touches the cell;
        # each neighbor is seeded with a point known to lie in its closure
        neighbors: dict[IntVec, TropPoint] = {}
        for facet in cell.facets:
            for w in facet.witnesses:
                neighbors.setdefault(w, facet.vertices[0])
        ties = _vertex_ties(u, poly, groups)
        for p in cell.vertices:
            for w in ties[p]:
                neighbors.setdefault(w, p)
        neighbors.pop(u, None)
        for w in sorted(neighbors):
            if w not in built:
                known.setdefault(w, {u}).update(neighbors)
                queue.append((w, neighbors[w]))

    kept = tuple(sorted(kept, key=lambda c: c.witness))
    skeleton = tuple(SkeletonPiece(w, v) for v, w in sorted(pieces))

    quotient = _quotient_summary(theta, fd, kept, skeleton)
    return CellComplex(
        g=g, cells=kept, skeleton=skeleton, domain=fd, quotient=quotient
    )


def _quotient_summary(theta, fd, kept_cells, skeleton) -> QuotientSummary:
    g = fd.g
    factor_cosets = CosetLattice(theta.factor.Lambda)
    top_classes = {
        factor_cosets.decompose(c.witness)[0]
        for c in kept_cells
        if c.dim == g
    }

    if g == 1:
        nodes = {
            _quotient_point(fd, piece.vertices[0]) for piece in skeleton
        }
        zero = tuple(
            sorted(tuple(matvec(fd.matrix.entries, t)) for t in nodes)
        )
        v_count = len(zero)
        return QuotientSummary(
            zero_cells=zero,
            one_cell_count=0,
            top_cell_count=len(top_classes),
            betti0=v_count,
            betti1=0,
            euler_characteristic=v_count - len(top_classes),
        )

    if g == 2:
        edge_keys = set()
        node_keys = set()
        adjacency = []
        for piece in skeleton:
            pts = piece.vertices
            if len(pts) == 1:
                node_keys.add(_quotient_point(fd, pts[0]))
                continue
            # endpoints are the lex extremes; interior points (tangencies
            # against the clipping parallelepiped) are not graph nodes
            canon = tuple(sorted(_canonical_shift(fd, pts)))
            edge_keys.add(canon)
            ends = (_quotient_point(fd, pts[0]), _quotient_point(fd, pts[-1]))
            node_keys.update(ends)
            adjacency.append((canon, tuple(sorted(ends))))
        # union-find over quotient nodes through quotient edges
        parent = {n: n for n in node_keys}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        seen_edges = set()
        for canon, (p, q) in sorted(adjacency):
            if canon in seen_edges:
                continue
            seen_edges.add(canon)
            rp, rq = find(p), find(q)
            if rp != rq:
                parent[rp] = rq
        v_count = len(node_keys)
        e_count = len(edge_keys)
        b0 = len({find(n) for n in node_keys})
        b1 = e_count - v_count + b0
        zero = tuple(
            sorted(tuple(matvec(fd.matrix.entries, t)) for t in node_keys)
        )
        return QuotientSummary(
            zero_cells=zero,
            one_cell_count=e_count,
            top_cell_count=len(top_classes),
            betti0=b0,
            betti1=b1,
            euler_characteristic=v_count - e_count + len(top_classes),
        )

    # g = 3: report facet classes and vertex classes; graph invariants of
    # the 2-dimensional skeleton are out of scope
    face_keys = set()
    node_keys = set()
    for piece in skeleton:
        pts = piece.vertices
        if len(pts) >= 3:
            face_keys.add(tuple(sorted(_canonical_shift(fd, pts))))
        for p in pts:
            node_keys.add(_quotient_point(fd, p))
    zero = tuple(sorted(tuple(matvec(fd.matrix.entries, t)) for t in node_keys))
    return QuotientSummary(
        zero_cells=zero,
        one_cell_count=len(face_keys),
        top_cell_count=len(top_classes),
        betti0=None,
        betti1=None,
        euler_characteristic=None,
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
