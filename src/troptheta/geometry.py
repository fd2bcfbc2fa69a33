"""Polyhedral structure of tropical theta functions.

A tropical theta function is a min of affine forms l_u(x) = w(u) + <u, x>.
Its domains of linearity are the cells where one witness u attains the min;
the corner locus (the points with >= 2 witnesses) is the tropical theta
divisor.  Everything here is exact: cells come out as rational H- and
V-representations, the divisor as a polyhedral complex clipped to one
fundamental parallelepiped, with lattice identifications and the quotient
counts (Betti numbers, Euler characteristic) computed from them.

Soundness of the competitor pools: for any polytope R and any single
witness u, f <= l_u everywhere, so every u'' active somewhere in R satisfies
l_{u''} <= l_u somewhere in R, hence at a vertex of R (their difference is
affine).  Sweeping the vertices with bound l_u(vertex) is one ellipsoid
enumeration per coset and vertex, finite by positive-definiteness.

R is certified up front (Voronoi 1908; Conway-Sloane, ch. 2).  The cell of
u = rep + Lam n lies in u's cell within its own coset, since the min over
all competitors is at most the min over that coset.  With B = P Lam and
x0 = -Lam^-T (ell + P u), l_{u + Lam k}(x) - l_u(x) = (1/2) k^T B k +
k^T Lam^T (x - x0), which is >= 0 for every integer k on that coset cell.
For k = +-b_j, the basis b_j = U e_j to which LLL reduces B
(Lenstra-Lenstra-Lovasz 1982), with G = U^T B U, this reads
|<Lam b_j, x - x0>| <= G_jj / 2: g pairs of parallel planes, a
parallelepiped that is as tight as the reduced basis is short, and whose
bound the cubes of diag(2, 2, 2) attain.  `_build_cell` widens each bound by
`_MARGIN` to R_u and reads R_u's planes and 2^g vertices off the integer
frame (`theta._frame`) of the theta's form K = D B, which LLL reduces as B,
around D (ell + P u) (`theta._base`, which fills the theta's table too).

Polytopes are held in exact double-description form (Motzkin-Raiffa-
Thompson-Thrall 1953; Fukuda-Prodon 1996), in integers as in Avis's lrs
(2000) and in lattice coordinates t (x = P^T t): a dict from each vertex, a
primitive integer vector (X, den) with den > 0 for t = X / den, to the
bitmask of its tight planes.  A plane is one integer row of its cell's table
(`_Planes`: the region, the domain [0, 1]^g and the pool; <a, x> >= b reads
<D P a, t> >= D b with the kernel's integer D P), so a slack is one dot
product.  `_cut`, the one primitive, cuts by one row: two vertices span an
edge iff the normals tight at both (an AND of masks) have rank g-1, cached
per mask, and each new vertex is an integer combination of the edge's ends.
Tight sets stay complete under `_cut`, so each facet's piece of the divisor
is a face of the domain clip: the vertices whose mask holds the facet plane.
An unbounded cell (of a non-ample function) is `_cut` from a box that holds
all its vertices strictly (`linearity_cell`).

Results keep the integer form to the mesh bytes.  A returned point x = P^T t
(a cell vertex, a piece vertex, a zero cell or a span direction) is held as
a homogeneous x, (V, q) with V = (D P)^T X and q = D den over their gcd, and
an offset as a ratio (num, den), both in lowest terms with a positive last
entry, so equal values have equal forms (`_lowest`).  The Fraction fields of
the public classes (`vertices`, `offset`, `halfspaces`, `span`,
`zero_cells`) are views formed when first read (`_x`), with the same
`repr`, `==` and json as eager Fractions.  The writers print "p/q" after
one gcd (`_ratio`) and floats as V_i / q, an int true division that rounds
exactly as float(Fraction) does.

The corner locus is periodic: by the transformation law
w(u + Lam d) = w(u) + c_trop(d) + [d, u], l_{u+Lam d}(x) - l_{u''+Lam d}(x)
= l_u(x + tau) - l_{u''}(x + tau) for tau = P^T d, so the cell of u + Lam d
is the cell of u moved by -tau (same normals, offsets b - <a, tau>,
witnesses shifted by Lam d; lex order is kept).  Witnesses are walked as
(rep, n), u = rep + Lam n, in Lambda-coordinates.  One cell is built per
coset class and moved to the rest of its class by one integer shift, in t
by -d: (X, den) becomes (X - den d, den), the offset of a plane row (A, -N)
over its scale q becomes (N - <A, d>) / q, witnesses move by Lam d, and the
neighbors (rep_w, n_w) of the built cell become (rep_w, n_w + d).  `_place`
is the one assembly of a cell and its facets, at d = 0 or moved.  A moved
cell whose integer coordinate bounds miss the domain is dropped unclipped;
the rest are clipped once, by the domain planes that some moved vertex is
not strictly inside (a polytope can miss a box its bounds meet), and the
quotient keys points by their residues modulo den.  The tie set at a
certified vertex is read off its mask: the cell's witness and the pool
witnesses of every plane tight there.  It is complete: a witness u' at p
ties with u at a point of the region, so it is pooled; its plane is tight
at p, and the cell satisfies the deepest pooled plane of that normal, so
the two are one plane, with u' among its witnesses and its bit in p's mask.
The sweeps take each region corner as integers (V, q) for x = V / q with an
integer bound, walk each coset around its quadratic's real minimizer
(`theta._coset_centres`), and carry D w(u) with each competitor u
(`theta._coset_terms`), so the pool offsets are integer differences.  A
lambda = 0 theta's sweeps and cells scan the same one table of D w(u)
(`theta._coset_constants`) over its finite support.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import add, and_, mul, or_, sub
from typing import NamedTuple, Sequence

from .lattice import _over_common_denominator, enumerate_below
from .linalg import (
    IntVec,
    RatMatrix,
    Row,
    Rows,
    ShapeMismatchError,
    _as_fraction,
    _as_int,
    _echelon,
    identity,
    int_vector_from,
    inverse,
    json_list,
    matvec,
    point,
    rows_from,
    transpose,
    vecdot,
)
from .theta import TropicalThetaFunction
from .varieties import InvalidDataError, TropPoint


class OnCornerLocusError(ValueError):
    """The query point lies on the corner locus; carries the tie set."""

    def __init__(self, ties: tuple[IntVec, ...]):
        self.ties = ties
        super().__init__(f"point lies on the corner locus; witnesses {ties}")


class RankTooLargeError(ValueError):
    """Vertex enumeration is only provided for g <= 3."""


class UnsupportedFormatError(ValueError):
    """Unknown export format, or format/rank mismatch."""


class DivisorTooLargeError(ValueError):
    """More than _MAX_CELLS cells meet the fundamental domain."""


_MAX_RANK = 3
# far above any divisor the tests and benchmarks draw (a few hundred cells);
# a long thin domain, P = [[1 + a^2, a], [a, 1]], has a + 4 cells
_MAX_CELLS = 10_000
Polytope = dict[IntVec, int]  # homogeneous vertex (X, den) -> tight mask
_MARGIN = Fraction(1, 16)  # added to each bound of a cell's certified region


# ---------- exact polyhedral helpers ----------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Planes(NamedTuple):
    """A cell's integer planes in lattice coordinates t: row k, (A, -B), is
    <A, t> >= B and bit k of a tight mask, and the slack of a vertex
    (X, den) is <row, (X, den)>.  `edges` caches, per mask, whether the
    normals of its rows have rank g-1."""

    rows: list[IntVec]
    edges: dict[int, bool]


def _move(v: IntVec, d: IntVec) -> IntVec:
    """The homogeneous point v moved by -d; it stays primitive."""
    return (*map(sub, v, [v[-1] * s for s in d]), v[-1])


def _cut(poly: Polytope, planes: _Planes, k: int) -> Polytope:
    """poly intersected with plane k of its table: the one polytope primitive.

    Vertices with positive slack s stay; vertices on the plane stay and gain
    bit k.  Each new vertex is on an edge from a kept p to a cut n: the
    primitive part of s_p n - s_n p, with zero slack and den > 0.  (p, n) is
    an edge iff the normals tight at both have rank g-1; a plane tight inside
    an edge is tight at both ends, so the new mask is the shared one plus
    bit k.  No normal is zero, so fewer than two have rank as many as they
    are.  Returns poly itself when no vertex is cut, {} when all are.
    """
    rows, edges = planes
    h, bit, g = rows[k], 1 << k, len(rows[k]) - 1
    slacks = [(v, m, sum(map(mul, h, v))) for v, m in poly.items()]
    if all(s > 0 for _, _, s in slacks):
        return poly
    cut = [row for row in slacks if row[2] < 0]
    out: Polytope = {}
    for p, m, s_p in slacks:
        if s_p == 0:
            out[p] = m | bit
        elif s_p > 0:
            out[p] = m
            for n, m_n, s_n in cut:
                shared = m & m_n
                edge = edges.get(shared)
                if edge is None:
                    normals = [rows[i][:g] for i in _bits(shared)]
                    if len(normals) < 2:
                        edges[shared] = edge = len(normals) == g - 1
                    else:
                        edges[shared] = edge = len(normals) >= g - 1 and _echelon(normals, g)[1] == g - 1
                if edge:
                    v = [s_p * y - s_n * x for x, y in zip(p, n)]
                    c = gcd(*v)
                    out[tuple(x // c for x in v)] = shared | bit
    return out


def _clip(poly: Polytope, planes: _Planes, ks) -> Polytope:
    for k in ks:
        if not poly:
            break
        poly = _cut(poly, planes, k)
    return poly


def _lowest(v) -> IntVec:
    """The integer vector v over the gcd of its entries, signed so that its
    last entry is positive: a homogeneous x (V, q), or a ratio (num, den),
    in lowest terms."""
    f = gcd(*v)
    if v[-1] < 0:
        f = -f
    return tuple(v) if f == 1 else tuple([x // f for x in v])


def _hx(t: IntVec, cols, D: int) -> IntVec:
    """The homogeneous x of x = P^T t, for the homogeneous t = (X, den) and
    cols the columns of D P: (V, q) = ((D P)^T X, D den) in lowest terms."""
    return _lowest([*[sum(map(mul, c, t)) for c in cols], D * t[-1]])


@functools.lru_cache(maxsize=1024)
def _x(p: IntVec) -> TropPoint:
    """The Fraction view V / q of a homogeneous x (V, q): formed once per
    point while it is cached, and shared by every object that holds it."""
    q = p[-1]
    return tuple(Fraction(v, q) for v in p[:-1])


def _ratio(n: int, d: int) -> str:
    """n / d, for d > 0, as the "p/q" literal that str(Fraction(n, d))
    prints."""
    f = gcd(n, d)
    return str(n // f) if d == f else f"{n // f}/{d // f}"


def _literals(p: IntVec) -> list[str]:
    """The "p/q" literals of the coordinates of a homogeneous x (`_ratio`)."""
    q = p[-1]
    return [str(v) for v in p[:-1]] if q == 1 else [_ratio(v, q) for v in p[:-1]]


def _x_keys(points) -> dict[IntVec, IntVec]:
    """Integer keys in the lex order of x for homogeneous points (V, q):
    each V over one common denominator."""
    den = lcm(*(p[-1] for p in points))
    return {p: tuple(v * (den // p[-1]) for v in p[:-1]) for p in points}


def _affine_span(points) -> tuple[IntVec, ...]:
    """Reduced row echelon basis of the direction space of the affine hull
    of homogeneous points, as homogeneous rows: the pivot rows of one
    fraction-free elimination of their differences, taken over one common
    denominator, over its pivot."""
    if len(points) <= 1:
        return ()
    keys = _x_keys(points)
    base = keys[points[0]]
    rows, rank, p, _ = _echelon([[a - b for b, a in zip(base, keys[pt])] for pt in points[1:]], len(base))
    return tuple(_lowest((*row, p)) for row in rows[:rank])


def _identity_span(g: int) -> tuple[IntVec, ...]:
    return tuple((*e, 1) for e in identity(g))


def _repr(obj, names) -> str:
    """The dataclass repr of obj with the public views `names`."""
    return f"{type(obj).__name__}({', '.join(f'{n}={getattr(obj, n)!r}' for n in names)})"


def _pool(u: IntVec, w_u: int, pairs) -> dict:
    """The planes l_u <= l_{u''} of the competitors (u'', D w(u'')) with
    u'' != u, by primitive normal a = (u'' - u) / m: <a, x> >= num / (D m)
    for num = D w(u) - D w(u''), w_u = D w(u), the deepest per normal, with
    its witnesses: a -> (num, m, ws).  The offsets are differences of the
    integers the sweep carries; no competitor is decomposed again."""
    groups: dict[IntVec, tuple[int, int, list[IntVec]]] = {}
    for other, w in pairs:
        if other == u:
            continue
        normal = tuple(o - c for o, c in zip(other, u))
        m = gcd(*normal)
        a = tuple(c // m for c in normal)
        num = w_u - w
        cur = groups.get(a)
        if cur is None or num * cur[1] > cur[0] * m:
            groups[a] = (num, m, [other])
        elif num * cur[1] == cur[0] * m:
            cur[2].append(other)
    return groups


# ---------- cells ----------


@dataclass(frozen=True)
class Facet:
    """A codimension-1 face of a cell: the locus where the cell's witness
    ties with `witnesses` (every competitor sharing the supporting plane).

    It holds its offset as a ratio `bound` and its vertices as homogeneous
    x `points` (module docstring); `offset` and `vertices` are their
    Fraction views."""

    normal: IntVec
    bound: IntVec
    witnesses: tuple[IntVec, ...]
    points: tuple[IntVec, ...]

    offset = functools.cached_property(lambda self: Fraction(*self.bound))
    vertices = functools.cached_property(lambda self: tuple(map(_x, self.points)))

    def __repr__(self) -> str:
        return _repr(self, ("normal", "offset", "witnesses", "vertices"))


@dataclass(frozen=True)
class LinearityCell:
    """Closure of the region where one witness attains the min.

    halfspaces are the supporting competitors (normal u'' - u, offset
    w(u) - w(u'')); vertices are exact rational points.  dim < g marks a
    degenerate cell (only possible at special profiles); span records a
    basis of its affine hull's direction space; a full-dimensional cell of
    an ample theta has one facet per halfspace.  The cell holds them in
    integers: `inequalities` as (normal, offset ratio), `points` and
    `directions` as homogeneous x (module docstring), and per facet the
    offsets u' - u of its witnesses u' from the cell's witness u (`ties`,
    empty where there are no facets); `halfspaces`, `vertices`, `span` and
    `facets` are their views.
    """

    witness: IntVec
    inequalities: tuple[tuple[IntVec, IntVec], ...]
    points: tuple[IntVec, ...]
    dim: int
    directions: tuple[IntVec, ...]
    ties: tuple[tuple[IntVec, ...], ...]
    bounded: bool = True

    halfspaces = functools.cached_property(lambda self: tuple((a, Fraction(*b)) for a, b in self.inequalities))
    vertices = functools.cached_property(lambda self: tuple(map(_x, self.points)))
    span = functools.cached_property(lambda self: tuple(map(_x, self.directions)))

    @functools.cached_property
    def facets(self) -> tuple[Facet, ...]:
        """Each facet's vertices are the cell's vertices on its plane."""
        return tuple(
            Facet(
                a,
                (num, den),
                tuple(tuple(map(add, self.witness, k)) for k in ks),
                tuple(p for p in self.points if den * sum(map(mul, a, p)) == num * p[-1]),
            )
            for (a, (num, den)), ks in zip(self.inequalities, self.ties)
        )

    def __repr__(self) -> str:
        return _repr(self, ("witness", "halfspaces", "vertices", "dim", "span", "facets", "bounded"))

    @property
    def g(self) -> int:
        return len(self.witness)

    def contains(self, v: Sequence) -> bool:
        v = point(v, self.g)
        return all(vecdot(a, v) >= b for a, b in self.halfspaces)

    def to_json_dict(self) -> dict:
        return {
            "witness": list(self.witness),
            "halfspaces": [{"normal": list(a), "offset": _ratio(n, d)} for a, (n, d) in self.inequalities],
            "vertices": list(map(_literals, self.points)),
            "dim": self.dim,
            "span": list(map(_literals, self.directions)),
            "bounded": self.bounded,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LinearityCell":
        # facet data is not serialized; deserialized cells carry geometry only
        bounded = data["bounded"]
        if not isinstance(bounded, bool):
            raise TypeError(f"bounded: true or false required, got {type(bounded).__name__}: {bounded!r}")
        return cls(
            witness=int_vector_from(data["witness"], "witness"),
            inequalities=tuple(
                (int_vector_from(h["normal"], "normal"), _as_fraction(h["offset"], "offset").as_integer_ratio())
                for h in json_list(data["halfspaces"], "halfspaces")
            ),
            points=_homogeneous_points(data["vertices"], "vertices"),
            dim=_as_int(data["dim"], "dim"),
            directions=_homogeneous_points(data["span"], "span"),
            ties=(),
            bounded=bounded,
        )


def _terms_below(theta: TropicalThetaFunction, q: int, V, bound: int) -> list[tuple[IntVec, int]]:
    """All (u, D w(u)) with D q (w(u) + <u, v>) <= bound at the point
    v = V / q, sorted, D the theta kernel's denominator: the terms below
    bound / (D q), in integers (q > 0).

    One enumeration per finite coset of (q/2) n^T K n + <L, n> + C
    (`theta._coset_quadratics`), whose value at its real minimizer
    n* = U Z / (a q) (`theta._coset_centres`) is C + <L, U Z> / (2 a q): a
    term is below bound iff (1/2) (n - n*)^T K (n - n*) <= top / (2 a q^2),
    top = 2 a q (bound - C) - <L, U Z>.  D w(u) is read off each n by
    `theta._coset_terms`."""
    D = theta._kernel.D
    if not theta.is_ample:
        return sorted(
            (rep, w) for rep, (w, _) in theta._coset_constants.items() if q * w + D * sum(map(mul, rep, V)) <= bound
        )
    f = theta._frame
    out = []
    centres = theta._coset_centres(q, V)
    for (rep, w, base, L, C), (*_, Z) in zip(theta._coset_quadratics(q, V), centres, strict=True):
        UZ = [sum(map(mul, row, Z)) for row in f.U]
        top = 2 * f.a * q * (bound - C) - sum(map(mul, L, UZ))
        if top < 0:
            continue
        center = [Fraction(x, f.a * q) for x in UZ]
        out += theta._coset_terms(rep, w, base, enumerate_below(theta._form, center, Fraction(top, 2 * f.a * q * q)))
    out.sort()
    return out


class _Built(NamedTuple):
    """A built cell as `_place` moves it: the homogeneous x of the
    polytope's vertices in its order, (bit, offset denominator, normal,
    facet witness offsets) per halfspace, and the witnesses of each pool
    plane by bit."""

    witness: IntVec
    poly: Polytope
    points: tuple[IntVec, ...]
    planes: _Planes
    dim: int
    directions: tuple[IntVec, ...]
    halfspaces: tuple[tuple, ...]
    witnesses: dict[int, list[IntVec]]

    @property
    def cell(self) -> LinearityCell:
        zero = (0,) * len(self.witness)
        return _place(self, zero, zero, self.points)


def _place(built: _Built, d: IntVec, shift, points) -> LinearityCell:
    """The built cell moved by -d in t (module docstring), shift = Lam d,
    with points the homogeneous x of its moved vertices.  Its facets'
    witness offsets do not move."""
    rows, d1 = built.planes.rows, (*d, 1)
    inequalities = []
    for k, q, n, _ in built.halfspaces:
        num = -sum(map(mul, rows[k], d1))
        f = gcd(num, q)
        inequalities.append((n, (num // f, q // f)))
    ties = tuple(ks for *_, ks in built.halfspaces) if built.dim == len(d) else ()
    u = tuple(map(add, built.witness, shift))
    return LinearityCell(u, tuple(inequalities), points, built.dim, built.directions, ties)


def _build_cell(theta: TropicalThetaFunction, u: IntVec) -> _Built:
    """The global cell of witness u and its polytope, clipped once inside
    its certified region R_u (module docstring).

    The pool's halfspaces cut to R_u give the true cell cut to R_u (a point
    of R_u beaten by an outside competitor is beaten by its local witness,
    which is pooled), which is the cell; the margin keeps R_u's planes off
    its vertices, so a polytope touching them raises.  In lattice
    coordinates t, R_u is |M t + c| <= half + D eps, with c = U^T D (ell +
    P u) and M, half from `theta._frame`, so its corners are
    M^-1 (+-(half + D eps) - c), read off the frame's A / a in integers.
    eps is `_MARGIN` times min(1, min_j G_jj / 2): it shrinks with the form,
    where a fixed 1/16 pooled 1 / (8 p) competitors per corner for P = [[p]].
    They are `_cut` by the pool, most violated plane first (d|d|/<a,a>,
    d = b - <a, x0>, is the signed distance d/|a| made exact).  Tight sets
    stay complete, so the cell's affine hull is cut out by the planes tight
    at every vertex, and in a full-dimensional cell a plane is a facet iff
    the masks of the vertices on it meet in its own bit alone (a lower face
    lies on two or more facet planes).  The plane table holds the region,
    the domain (for corner_locus's clips) and the pool, sorted by normal.
    """
    g = theta.base.g
    D, DP = theta._kernel.D, theta._kernel.P
    cols = tuple(zip(*DP))
    frame = theta._frame
    Ut, A, a, half = tuple(zip(*frame.U)), frame.A, frame.a, frame.half
    p, q = _MARGIN.numerator, _MARGIN.denominator
    w_u = theta._w_numerator(u)
    y = theta._base(u)
    c = [q * sum(map(mul, b, y)) for b in Ut]
    r = [q * h + p * min(D, *half) for h in half]

    # rows 0..2g-1: the region scaled by q, <q M_j, t> >= -(c_j + r_j) and
    # <-q M_j, t> >= c_j - r_j, each corner tight on g of them; rows
    # 2g..4g-1: the domain, t_i >= 0 and -t_i >= -1
    rows = []
    for m_j, c_j, r_j in zip(frame.M, c, r):
        rows += [(*(q * x for x in m_j), c_j + r_j), (*(-q * x for x in m_j), r_j - c_j)]
    for e in identity(g):
        rows += [(*e, 0), (*(-x for x in e), 1)]
    Ac = [sum(map(mul, row, c)) for row in A]  # the centre t0 is -Ac / (a q)
    corners = {}
    for signs in product((0, 1), repeat=g):
        R = [r_j if s else -r_j for r_j, s in zip(r, signs)]
        v = [sum(map(mul, row, R)) - x for row, x in zip(A, Ac)] + [a * q]
        f = gcd(*v)
        corners[tuple(x // f for x in v)] = sum(1 << (2 * i + s) for i, s in enumerate(signs))

    # u'' can only win somewhere in the region if l_{u''} <= l_u at one of
    # its corners (their difference is affine), so pool per corner with its
    # own bound (its D w(u'') carried by the sweep): the corner X / den is
    # x = V / (D den) for V = (D P)^T X, where D (D den) l_u(x) is an integer
    others: dict[IntVec, int] = {}
    for corner in corners:
        V = [sum(map(mul, c, corner)) for c in cols]
        den = D * corner[-1]
        others.update(_terms_below(theta, den, V, den * w_u + D * sum(map(mul, u, V))))
    pool = sorted(_pool(u, w_u, others.items()).items())

    # the plane <m n, x> >= num / D is <D P m n, t> >= num.  Cut order: with
    # t0 = T0 / a and e = a D m d, d|d|/<n, n> is e|e| / (m^2 <n, n>) up to
    # a common factor, taken over one common denominator
    T0 = [-x // q for x in Ac]
    depth, witnesses = {}, {}
    for k, (n, (num, m, wits)) in enumerate(pool, 4 * g):
        normal = tuple(m * sum(map(mul, row, n)) for row in DP)
        rows.append((*normal, -num))
        e = num * a - sum(map(mul, normal, T0))
        depth[k] = (e * abs(e), m * m * sum(map(mul, n, n)))
        witnesses[k] = wits
    common = lcm(*(d for _, d in depth.values()))
    keys = {k: e * (common // d) for k, (e, d) in depth.items()}
    planes = _Planes(rows, {})
    poly = _clip(corners, planes, sorted(keys, key=keys.__getitem__, reverse=True))
    if not poly or any(m & ((1 << 2 * g) - 1) for m in poly.values()):
        lam_b = (matvec(theta.factor.Lambda, b) for b in Ut)
        bounds = (Fraction(r_j, q * D) for r_j in r)
        raise InvalidDataError(
            f"cell of witness {u} is not inside its certified region: centre "
            f"({', '.join(map(str, _x(_hx((*T0, a), cols, D))))}), region "
            + ", ".join(f"|<{n}, x - x0>| <= {b}" for n, b in zip(lam_b, bounds))
            + f", pool of {len(pool)} halfspaces"
        )

    hx = {v: _hx(v, cols, D) for v in poly}
    keys = _x_keys(hx.values())
    poly = {v: poly[v] for v in sorted(poly, key=lambda v: keys[hx[v]])}
    points = tuple(map(hx.__getitem__, poly))
    # the affine hull is cut out by the planes tight at every vertex (tight
    # sets are complete), so a cell whose masks share no bit is full
    common = functools.reduce(and_, poly.values())
    dim = g - (_echelon([rows[k][:g] for k in _bits(common)], g)[1] if common else 0)
    directions = _affine_span(points) if dim < g else _identity_span(g)
    meet: dict[int, int] = {}  # the AND of the masks of the vertices on each plane
    for mask in poly.values():
        for k in _bits(mask):
            meet[k] = meet.get(k, mask) & mask
    halfspaces = []
    for k, (n, (_, m, wits)) in enumerate(pool, 4 * g):
        # planes only grazing lower faces are implied by the facets and dropped
        if k in meet and (dim < g or meet[k] == 1 << k):
            ties = tuple(tuple(map(sub, w, u)) for w in sorted([u, *wits]))
            halfspaces.append((k, D * m, n, ties))
    return _Built(u, poly, points, planes, dim, directions, tuple(halfspaces), witnesses)


def linearity_cell(theta: TropicalThetaFunction, v) -> LinearityCell:
    """The maximal domain of linearity containing v; the witness must be
    unique at v (otherwise the tie set is reported via OnCornerLocusError)."""
    g = theta.base.g
    if g > _MAX_RANK:
        raise RankTooLargeError(f"vertex enumeration capped at g <= {_MAX_RANK}")
    _, witnesses = theta._least(*_over_common_denominator(point(v, g)))
    if len(witnesses) > 1:
        raise OnCornerLocusError(witnesses)
    u = witnesses[0]
    if not theta.is_ample:
        # finite support: the pool is the whole profile.  A vertex solves g
        # integer pool rows (a, b), so by Cramer and Hadamard |x_i| <=
        # prod sqrt(|a|^2 + b^2) < sqrt(c^g) < R, for c the largest
        # |a|^2 + (floor|b| + 1)^2: the cell's vertices are those of the box
        # |x_i| <= R cut by the pool that are tight on no box plane
        D, w = theta._kernel.D, {rep: x for rep, (x, _) in theta._coset_constants.items()}
        pool = sorted(_pool(u, w[u], w.items()).items())
        c = max((sum(x * x for x in a) + (abs(num) // (D * m) + 1) ** 2 for a, (num, m, _) in pool), default=0)
        R = isqrt(c**g) + 1
        rows = [row for e in identity(g) for row in ((*e, R), (*(-x for x in e), R))]
        rows += [(*(D * m * x for x in a), -num) for a, (num, m, _) in pool]
        box = {
            (*(R * s for s in signs), 1): sum(1 << (2 * i + (s > 0)) for i, s in enumerate(signs))
            for signs in product((-1, 1), repeat=g)
        }
        poly = _clip(box, _Planes(rows, {}), range(2 * g, len(rows)))
        # the box is in x, so its vertices are homogeneous x already
        box_bits = (1 << 2 * g) - 1
        keys = _x_keys([t for t, m in poly.items() if not m & box_bits])
        inequalities = tuple((a, _lowest((num, D * m))) for a, (num, m, _) in pool)
        points = tuple(sorted(keys, key=keys.__getitem__))
        return LinearityCell(u, inequalities, points, g, _identity_span(g), (), bounded=False)
    return _build_cell(theta, u).cell


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
        v = point(v, self.g)
        return all(vecdot(a, v) >= b for a, b in self.halfspaces)

    def lattice_coordinates(self, v: Sequence) -> TropPoint:
        """t with v = P^T t: the lower halfspace normals are the rows of
        (P^T)^-1."""
        v = point(v, self.g)
        return tuple(vecdot(a, v) for a, _ in self.halfspaces[::2])

    @functools.cached_property
    def _svg_frame(self) -> tuple[str, ...]:
        """The opening lines of a g = 2 svg: the view box, the domain padded
        by 1/2, and the domain's outline, formed once per domain."""

        def fmt(x: Fraction) -> str:
            return _fmt(x.numerator, x.denominator)

        xs = [c[0] for c in self.corners]
        ys = [c[1] for c in self.corners]
        pad = Fraction(1, 2)
        x0, x1 = min(xs) - pad, max(xs) + pad
        y0, y1 = min(ys) - pad, max(ys) + pad
        ring = [matvec(self.matrix.entries, t) for t in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        path = " ".join(f"{fmt(p[0])},{fmt(p[1])}" for p in ring)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{fmt(x0)} {fmt(y0)} {fmt(x1 - x0)} {fmt(y1 - y0)}">',
            f'<polygon points="{path}" fill="none" stroke="#888888" stroke-width="0.02"/>',
        )

    def to_json_dict(self) -> dict:
        return {
            "matrix": [[str(c) for c in row] for row in self.matrix.entries],
            "corners": [[str(c) for c in p] for p in self.corners],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FundamentalDomain":
        return cls._of(*cls._read(data))

    @staticmethod
    def _read(data: dict) -> tuple[RatMatrix, tuple[TropPoint, ...]]:
        """The matrix and corners of a mesh file's domain, read exactly but
        not yet inverted."""
        return RatMatrix(rows_from(data["matrix"], "matrix")), _points(data["corners"], "corners")

    @classmethod
    def _of(cls, Pt: RatMatrix, corners: tuple[TropPoint, ...]) -> "FundamentalDomain":
        return cls(matrix=Pt, corners=corners, halfspaces=_parallelepiped_halfspaces(inverse(Pt.entries)))


def _points(data, name: str) -> tuple[TropPoint, ...]:
    """Exact points of a mesh file: lists of "p/q" strings or integers."""
    return tuple(tuple(_as_fraction(c, name) for c in json_list(p, name)) for p in json_list(data, name))


def _homogeneous_points(data, name: str) -> tuple[IntVec, ...]:
    """Exact points of a mesh file as homogeneous x (V, q): each point over
    the lcm q of its denominators, which is in lowest terms."""
    return tuple((*V, q) for q, V in map(_over_common_denominator, _points(data, name)))


def _parallelepiped_halfspaces(inv_rows: Rows):
    """0 <= t_i <= 1 for t = (P^T)^-1 x, from the rows of (P^T)^-1."""
    halfspaces = []
    for row in inv_rows:
        halfspaces.append((row, Fraction(0)))
        halfspaces.append((tuple(-c for c in row), Fraction(-1)))
    return tuple(halfspaces)


def _fundamental_domain(theta: TropicalThetaFunction) -> FundamentalDomain:
    """The fundamental domain of an ample theta, which `theta._domain`
    keeps: its normals (P^T)^-1 = D (D P^T)^-1 are one elimination of the
    kernel's integer D P^T."""
    Pt = RatMatrix(transpose(theta.base.P.entries))
    D, DP = theta._kernel.D, theta._kernel.P
    corners = sorted(_x(_hx((*s, 1), tuple(zip(*DP)), D)) for s in product((0, 1), repeat=theta.g))
    normals = tuple(tuple(D * x for x in row) for row in inverse(transpose(DP)))
    return FundamentalDomain(
        matrix=Pt, corners=tuple(corners), halfspaces=_parallelepiped_halfspaces(normals)
    )


# ---------- the corner locus ----------


@dataclass(frozen=True)
class SkeletonPiece:
    """A clipped codimension-1 piece of the corner locus: the tie locus of
    `witnesses` intersected with one cell and the fundamental domain.  It
    holds its vertices as homogeneous x `points`; `vertices` is their
    Fraction view."""

    witnesses: tuple[IntVec, ...]
    points: tuple[IntVec, ...]

    vertices = functools.cached_property(lambda self: tuple(map(_x, self.points)))

    def __repr__(self) -> str:
        return _repr(self, ("witnesses", "vertices"))

    @property
    def dim(self) -> int:
        return len(_affine_span(self.points))

    def to_json_dict(self) -> dict:
        return {
            "witnesses": [list(u) for u in self.witnesses],
            "vertices": list(map(_literals, self.points)),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SkeletonPiece":
        points = _homogeneous_points(data["vertices"], "vertices")
        if not points:
            raise InvalidDataError("a skeleton piece needs at least one vertex")
        return cls(
            witnesses=tuple(int_vector_from(u, "witnesses") for u in json_list(data["witnesses"], "witnesses")),
            points=points,
        )


@dataclass(frozen=True)
class QuotientSummary:
    """Cell counts of the complex modulo the period lattice.

    zero_cells are canonical representatives (lattice coordinates in
    [0,1)^g mapped back), held as homogeneous x `points`; `zero_cells` is
    their Fraction view.  one_cell_count counts classes of clipped pieces:
    edges for g <= 2 (none for g = 1), and for g >= 3 the pieces of
    dimension g - 1, not edges.  Both count the complex after it is clipped
    to the chosen parallelepiped, whose seams add points and edge fragments,
    so two bases of one torus can give different counts: 4 / 5 for
    P = [[2,1],[1,3]], 6 / 7 for its shear [[2,3],[3,7]].  The Betti
    numbers and the Euler characteristic V - E + (-1)^g C are computed for
    g <= 2 only, where they are intrinsic: the seams add as many points as
    edge fragments.  For g >= 3 they are None."""

    points: tuple[IntVec, ...]
    one_cell_count: int
    top_cell_count: int
    betti0: int | None
    betti1: int | None
    euler_characteristic: int | None

    zero_cells = functools.cached_property(lambda self: tuple(map(_x, self.points)))

    def __repr__(self) -> str:
        names = ("zero_cells", "one_cell_count", "top_cell_count", "betti0", "betti1", "euler_characteristic")
        return _repr(self, names)

    def to_json_dict(self) -> dict:
        return {
            "zero_cells": list(map(_literals, self.points)),
            "one_cell_count": self.one_cell_count,
            "top_cell_count": self.top_cell_count,
            "betti0": self.betti0,
            "betti1": self.betti1,
            "euler_characteristic": self.euler_characteristic,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuotientSummary":
        def opt(key):
            return None if data[key] is None else _as_int(data[key], key)

        return cls(
            points=_homogeneous_points(data["zero_cells"], "zero_cells"),
            one_cell_count=_as_int(data["one_cell_count"], "one_cell_count"),
            top_cell_count=_as_int(data["top_cell_count"], "top_cell_count"),
            betti0=opt("betti0"),
            betti1=opt("betti1"),
            euler_characteristic=opt("euler_characteristic"),
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
        """Read a mesh file exactly: rationals by the "p/q" literal rule,
        integers as integers, and every point, normal, witness and domain
        row of length g."""
        g = _as_int(data["g"], "g")
        if g < 1:
            raise InvalidDataError(f"g: a positive integer required, got {g}")
        cells = tuple(LinearityCell.from_json_dict(c) for c in json_list(data["cells"], "cells"))
        skeleton = tuple(SkeletonPiece.from_json_dict(p) for p in json_list(data["skeleton"], "skeleton"))
        matrix, corners = FundamentalDomain._read(data["domain"])
        quotient = QuotientSummary.from_json_dict(data["quotient"])
        # every witness, normal, point and row of the (square) domain matrix;
        # a homogeneous x (V, q) has g + 1 entries
        def vectors():
            for c in cells:
                yield from ((v, 0) for v in (c.witness, *(a for a, _ in c.inequalities)))
                yield from ((p, 1) for p in (*c.points, *c.directions))
            for piece in skeleton:
                yield from ((v, 0) for v in piece.witnesses)
                yield from ((p, 1) for p in piece.points)
            yield from ((v, 0) for v in (*matrix.entries, *corners))
            yield from ((p, 1) for p in quotient.points)

        for v, extra in vectors():
            if len(v) - extra != g:
                v = _x(v) if extra else v
                raise ShapeMismatchError(f"the vector ({', '.join(map(str, v))}) has length {len(v)}, not g = {g}")
        # g x g before the 2^g corners: 2^g of a huge g does not fit in memory;
        # and both before the inverse, which a g of 90 makes take seconds
        if matrix.rows != g:
            raise ShapeMismatchError(f"domain shape mismatch: the matrix has {matrix.rows} row(s), not g = {g}")
        if len(corners) != 2**g:
            raise ShapeMismatchError(f"corners: the domain has 2^g = {2**g} corners, got {len(corners)}")
        domain = FundamentalDomain._of(matrix, corners)
        return cls(g=g, cells=cells, skeleton=skeleton, domain=domain, quotient=quotient)


def _quotient_point(t: IntVec) -> IntVec:
    """The class of a homogeneous point modulo the lattice: its coordinates
    reduced into [0, 1)^g, an integer residue modulo den."""
    den = t[-1]
    return (*(x % den for x in t[:-1]), den)


def _canonical_shift(ts) -> tuple[IntVec, ...]:
    """The homogeneous points ts of a piece moved by the lattice vector that
    takes their barycenter into [0, 1)^g, sorted: the piece's key modulo the
    lattice."""
    den = lcm(*(t[-1] for t in ts))
    k = len(ts) * den
    shift = [sum(t[i] * (den // t[-1]) for t in ts) // k for i in range(len(ts[0]) - 1)]
    return tuple(sorted(_move(t, shift) for t in ts))


def _domain_cuts(bounds, d) -> list[int] | None:
    """The domain planes (rows 2g..4g-1) that some vertex of a polytope
    moved by -d is not strictly inside, None if it misses [0, 1]^g, from
    integer bounds (lo, hi) = (ceil min, floor max) of its coordinates: for
    an integer d_i, min - d_i > 0 iff lo > d_i, max - d_i < 1 iff hi <= d_i,
    max < d_i iff hi < d_i and min > d_i + 1 iff lo > d_i + 1."""
    g, cuts = len(d), []
    for i, ((lo, hi), di) in enumerate(zip(bounds, d)):
        if hi < di or lo > di + 1:
            return None
        if lo <= di:
            cuts.append(2 * (g + i))
        if hi > di:
            cuts.append(2 * (g + i) + 1)
    return cuts


def corner_locus(theta: TropicalThetaFunction) -> CellComplex:
    """The tropical theta divisor in one fundamental parallelepiped.

    BFS across the witnesses (rep, n) around each kept cell, from the cell of
    a witness at x = 0, a corner of the domain: the cells that meet the
    convex domain cover it, and two that meet are tied at a vertex.
    `_build_cell` runs at the first (rep, n0) of each coset class; the cell
    of (rep, n) is its shift by d = n - n0 (module docstring), so a visit
    decomposes nothing.  A kept translate's skeleton pieces are faces of its
    one clip, deduplicated by their integer vertices, which key the quotient.
    Tie sets come from masks and the seed is `theta._least_terms` at x = 0,
    so `theta.evaluate` never runs.  Past _MAX_CELLS kept cells it raises
    DivisorTooLargeError: the count grows with the length of the given
    basis, not with the size of the input.
    """
    g = theta.base.g
    if g > _MAX_RANK:
        raise RankTooLargeError(f"corner locus capped at g <= {_MAX_RANK}")
    if not theta.is_ample:
        raise InvalidDataError("corner locus needs an ample polarization")
    fd = theta._domain
    D, cols = theta._kernel.D, tuple(zip(*theta._kernel.P))
    lam, cosets = theta.factor.Lambda, theta._cosets
    # class rep -> (n0 of the built witness, build, neighbors as (rep, n),
    # bounds)
    classes: dict[IntVec, tuple] = {}
    seen: set[tuple[IntVec, IntVec]] = set()
    kept = []
    top = set()  # classes of the kept full-dimensional cells
    pieces: dict[tuple[IntVec, ...], list[IntVec]] = {}  # witnesses -> vertices
    queue = deque([cosets._decompose(theta._least_terms(1, (0,) * g)[0][0])])
    while queue:
        key = queue.popleft()
        if key in seen:
            continue
        seen.add(key)
        rep, n = key
        if rep not in classes:
            u = theta._witness(rep, n)
            built = _build_cell(theta, u)
            # every neighbor ties with u at a vertex of the cell: it is a
            # witness of a pool plane tight at some vertex (module docstring)
            tight = functools.reduce(or_, built.poly.values())
            neighbors = tuple(map(cosets._decompose, sorted({w for k in _bits(tight) for w in built.witnesses[k]})))
            bounds = [
                (min(-(-x // t[-1]) for x, t in zip(c, built.poly)),
                 max(x // t[-1] for x, t in zip(c, built.poly)))
                for c in list(zip(*built.poly))[:-1]
            ]
            classes[rep] = (n, built, neighbors, bounds)
        n0, built, neighbors, bounds = classes[rep]
        # a polytope whose bounds miss the domain [0, 1]^g needs no clip; one
        # whose bounds meet it can still miss it, so the exact clip decides
        d = tuple(map(sub, n, n0))
        cuts = _domain_cuts(bounds, d)
        if cuts is None:
            continue
        moved = {_move(t, d): m for t, m in built.poly.items()}
        clipped = _clip(moved, built.planes, cuts)
        if not clipped:
            continue
        s = [sum(map(mul, c, d)) for c in cols]  # x = V / q moves by -P^T d = -s / D
        points = tuple(_lowest([*(D * v - p[-1] * x for v, x in zip(p, s)), D * p[-1]]) for p in built.points)
        cell = _place(built, d, [sum(map(mul, row, d)) for row in lam], points)
        kept.append(cell)
        if len(kept) > _MAX_CELLS:
            raise DivisorTooLargeError(f"the divisor has more than {_MAX_CELLS} cells in its fundamental domain")
        # each piece is a face of the clip: tight sets stay complete, so its
        # vertices are those whose mask holds the facet plane (only
        # full-dimensional cells have facets), and keyed by its witnesses: a
        # tie locus is convex, so it meets the domain in one face
        if built.dim == g:
            top.add(rep)
            for k, _, _, ks in built.halfspaces:
                ws = tuple(tuple(map(add, cell.witness, x)) for x in ks)
                if ws not in pieces:
                    on = [t for t, m in clipped.items() if m >> k & 1]
                    if on:
                        pieces[ws] = on
        queue.extend((r, tuple(map(add, m, d))) for r, m in neighbors)

    kept = tuple(sorted(kept, key=lambda c: c.witness))
    # the pieces in x order, each with its vertices in x order
    hx = {t: _hx(t, cols, D) for ts in pieces.values() for t in ts}
    keys = _x_keys(hx.values())
    point = {keys[x]: t for t, x in hx.items()}
    ordered = sorted((tuple(sorted(keys[hx[t]] for t in ts)), w) for w, ts in pieces.items())
    skeleton = tuple(SkeletonPiece(w, tuple(hx[point[k]] for k in ks)) for ks, w in ordered)
    quotient = _quotient_summary(theta, len(top), [tuple(map(point.get, ks)) for ks, _ in ordered])
    return CellComplex(g=g, cells=kept, skeleton=skeleton, domain=fd, quotient=quotient)


def _quotient_summary(theta, c_count: int, pieces) -> QuotientSummary:
    """Quotient counts; c_count is the number of coset classes of the kept
    full-dimensional cells, and pieces holds each skeleton piece's
    homogeneous lattice coordinates in its vertex order, which key points
    and pieces modulo the lattice."""
    g = theta.g
    # g <= 2: the divisor is a graph, points for g = 1, points and edges for
    # g = 2 (a face of a polygon has its two ends as its only vertices).
    # g >= 3: vertex classes and (g-1)-dimensional piece classes; invariants
    # of the higher-dimensional skeleton are out of scope.  A piece with
    # max(2, g) or more vertices is an edge for g = 2 and (g-1)-dimensional
    # for g >= 3.
    nodes: dict[IntVec, int] = {}  # quotient point -> union-find index
    piece_keys = set()
    links = []
    for ts in pieces:
        ids = [nodes.setdefault(_quotient_point(t), len(nodes)) for t in ts]
        if len(ts) >= max(2, g):
            piece_keys.add(_canonical_shift(ts))
            links.append(ids)
    D, cols = theta._kernel.D, tuple(zip(*theta._kernel.P))
    keys = _x_keys([_hx(t, cols, D) for t in nodes])
    zero = tuple(sorted(keys, key=keys.__getitem__))
    v_count, e_count = len(nodes), len(piece_keys)
    if g >= 3:
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
        points=zero,
        one_cell_count=e_count,
        top_cell_count=c_count,
        betti0=b0,
        betti1=e_count - v_count + b0,
        euler_characteristic=v_count - e_count + (-1) ** g * c_count,
    )


# ---------- export ----------


def _fmt(n: int, d: int) -> str:
    """n / d printed to six places: int true division rounds exactly as
    float(Fraction(n, d)) does."""
    try:
        return f"{n / d:.6f}"
    except OverflowError:
        raise UnsupportedFormatError(f"the coordinate {_ratio(n, d)} is too large for a float") from None


def _cycle_order(points):
    """Order coplanar homogeneous points around their barycenter, exactly
    and in integers: over one common denominator the points are integer
    vectors k, and the coordinates of n k - sum(k), for n points, along the
    span's rows (V, s), s > 0, are positive multiples of the planar ones."""
    keys = _x_keys(points)
    pts = sorted(points, key=keys.__getitem__)
    if len(pts) <= 3:
        return tuple(pts)
    basis = _affine_span(pts)
    if len(basis) != 2:
        return tuple(pts)
    n, total = len(pts), [sum(c) for c in zip(*map(keys.__getitem__, pts))]
    planar = []
    for i, p in enumerate(pts):
        d = [n * k - s for k, s in zip(keys[p], total)]
        planar.append((sum(map(mul, d, basis[0])), sum(map(mul, d, basis[1])), i))

    def half(xy):
        x, y, _ = xy
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = a[0] * b[1] - a[1] * b[0]
        if c != 0:
            return -1 if c > 0 else 1
        return a[2] - b[2]

    return tuple(pts[i] for _, _, i in sorted(planar, key=functools.cmp_to_key(cmp)))


def _export_json(complex_: CellComplex) -> bytes:
    blob = json.dumps(
        complex_.to_json_dict(), sort_keys=True, separators=(",", ":")
    )
    return (blob + "\n").encode("ascii")


def _export_svg(complex_: CellComplex) -> bytes:
    if complex_.g != 2:
        raise UnsupportedFormatError("svg export needs g = 2")
    lines = [*complex_.domain._svg_frame]
    for piece in complex_.skeleton:
        pts = piece.points
        if len(pts) >= 2:
            (ax, ay, aq), (bx, by, bq) = pts[0], pts[-1]
            lines.append(
                f'<line x1="{_fmt(ax, aq)}" y1="{_fmt(ay, aq)}" '
                f'x2="{_fmt(bx, bq)}" y2="{_fmt(by, bq)}" '
                'stroke="#000000" stroke-width="0.04"/>'
            )
        else:
            x, y, q = pts[0]
            lines.append(f'<circle cx="{_fmt(x, q)}" cy="{_fmt(y, q)}" r="0.05" fill="#000000"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii")


def _export_obj(complex_: CellComplex) -> bytes:
    if complex_.g != 3:
        raise UnsupportedFormatError("obj export needs g = 3")
    verts: list[IntVec] = []
    index: dict[IntVec, int] = {}
    elements = []
    for piece in complex_.skeleton:
        ids = []
        for p in _cycle_order(piece.points):
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
        lines.append("v " + " ".join(_fmt(v, p[-1]) for v in p[:-1]))
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
