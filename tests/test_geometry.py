import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from troptheta import geometry, linalg
from troptheta.geometry import (
    OnCornerLocusError,
    RankTooLargeError,
    UnsupportedFormatError,
    _cut,
    corner_locus,
    export_mesh,
    linearity_cell,
)
from troptheta.lattice import CosetLattice, lll_reduce
from troptheta.linalg import (
    RatMatrix,
    ShapeMismatchError,
    matmul,
    matvec,
    solve,
    transpose,
    vecdot,
)
from troptheta.theta import (
    AutomorphyFactor,
    TropicalThetaFunction,
    ValuationProfile,
    riemann_theta,
)
from troptheta.varieties import InvalidDataError, TropicalPolarizationData

from test_theta import KERNEL_CASES

F = Fraction


def data_of(P, Lam):
    return TropicalPolarizationData(g=len(P), P=RatMatrix(P), Lambda=Lam)


D1 = data_of([[2]], [[1]])
D2 = data_of([[2, 1], [1, 2]], [[1, 0], [0, 1]])
DIAG3 = data_of([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
D4 = data_of(
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
)

TH1 = riemann_theta(D1)
TH2 = riemann_theta(D2)
TH3 = riemann_theta(DIAG3)

# level-2 profiles on the same circle: generic valuations give two simple
# corners per period, the exact square of the principal theta degenerates
# into one triple corner with a point cell wedged inside it
L2 = TropicalThetaFunction(
    base=D1,
    factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
    profile=ValuationProfile(entries=(((0,), F(0)), ((1,), F(1, 2)))),
)
SQUARE = TropicalThetaFunction(
    base=D1,
    factor=AutomorphyFactor(Lambda=[[2]], ell=(F(0),)),
    profile=ValuationProfile(entries=(((0,), F(0)), ((1,), F(1)))),
)

FLAT = TropicalThetaFunction(
    base=D1,
    factor=AutomorphyFactor(Lambda=[[0]], ell=(F(0),)),
    profile=ValuationProfile(entries=(((3,), F(2)),)),
)


# ---------- linearity cells, g = 1 ----------


def test_principal_cell_is_the_unit_interval():
    cell = linearity_cell(TH1, (F(0),))
    assert cell.witness == (0,)
    assert cell.vertices == ((F(-1),), (F(1),))
    assert cell.halfspaces == (((-1,), F(-1)), ((1,), F(-1)))
    assert cell.dim == 1
    assert cell.bounded
    assert cell.contains((F(1),)) and cell.contains((F(-1),))
    assert not cell.contains((F(9, 8),))


def test_principal_cell_facets_carry_the_tie_sets():
    cell = linearity_cell(TH1, (F(0),))
    by_normal = {f.normal: f for f in cell.facets}
    assert set(by_normal) == {(-1,), (1,)}
    assert by_normal[(-1,)].witnesses == ((-1,), (0,))
    assert by_normal[(-1,)].vertices == ((F(1),),)
    assert by_normal[(1,)].witnesses == ((0,), (1,))
    assert by_normal[(1,)].vertices == ((F(-1),),)


def test_corner_point_reports_its_ties():
    with pytest.raises(OnCornerLocusError) as err:
        linearity_cell(TH1, (F(1),))
    assert err.value.ties == ((-1,), (0,))


def test_translated_point_gives_translated_cell():
    # v -> v + P^T n moves the witness by -Lambda n
    cell = linearity_cell(TH1, (F(2),))
    assert cell.witness == (-1,)
    assert cell.vertices == ((F(1),), (F(3),))


def test_principal_quotient_is_one_point_and_one_segment():
    cx = corner_locus(TH1)
    q = cx.quotient
    assert q.zero_cells == ((F(1),),)
    assert q.one_cell_count == 0
    assert q.top_cell_count == 1
    assert (q.betti0, q.betti1, q.euler_characteristic) == (1, 0, 0)
    assert len(cx.skeleton) == 1
    assert cx.skeleton[0].witnesses == ((-1,), (0,))
    assert cx.skeleton[0].vertices == ((F(1),),)


# ---------- level-2 circle profiles ----------


def test_level2_generic_has_two_simple_corners():
    cx = corner_locus(L2)
    q = cx.quotient
    assert q.zero_cells == ((F(1, 2),), (F(3, 2),))
    assert q.top_cell_count == 2
    assert (q.betti0, q.betti1, q.euler_characteristic) == (2, 0, 0)
    assert all(cell.dim == 1 for cell in cx.cells)
    assert sorted(p.witnesses for p in cx.skeleton) == [
        ((-2,), (-1,)),
        ((-1,), (0,)),
    ]


def test_level2_square_degenerates_to_a_triple_corner():
    with pytest.raises(OnCornerLocusError) as err:
        linearity_cell(SQUARE, (F(-1),))
    assert err.value.ties == ((0,), (1,), (2,))

    cx = corner_locus(SQUARE)
    q = cx.quotient
    assert q.zero_cells == ((F(1),),)
    assert q.top_cell_count == 1
    assert (q.betti0, q.betti1, q.euler_characteristic) == (1, 0, 0)
    assert sorted(p.witnesses for p in cx.skeleton) == [((-2,), (-1,), (0,))]
    # the odd-coset cell collapses to the corner point itself
    point_cell = next(c for c in cx.cells if c.witness == (-1,))
    assert point_cell.dim == 0
    assert point_cell.vertices == ((F(1),),)


# ---------- the g = 2 hexagon ----------


def test_hexagon_cell_vertices_and_facets():
    cell = linearity_cell(TH2, (F(1, 7), F(1, 11)))
    assert cell.witness == (0, 0)
    assert cell.vertices == (
        (F(-1), F(-1)),
        (F(-1), F(0)),
        (F(0), F(-1)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    )
    assert cell.dim == 2
    assert len(cell.facets) == 6
    assert cell.halfspaces == tuple((f.normal, f.offset) for f in cell.facets)
    for facet in cell.facets:
        assert len(facet.vertices) == 2
        assert len(facet.witnesses) == 2


def test_facet_midpoints_tie_exactly_the_facet_witnesses():
    cell = linearity_cell(TH2, (F(1, 7), F(1, 11)))
    for facet in cell.facets:
        a, b = facet.vertices
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        assert TH2.evaluate(mid).witnesses == facet.witnesses


def test_cells_agree_with_pointwise_evaluation():
    rng = random.Random(7)
    unique_points = 0
    for _ in range(40):
        v = (F(rng.randint(-60, 60), 17), F(rng.randint(-60, 60), 19))
        result = TH2.evaluate(v)
        try:
            cell = linearity_cell(TH2, v)
        except OnCornerLocusError as err:
            assert err.ties == result.witnesses
            continue
        unique_points += 1
        assert cell.contains(v)
        u = cell.witness
        assert result.canonical == u
        assert result.value == TH2.extended_w(u) + vecdot(u, v)
    assert unique_points >= 30


def test_hexagon_quotient_counts():
    cx = corner_locus(TH2)
    q = cx.quotient
    assert q.zero_cells == (
        (F(1, 2), F(1)),
        (F(1), F(1, 2)),
        (F(1), F(1)),
        (F(2), F(2)),
    )
    assert q.one_cell_count == 5
    assert q.top_cell_count == 1
    assert (q.betti0, q.betti1, q.euler_characteristic) == (1, 2, 0)


def test_quotient_zero_cells_lie_in_the_fundamental_domain():
    for cx in (corner_locus(TH1), corner_locus(TH2)):
        for p in cx.quotient.zero_cells:
            assert cx.domain.contains(p)
            t = cx.domain.lattice_coordinates(p)
            assert all(0 <= c < 1 for c in t)


def test_skeleton_pieces_lie_on_genuine_ties():
    cx = corner_locus(TH2)
    for piece in cx.skeleton:
        pts = piece.vertices
        bary = tuple(sum(p[i] for p in pts) / len(pts) for i in range(2))
        witnesses = TH2.evaluate(bary).witnesses
        assert set(piece.witnesses) <= set(witnesses)


# ---------- g = 3 ----------


@pytest.fixture(scope="module")
def diag3_locus():
    return corner_locus(TH3)


def test_diagonal_g3_walls(diag3_locus):
    cx = diag3_locus
    q = cx.quotient
    assert len(cx.cells) == 8
    assert len(cx.skeleton) == 12
    assert q.top_cell_count == 1
    assert q.one_cell_count == 12
    assert q.betti0 is None and q.betti1 is None
    assert q.euler_characteristic is None
    # the walls meet in the seven nonzero half-period classes
    assert q.zero_cells == (
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(0), F(1), F(1)),
        (F(1), F(0), F(0)),
        (F(1), F(0), F(1)),
        (F(1), F(1), F(0)),
        (F(1), F(1), F(1)),
    )
    for piece in cx.skeleton:
        assert piece.dim == 2
        assert len(piece.witnesses) == 2
    # the mesh bytes of the brute-force vertex enumeration this replaced
    mesh = export_mesh(cx, "json") + export_mesh(cx, "obj")
    assert hashlib.sha256(mesh).hexdigest() == (
        "9c98c4f7ddf45cc98f5a803fd8645c1c76695d62e3a07cdbc09bb61414aff189"
    )


# ---------- cells built, evaluations made ----------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_theta(name):
    doc = json.loads((FIXTURES / name).read_text())
    return riemann_theta(TropicalPolarizationData.from_json_dict(doc))


GATED = {
    "TH1": lambda: TH1,
    "TH2": lambda: TH2,
    "variety_g2_skewed": lambda: fixture_theta("variety_g2_skewed.json"),
    "TH3": lambda: TH3,
    "variety_g3": lambda: fixture_theta("variety_g3.json"),
}


@pytest.mark.parametrize(
    "name, cells",
    [("TH1", 2), ("TH2", 4), ("variety_g2_skewed", 6), ("TH3", 8), ("variety_g3", 8)],
)
def test_corner_locus_builds_only_kept_cells(monkeypatch, solve_calls, name, cells):
    # machine-independent gates: _build_cell runs once per coset class of the
    # kept cells (every other cell is a lattice translate), each time for a
    # kept cell, theta.evaluate never runs (the seed witness at x = 0 is
    # found in integers, and tie sets come from masks), and no linear
    # system is solved: centres and lattice coordinates are products with
    # inverses computed once per matrix
    theta = GATED[name]()
    built = []
    evals = []
    build_cell = geometry._build_cell
    evaluate = TropicalThetaFunction.evaluate

    def counting_build(*args, **kwargs):
        built.append(args[1])
        return build_cell(*args, **kwargs)

    def counting_evaluate(self, v):
        evals.append(v)
        return evaluate(self, v)

    monkeypatch.setattr(geometry, "_build_cell", counting_build)
    monkeypatch.setattr(TropicalThetaFunction, "evaluate", counting_evaluate)
    cx = corner_locus(theta)
    assert len(cx.cells) == cells
    classes = {theta._cosets.decompose(c.witness)[0] for c in cx.cells}
    assert len(built) == len(classes) == 1
    assert set(built) <= {c.witness for c in cx.cells}
    assert evals == []
    assert solve_calls == []


@pytest.mark.parametrize(
    "name, calls",
    [("TH1", 4), ("TH2", 8), ("variety_g2_skewed", 8), ("TH3", 28), ("variety_g3", 20)],
)
def test_coset_decompositions_per_corner_locus(count_calls, name, calls):
    # machine-independent gate: the BFS walks witnesses as (rep, n) in
    # Lambda-coordinates, so a visit decomposes nothing.  What is left is
    # one decomposition for the seed, one for the built witness's D w(u)
    # and one per neighbor of each built cell (2, 6, 6, 26 and 18 here).
    # Decomposing every visited witness took 5, 15, 19, 65 and 57;
    # decomposing every pooled competitor again took 10, 40, 76, 124 and
    # 138; decomposing each kept cell's witness again for the count took 7,
    # 19, 25, 73 and 65.  Every decomposition runs CosetLattice._decompose,
    # which `decompose` calls after parsing and theta calls directly.
    theta = GATED[name]()
    found = count_calls(CosetLattice._decompose)
    corner_locus(theta)
    assert len(found) == calls


@pytest.mark.parametrize("name", list(GATED))
def test_domain_inverse_once_per_theta(count_calls, name):
    # machine-independent gate: the domain's normals (P^T)^-1 are formed
    # once per theta, from the kernel's integer D P, not in every
    # corner_locus and linearity_cell call (three linalg.inverse calls
    # here).  The domain equals the one whose normals come from inverting
    # P^T itself (from_json_dict).
    theta = replace(GATED[name]())  # a fresh theta: nothing cached
    theta.evaluate((F(0),) * theta.g)  # fills the form's cached reduction
    calls = count_calls(linalg.inverse)
    cx = corner_locus(theta)
    corner_locus(theta)
    linearity_cell(theta, tuple(F(1, p) for p in (7, 11, 13)[: theta.g]))
    assert len(calls) == 1
    assert geometry.FundamentalDomain.from_json_dict(cx.domain.to_json_dict()) == cx.domain


@pytest.mark.parametrize("name", list(GATED))
def test_corner_locus_and_export_form_no_fraction_view(name):
    # machine-independent gate: a complex carries every output point as a
    # homogeneous x (V, q) in ints, and the writers print from them, so
    # corner_locus and export_mesh in each format form no Fraction view
    # (geometry._x) and fill no view of any object
    theta = GATED[name]()
    theta._domain  # the domain's corners are formed once per theta
    before = geometry._x.cache_info()
    cx = corner_locus(theta)
    formats = ["json"] + {2: ["svg"], 3: ["obj"]}.get(theta.g, [])
    assert all(export_mesh(cx, fmt) for fmt in formats)
    after = geometry._x.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    objects = [*cx.cells, *cx.skeleton, cx.quotient]
    views = {"vertices", "halfspaces", "span", "facets", "zero_cells"}
    assert all(not views & set(vars(o)) for o in objects)
    assert {type(x) for c in cx.cells for p in c.points for x in p} == {int}


@pytest.mark.parametrize("name", list(GATED))
def test_x_is_formed_once_per_output_point(name):
    # machine-independent gate: reading the views (cell vertices and span
    # directions, facet vertices, skeleton vertices and zero cells) forms
    # the Fractions of each distinct output point once, shared by every
    # object that holds it, and each view is its points' V / q
    cx = corner_locus(GATED[name]())
    geometry._x.cache_clear()
    read = [p for c in cx.cells for p in (*c.vertices, *c.span, *(v for f in c.facets for v in f.vertices))]
    read += [p for piece in cx.skeleton for p in piece.vertices]
    read += list(cx.quotient.zero_cells)
    assert geometry._x.cache_info().misses == len(set(read)) == len({id(p) for p in read})

    def view(p):
        return tuple(F(v, p[-1]) for v in p[:-1])

    for c in cx.cells:
        assert c.vertices == tuple(map(view, c.points)) and c.span == tuple(map(view, c.directions))
        assert c.halfspaces == tuple((a, F(*b)) for a, b in c.inequalities)
        if c.dim == cx.g:
            assert c.halfspaces == tuple((f.normal, f.offset) for f in c.facets)
    assert all(piece.vertices == tuple(map(view, piece.points)) for piece in cx.skeleton)
    assert cx.quotient.zero_cells == tuple(map(view, cx.quotient.points))


@pytest.mark.parametrize(
    "name, calls",
    [("TH1", 0), ("TH2", 0), ("variety_g2_skewed", 0), ("TH3", 48), ("variety_g3", 61)],
)
def test_edge_ranks_once_per_mask(monkeypatch, name, calls):
    # machine-independent gate: _cut's edge test ranks the normals of a
    # shared tight mask of two or more planes with one _echelon call,
    # cached per mask for the corner_locus call, so the calls count distinct
    # such masks.  A mask of one plane (or none) has rank 1 (or 0), as no
    # normal is zero, so at g <= 2 every edge test is decided without one
    # (ranking every mask took 1, 12 and 8 here; ranking every tested pair
    # took 4, 28, 44, 120 and 165).  Only calls made inside _cut are edge
    # tests: the build's rank of its homogeneous vertices is not counted.
    ranks = []
    in_cut = [False]
    echelon, cut = geometry._echelon, geometry._cut

    def counting_echelon(rows, width):
        if in_cut[0]:
            ranks.append(tuple(rows))
        return echelon(rows, width)

    def flagged_cut(*args):
        in_cut[0] = True
        try:
            return cut(*args)
        finally:
            in_cut[0] = False

    monkeypatch.setattr(geometry, "_echelon", counting_echelon)
    monkeypatch.setattr(geometry, "_cut", flagged_cut)
    corner_locus(GATED[name]())
    assert len(ranks) == calls
    assert all(type(x) is int for rows in ranks for row in rows for x in row)


@pytest.mark.parametrize(
    "name, clips",
    [("variety_g1", 3), ("variety_g2", 5), ("variety_g2_skewed", 9), ("variety_g3", 9)],
)
def test_translates_are_culled_in_lattice_coordinates(count_calls, name, clips):
    # machine-independent gate: a translate whose lattice-coordinate box
    # misses the domain's is dropped without the exact clip, each
    # _build_cell clips once in its certified box, and each kept translate
    # once (its skeleton pieces are read off that clip).  Clipping every
    # translate, with boxes grown round by round, took 10, 39, 58 and 154;
    # clipping each kept facet again took 7, 29, 45 and 105.
    calls = count_calls(geometry._clip)
    corner_locus(fixture_theta(f"{name}.json"))
    assert len(calls) == clips


@pytest.mark.parametrize("name", ["variety_g1", "variety_g2", "variety_g2_skewed", "variety_g3"])
def test_no_vertex_is_mapped_to_lattice_coordinates(count_calls, name):
    # machine-independent gate: a build reads its region's corners off the
    # theta's integer frame, in lattice coordinates, and every other vertex
    # is made in lattice coordinates by _cut; translates, clips and quotient
    # keys use them.  Mapping the 2^g Fraction box corners of each build took
    # 2, 4, 4 and 8 calls; mapping each built cell's vertices took 2, 6, 6
    # and 14; recomputing them for every skeleton vertex and barycentre took
    # 3, 21, 27 and 104.
    found = count_calls(geometry.FundamentalDomain.lattice_coordinates)
    cx = corner_locus(fixture_theta(f"{name}.json"))
    assert found == []
    assert cx.skeleton


@pytest.mark.parametrize(
    "name, planes",
    [
        ("variety_g2", 10),
        ("variety_g2_skewed", 8),
        ("variety_g3", 24),
        ("variety_g3_chain", 48),
        ("variety_g3_diag", 26),
        ("variety_g3_sheared", 36),
    ],
)
def test_pool_planes_per_build(monkeypatch, name, planes):
    # machine-independent gate: each build pools the competitors that beat
    # its witness at a corner of its certified region, the parallelepiped of
    # the reduced basis of P Lam.  Each principal fixture builds one cell.
    # Pooling over the corners of the coordinate box around the slab bound
    # took 16, 36, 66, 166, 50 and 376 planes.
    sizes = []
    pool = geometry._pool

    def recording(u, w_u, pairs):
        out = pool(u, w_u, pairs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(geometry, "_pool", recording)
    corner_locus(fixture_theta(f"{name}.json"))
    assert sizes == [planes]


# independent oracle: pointwise evaluation on a rational grid of the domain


def sheared(P):
    """U^T P U for U = [[1, 1], [0, 1]]."""
    (a, b), (_, c) = P
    return [[a, a + b], [a + b, a + 2 * b + c]]


def principal_forms():
    def form(a, c, b, shear):
        P = [[a, b], [b, c]]
        return sheared(P) if shear else P

    return st.integers(2, 4).flatmap(
        lambda a: st.builds(
            form,
            st.just(a),
            st.integers(a, 5),
            st.integers(-(a // 2), a // 2),
            st.booleans(),
        )
    )


LEVEL2_G2 = TropicalThetaFunction(
    base=data_of([[2, 1], [1, 2]], [[1, 0], [0, 1]]),
    factor=AutomorphyFactor(Lambda=[[2, 0], [0, 2]], ell=(F(0), F(0))),
    profile=ValuationProfile(
        entries=(
            ((0, 0), F(0)),
            ((0, 1), F(1, 2)),
            ((1, 0), F(1, 3)),
            ((1, 1), F(3, 4)),
        )
    ),
)


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(LEVEL2_G2)
@settings(max_examples=20, deadline=None)
def test_kept_cells_and_tie_sets_match_pointwise_evaluation(theta):
    # the tie set at a vertex of a built cell, read off its mask: the cell's
    # witness and the pool witnesses of every plane tight there
    ties = []
    build_cell = geometry._build_cell

    def recording(theta_, u):
        built = build_cell(theta_, u)
        for p, mask in built.poly.items():
            bits = [k for k in range(mask.bit_length()) if mask >> k & 1]
            ties.append((p, tuple(sorted({u, *(w for k in bits for w in built.witnesses[k])}))))
        return built

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_build_cell", recording)
        cx = corner_locus(theta)
    kept = {cell.witness for cell in cx.cells}
    # every witness at a point of the closed domain has a cell meeting it
    n = 6
    for t in itertools.product(range(n + 1), repeat=2):
        p = tuple(matvec(cx.domain.matrix.entries, [F(c, n) for c in t]))
        assert set(theta.evaluate(p).witnesses) <= kept, p
    # the tie set read off a vertex's mask is the full witness set; the
    # vertex (X, den) is the point x = P^T X / den
    assert ties
    for (*X, den), witnesses in ties:
        p = tuple(matvec(cx.domain.matrix.entries, [F(c, den) for c in X]))
        assert witnesses == theta.evaluate(p).witnesses, p


# generic values on P = I with Lam = 2I: all four coset classes keep cells
LEVEL2_I = TropicalThetaFunction(
    base=data_of([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    factor=AutomorphyFactor(Lambda=[[2, 0], [0, 2]], ell=(F(0), F(0))),
    profile=ValuationProfile(
        entries=(
            ((0, 0), F(0)),
            ((0, 1), F(1, 4)),
            ((1, 0), F(1, 5)),
            ((1, 1), F(1, 3)),
        )
    ),
)


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(L2)
@example(SQUARE)
@example(LEVEL2_I)
@example(fixture_theta("variety_g3.json"))
@example(fixture_theta("variety_g3_sheared.json"))
@example(riemann_theta(data_of([[2, 3], [3, 6]], [[1, 0], [0, 1]])))
@example(riemann_theta(data_of([[3, 4], [4, 9]], [[1, 0], [0, 1]])))
@settings(max_examples=20, deadline=None)
def test_translated_cells_equal_built_cells(theta):
    # oracle for the lattice translation: every kept cell, facets included,
    # is the cell _build_cell certifies from scratch at its witness
    cx = corner_locus(theta)
    classes = {theta._cosets.decompose(c.witness)[0] for c in cx.cells}
    assert len(cx.cells) > len(classes)  # some cells are translates
    for cell in cx.cells:
        built = geometry._build_cell(theta, cell.witness).cell
        assert built == cell, cell.witness


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(L2)
@example(SQUARE)
@example(LEVEL2_I)
@example(fixture_theta("variety_g3.json"))
@settings(max_examples=10, deadline=None)
def test_lattice_cull_matches_the_exact_clip(theta):
    # the cull decides from lattice-coordinate boxes alone; clipping every
    # translate exactly, by all 2g domain planes, must give the same complex
    culled = corner_locus(theta)
    domain_cuts = geometry._domain_cuts

    def never_culled(bounds, d):
        cuts = domain_cuts(bounds, d)
        return list(range(2 * len(d), 4 * len(d))) if cuts is None else cuts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_domain_cuts", never_culled)
        clipped = corner_locus(theta)
    assert culled == clipped


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(L2)
@example(SQUARE)
@example(LEVEL2_I)
@example(fixture_theta("variety_g3.json"))
@example(fixture_theta("variety_g3_sheared.json"))
@settings(max_examples=10, deadline=None)
def test_skipped_domain_planes_match_the_full_clip(theta):
    # a kept translate is cut only by the domain planes that some moved
    # vertex is not strictly inside; clipping each kept translate by all 2g
    # domain planes must give an equal complex: cells, pieces and quotient
    skipped = corner_locus(theta)
    domain_cuts = geometry._domain_cuts

    def every_plane(bounds, d):
        cuts = domain_cuts(bounds, d)
        return None if cuts is None else list(range(2 * len(d), 4 * len(d)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_domain_cuts", every_plane)
        full = corner_locus(theta)
    assert skipped == full


def reference_skeleton(theta, cx):
    """The skeleton as each kept cell's facets clipped to the domain one by
    one, by brute force: the vertices of facet ∩ domain are the feasible
    unique solutions of the facet plane with g - 1 of the other cell and
    domain planes.  Each kept cell is built afresh."""
    pieces = set()
    g = cx.g
    for cell in cx.cells:
        planes = geometry._build_cell(theta, cell.witness).cell.halfspaces
        for facet in cell.facets:
            plane = (facet.normal, facet.offset)
            rest = [h for h in planes if h != plane] + list(cx.domain.halfspaces)
            found = set()
            for subset in itertools.combinations(rest, g - 1):
                system = [plane, *subset]
                try:
                    x = tuple(solve([a for a, _ in system], [b for _, b in system]))
                except ShapeMismatchError:
                    continue
                if all(vecdot(a, x) >= b for a, b in rest):
                    found.add(x)
            if found:
                pieces.add((tuple(sorted(found)), facet.witnesses))
    return pieces


def reference_quotient(theta, cx):
    """The quotient summary with every vertex's and barycentre's lattice
    coordinates computed afresh and pieces keyed in x, components found by
    merging node sets (no union-find), as the tuple of the summary's public
    values (zero cells as Fractions)."""
    fd, g = cx.domain, cx.g

    def point_class(p):
        return tuple(c % 1 for c in fd.lattice_coordinates(p))

    def piece_class(pts):
        bary = tuple(sum(c) / len(pts) for c in zip(*pts))
        floor = [c - c % 1 for c in fd.lattice_coordinates(bary)]
        shift = matvec(fd.matrix.entries, floor)
        return tuple(sorted(tuple(c - s for c, s in zip(p, shift)) for p in pts))

    top = len({theta._cosets.decompose(c.witness)[0] for c in cx.cells if c.dim == g})
    nodes, keys, edges = set(), set(), []
    for piece in cx.skeleton:
        pts = piece.vertices
        if g == 3:
            nodes.update(map(point_class, pts))
            if len(pts) >= 3:
                keys.add(piece_class(pts))
            continue
        ends = {point_class(pts[0]), point_class(pts[-1])}
        nodes |= ends
        if len(pts) > 1:
            keys.add(piece_class(pts))
            edges.append(ends)
    zero = tuple(sorted(tuple(matvec(fd.matrix.entries, t)) for t in nodes))
    if g == 3:
        return zero, len(keys), top, None, None, None
    components = [{n} for n in nodes]
    for ends in edges:
        joined = [c for c in components if c & ends]
        components = [c for c in components if not c & ends] + [set().union(*joined)]
    b0, v, e = len(components), len(nodes), len(keys)
    return zero, e, top, b0, e - v + b0, v - e + (-1) ** g * top


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(LEVEL2_G2)
@example(LEVEL2_I)
@example(fixture_theta("variety_g3.json"))
@example(KERNEL_CASES["index-3"])  # a non-diagonal Lam
@example(KERNEL_CASES["fractional-P"])
@settings(max_examples=20, deadline=None)
def test_pieces_are_the_facets_clipped_one_by_one(theta):
    # oracle for reading the pieces off one clip of each kept translate
    cx = corner_locus(theta)
    assert cx.skeleton
    assert {(p.vertices, p.witnesses) for p in cx.skeleton} == reference_skeleton(theta, cx)


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(LEVEL2_G2)
@example(LEVEL2_I)
@example(fixture_theta("variety_g1.json"))
@example(fixture_theta("variety_g3.json"))
@example(KERNEL_CASES["index-3"])
@example(KERNEL_CASES["fractional-P"])
@settings(max_examples=20, deadline=None)
def test_quotient_from_carried_coordinates_matches_a_fresh_one(theta):
    # oracle for the carried lattice coordinates: each skeleton vertex's
    # carried homogeneous t is its lattice_coordinates, and the summary
    # equals the one fed fresh coordinates and the reference that keys
    # pieces in x
    carried = []
    summary = geometry._quotient_summary

    def recording(theta_, top, pieces):
        carried.extend(pieces)
        return summary(theta_, top, pieces)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_quotient_summary", recording)
        cx = corner_locus(theta)
    fd = cx.domain

    def homogeneous(t):
        den = math.lcm(*(c.denominator for c in t))
        return (*(int(c * den) for c in t), den)

    fresh = [
        tuple(homogeneous(fd.lattice_coordinates(p)) for p in piece.vertices)
        for piece in cx.skeleton
    ]
    assert carried == fresh
    top = len({theta._cosets.decompose(c.witness)[0] for c in cx.cells if c.dim == theta.g})
    assert summary(theta, top, fresh) == cx.quotient
    q = cx.quotient
    assert reference_quotient(theta, cx) == (
        q.zero_cells, q.one_cell_count, q.top_cell_count, q.betti0, q.betti1, q.euler_characteristic
    )


# ---------- the certified region ----------


def voronoi_sides(theta, u, p):
    """y = Lam^T (p - x0) for x0 = -Lam^-T (ell + P u), in plain Fractions:
    the cell of u lies where |k^T y| <= (1/2) k^T (P Lam) k for every
    integer k (geometry module docstring)."""
    P, Lam = theta.base.P.entries, theta.factor.Lambda
    return [e + vecdot(row, u) + vecdot(col, p) for e, row, col in zip(theta.factor.ell, P, zip(*Lam))]


def assert_cells_inside_their_regions(theta):
    # every kept cell, translates included, satisfies the Voronoi bound of
    # its own witness for every k in a small box (an oracle that does not
    # use the reduction) and for the reduced basis vectors b_j, which puts
    # it strictly inside the region _build_cell uses
    cx = corner_locus(theta)
    assert cx.cells
    B = matmul(theta.base.P.entries, theta.factor.Lambda)
    basis = transpose(lll_reduce(B)[0])
    frame = theta._frame
    D = theta._kernel.D
    assert transpose(frame.U) == basis
    for b, row, h in zip(basis, frame.M, frame.half):
        assert row == tuple(D * c for c in matvec(B, b))
        assert F(h, D) == vecdot(b, matvec(B, b)) / 2
    box = [k for k in itertools.product(range(-2, 3), repeat=theta.g) if any(k)]
    bounds = [(k, vecdot(k, matvec(B, k)) / 2) for k in [*box, *basis]]
    for cell in cx.cells:
        for p in cell.vertices:
            y = voronoi_sides(theta, cell.witness, p)
            for k, bound in bounds:
                assert abs(vecdot(k, y)) <= bound, (cell.witness, p, k)
    return cx, basis


@given(principal_forms().map(lambda P: riemann_theta(data_of(P, [[1, 0], [0, 1]]))))
@example(LEVEL2_G2)
@example(LEVEL2_I)
@example(fixture_theta("variety_g3.json"))
@example(fixture_theta("variety_g3_sheared.json"))
@example(KERNEL_CASES["fractional-P"])
@example(KERNEL_CASES["fractional-ell-and-w"])
@example(KERNEL_CASES["inf-entry"])
@example(KERNEL_CASES["index-3"])  # a non-diagonal Lam: Lam^-T mixes coordinates
@example(riemann_theta(data_of([[1, 2], [2, 1]], [[0, 1], [1, 0]])))  # det Lam = -1
@settings(max_examples=20, deadline=None)
def test_cells_lie_inside_their_certified_boxes(theta):
    assert_cells_inside_their_regions(theta)


def test_slab_bound_is_attained_by_the_cube_cells():
    # diag(2, 2, 2) is reduced, and each cube cell touches all six faces of
    # its region's bound G_jj / 2 = 1, inside the margin
    cx, basis = assert_cells_inside_their_regions(TH3)
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for cell in cx.cells:
        sides = {tuple(voronoi_sides(TH3, cell.witness, p)) for p in cell.vertices}
        assert {abs(y) for ys in sides for y in ys} == {1}
        assert len(sides) == 8


@pytest.mark.parametrize(
    "theta",
    [
        fixture_theta("variety_g1.json"),
        fixture_theta("variety_g2_skewed.json"),
        LEVEL2_I,
        fixture_theta("variety_g3.json"),
    ],
    ids=["variety_g1", "variety_g2_skewed", "LEVEL2_I", "variety_g3"],
)
def test_each_build_sweeps_its_box_corners_once(count_calls, theta):
    # machine-independent gate: the region is certified up front, so each
    # _build_cell makes one round, one _terms_below sweep per region corner
    builds = count_calls(geometry._build_cell)
    sweeps = count_calls(geometry._terms_below)
    corner_locus(theta)
    assert builds
    assert len(sweeps) == 2 ** theta.g * len(builds)


def test_rank_cap_is_three():
    th4 = riemann_theta(D4)
    with pytest.raises(RankTooLargeError):
        linearity_cell(th4, (F(0), F(0), F(0), F(0)))
    with pytest.raises(RankTooLargeError):
        corner_locus(th4)


def test_quotient_runs_at_g4(monkeypatch):
    # with the cap lifted inside this test only, the g = 4 quotient reports
    # counts and no graph invariants, as at g = 3; the g <= 2 union-find
    # used to read every piece's whole vertex tuple as an edge and raised
    # ValueError: too many values to unpack
    monkeypatch.setattr(geometry, "_MAX_RANK", 4)
    q = corner_locus(riemann_theta(D4)).quotient
    assert q.top_cell_count == 1
    assert (q.betti0, q.betti1, q.euler_characteristic) == (None, None, None)
    assert q.zero_cells and q.one_cell_count > 0


def voronoi_relevant(P, reach=3):
    """The nonzero n whose class n + 2 Z^g has exactly the two shortest
    vectors +-n under P (Voronoi 1908), by a box scan: the normals of the
    facets of the principal cell of 0."""
    g = len(P)
    shortest = {}
    for n in itertools.product(range(-reach, reach + 1), repeat=g):
        if any(n):
            norm = vecdot(n, matvec(P, n))
            best = shortest.setdefault(tuple(c % 2 for c in n), [norm, []])
            if norm < best[0]:
                best[:] = [norm, [n]]
            elif norm == best[0]:
                best[1].append(n)
    return {n for _, ns in shortest.values() if len(ns) == 2 for n in ns}


@pytest.mark.parametrize(
    "P, facets",
    [
        ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], 8),
        ([[2, 1, 1, 1], [1, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]], 20),
        ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], 20),
    ],
    ids=["diag", "I+J", "A4"],
)
def test_facets_have_codimension_one_at_g4(monkeypatch, P, facets):
    # a plane is a facet iff the masks of its vertices meet in its bit
    # alone.  Counting the planes with at least g tight vertices reported 32
    # facets on the 4-cube of diag(2, 2, 2, 2), 24 of them 2-faces.  The
    # public cap stays 3 (test_rank_cap_is_three), so it is lifted here only.
    monkeypatch.setattr(geometry, "_MAX_RANK", 4)
    theta = riemann_theta(data_of(P, [[int(i == j) for j in range(4)] for i in range(4)]))
    cell = linearity_cell(theta, (F(1, 7), F(1, 11), F(1, 13), F(1, 17)))
    assert cell.witness == (0, 0, 0, 0) and cell.dim == 4
    assert len(cell.facets) == facets
    assert all(len(geometry._affine_span(f.points)) == 3 for f in cell.facets)
    assert cell.halfspaces == tuple((f.normal, f.offset) for f in cell.facets)
    assert {f.normal for f in cell.facets} == voronoi_relevant(P)


# ---------- the halfspace cut ----------


def brute_force_vertices(ineqs, g):
    """Oracle: solve every g-subset of the constraints, keep the feasible
    solutions (the enumeration the incremental cut replaced)."""
    found = set()
    for subset in itertools.combinations(ineqs, g):
        try:
            x = tuple(solve([a for a, _ in subset], [b for _, b in subset]))
        except ShapeMismatchError:
            continue
        if all(vecdot(a, x) >= b for a, b in ineqs):
            found.add(x)
    return found


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def homogeneous_row(a, b):
    """<a, x> >= b as one integer row (a, -b) over b's denominator."""
    b = F(b)
    return (*(b.denominator * c for c in a), -b.numerator)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_cut_matches_brute_force_vertices_and_tight_sets(data):
    g = data.draw(st.integers(1, 3))
    center = tuple(data.draw(rationals) for _ in range(g))
    half = data.draw(st.builds(F, st.integers(1, 6), st.integers(1, 3)))
    units = [tuple(int(i == j) for j in range(g)) for i in range(g)]
    applied = [(e, c - half) for e, c in zip(units, center)]
    applied += [(tuple(-x for x in e), -(c + half)) for e, c in zip(units, center)]
    planes = geometry._Planes([homogeneous_row(a, b) for a, b in applied], {})
    poly = {}
    for signs in itertools.product((-1, 1), repeat=g):
        v = tuple(c + s * half for c, s in zip(center, signs))
        den = math.lcm(*(c.denominator for c in v))
        tight = [k for k, h in enumerate(applied) if vecdot(h[0], v) == h[1]]
        poly[(*(int(c * den) for c in v), den)] = sum(1 << k for k in tight)
    for _ in range(data.draw(st.integers(1, 5))):
        kind = data.draw(st.sampled_from(["free", "vertex", "flip"]))
        if kind == "flip":
            # the reverse of an applied plane: an equality, so the polytope
            # drops to a face of lower dimension
            a, b = data.draw(st.sampled_from(applied))
            a, b = tuple(-x for x in a), -b
        else:
            a = tuple(data.draw(st.integers(-3, 3)) for _ in range(g))
            if not any(a):
                continue
            if kind == "vertex" and poly:
                # degenerate: the plane passes through an existing vertex
                *X, den = data.draw(st.sampled_from(sorted(poly)))
                b = vecdot(a, [F(c, den) for c in X])
            else:
                b = data.draw(rationals) * data.draw(st.integers(1, 4))
        applied.append((a, b))
        planes.rows.append(homogeneous_row(a, b))
        poly = _cut(poly, planes, len(applied) - 1)
        # every vertex is a primitive integer vector with den > 0
        assert all(v[-1] > 0 and math.gcd(*v) == 1 for v in poly)
        points = {tuple(F(c, v[-1]) for c in v[:-1]): m for v, m in poly.items()}
        assert set(points) == brute_force_vertices(applied, g)
        for x, mask in points.items():
            tight = {k for k, h in enumerate(applied) if vecdot(h[0], x) == h[1]}
            assert mask == sum(1 << k for k in tight)


# ---------- iteration limits ----------


E9 = 10**9
PROBES = {
    "g3-entries-1e9": riemann_theta(data_of([[E9, E9 - 1, 0], [E9 - 1, E9, 1], [0, 1, E9]], DIAG3.Lambda)),
    "g2-ell-1e6": TropicalThetaFunction(
        base=D2,
        factor=AutomorphyFactor(Lambda=D2.Lambda, ell=(F(10**6), F(-(10**6)))),
        profile=ValuationProfile(entries=(((0, 0), F(0)),)),
    ),
    "g2-form-1e-9": riemann_theta(data_of([[F(2, E9), F(1, E9)], [F(1, E9), F(2, E9)]], D2.Lambda)),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_corner_locus_is_bounded_far_from_unit_scale(name):
    # robustness probes, each within 2 s: the seed walks below its Babai
    # point in the reduced basis (a sweep bounded by the profile's value at
    # x = 0 would enumerate about 10^12 points at ell = (10^6, -10^6)), and
    # each certified region's margin shrinks with the form (a fixed 1/16
    # pooled about 10^8 competitors per corner at P = 10^-9 [[2,1],[1,2]])
    theta = PROBES[name]
    started = time.perf_counter()
    cx = corner_locus(theta)
    assert time.perf_counter() - started < 2
    assert theta._least_terms(1, (0,) * theta.g)[0][0] == theta.evaluate((F(0),) * theta.g).canonical
    if name == "g3-entries-1e9":
        assert cx.cells and cx.skeleton
        return
    # f(v) = f_TH2(v + ell) with ell = P^T (10^6, -10^6) a period, and
    # f(v) = f_TH2(10^9 v) / 10^9: the divisor of TH2, with its witnesses
    # moved by that period or its vertices scaled by 10^-9
    ref = corner_locus(TH2)
    move, scale = ((-(10**6), 10**6), 1) if name == "g2-ell-1e6" else ((0, 0), F(1, E9))
    assert [(tuple(tuple(a - b for a, b in zip(w, move)) for w in p.witnesses), p.vertices) for p in cx.skeleton] == [
        (p.witnesses, tuple(tuple(scale * x for x in v) for v in p.vertices)) for p in ref.skeleton
    ]


def test_cell_on_its_box_reports_witness_centre_and_halfwidths(monkeypatch):
    # with an empty competitor pool the polytope is the region itself, which
    # a certified region never is: the build raises with the region it used
    monkeypatch.setattr(geometry, "_terms_below", lambda theta, q, V, bound: [])
    with pytest.raises(InvalidDataError) as err:
        geometry._build_cell(TH2, (1, -2))
    # x0 = -P u = (0, 3); P is reduced, so b_j = e_j and each bound is
    # P_jj / 2 plus the margin
    half = 1 + geometry._MARGIN
    assert str(err.value) == (
        "cell of witness (1, -2) is not inside its certified region: centre "
        f"(0, 3), region |<(1, 0), x - x0>| <= {half}, |<(0, 1), x - x0>| <= {half}, "
        "pool of 0 halfspaces"
    )


# ---------- finite-support functions ----------


def test_single_term_cell_is_everything():
    cell = linearity_cell(FLAT, (F(5),))
    assert cell.witness == (3,)
    assert cell.halfspaces == ()
    assert cell.vertices == ()
    assert cell.dim == 1
    assert not cell.bounded
    assert cell.contains((F(-1000),))


def test_two_term_cell_is_a_halfline():
    flat2 = TropicalThetaFunction(
        base=D1,
        factor=AutomorphyFactor(Lambda=[[0]], ell=(F(0),)),
        profile=ValuationProfile(entries=(((0,), F(0)), ((1,), F(0)))),
    )
    cell = linearity_cell(flat2, (F(1),))
    assert cell.witness == (0,)
    assert cell.halfspaces == (((1,), F(0)),)
    assert cell.vertices == ((F(0),),)
    assert not cell.bounded
    assert cell.contains((F(100),)) and not cell.contains((F(-1, 3),))


def finite_theta(entries):
    """A non-ample theta (Lam = 0) with the finite support `entries`."""
    g = len(entries[0][0])
    unit = [[int(i == j) for j in range(g)] for i in range(g)]
    return TropicalThetaFunction(
        base=TropicalPolarizationData(g=g, P=unit, Lambda=unit),
        factor=AutomorphyFactor(Lambda=[[0] * g for _ in range(g)], ell=(F(0),) * g),
        profile=ValuationProfile(entries=tuple(entries)),
    )


@st.composite
def finite_supports(draw):
    g = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * g), min_size=1, max_size=12, unique=True))
    fine = st.builds(F, st.integers(-40, 40), st.integers(1, 13))
    return [(u, draw(rationals)) for u in points], tuple(draw(fine) for _ in range(g))


# 60 points of {-3..3}^3 with w(u) = |u|^2; the cell at v has 58 pool planes
SIXTY = [
    (u, F(sum(x * x for x in u)))
    for u in random.Random(1).sample(sorted(itertools.product(range(-3, 4), repeat=3)), 60)
]


@given(finite_supports())
@example(([((0, 0), F(0))], (F(1), F(2))))  # one point: an empty pool
@example(([((0,), F(0)), ((1,), F(0))], (F(1),)))  # two points: a half-line
@example(([((0, 0), F(0)), ((1, 0), F(1)), ((2, 0), F(3))], (F(-1, 2), F(5))))  # no vertex
@example((SIXTY, (F(1, 7), F(-1, 11), F(1, 13))))
@settings(max_examples=60, deadline=None)
def test_non_ample_cell_vertices_match_brute_force(case):
    entries, v = case
    try:
        cell = linearity_cell(finite_theta(entries), v)
    except OnCornerLocusError:
        assume(False)
    if entries is SIXTY:
        assert len(cell.halfspaces) == 58
    assert cell.vertices == tuple(sorted(brute_force_vertices(cell.halfspaces, len(v))))


def test_corner_locus_needs_an_ample_factor():
    with pytest.raises(InvalidDataError):
        corner_locus(FLAT)


# ---------- exports ----------


def test_json_export_is_deterministic_and_parses():
    cx = corner_locus(TH2)
    blob = export_mesh(cx, "json")
    assert blob == export_mesh(cx, "json")
    assert blob.endswith(b"\n")
    doc = json.loads(blob)
    assert doc["g"] == 2
    assert len(doc["skeleton"]) == len(cx.skeleton)
    assert doc["quotient"]["betti1"] == 2


def test_svg_export_draws_the_domain_and_the_locus():
    cx = corner_locus(TH2)
    svg = export_mesh(cx, "svg")
    assert svg == export_mesh(cx, "svg")
    assert svg.startswith(b'<?xml version="1.0"')
    assert b"<polygon" in svg and b"<line" in svg


def test_obj_export_writes_faces_for_g3(diag3_locus):
    obj = export_mesh(diag3_locus, "obj")
    assert obj == export_mesh(diag3_locus, "obj")
    lines = obj.decode("ascii").splitlines()
    assert lines[0] == "# corner locus mesh"
    assert any(line.startswith("v ") for line in lines)
    assert any(line.startswith("f ") for line in lines)
    # every wall is a quadrilateral here
    assert sum(1 for line in lines if line.startswith("f ")) == 12


def test_export_format_mismatches():
    cx1 = corner_locus(TH1)
    cx2 = corner_locus(TH2)
    with pytest.raises(UnsupportedFormatError):
        export_mesh(cx1, "svg")
    with pytest.raises(UnsupportedFormatError):
        export_mesh(cx2, "obj")
    with pytest.raises(UnsupportedFormatError):
        export_mesh(cx2, "stl")
