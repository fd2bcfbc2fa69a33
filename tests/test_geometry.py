import hashlib
import itertools
import json
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from troptheta import geometry
from troptheta.geometry import (
    OnCornerLocusError,
    RankTooLargeError,
    UnsupportedFormatError,
    _cut,
    corner_locus,
    export_mesh,
    linearity_cell,
)
from troptheta.linalg import RatMatrix, ShapeMismatchError, matvec, solve, vecdot
from troptheta.theta import (
    AutomorphyFactor,
    TropicalThetaFunction,
    ValuationProfile,
    riemann_theta,
)
from troptheta.varieties import InvalidDataError, TropicalPolarizationData

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
def test_corner_locus_builds_only_kept_cells(monkeypatch, name, cells):
    # machine-independent gates: every _build_cell call yields a kept cell,
    # and theta.evaluate runs only for the seed search's two probes (the
    # first, the domain's centre, is a half-period on the divisor)
    theta = GATED[name]()
    built = []
    evals = {"seed": 0, "other": 0}
    in_seed = [False]
    build_cell, generic_seed = geometry._build_cell, geometry._generic_seed
    evaluate = TropicalThetaFunction.evaluate

    def counting_build(*args, **kwargs):
        built.append(args[1])
        return build_cell(*args, **kwargs)

    def flagged_seed(*args, **kwargs):
        in_seed[0] = True
        try:
            return generic_seed(*args, **kwargs)
        finally:
            in_seed[0] = False

    def counting_evaluate(self, v):
        evals["seed" if in_seed[0] else "other"] += 1
        return evaluate(self, v)

    monkeypatch.setattr(geometry, "_build_cell", counting_build)
    monkeypatch.setattr(geometry, "_generic_seed", flagged_seed)
    monkeypatch.setattr(TropicalThetaFunction, "evaluate", counting_evaluate)
    cx = corner_locus(theta)
    assert len(built) == cells
    assert sorted(built) == [c.witness for c in cx.cells]
    assert evals == {"seed": 2, "other": 0}


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
    ties = []
    vertex_ties = geometry._vertex_ties

    def recording(u, poly, groups):
        out = vertex_ties(u, poly, groups)
        ties.extend(out.items())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_vertex_ties", recording)
        cx = corner_locus(theta)
    kept = {cell.witness for cell in cx.cells}
    # every witness at a point of the closed domain has a cell meeting it
    n = 6
    for t in itertools.product(range(n + 1), repeat=2):
        p = tuple(matvec(cx.domain.matrix.entries, [F(c, n) for c in t]))
        assert set(theta.evaluate(p).witnesses) <= kept, p
    # the tie set read off a vertex's tight set is the full witness set
    assert ties
    for p, witnesses in ties:
        assert witnesses == theta.evaluate(p).witnesses, p


def test_rank_cap_is_three():
    th4 = riemann_theta(D4)
    with pytest.raises(RankTooLargeError):
        linearity_cell(th4, (F(0), F(0), F(0), F(0)))
    with pytest.raises(RankTooLargeError):
        corner_locus(th4)


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


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_cut_matches_brute_force_vertices_and_tight_sets(data):
    g = data.draw(st.integers(1, 3))
    center = tuple(data.draw(rationals) for _ in range(g))
    half = data.draw(st.builds(F, st.integers(1, 6), st.integers(1, 3)))
    units = [tuple(int(i == j) for j in range(g)) for i in range(g)]
    applied = [(e, c - half) for e, c in zip(units, center)]
    applied += [(tuple(-x for x in e), -(c + half)) for e, c in zip(units, center)]
    poly = {}
    for signs in itertools.product((-1, 1), repeat=g):
        v = tuple(c + s * half for c, s in zip(center, signs))
        poly[v] = frozenset(h for h in applied if vecdot(h[0], v) == h[1])
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
                b = vecdot(a, data.draw(st.sampled_from(sorted(poly))))
            else:
                b = data.draw(rationals) * data.draw(st.integers(1, 4))
        poly = _cut(poly, (a, b))
        applied.append((a, b))
        assert set(poly) == brute_force_vertices(applied, g)
        for v, tight in poly.items():
            assert tight == {h for h in applied if vecdot(h[0], v) == h[1]}


# ---------- iteration limits ----------


def test_unstable_cell_reports_its_last_box(monkeypatch):
    # with an empty competitor pool the polytope is the box itself, so it
    # never comes off the box and every round fails
    monkeypatch.setattr(geometry, "_terms_below", lambda theta, v, bound: [])
    with pytest.raises(InvalidDataError) as err:
        linearity_cell(TH2, (F(1, 7), F(1, 11)))
    msg = str(err.value)
    assert msg.startswith("cell of witness (0, 0) did not stabilize after 24 rounds")
    assert "last centre (1/7, 1/11)" in msg
    assert msg.endswith("pool of 0 halfspaces")
    halfwidth = F(msg.split("halfwidth ")[1].split(",")[0])
    assert halfwidth > F(13, 7)


def test_seed_search_reports_probes_and_domain(monkeypatch):
    monkeypatch.setattr(
        TropicalThetaFunction,
        "evaluate",
        lambda self, v: types.SimpleNamespace(unique=False),
    )
    with pytest.raises(InvalidDataError) as err:
        corner_locus(TH2)
    assert str(err.value) == (
        "no generic seed point found in the domain after 64 probes; "
        "P^T = [['2', '1'], ['1', '2']]"
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
