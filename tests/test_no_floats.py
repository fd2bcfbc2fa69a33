"""The library computes without floats: a syntax check over src/troptheta,
and a runtime check of the numbers in divisor results.

Every value is a Fraction or an int, with math.inf as the one valuation
sentinel.  A float(...) call or a float literal anywhere in the package
fails this test, except inside geometry._fmt, which prints mesh
coordinates for SVG and OBJ files.  The syntax scan cannot see an int / int
division, so the runtime check walks every number of corner loci at
g = 1, 2, 3 and of a non-ample linearity cell: the integer core that each
cell, facet, skeleton piece and quotient carries (its dataclass fields)
holds only ints, and the Fraction views read off it hold only Fractions and
ints.  The polytope primitive `geometry._cut` works in integers alone: a
third check walks every argument and result of its calls during corner loci
and finds only ints.  So do the competitor sweep's (u, D w(u)) pairs and
the pool built from them: a fourth check walks every `_terms_below`
argument and result and every `_pool` argument and result, also for a
theta whose profile reps lie off the canonical box, so that its values are
moved onto the box in ints.  The minimizer reads each value off its
nearest-first walk: a fifth check walks every node the walk enters during
theta evaluations, each leaf's point and distance included, and finds only
ints.  The divisor's
seed is the integer argmin entry `lattice._argmin`: a sixth check walks
every argument and result of its calls during corner loci and finds only
ints.  Every theta value but `evaluate`'s is read off that entry too: a
seventh check walks its calls during the transformation-law and Riemann
crosschecks and the Puiseux partial sums, and finds only ints.  The series
checks run on one integer kernel per cocycle: an eighth check walks every
argument and result of its calls during `validate` of each series fixture,
the kernel's own fields included, and finds only ints.

A second syntax scan finds no int(...) call in theta.py, nonarch.py,
varieties.py, lattice.py or geometry.py: their public entries read lattice
vectors through linalg.lattice_vector, which refuses 3/2 where int()
truncated it to 1, and an exact ratio is scaled to an integer by its
numerator and denominator.  A
third finds no one-argument Fraction(...) call there, nor in puiseux.py or
lattice.py, but of an integer literal: ell, w, the partial sums' cutoff,
a Puiseux exponent or coefficient and the lattice entries' ell, c0 and
radius are read by linalg._as_fraction, which refuses 0.1 where
Fraction(0.1) took it as a binary fraction.
"""

import ast
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from troptheta import geometry, lattice, nonarch, theta
from troptheta.cli import main
from troptheta.crosschecks import seeded_period, suite_a, suite_b
from troptheta.geometry import corner_locus, linearity_cell
from troptheta.theta import AutomorphyFactor, TropicalThetaFunction, ValuationProfile, riemann_theta
from troptheta.varieties import TropicalPolarizationData

from test_geometry import LEVEL2_I

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "troptheta"
ALLOWED = {("geometry.py", "_fmt")}


def float_uses(path: Path):
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (path.name, node.name) in ALLOWED:
                return
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append(f"{path.name}:{node.lineno} float(...) in {scope}")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{path.name}:{node.lineno} {node.value!r} in {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_no_float_calls_or_literals_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    uses = [use for p in paths for use in float_uses(p)]
    assert uses == []


def test_the_guard_sees_a_float(tmp_path):
    probe = tmp_path / "geometry.py"
    probe.write_text(
        "def depth(a):\n    return float(a) ** 0.5\n\n"
        "def _fmt(x):\n    return f'{float(x):.6f}'\n"
    )
    assert float_uses(probe) == [
        "geometry.py:2 float(...) in depth",
        "geometry.py:2 0.5 in depth",
    ]


def int_casts(path: Path):
    """Every int(...) call in a module: int() truncates 3/2 to 1, so the
    parsing modules read integers through linalg.lattice_vector instead,
    which raises on anything but an exact integer."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} int(...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
    ]


@pytest.mark.parametrize("name", ["theta.py", "nonarch.py", "varieties.py", "lattice.py", "geometry.py"])
def test_no_int_casts_in_the_parsing_modules(name):
    assert int_casts(SRC / name) == []


def test_the_guard_sees_an_int_cast(tmp_path):
    probe = tmp_path / "theta.py"
    probe.write_text("def rep(u):\n    return tuple(int(x) for x in u), int_det(u), isinstance(u, int)\n")
    assert int_casts(probe) == ["theta.py:2 int(...)"]


def fraction_casts(path: Path):
    """Every one-argument Fraction(...) call in a module but of an integer
    literal: Fraction(x) takes a float x as its binary fraction, so the
    parsing modules read exact scalars through linalg._as_fraction."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} Fraction(...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"
        and len(node.args) + len(node.keywords) == 1
        and not (node.args and isinstance(node.args[0], ast.Constant) and type(node.args[0].value) is int)
    ]


@pytest.mark.parametrize("name", ["theta.py", "nonarch.py", "varieties.py", "puiseux.py", "lattice.py"])
def test_no_fraction_casts_in_the_parsing_modules(name):
    assert fraction_casts(SRC / name) == []


def test_the_guard_sees_a_fraction_cast(tmp_path):
    probe = tmp_path / "nonarch.py"
    probe.write_text(
        "def cut(c, n, d):\n    return Fraction(c), Fraction(0), Fraction(n, d), Fraction(-1)\n\n"
        "def ell(x):\n    return Fraction(numerator=x), Fraction('1/2'), Fraction(*x)\n"
    )
    assert fraction_casts(probe) == [
        "nonarch.py:2 Fraction(...)",
        "nonarch.py:2 Fraction(...)",
        "nonarch.py:5 Fraction(...)",
        "nonarch.py:5 Fraction(...)",
        "nonarch.py:5 Fraction(...)",
    ]


def numbers(obj):
    """Every number inside a result: dataclass fields, containers and dict
    keys are walked; strings, flags and None are not numbers."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from numbers(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for item in obj.items():
            yield from numbers(item)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            yield from numbers(x)
    elif not isinstance(obj, (bool, str, type(None))):
        yield obj


def fixture_theta(name):
    doc = json.loads((ROOT / "fixtures" / name).read_text())
    return riemann_theta(TropicalPolarizationData.from_json_dict(doc))


def test_numbers_walks_every_field():
    assert list(numbers({(1, Fraction(1, 2)): [2.5, True, "x", None]})) == [1, Fraction(1, 2), 2.5]


def views(obj):
    """The Fraction views of a cell, a skeleton piece or a quotient."""
    names = ("halfspaces", "vertices", "span", "facets", "zero_cells")
    return [getattr(obj, n) for n in names if hasattr(obj, n)]


@pytest.mark.parametrize("name", ["variety_g1.json", "variety_g2.json", "variety_g3.json"])
def test_corner_locus_results_are_exact(name):
    cx = corner_locus(fixture_theta(name))
    # the integer core: every field of the cells, the pieces and the
    # quotient; the domain is the theta's, in Fractions
    core = list(numbers([cx.g, cx.cells, cx.skeleton, cx.quotient]))
    assert cx.skeleton and cx.quotient.points and len(core) > 40
    assert {type(x) for x in core} == {int}
    found = list(numbers([views(o) for o in (*cx.cells, *cx.skeleton, cx.quotient)]))
    assert {type(x) for x in found} <= {int, Fraction}
    assert {type(x) for c in cx.cells for x in numbers(c.span)} == {Fraction}
    assert {type(x) for c in cx.cells for x in numbers(c.vertices)} == {Fraction}


NON_AMPLE = TropicalThetaFunction(
    base=TropicalPolarizationData(g=2, P=[[2, 1], [1, 2]], Lambda=[[1, 0], [0, 1]]),
    factor=AutomorphyFactor(Lambda=[[0, 0], [0, 0]], ell=(Fraction(0), Fraction(0))),
    profile=ValuationProfile(
        entries=tuple(
            (u, Fraction(w))
            for u, w in [((0, 0), 0), ((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 3)]
        )
    ),
)


# LEVEL2_I with each profile rep moved off the canonical box by Lam m and its
# value carried along by the transformation law
LEVEL2_SHIFTED = TropicalThetaFunction(
    base=LEVEL2_I.base,
    factor=LEVEL2_I.factor,
    profile=ValuationProfile(
        entries=tuple((u, LEVEL2_I.extended_w(u)) for u in [(2, -2), (-2, 1), (1, 4), (3, -3)])
    ),
)


def test_non_ample_cell_is_exact():
    cell = linearity_cell(NON_AMPLE, (Fraction(1, 3), Fraction(-1, 5)))
    assert cell.witness == (0, 0) and len(cell.vertices) >= 4
    assert {type(x) for x in numbers(cell)} == {int}
    assert {type(x) for x in numbers(views(cell))} <= {int, Fraction}


@pytest.mark.parametrize("name", ["variety_g2.json", "variety_g3.json", "LEVEL2_I", "non-ample"])
def test_cut_runs_in_integers(monkeypatch, name):
    # homogeneous vertices, tight masks, plane rows and the edge-rank cache:
    # no Fraction goes into _cut or comes out of it, also where a non-ample
    # cell is cut from its box
    calls = []
    cut = geometry._cut

    def recording(*args):
        out = cut(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(geometry, "_cut", recording)
    if name == "non-ample":
        # one point in the cell of each of the six support points
        third, seventh = Fraction(1, 3), Fraction(1, 7)
        for v in [(third, Fraction(-1, 5)), (-5, third), (third, -5), (5, seventh), (seventh, 5), (-5, -5)]:
            linearity_cell(NON_AMPLE, v)
    else:
        corner_locus(LEVEL2_I if name == "LEVEL2_I" else fixture_theta(name))
    found = list(numbers(calls))
    assert len(calls) > 10 and len(found) > 1000
    assert {type(x) for x in found} == {int}


@pytest.mark.parametrize("name", ["variety_g2.json", "variety_g3.json", "LEVEL2_I", "LEVEL2_SHIFTED", "non-ample"])
def test_sweep_and_pool_run_in_integers(monkeypatch, name):
    # each region corner reaches the sweep as integers (q, V, bound), the
    # sweep's pairs carry D w(u) as an int, and the pool's offsets are
    # their differences: no Fraction goes into _terms_below or _pool or
    # comes out of them.  Profile values given off the canonical box are
    # moved onto it as ints over the same D
    sweeps, pools = [], []
    terms_below, pool = geometry._terms_below, geometry._pool

    def recording_sweep(theta, *args):
        out = terms_below(theta, *args)
        sweeps.append((args, out))
        return out

    def recording_pool(u, w_u, pairs):
        pairs = list(pairs)
        out = pool(u, w_u, pairs)
        pools.append(((u, w_u, pairs), out))
        return out

    monkeypatch.setattr(geometry, "_terms_below", recording_sweep)
    monkeypatch.setattr(geometry, "_pool", recording_pool)
    if name == "non-ample":
        # the pool of a non-ample cell is the finite support, with D w(rep)
        linearity_cell(NON_AMPLE, (Fraction(1, 3), Fraction(-1, 5)))
        # every term of value at most 2 at v = 0: bound 2 D over q = 1
        assert len(geometry._terms_below(NON_AMPLE, 1, (0, 0), 2 * NON_AMPLE._kernel.D)) == 5
    elif name == "LEVEL2_SHIFTED":
        assert LEVEL2_SHIFTED._kernel.D == LEVEL2_I._kernel.D
        assert LEVEL2_SHIFTED._coset_constants == LEVEL2_I._coset_constants
        assert {type(x) for x in numbers(LEVEL2_SHIFTED._coset_constants)} == {int}
        corner_locus(LEVEL2_SHIFTED)
    else:
        corner_locus(LEVEL2_I if name == "LEVEL2_I" else fixture_theta(name))
    assert sweeps and all(out for _, out in sweeps)
    assert all(type(x) is int for args, _ in sweeps for x in numbers(args))
    assert pools and all(pairs for (_, _, pairs), _ in pools)
    found = list(numbers([sweeps, pools]))
    assert len(found) > 20
    assert {type(x) for x in found} == {int}


@pytest.mark.parametrize("name", ["variety_g2.json", "variety_g3.json", "LEVEL2_I"])
def test_walk_leaves_are_integers(walk_nodes, name):
    # every node the minimizer's walk enters holds ints: its level, its
    # partial distance and its point, and so does every leaf
    theta = LEVEL2_I if name == "LEVEL2_I" else fixture_theta(name)
    for k in range(20):
        theta.evaluate(tuple(Fraction(k * (i + 2) - 17, 7 + i) for i in range(theta.g)))
    assert sum(i < 0 for i, _, _ in walk_nodes) >= 20
    assert {type(x) for node in walk_nodes for x in numbers(node)} == {int}


@pytest.mark.parametrize("name", ["variety_g1.json", "variety_g2.json", "variety_g3.json", "LEVEL2_SHIFTED"])
def test_seed_argmin_runs_in_integers(monkeypatch, name):
    # the seed witness at x = 0 comes from the integer argmin entry: its
    # walk data, centre, gap and winners are all ints
    calls = []
    argmin = lattice._argmin

    def recording(*args):
        out = argmin(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(theta, "_argmin", recording)
    corner_locus(LEVEL2_SHIFTED if name == "LEVEL2_SHIFTED" else fixture_theta(name))
    found = list(numbers(calls))
    assert calls and all(winners for _, (_, winners) in calls)
    assert {type(x) for x in found} == {int}


@pytest.mark.parametrize("name", ["suite_a", "suite_b", "evaluate_at_point"])
def test_theta_values_run_in_integers(monkeypatch, name):
    # the crosschecks' theta values and the partial sums' minimal valuation
    # come from the integer argmin entry, at every binding: its walk data,
    # centre, gap and winners are all ints
    calls = []
    argmin = lattice._argmin

    def recording(*args):
        out = argmin(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(theta, "_argmin", recording)
    monkeypatch.setattr(lattice, "_argmin", recording)
    period = seeded_period(2, 3)
    if name == "suite_a":
        basis = nonarch.theta_basis(period, nonarch.canonical_cocycle(period, [[2, 0], [0, 2]]))
        outcomes = suite_a(basis[1], samples=4, shifts=3, seed=5)
    elif name == "suite_b":
        outcomes = suite_b(period, samples=8, seed=5)
    else:
        f = nonarch.build_riemann_theta(period, [[1, 0], [0, 1]])
        for k in range(4):
            x = tuple(nonarch.PuiseuxNumber.monomial(Fraction(1), Fraction(k * c - 9, 7)) for c in (2, 5))
            assert nonarch.evaluate_at_point(f, x, 3).terms > 0
        outcomes = ()
    assert all(o.passed for o in outcomes)
    found = list(numbers(calls))
    assert len(calls) >= 4 and all(winners for _, (_, winners) in calls)
    assert {type(x) for x in found} == {int}


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "fixtures").glob("series_*.json")))
def test_series_kernel_runs_in_integers(monkeypatch, name):
    # `validate` of a series reads every monomial of the extension rule and
    # of the cocycle relation off the cocycle's kernel: its fields, the
    # vectors it is called at and the (exponent, num, den) it returns are all
    # ints
    calls = []

    def recording(original):
        def record(*args):
            out = original(*args)
            calls.append((args, out))
            return out

        return record

    for method in ("pair", "value", "t_lambda", "extension"):
        monkeypatch.setattr(nonarch._Kernel, method, recording(getattr(nonarch._Kernel, method)))
    res = CliRunner().invoke(main, ["validate", str(ROOT / "fixtures" / name)])
    assert res.exit_code == 0, res.output
    found = list(numbers(calls))
    assert len(calls) > 100 and len(found) > 1000
    assert {type(x) for x in found} == {int}
