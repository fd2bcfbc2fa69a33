"""Golden digests of the geometry objects the library hands its callers.

`test_golden_cli.py` pins the CLI's bytes.  This module pins the objects
themselves: the repr of the cells (facets included), the skeleton and the
quotient of `corner_locus`, its json mesh and its svg (g = 2) or obj (g = 3)
mesh, on every g >= 1 variety fixture, the index-9 theta fixture and the
level-2 theta `LEVEL2_I` of test_geometry; and the repr of `linearity_cell`
on non-ample thetas, whose cells are cut from a box.  A repr shows every
exact value of every public field, so a change in how these objects hold
their numbers shows up here even where the mesh bytes stay the same.  Each
mesh is also read back with `CellComplex.from_json_dict` and must re-export
the same bytes in every format.

Re-record the digests (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_geometry.py --write
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from troptheta.geometry import CellComplex, OnCornerLocusError, corner_locus, export_mesh, linearity_cell
from troptheta.theta import AutomorphyFactor, TropicalThetaFunction, ValuationProfile, riemann_theta
from troptheta.varieties import TropicalPolarizationData

from test_geometry import LEVEL2_I

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_geometry.json"
VARIETIES = sorted(p.stem for p in FIXTURES.glob("variety_g*.json"))
COMPLEXES = [*VARIETIES, "theta_g2_index9", "LEVEL2_I"]


def load_theta(name):
    if name == "LEVEL2_I":
        return LEVEL2_I
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    if name.startswith("theta_"):
        return TropicalThetaFunction.from_json_dict(doc)
    return riemann_theta(TropicalPolarizationData.from_json_dict(doc))


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def meshes(cx) -> dict[str, bytes]:
    formats = ["json"] + {2: ["svg"], 3: ["obj"]}.get(cx.g, [])
    return {fmt: export_mesh(cx, fmt) for fmt in formats}


def complex_digests(name) -> dict[str, str]:
    cx = corner_locus(load_theta(name))
    out = {"cells": digest(repr(cx.cells)), "skeleton": digest(repr(cx.skeleton)), "quotient": digest(repr(cx.quotient))}
    out.update((fmt, digest(mesh)) for fmt, mesh in meshes(cx).items())
    return out


def non_ample_thetas():
    """Seeded finite supports at g = 1, 2, 3 (Lambda = 0), each with query
    points: the six cells of a g = 2 support with a wedge at (1, 1), then
    random supports in [-3, 3]^g with rational values."""
    rng = random.Random(2024)
    base = TropicalPolarizationData(g=2, P=[[2, 1], [1, 2]], Lambda=[[1, 0], [0, 1]])
    support = [((0, 0), 0), ((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 3)]
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    points = [(third, Fraction(-1, 5)), (-5, third), (third, -5), (5, seventh), (seventh, 5), (-5, -5), (0, 1)]
    yield base, support, points
    for _ in range(60):
        g = rng.randint(1, 3)
        P = [[2 * int(i == j) + int(abs(i - j) == 1) for j in range(g)] for i in range(g)]
        base = TropicalPolarizationData(g=g, P=P, Lambda=[[int(i == j) for j in range(g)] for i in range(g)])
        reps = {tuple(rng.randint(-3, 3) for _ in range(g)) for _ in range(rng.randint(1, 10))}
        support = [(u, Fraction(rng.randint(-20, 20), rng.randint(1, 6))) for u in sorted(reps)]
        points = [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(g)) for _ in range(3)]
        yield base, support, points


def non_ample_digest() -> str:
    h = hashlib.sha256()
    for base, support, points in non_ample_thetas():
        g = base.g
        theta = TropicalThetaFunction(
            base=base,
            factor=AutomorphyFactor(Lambda=[[0] * g for _ in range(g)], ell=(Fraction(0),) * g),
            profile=ValuationProfile(entries=tuple((u, Fraction(w)) for u, w in support)),
        )
        for v in points:
            try:
                h.update(repr(linearity_cell(theta, v)).encode())
            except OnCornerLocusError as err:
                h.update(repr(err.ties).encode())
    return h.hexdigest()


def record() -> dict:
    golden = {name: complex_digests(name) for name in COMPLEXES}
    golden["non-ample"] = {"linearity_cells": non_ample_digest()}
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([*COMPLEXES, "non-ample"])
    assert len(VARIETIES) >= 6


@pytest.mark.parametrize("name", COMPLEXES)
def test_corner_locus_objects_match_golden(golden, name):
    assert complex_digests(name) == golden[name]


def test_non_ample_cells_match_golden(golden):
    assert non_ample_digest() == golden["non-ample"]["linearity_cells"]


@pytest.mark.parametrize("name", COMPLEXES)
def test_read_mesh_reexports_the_same_bytes(name):
    cx = corner_locus(load_theta(name))
    written = meshes(cx)
    read = CellComplex.from_json_dict(json.loads(written["json"]))
    assert meshes(read) == written


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_geometry.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
