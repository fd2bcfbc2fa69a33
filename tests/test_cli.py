"""End-to-end tests of the command line: exit codes, report contents,
and byte-determinism of reports and meshes."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troptheta.cli import main
from troptheta.geometry import CellComplex, corner_locus, export_mesh
from troptheta.lattice import CosetLattice
from troptheta.puiseux import PuiseuxNumber
from troptheta.rationals import format_fraction
from troptheta.theta import TropicalThetaFunction, riemann_theta
from troptheta.varieties import TropicalPolarizationData

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(*args):
    runner = CliRunner()
    return runner.invoke(main, [str(a) for a in args])


def report_of(result):
    assert result.stdout.endswith("\n")
    return json.loads(result.stdout)


# ---------------------------------------------------------------- validate


def test_validate_good_variety_exits_zero():
    res = run("validate", FIXTURES / "variety_g1.json")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["command"] == "validate"
    assert all(c["passed"] for c in rep["checks"])
    names = [c["name"] for c in rep["checks"]]
    assert "pairing-nondegenerate" in names
    assert "form-positive-definite" in names


def test_validate_degenerate_pairing_exits_one():
    res = run("validate", FIXTURES / "variety_degenerate.json")
    assert res.exit_code == 1
    rep = report_of(res)
    failed = {c["name"]: c["detail"] for c in rep["checks"] if not c["passed"]}
    assert failed["pairing-nondegenerate"] == "pairing degenerate"


def test_validate_malformed_json_exits_two(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    res = run("validate", p)
    assert res.exit_code == 2


def test_validate_missing_file_exits_two(tmp_path):
    res = run("validate", tmp_path / "absent.json")
    assert res.exit_code == 2


def test_validate_missing_fields_exits_two(tmp_path):
    p = tmp_path / "partial.json"
    p.write_text('{"g": 1, "P": [["2"]]}')
    res = run("validate", p)
    assert res.exit_code == 2


def test_validate_series_runs_cocycle_checks():
    res = run("validate", FIXTURES / "series_g1.json")
    assert res.exit_code == 0
    names = [c["name"] for c in report_of(res)["checks"]]
    assert names == ["construction", "cocycle-relation", "coefficient-invariance"]


SERIES_G1 = {"T": [["q^(2)"]], "Lambda": [[1]], "c": ["q"], "coeffs": [{"rep": [0], "a": "1"}]}
VARIETY_G1 = {"g": 1, "P": [["2"]], "Lambda": [[1]]}


def run_doc(tmp_path, doc, *args):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(doc))
    return run(*args, p)


def test_well_typed_documents_validate(tmp_path):
    for doc in (SERIES_G1, VARIETY_G1, {**VARIETY_G1, "P": [[2]], "Lambda": [["1"]]}):
        assert run_doc(tmp_path, doc, "validate").exit_code == 0


@pytest.mark.parametrize(
    "field,value,cmd",
    [
        ("T", "q", "validate"),
        ("T", ["q^(2)"], "validate"),
        ("c", "q", "validate"),
        ("c", [True], "validate"),
        ("Lambda", ["1"], "validate"),
        ("Lambda", [[True]], "validate"),
        ("Lambda", [[1.0]], "validate"),
        ("rep", "0", "validate"),
        ("rep", [0.0], "validate"),
        ("coeffs", "x", "validate"),
        ("coeffs", [[0]], "validate"),
        ("T", "q", "crosscheck"),
        ("c", "q", "crosscheck"),
        ("rep", "0", "divisor"),
        ("Lambda", "1", "suite-b"),
        ("Lambda", "1", "suite-c"),
    ],
)
def test_series_with_wrongly_typed_field_is_rejected(tmp_path, field, value, cmd):
    if field == "rep":
        doc = {**SERIES_G1, "coeffs": [{"rep": value, "a": "1"}]}
    else:
        doc = {**SERIES_G1, field: value}
    args = {
        "validate": ["validate"],
        "crosscheck": ["crosscheck", "A"],
        "suite-b": ["crosscheck", "B"],
        "suite-c": ["crosscheck", "C"],
        "divisor": ["divisor", "--out", tmp_path / "m"],
    }[cmd]
    res = run_doc(tmp_path, doc, *args)
    assert res.exit_code in (1, 2)
    assert isinstance(res.exception, SystemExit)  # a report or a usage error, no traceback
    assert re.search(rf"\b{field}( must|:| needs)", res.output), res.output


@pytest.mark.parametrize(
    "field,value",
    [
        ("P", "2"),
        ("P", ["2"]),
        ("P", [[True]]),
        ("P", [[2.5]]),
        ("Lambda", "1"),
        ("Lambda", ["1"]),
        ("Lambda", [[True]]),
        ("Lambda", [[2.5]]),
        ("g", True),
        ("g", 1.5),
    ],
)
def test_variety_with_wrongly_typed_field_exits_two(tmp_path, field, value):
    res = run_doc(tmp_path, {**VARIETY_G1, field: value}, "validate")
    assert res.exit_code == 2
    assert re.search(rf"malformed variety data: .*\b{field}( must|:)", res.output), res.output


@pytest.mark.parametrize(
    "kind,g,cmd",
    [
        ("variety", 0, "validate"),
        ("variety", -1, "validate"),
        ("variety", 0, "riemann"),
        ("variety", 0, "divisor"),
        ("theta", 0, "validate"),
        ("theta", 0, "eval"),
        ("theta", 0, "divisor"),
    ],
)
def test_rank_below_one_is_rejected(tmp_path, kind, g, cmd):
    # an empty P and Lambda describe no torus: a variety file is a usage
    # error (exit 2), a theta file fails its construction check (exit 1)
    doc = {"g": g, "P": [], "Lambda": []}
    if kind == "theta":
        doc = {"g": g, "P": [], "factor": {"Lambda": [], "ell": []}, "profile": [{"rep": [], "w": "0"}]}
    args = {
        "validate": ["validate"],
        "eval": ["eval"],
        "riemann": ["riemann", "--out", tmp_path / "theta.json"],
        "divisor": ["divisor", "--out", tmp_path / "m"],
    }[cmd]
    res = run_doc(tmp_path, doc, *args)
    assert isinstance(res.exception, SystemExit)  # a report or a usage error, no traceback
    assert f"g must be at least 1, got {g}" in res.output, res.output
    if kind == "variety":
        assert res.exit_code == 2
    else:
        assert res.exit_code == 1
        failed = [c["name"] for c in report_of(res)["checks"] if not c["passed"]]
        assert failed == ["divisor-extraction" if cmd == "divisor" else "construction"]
    assert not (tmp_path / "theta.json").exists()


def test_validate_theta_file():
    res = run("validate", FIXTURES / "theta_g1.json")
    assert res.exit_code == 0
    names = [c["name"] for c in report_of(res)["checks"]]
    assert names[0] == "construction"
    assert "polarization-finite-index" in names


THETA_G1 = json.loads((FIXTURES / "theta_g1.json").read_text())


def test_well_typed_theta_documents_validate(tmp_path):
    # integers where "p/q" strings are allowed, and an "inf" profile value
    ints = {**THETA_G1, "factor": {"Lambda": [[2]], "ell": [0]}}
    ints["profile"] = [{"rep": [0], "w": 0}, {"rep": [1], "w": "inf"}]
    for doc in (THETA_G1, ints):
        assert run_doc(tmp_path, doc, "validate").exit_code == 0


@pytest.mark.parametrize("cmd", ["validate", "eval", "divisor"])
@pytest.mark.parametrize(
    "field,value",
    [
        ("rep", "0"),
        ("rep", [0.7]),
        ("rep", [True]),
        ("w", 0.5),
        ("w", True),
        ("ell", "0"),
        ("ell", [0.5]),
        ("Lambda", "1"),
        ("Lambda", [[True]]),
        ("factor", "x"),
        ("profile", "x"),
        ("ell", ["1/0"]),
        ("Lambda", [["1/0"]]),
    ],
)
def test_theta_with_wrongly_typed_field_is_rejected(tmp_path, field, value, cmd):
    # each field of theta_g1.json edited to a wrong type: a failed
    # construction check naming the field, exit 1 and no traceback
    doc = json.loads(json.dumps(THETA_G1))
    if field in ("rep", "w"):
        doc["profile"][0][field] = value
    elif field in ("ell", "Lambda"):
        doc["factor"][field] = value
    else:
        doc[field] = value
    args = {"validate": ["validate"], "eval": ["eval"], "divisor": ["divisor", "--out", tmp_path / "m"]}[cmd]
    res = run_doc(tmp_path, doc, *args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    failed = [c for c in report_of(res)["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["divisor-extraction" if cmd == "divisor" else "construction"]
    assert re.search(rf"^{field}( must|:| needs)", failed[0]["detail"]), failed[0]["detail"]


# -------------------------------------------------------------------- eval


def test_eval_riemann_g1_points():
    res = run("eval", FIXTURES / "theta_g1.json", "0", "-3/2", "1")
    assert res.exit_code == 0
    results = report_of(res)["results"]
    assert results[0]["value"] == "0" and results[0]["witnesses"] == [[0]]
    assert results[1]["value"] == "-1/2" and results[1]["witnesses"] == [[1]]
    # v = 1 sits on the corner locus: two lattice classes tie
    assert results[2]["value"] == "0"
    assert results[2]["witnesses"] == [[-1], [0]]


def test_eval_g12_principal_theta_matches_the_library(tmp_path):
    # the minimizer's seed is one point at any g, so a g = 12 evaluation
    # takes milliseconds; seeding from the 2^12 rounding corners of the
    # real minimizer took about 3.5 s per point
    g = 12
    variety = {"g": g, "P": [[2 if i == j else 1 for j in range(g)] for i in range(g)],
               "Lambda": [[int(i == j) for j in range(g)] for i in range(g)]}
    src, out = tmp_path / "variety.json", tmp_path / "theta.json"
    src.write_text(json.dumps(variety))
    assert run("riemann", src, "--out", out).exit_code == 0
    rng = random.Random(12)
    points = [[Fraction(rng.randint(-400, 400), rng.choice((7, 11, 13))) for _ in range(g)] for _ in range(4)]
    points.append([Fraction(rng.choice((-1, 1)) * 10**30 + rng.randint(-9, 9), 7) for _ in range(g)])
    res = run("eval", out, *(",".join(map(format_fraction, v)) for v in points))
    assert res.exit_code == 0
    theta = TropicalThetaFunction.from_json_dict(json.loads(out.read_text()))
    want = []
    for v in points:
        r = theta.evaluate(v)
        want.append({"point": [format_fraction(c) for c in v], "value": format_fraction(r.value),
                     "witnesses": [list(u) for u in r.witnesses]})
    assert report_of(res)["results"] == want


def test_eval_rejects_wrong_arity():
    res = run("eval", FIXTURES / "theta_g1.json", "1,2")
    assert res.exit_code == 2


def test_eval_rejects_decimal_points():
    res = run("eval", FIXTURES / "theta_g1.json", "0.5")
    assert res.exit_code == 2


def test_import_leaves_hashlib_out_and_eval_hashes_its_input():
    # importing the package and its CLI loads neither click nor hashlib
    # (which maps OpenSSL): the commands load on first use, and the report
    # in a fresh process is the in-process one, with the input's sha256
    path = FIXTURES / "theta_g1.json"
    code = (
        "import sys, troptheta, troptheta.cli\n"
        "assert not {'click', 'hashlib'} & set(sys.modules), sorted(sys.modules)\n"
        "troptheta.cli.main(sys.argv[1:])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, "eval", str(path), "0", "-3/2", "1"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert proc.stdout.decode() == run("eval", path, "0", "-3/2", "1").stdout


# ----------------------------------------------------------------- riemann


def test_riemann_stdout_is_loadable_theta(tmp_path):
    res = run("riemann", FIXTURES / "variety_g1.json")
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["profile"] == [{"rep": [0], "w": "0"}]
    assert doc["factor"]["ell"] == ["0"]


def test_riemann_out_file_matches_fixture(tmp_path):
    out = tmp_path / "theta.json"
    res = run("riemann", FIXTURES / "variety_g1.json", "--out", out, "--point", "0")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["results"][0]["value"] == "0"
    assert json.loads(out.read_text()) == json.loads((FIXTURES / "theta_g1.json").read_text())


def test_riemann_point_without_out_is_usage_error():
    res = run("riemann", FIXTURES / "variety_g1.json", "--point", "0")
    assert res.exit_code == 2


def test_riemann_rejects_non_principal(tmp_path):
    p = tmp_path / "np.json"
    p.write_text('{"g": 1, "P": [["2"]], "Lambda": [[2]]}')
    res = run("riemann", p)
    assert res.exit_code == 1
    rep = json.loads(res.stdout)
    assert not rep["checks"][0]["passed"]


# -------------------------------------------------------------- crosscheck


def test_crosscheck_suite_a_passes():
    res = run("crosscheck", "A", FIXTURES / "series_g1.json")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["suite"] == "A" and rep["seed"] == 0 and rep["samples"] == 50
    assert rep["checks"][0]["detail"] == "350 exact identities"


def test_crosscheck_suite_b_g1_100_of_100():
    res = run("crosscheck", "B", FIXTURES / "period_g1.json")
    assert res.exit_code == 0
    rep = report_of(res)
    assert rep["checks"][0]["detail"].startswith("100/100")


def test_crosscheck_suite_b_g2():
    res = run("crosscheck", "B", FIXTURES / "period_g2.json", "--samples", "30")
    assert res.exit_code == 0
    assert report_of(res)["samples"] == 30


def test_crosscheck_suite_c_level_two():
    res = run("crosscheck", "C", FIXTURES / "level2_g1.json")
    assert res.exit_code == 0
    names = [c["name"] for c in report_of(res)["checks"]]
    assert names == ["difference-periodic", "valuation-identity"]


def test_crosscheck_suite_c_mismatched_cocycles_exits_one(tmp_path):
    f1 = json.loads((FIXTURES / "series_g1.json").read_text())
    f2 = {"T": [["q^(4)"]], "Lambda": [[1]], "c": ["q^(2)"], "coeffs": [{"rep": [0], "a": "1"}]}
    p = tmp_path / "pair.json"
    p.write_text(json.dumps({"f1": f1, "f2": f2}))
    res = run("crosscheck", "C", p)
    assert res.exit_code == 1
    rep = json.loads(res.stdout)
    assert rep["checks"][0]["name"] == "precondition"
    assert not rep["checks"][0]["passed"]


def test_crosscheck_suite_b_non_principal_exits_one():
    res = run("crosscheck", "B", FIXTURES / "level2_g1.json")
    assert res.exit_code == 1


# ----------------------------------------------------------------- divisor


def test_divisor_g1_single_corner_point(tmp_path):
    out = tmp_path / "mesh.json"
    res = run("divisor", FIXTURES / "variety_g1.json", "--out", out)
    assert res.exit_code == 0
    d = report_of(res)["divisor"]
    assert d["zero_cells"] == 1 and d["top_cells"] == 1
    assert d["betti"] == [1, 0] and d["euler_characteristic"] == 0
    assert json.loads(out.read_text())["g"] == 1


def test_divisor_g2_first_betti_two(tmp_path):
    out = tmp_path / "mesh.json"
    res = run("divisor", FIXTURES / "variety_g2.json", "--out", out)
    assert res.exit_code == 0
    d = report_of(res)["divisor"]
    assert d["betti"] == [1, 2]
    assert d["components"] == 1
    assert d["cells"] == 4


@pytest.mark.parametrize("name, fmt", [("variety_g2.json", "json"), ("variety_g2.json", "svg"), ("variety_g3.json", "obj")])
def test_divisor_forms_no_fraction_view(monkeypatch, tmp_path, name, fmt):
    # the report reads counts and the mesh is written from the complex's
    # integers: the one Fraction points formed are the new theta's 2^g
    # domain corners
    from troptheta import geometry

    formed = []
    view = geometry._x

    def recording(p):
        formed.append(p)
        return view(p)

    monkeypatch.setattr(geometry, "_x", recording)
    res = run("divisor", FIXTURES / name, "--out", tmp_path / f"mesh.{fmt}", "--format", fmt)
    assert res.exit_code == 0, res.output
    g = json.loads((FIXTURES / name).read_text())["g"]
    assert len(formed) == 2**g


def test_divisor_accepts_series_input(tmp_path):
    out = tmp_path / "mesh.json"
    res = run("divisor", FIXTURES / "series_g1.json", "--out", out)
    assert res.exit_code == 0
    assert report_of(res)["divisor"]["zero_cells"] == 1


LEVEL2_TWIN = {
    "g": 1,
    "P": [["1"]],
    "Lambda": [[2]],
    "factor": {"Lambda": [[2]], "ell": ["0"]},
    "profile": [{"rep": [0], "w": "0"}, {"rep": [1], "w": "-3/2"}],
}


def test_divisor_and_eval_accept_profile_reps_off_the_canonical_box(tmp_path):
    # rep 3 = 1 + 2 * 1 carries w(3) = w(1) + c_trop(1) + [1, 1] = -3/2 + 1 + 1:
    # the same theta as its canonical twin, so the same mesh and values
    shifted = {**LEVEL2_TWIN, "profile": [{"rep": [0], "w": "0"}, {"rep": [3], "w": "1/2"}]}
    meshes, results = [], []
    for name, doc in (("shifted", shifted), ("twin", LEVEL2_TWIN)):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.mesh.json"
        path.write_text(json.dumps(doc))
        res = run("divisor", path, "--out", out)
        assert res.exit_code == 0, res.output
        meshes.append(out.read_bytes())
        res = run("eval", path, "1/3", "0", "-5/7", "1/2")
        assert res.exit_code == 0, res.output
        results.append(json.dumps(report_of(res)["results"]))
    assert meshes[0] == meshes[1]
    assert results[0] == results[1]


def test_validate_rejects_congruent_profile_reps(tmp_path):
    doc = {**LEVEL2_TWIN, "profile": [{"rep": [0], "w": "0"}, {"rep": [2], "w": "1"}]}
    res = run_doc(tmp_path, doc, "validate")
    assert res.exit_code == 1
    (check,) = report_of(res)["checks"]
    assert check == {"name": "construction", "passed": False, "detail": "profile reps (2,) and (0,) are congruent"}


def test_divisor_rejects_svg_for_g1(tmp_path):
    res = run("divisor", FIXTURES / "variety_g1.json", "--out", tmp_path / "m.svg", "--format", "svg")
    assert res.exit_code == 2


def test_divisor_rank_cap_exits_two(tmp_path):
    p = tmp_path / "g4.json"
    P = [[str(2 if i == j else 0) for j in range(4)] for i in range(4)]
    L = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    p.write_text(json.dumps({"g": 4, "P": P, "Lambda": L}))
    res = run("divisor", p, "--out", tmp_path / "m.json")
    assert res.exit_code == 2


# ------------------------------------------------------------------ export


def test_export_svg_matches_direct_export(tmp_path):
    mesh = tmp_path / "mesh.json"
    run("divisor", FIXTURES / "variety_g2.json", "--out", mesh)
    direct = tmp_path / "direct.svg"
    run("divisor", FIXTURES / "variety_g2.json", "--out", direct, "--format", "svg")
    res = run("export", mesh, "--format", "svg")
    assert res.exit_code == 0
    assert res.stdout.encode() == direct.read_bytes()


def test_export_json_roundtrips_bytes(tmp_path):
    mesh = tmp_path / "mesh.json"
    run("divisor", FIXTURES / "variety_g2.json", "--out", mesh)
    res = run("export", mesh, "--format", "json")
    assert res.exit_code == 0
    assert res.stdout.encode() == mesh.read_bytes()


def test_export_rejects_non_mesh_file():
    res = run("export", FIXTURES / "variety_g1.json", "--format", "json")
    assert res.exit_code == 2


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# each malformed mesh, with what its error names: the field of a non-exact
# number, a wrongly typed integer or a zero denominator, an empty piece, and
# a vector whose length is not g.  Each used to be read with bare
# Fraction/int, and exported (exit 0) or ended in a traceback (exit 1).
MALFORMED_MESHES = {
    "float-vertex": (("cells", 0, "vertices", 0, 0), 0.1, "json", "vertices"),
    "decimal-offset": (("cells", 0, "halfspaces", 0, "offset"), "0.5", "json", "offset"),
    "bool-and-float-witness": (("skeleton", 0, "witnesses"), [[True, 1.7]], "json", "witnesses"),
    "float-cell-witness": (("cells", 0, "witness"), [0, 1.7], "json", "witness"),
    "float-dim": (("cells", 0, "dim"), 2.0, "json", "dim"),
    "string-bounded": (("cells", 0, "bounded"), "yes", "json", "bounded"),
    "string-betti": (("quotient", "betti0"), "1.0", "json", "betti0"),
    "zero-denominator-vertex": (("skeleton", 0, "vertices", 0, 0), "1/0", "json", "vertices"),
    "zero-denominator-matrix": (("domain", "matrix", 0, 0), "1/0", "json", "matrix"),
    "zero-denominator-zero-cell": (("quotient", "zero_cells", 0, 0), "1/0", "json", "zero_cells"),
    "empty-piece": (("skeleton", 0, "vertices"), [], "svg", "vertex"),
    "g-3-over-2x2": (("g",), 3, "json", "not g = 3"),
    "g-0": (("g",), 0, "json", "g"),
    "short-vertex": (("skeleton", 0, "vertices", 0), ["1/2"], "svg", "(1/2) has length 1, not g = 2"),
    "long-normal": (("cells", 0, "halfspaces", 0, "normal"), [1, 0, 1], "json", "(1, 0, 1) has length 3"),
    "no-corners": (("domain", "corners"), [], "svg", "corners"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MESHES))
def test_export_rejects_malformed_mesh(tmp_path, case):
    path, value, fmt, field = MALFORMED_MESHES[case]
    mesh = tmp_path / "mesh.json"
    assert run("divisor", FIXTURES / "variety_g2.json", "--out", mesh).exit_code == 0
    doc = json.loads(mesh.read_text())
    set_path(doc, path, value)
    mesh.write_text(json.dumps(doc))
    res = run("export", mesh, "--format", fmt)
    assert res.exit_code == 2, res.output
    assert "not a mesh file" in res.output and field in res.output, res.output


def test_export_rejects_a_coordinate_beyond_float_range(tmp_path):
    # svg prints floats: a numerator of 10^400 used to end in an
    # OverflowError traceback (exit 1); json still prints it exactly
    mesh = tmp_path / "mesh.json"
    assert run("divisor", FIXTURES / "variety_g2.json", "--out", mesh).exit_code == 0
    doc = json.loads(mesh.read_text())
    set_path(doc, ("skeleton", 0, "vertices", 0, 0), str(10**400))
    mesh.write_text(json.dumps(doc))
    res = run("export", mesh, "--format", "svg")
    assert res.exit_code == 2 and "too large for a float" in res.output, res.output
    res = run("export", mesh, "--format", "json")
    assert res.exit_code == 0 and str(10**400) in res.stdout


@pytest.mark.parametrize("g", [10**10, "10000000000"], ids=["int", "string"])
def test_export_reads_the_domain_shape_before_counting_corners(tmp_path, g):
    # a 224-byte mesh of g = 10^10 with an empty domain: the reader used to
    # form 2^g to count the corners first, a MemoryError traceback (exit 1)
    quotient = {"zero_cells": [], "one_cell_count": 0, "top_cell_count": 0,
                "betti0": None, "betti1": None, "euler_characteristic": None}
    doc = {"g": g, "domain": {"matrix": [], "corners": []}, "cells": [], "skeleton": [], "quotient": quotient}
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(doc))
    started = time.perf_counter()
    res = run("export", mesh)
    assert time.perf_counter() - started < 1
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    assert "not a mesh file: domain shape mismatch: the matrix has 0 row(s), not g = 10000000000" in res.stderr


def test_export_reads_the_domain_shape_before_inverting(tmp_path):
    # a 45 KB mesh with a dense 90 x 90 domain matrix and no corners: the
    # reader used to invert the matrix in Fractions before it counted the
    # corners, and took 1.9 s to exit 2
    g = 90
    matrix = [[f"{(7 * i + 13 * j) % 17 + (100 if i == j else 1)}/{(i + j) % 5 + 1}" for j in range(g)] for i in range(g)]
    quotient = {"zero_cells": [], "one_cell_count": 0, "top_cell_count": 0,
                "betti0": None, "betti1": None, "euler_characteristic": None}
    doc = {"g": g, "domain": {"matrix": matrix, "corners": []}, "cells": [], "skeleton": [], "quotient": quotient}
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(doc))
    assert mesh.stat().st_size > 40_000
    started = time.perf_counter()
    res = run("export", mesh)
    assert time.perf_counter() - started < 1
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    assert f"not a mesh file: corners: the domain has 2^g = {2**g} corners, got 0" in res.stderr


# ------------------------------------------------------------ reader fuzz


def mesh_doc(name):
    """The json mesh of `troptheta divisor` on a fixture, as a document."""
    doc = json.loads((FIXTURES / name).read_text())
    theta = TropicalThetaFunction.from_json_dict(doc) if name.startswith("theta") else riemann_theta(
        TropicalPolarizationData.from_json_dict(doc)
    )
    return json.loads(export_mesh(corner_locus(theta), "json"))


# a g = 1 mesh and a g = 2 mesh with fractional vertices and offsets
FUZZ_MESHES = {1: mesh_doc("variety_g1.json"), 2: mesh_doc("theta_g2_index9.json")}
BIG = 10**400
LITERALS = st.sampled_from(
    ["1/0", "-3/0", "0/0", "1e400", "1E2", "0.5", "", "abc", "inf", "nan", "2/4", "-6/4", "1/-2", " 1/2 ", "1/2"]
    + [str(BIG), f"{BIG}/3", f"3/{BIG}", f"-{BIG}/{BIG + 1}"]
)
FUZZ_VALUES = st.one_of(
    LITERALS,
    st.integers(-(10**30), 10**30) | st.just(BIG) | st.just(-BIG),
    st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["[]", "{}", "[[]]", '["1", "2", "3"]', '{"g": 1}']).map(json.loads),
)


def value_paths(doc, prefix=()):
    """The path to every value inside doc, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from value_paths(value, (*prefix, key))


def mutate(data, doc):
    """One drawn edit of doc: replace a literal with another, drop a key or
    an item, set a value, or lengthen or shorten a list."""
    paths = list(value_paths(doc))
    *parents, last = data.draw(st.sampled_from(paths))
    holder = value_at(doc, parents)
    kind = data.draw(st.sampled_from(["literal", "literal", "drop", "set", "grow", "shrink"]))
    if kind == "literal":
        leaves = [p for p in paths if isinstance(value_at(doc, p), str)]
        if leaves:
            *parents, last = data.draw(st.sampled_from(leaves))
            holder = value_at(doc, parents)
            holder[last] = data.draw(LITERALS)
    elif kind == "drop":
        del holder[last]
    elif kind == "set":
        holder[last] = data.draw(FUZZ_VALUES)
    elif isinstance(holder[last], list) and kind == "grow":
        copy = json.loads(json.dumps(holder[last][-1])) if holder[last] else 0
        holder[last].append(data.draw(st.just(copy) | FUZZ_VALUES))
    elif isinstance(holder[last], list) and holder[last]:
        holder[last].pop(data.draw(st.integers(0, len(holder[last]) - 1)))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@given(st.data())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_export_reader_fuzz(tmp_path_factory, data):
    # a mutated mesh is exported (exit 0) or refused with a message (exit
    # 2) in every format: never a traceback
    g = data.draw(st.sampled_from([1, 2]))
    doc = json.loads(json.dumps(FUZZ_MESHES[g]))
    for _ in range(data.draw(st.integers(1, 3))):
        if doc:
            mutate(data, doc)
    path = tmp_path_factory.mktemp("fuzz") / "mesh.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "svg", "obj"):
        res = run("export", path, "--format", fmt)
        assert res.exit_code in (0, 2), (fmt, res.exit_code, repr(res.exception), res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (fmt, repr(res.exception))
        assert "Traceback" not in res.output


SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
HUGE = st.builds(Fraction, st.sampled_from([10**30, -(10**30), 10**9]), st.sampled_from([1, 7]))


def skewed_form(g, a):
    """P = U^T U for the shear U = I + a (e_12 + ... + e_(g-1)g): det 1 and
    LLL-reduced to the identity, but its given basis spans a long thin
    parallelepiped, which a + 4 cells meet at g = 2 and about a^2 at g = 3."""
    U = [[int(i == j) + a * (j == i + 1) for j in range(g)] for i in range(g)]
    return [[sum(U[k][i] * U[k][j] for k in range(g)) for j in range(g)] for i in range(g)]


def variety_doc(P):
    g = len(P)
    return {"g": g, "P": [[str(x) for x in row] for row in P], "Lambda": [[int(i == j) for j in range(g)] for i in range(g)]}


@st.composite
def theta_docs(draw):
    """A theta document of any shape `divisor` and `eval` read: g up to 4,
    Lam scalar, non-diagonal, singular, zero or of huge index, P positive,
    indefinite, unsymmetric, huge or skewed (a long thin given basis, whose
    divisor passes the cell cap at a shear of 10^6), huge numerators in ell
    and w, "inf" values, and profile reps anywhere in their cosets or not
    one per coset."""
    g = draw(st.integers(1, 4))
    unit = [[int(i == j) for j in range(g)] for i in range(g)]
    kinds = ["scalar"] * 4 + ["singular", "zero", "huge"] + (["non-diagonal"] * 2 if g in (2, 3) else [])
    lam_kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 2 if g <= 3 else 1))
    lam = {
        "scalar": [[d * x for x in row] for row in unit],
        "singular": [[0] * g] + unit[1:],
        "zero": [[0] * g for _ in range(g)],
        "huge": [[10**8 * x for x in row] for row in unit],
        "non-diagonal": {2: [[2, 1], [1, 2]], 3: [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}.get(g),
    }[lam_kind]
    scale = draw(st.sampled_from([Fraction(1), Fraction(1), Fraction(10**30), Fraction(1, 10**9)]))
    if lam_kind == "non-diagonal":
        a, b = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, Fraction(1, 2)]))
        P = [[scale * (a * unit[i][j] + b * lam[i][j]) for j in range(g)] for i in range(g)]
    else:
        P = [[scale * draw(st.sampled_from([2, 3])) if i == j else Fraction(0) for j in range(g)] for i in range(g)]
        for i in range(g):
            for j in range(i):
                P[i][j] = P[j][i] = scale * draw(st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 3)]))
        shape = draw(st.sampled_from(["positive"] * 4 + ["indefinite", "unsymmetric", "degenerate", "skewed"]))
        if shape == "skewed":
            P = [[scale * x for x in row] for row in skewed_form(g, draw(st.sampled_from([3, 10**6])))]
        elif shape == "indefinite":
            P[0][0] = -P[0][0]
        elif shape == "unsymmetric" and g > 1:
            P[0][1] += 1
        elif shape == "degenerate":
            for i in range(g):
                P[0][i] = P[i][0] = Fraction(0)
    value = st.one_of(SMALL, SMALL, HUGE, st.just("inf"))
    ell = [draw(st.one_of(SMALL, HUGE)) for _ in range(g)] if lam_kind != "zero" else [0] * g
    try:
        reps = list(CosetLattice(tuple(map(tuple, lam))).representatives()) if lam_kind != "huge" else []
    except ValueError:  # a singular Lam has no cosets
        reps = []
    if not reps or draw(st.integers(0, 3)) == 0:
        reps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * g), min_size=1, max_size=4, unique=True))
    m = st.tuples(*[st.sampled_from([0, 0, 1, -2, 10**6])] * g)
    if lam_kind != "zero":
        reps = [tuple(r + sum(x * y for x, y in zip(row, draw(m))) for r, row in zip(rep, lam)) for rep in reps]
    profile = [{"rep": list(rep), "w": str(draw(value))} for rep in reps]
    profile[0]["w"] = str(draw(SMALL))
    doc = {
        "g": g,
        "P": [[str(x) for x in row] for row in P],
        "Lambda": unit,
        "factor": {"Lambda": lam, "ell": [str(x) for x in ell]},
        "profile": profile,
    }
    return doc


@given(theta_docs(), st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_divisor_and_eval_fuzz(tmp_path_factory, doc, data):
    # a theta document, drawn or mutated to wrong types and shapes, gets a
    # mesh and a report (exit 0), a failed check (exit 1) or a message
    # (exit 2) from `divisor` and `eval`: never a traceback, and each within
    # a few seconds
    for _ in range(data.draw(st.integers(0, 2))):
        mutate(data, doc)
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "theta.json"
    path.write_text(json.dumps(doc))
    # a mutated g may be negative or 10^30: points of that length cannot be
    # drawn, so such a document gets points of length 2 (and 1 to 5 below)
    g = doc.get("g") if type(doc.get("g")) is int and 1 <= doc["g"] <= 4 else 2
    coordinate = st.one_of(SMALL, HUGE).map(format_fraction)
    point = st.lists(coordinate, min_size=g, max_size=g) | st.lists(coordinate, min_size=1, max_size=5)
    points = [",".join(p) for p in data.draw(st.lists(point, min_size=1, max_size=2))]
    for argv in (("divisor", path, "--out", folder / "mesh.json"), ("eval", path, *points)):
        started = time.perf_counter()
        res = run(*argv)
        assert res.exit_code in (0, 1, 2), (argv[0], res.exit_code, repr(res.exception), res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (argv[0], repr(res.exception))
        assert "Traceback" not in res.output
        assert time.perf_counter() - started < 10, argv[0]


@given(theta_docs().map(lambda doc: {"g": doc["g"], "P": doc["P"], "Lambda": doc["factor"]["Lambda"]}), st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_variety_reader_fuzz(tmp_path_factory, doc, data):
    # a variety document of the theta fuzz's shapes (its P, with the
    # factor's Lam as the polarization: scalar, non-diagonal, singular, zero
    # or of huge index), drawn or mutated to wrong types and shapes, gets a
    # report or a theta file (exit 0), a failed check (exit 1) or a message
    # (exit 2) from `validate`, `riemann` and `divisor`: never a traceback,
    # and each within a few seconds
    for _ in range(data.draw(st.integers(0, 2))):
        mutate(data, doc)
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "variety.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("validate", path),
        ("riemann", path, "--out", folder / "theta.json"),
        ("divisor", path, "--out", folder / "mesh.json"),
    ):
        started = time.perf_counter()
        res = run(*argv)
        assert res.exit_code in (0, 1, 2), (argv[0], res.exit_code, repr(res.exception), res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (argv[0], repr(res.exception))
        assert "Traceback" not in res.output
        assert time.perf_counter() - started < 10, argv[0]


def test_a_lambda_entry_literal_is_an_exact_integer(tmp_path):
    # the one exact-integer rule reads the Lam entry "1", like "2/2", as
    # the integer 1, and refuses "1/2" and 1.0
    reports = [report_of(run_doc(tmp_path, {**VARIETY_G1, "Lambda": [[x]]}, "validate"))["checks"] for x in (1, "1", "2/2")]
    assert reports[0] == reports[1] == reports[2] and all(c["passed"] for c in reports[0])
    for x in ("1/2", 1.0):
        res = run_doc(tmp_path, {**VARIETY_G1, "Lambda": [[x]]}, "validate")
        assert res.exit_code == 2 and "Lambda: integer required" in res.output, res.output


def monomial(coeff, exponent):
    return str(PuiseuxNumber.monomial(coeff, exponent))


@st.composite
def series_docs(draw):
    """A series document of any shape `validate` and `crosscheck` read: g up
    to 3; Lam scalar, non-diagonal, singular, zero or of huge index; a
    pairing P positive, indefinite, unsymmetric, degenerate or scaled by
    10^30, under coefficients other than 1; cocycle values and coefficients
    that are zero, not monomials, or carry exponents of 10^30; and
    coefficient reps anywhere in their cosets or not one per coset."""
    g = draw(st.integers(1, 3))
    unit = [[int(i == j) for j in range(g)] for i in range(g)]
    kinds = ["scalar"] * 4 + ["singular", "zero", "huge"] + (["non-diagonal"] * 2 if g > 1 else [])
    lam_kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 2))
    lam = {
        "scalar": [[d * x for x in row] for row in unit],
        "singular": [[0] * g] + unit[1:],
        "zero": [[0] * g for _ in range(g)],
        "huge": [[10**8 * x for x in row] for row in unit],
        "non-diagonal": {2: [[2, 1], [1, 2]], 3: [[2, 1, 0], [1, 2, 1], [0, 1, 2]]}.get(g),
    }[lam_kind]
    scale = draw(st.sampled_from([Fraction(1), Fraction(1), Fraction(10**30)]))
    if lam_kind == "non-diagonal":
        P = [[scale * (unit[i][j] + Fraction(1, 2) * lam[i][j]) for j in range(g)] for i in range(g)]
    else:
        P = [[scale * draw(st.sampled_from([1, 2])) if i == j else Fraction(0) for j in range(g)] for i in range(g)]
        for i in range(g):
            for j in range(i):
                P[i][j] = P[j][i] = scale * draw(st.sampled_from([Fraction(-1, 3), Fraction(0), Fraction(1, 3)]))
        shape = draw(st.sampled_from(["positive"] * 4 + ["indefinite", "unsymmetric", "degenerate"]))
        if shape == "indefinite":
            P[0][0] = -P[0][0]
        elif shape == "unsymmetric" and g > 1:
            P[0][1] += 1
        elif shape == "degenerate":
            for i in range(g):
                P[0][i] = P[i][0] = Fraction(0)
    coeff = st.sampled_from([1, 1, 1, 2, Fraction(1, 3)])
    # T_ij and T_ji share a coefficient, so that the cocycle is often valid
    C = [[draw(coeff) for _ in range(g)] for _ in range(g)]
    T = [[monomial(C[min(i, j)][max(i, j)], x) for j, x in enumerate(row)] for i, row in enumerate(P)]
    exponent = st.one_of(SMALL, SMALL, HUGE)

    def entry():
        if draw(st.integers(0, 5)) == 5:  # one entry in six: zero or not a monomial
            return draw(st.sampled_from(["0", "1 + q", "2 - q^(1/2)"]))
        return monomial(draw(coeff | st.just(-1)), draw(exponent))

    try:
        reps = list(CosetLattice(tuple(map(tuple, lam))).representatives()) if lam_kind != "huge" else []
    except ValueError:  # a singular Lam has no cosets
        reps = []
    if not reps or draw(st.integers(0, 3)) == 0:
        reps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * g), min_size=1, max_size=4, unique=True))
    m = st.tuples(*[st.sampled_from([0, 0, 1, -2, 10**6])] * g)
    if lam_kind != "zero":
        reps = [tuple(r + sum(x * y for x, y in zip(row, draw(m))) for r, row in zip(rep, lam)) for rep in reps]
    coeffs = [{"rep": list(rep), "a": entry()} for rep in reps]
    coeffs[0]["a"] = monomial(1, draw(SMALL))
    return {"T": T, "Lambda": lam, "c": [entry() for _ in range(g)], "coeffs": coeffs}


def series(**edit):
    return {"T": [["q^(2)"]], "Lambda": [[1]], "c": ["q"], "coeffs": [{"rep": [0], "a": "1"}], **edit}


FAR_TERMS = series(T=[["2*q"]], Lambda=[[2]], c=[f"-q^({10**30})"])
SERIES_FOUND = {
    # a series' coefficients default to 0, so its file does not bound its
    # coset count: the coefficient table used to be built for 10^8 cosets
    "huge-index": (("validate",), series(Lambda=[[10**8]]), 2, "polarization index 100000000 exceeds 4096 cosets"),
    # a cocycle value of valuation 10^30 puts the dominant terms of suite C
    # at |u| ~ 10^30, whose coefficients hold powers 2^(u^2)
    "huge-coefficient": (("crosscheck", "C"), {"f1": FAR_TERMS, "f2": FAR_TERMS}, 2, "bits"),
    "zero-denominator": (("validate",), series(T=[["3/0"]]), 1, "not an exact rational literal: '3/0'"),
    "short-Lambda-row": (("crosscheck", "C"), series(Lambda=[[]]), 1, "Lambda shape mismatch"),
    # a lambda = 0 coefficient at u ~ 10^300 asks the invariance check for
    # t(u', u) = (2q)^(u' u), a power 2^(10^300)
    "far-support-point": (
        ("validate",),
        series(T=[["2*q"]], Lambda=[[0]], c=["1"], coeffs=[{"rep": [0], "a": "1"}, {"rep": [10**300], "a": "1"}]),
        2,
        "bits",
    ),
}


@pytest.mark.parametrize("case", sorted(SERIES_FOUND))
def test_series_found_by_the_fuzz(tmp_path, case):
    # inputs that ended in a MemoryError, ZeroDivisionError or IndexError
    # traceback: each is now refused with a message
    argv, doc, code, message = SERIES_FOUND[case]
    path = tmp_path / "series.json"
    path.write_text(json.dumps(doc))
    res = run(*argv, path)
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code == code and message in res.output, res.output


def test_validate_refuses_a_power_past_the_cap_at_nonzero_lambda(tmp_path):
    # the rep 2 * 10^300 of Lambda = 2 moves to 0 by t(n, 0) c(n) at
    # n = 10^300, where the pair value t(e', lambda(e')) = 4 q^2 enters as
    # 4^(n (n - 1)/2): refused by the fold of the cocycle's kernel, with the
    # message recorded before that kernel replaced the per-factor folds
    n = 10**300
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series(T=[["2*q"]], Lambda=[[2]], coeffs=[{"rep": [2 * n], "a": "1"}])))
    res = run("validate", path)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "Traceback" not in res.output
    assert f"coefficient (4/1)^{n * (n - 1) // 2} exceeds 1048576 bits" in res.stderr


def test_skewed_divisor_grows_with_the_shear(tmp_path):
    # the cell count follows the length of the given basis, not the input
    for a, cells in [(10, 14), (300, 304)]:
        res = run_doc(tmp_path, variety_doc(skewed_form(2, a)), "divisor", "--out", tmp_path / "mesh.json")
        assert res.exit_code == 0, res.output
        assert report_of(res)["divisor"]["cells"] == cells


HUGE_INDEX = series(Lambda=[[5000]])
REFUSED = {
    # case -> (command, document, flags, message on stderr)
    "validate-series-index": (("validate",), HUGE_INDEX, (), "polarization index 5000 exceeds 4096 cosets"),
    "crosscheck-a-series-index": (("crosscheck", "A"), HUGE_INDEX, (), "polarization index 5000 exceeds 4096 cosets"),
    "crosscheck-c-series-index": (("crosscheck", "C"), HUGE_INDEX, (), "polarization index 5000 exceeds 4096 cosets"),
    "divisor-series-index": (("divisor",), HUGE_INDEX, (), "polarization index 5000 exceeds 4096 cosets"),
    "divisor-rank": (("divisor",), variety_doc([[2 * (i == j) for j in range(4)] for i in range(4)]), (),
                     "corner locus capped at g <= 3"),
    "divisor-format": (("divisor",), VARIETY_G1, ("--format", "svg"), "svg export needs g = 2"),
    "export-format": (("export",), FUZZ_MESHES[2], ("--format", "obj"), "obj export needs g = 3"),
    # P = [[1, a], [a, 1 + a^2]] at a = 10^6 used to exhaust memory
    "divisor-cells-g2": (("divisor",), variety_doc(skewed_form(2, 10**6)), (),
                         "the divisor has more than 10000 cells in its fundamental domain"),
    "divisor-cells-g3": (("divisor",), variety_doc(skewed_form(3, 200)), ("--format", "obj"),
                         "the divisor has more than 10000 cells in its fundamental domain"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_inputs_too_large_to_answer_exit_two(tmp_path, case):
    # each command that can reach a refusal exits 2 with its message on
    # stderr, prints no report and writes no mesh, well within 10 s
    command, doc, flags, message = REFUSED[case]
    path, mesh = tmp_path / "input.json", tmp_path / "mesh.out"
    path.write_text(json.dumps(doc))
    out = ("--out", mesh) if command == ("divisor",) else ()
    started = time.perf_counter()
    res = run(*command, path, *flags, *out)
    assert time.perf_counter() - started < 10
    assert res.exit_code == 2 and message in res.stderr, res.output
    assert res.stdout == "" and not mesh.exists()


@given(series_docs(), st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_validate_and_crosscheck_fuzz(tmp_path_factory, doc, data):
    # a series document, drawn or mutated to wrong types and shapes, gets a
    # report from `validate` and from each crosscheck suite: passed (exit
    # 0), failed (exit 1) or refused with a message (exit 2), never a
    # traceback, and each within a few seconds.  Suite C also reads the
    # series against a second one with the same cocycle
    for _ in range(data.draw(st.integers(0, 2))):
        mutate(data, doc)
    folder = tmp_path_factory.mktemp("fuzz")
    path, pair = folder / "series.json", folder / "pair.json"
    path.write_text(json.dumps(doc))
    g = len(doc["c"]) if isinstance(doc.get("c"), list) else 1
    other = {**doc, "coeffs": [{"rep": [0] * g, "a": "1"}]}
    pair.write_text(json.dumps({"f1": doc, "f2": other}))
    for argv in (("validate", path), *(("crosscheck", s, path) for s in "ABC"), ("crosscheck", "C", pair)):
        started = time.perf_counter()
        res = run(*argv)
        assert res.exit_code in (0, 1, 2), (argv, res.exit_code, repr(res.exception), res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (argv, repr(res.exception))
        assert "Traceback" not in res.output
        assert time.perf_counter() - started < 10, argv


def test_export_reads_literals_in_any_form(tmp_path):
    # every literal written over a doubled denominator ("1/2" as "2/4", "2"
    # as "4/2") reads as the same rational and re-exports in lowest terms
    doc = mesh_doc("variety_g2_skewed.json")

    def doubled(x):
        if isinstance(x, str):
            f = Fraction(x)
            return f"{2 * f.numerator}/{2 * f.denominator}"
        if isinstance(x, list):
            return list(map(doubled, x))
        if isinstance(x, dict):
            return {k: doubled(v) for k, v in x.items()}
        return x

    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(doubled(doc)))
    assert '"2/4"' in mesh.read_text() and '"1/2"' not in mesh.read_text()
    for fmt in ("json", "svg"):
        res = run("export", mesh, "--format", fmt)
        assert res.exit_code == 0, res.output
        assert res.stdout.encode() == export_mesh(CellComplex.from_json_dict(doc), fmt)
    assert '"1/2"' in run("export", mesh, "--format", "json").stdout


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", FIXTURES / "variety_g2.json"),
        ("eval", FIXTURES / "theta_g1.json", "4/7", "-9/11", "22/13"),
        ("crosscheck", "A", FIXTURES / "series_g1.json"),
        ("crosscheck", "B", FIXTURES / "period_g1.json"),
        ("crosscheck", "C", FIXTURES / "level2_g1.json"),
    ],
    ids=["validate", "eval", "suite-a", "suite-b", "suite-c"],
)
def test_reports_are_byte_identical_across_runs(argv):
    first = run(*argv)
    second = run(*argv)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout


def test_meshes_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run("divisor", FIXTURES / "variety_g2.json", "--out", a)
    r2 = run("divisor", FIXTURES / "variety_g2.json", "--out", b)
    assert r1.exit_code == r2.exit_code == 0
    assert a.read_bytes() == b.read_bytes()
    assert r1.stdout == r2.stdout
