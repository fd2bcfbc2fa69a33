"""Workload `cli`: one op is one in-process call to `troptheta.cli.main`.

Inputs are JSON files generated from the seed at g=1..3, with principal
Lambda and with Lambda = d*I up to index 27 (d=3, g=3).  Each theta is
built and used only a few times, so per-theta precomputation is paid here
and never amortized: a gain on `eval` that moves cost into construction
shows here as a loss.  The index-27 series makes `CosetLattice` costs show.

Every op must exit 0; each report must parse and agree with the equivalent
library call, made once per distinct op after the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from itertools import product

from common import OUT, Op, Workload, fmt, generic_point, reduced_form, scalar_matrix

# One letter per op, cycled.  Sorted by latency, the ops are 26% lighter
# than `E`, 43% `E`, 17% between `E` and `s`, 13% `s` and 2% `A`: the
# median lands in the middle of the `E` block and the 95th percentile inside
# the `s` block, so neither sits on the edge between two op kinds.  A run
# has 250-600 ops, far from 200 and 1000, where the tail rung would change.
PATTERN = "AE1EsE2E3EsEtEwE1EsETE2EbEsE3EtEnEsExEXEusrRaw"
OPS = {
    "1": "validate variety, g=1",
    "2": "validate variety, g=2",
    "3": "validate variety, g=3",
    "x": "export mesh, g=2 svg",
    "X": "export mesh, g=1 json",
    "t": "validate theta, g=1, Lambda = d",
    "T": "validate theta, g=2, Lambda = 2I",
    "u": "validate theta, g=3, Lambda = 3I",
    "E": "eval, principal theta, g=2, 2 points",
    "n": "eval, g=3, Lambda = 3I theta",
    "r": "riemann --out --point, g=2",
    "R": "riemann --out --point, g=3",
    "s": "validate series, g=2, Lambda = 2I",
    "a": "crosscheck A, g=1, Lambda = 1",
    "A": "crosscheck A, g=3, Lambda = 3I",
    "b": "crosscheck B, g=2",
    "w": "crosscheck C, g=1, Lambda = 2",
    "c": "crosscheck C, g=2, Lambda = 2I",
}


def run_cli(args: list[str]) -> tuple[int, bytes]:
    """Call the command group in-process; return (exit code, stdout bytes)."""
    main = sys.modules["troptheta.cli"].main
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=args, prog_name="troptheta", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    text.flush()
    return code, buf.getvalue()


def _matrix(P):
    return [[fmt(x) for x in row] for row in P]


def _monomials(P):
    return [[f"q^({fmt(x)})" for x in row] for row in P]


class Files:
    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.root / f"in-{self.count}.json"
        path.write_text(json.dumps(doc, indent=1))
        return str(path)

    def out(self, suffix) -> str:
        self.count += 1
        return str(self.root / f"out-{self.count}.{suffix}")


def _variety(P, d):
    g = len(P)
    return {"g": g, "P": _matrix(P), "Lambda": [list(r) for r in scalar_matrix(d, g)]}


def _theta_doc(rng, P, d):
    """Theta file with Lambda = d*I: ell and w seeded, a third of w inf."""
    g = len(P)
    reps = list(product(range(d), repeat=g))
    ws = [Fraction(rng.randint(0, 12), 4) if rng.random() > 1 / 3 else None for _ in reps]
    if all(w is None for w in ws):
        ws[0] = Fraction(0)
    return {
        "g": g,
        "P": _matrix(P),
        "Lambda": [list(r) for r in scalar_matrix(d, g)],
        "factor": {
            "Lambda": [list(r) for r in scalar_matrix(d, g)],
            "ell": [fmt(Fraction(rng.randint(-3, 3), 2)) for _ in range(g)],
        },
        "profile": [{"rep": list(r), "w": "inf" if w is None else fmt(w)} for r, w in zip(reps, ws)],
    }


def _series_doc(rng, P, d):
    """Series with Lambda = d*I and coefficient 1 on one seeded rep."""
    g = len(P)
    rep = [rng.randrange(d) for _ in range(g)]
    return {
        "T": _monomials(P),
        "Lambda": [list(r) for r in scalar_matrix(d, g)],
        "c": [f"q^({rng.randint(0, 2)})" for _ in range(g)],
        "coeffs": [{"rep": rep, "a": "1"}],
    }


def _points(rng, g, k):
    return [",".join(fmt(x) for x in generic_point(rng, g)) for _ in range(k)]


def build(tt, seed: int) -> Workload:
    rng = random.Random(seed)
    work = OUT / f"work-cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    files = Files(work)
    ops = []
    mix_g: dict[int, int] = {}
    mix_index: dict[int, int] = {}

    # meshes for `export`, prepared through the library during set-up
    meshes = []
    for g in (1, 2):
        P = reduced_form(rng, g)
        data = tt.TropicalPolarizationData.from_json_dict(_variety(P, 1))
        path = files.out("json")
        with open(path, "wb") as fh:
            fh.write(tt.export_mesh(tt.corner_locus(tt.riemann_theta(data)), "json"))
        meshes.append((g, path))

    for code in PATTERN:
        index = 1
        out_path = None
        if code in "123":
            g, d = int(code), rng.choice((1, 2, 3))
            index = d**g
            args = ["validate", files.write(_variety(reduced_form(rng, g), d))]
        elif code in "tTu":
            g, d = {"t": (1, rng.choice((2, 3))), "T": (2, 2), "u": (3, 3)}[code]
            index = d**g
            args = ["validate", files.write(_theta_doc(rng, reduced_form(rng, g), d))]
        elif code == "s":
            g, index = 2, 4
            args = ["validate", files.write(_series_doc(rng, reduced_form(rng, 2), 2))]
        elif code in "rR":
            g = 2 if code == "r" else 3
            out_path = files.out("json")
            args = ["riemann", files.write(_variety(reduced_form(rng, g), 1)), "--out", out_path]
            for p in _points(rng, g, g - 1):
                args += ["--point", p]
        elif code == "E":
            g = 2
            args = ["eval", files.write(_theta_doc(rng, reduced_form(rng, 2), 1)), *_points(rng, 2, 2)]
        elif code == "n":
            g, index = 3, 27
            args = ["eval", files.write(_theta_doc(rng, reduced_form(rng, 3), 3)), *_points(rng, 3, 1)]
        elif code in "xX":
            g, mesh = meshes[1] if code == "x" else meshes[0]
            fmt_ = "svg" if code == "x" else "json"
            out_path = files.out(fmt_)
            args = ["export", mesh, "--format", fmt_, "--out", out_path]
        elif code == "b":
            g = 2
            doc = {"T": _monomials(reduced_form(rng, 2))}
            args = ["crosscheck", "B", files.write(doc), "--samples", "10", "--seed", str(rng.randrange(1000))]
        elif code in "cw":
            g = 2 if code == "c" else 1
            index = 2**g
            doc = {"T": _monomials(reduced_form(rng, g)), "Lambda": [list(r) for r in scalar_matrix(2, g)]}
            args = ["crosscheck", "C", files.write(doc), "--samples", "4", "--seed", str(rng.randrange(1000))]
        elif code in "aA":
            g, d = (1, 1) if code == "a" else (3, 3)
            index = d**g
            doc = _series_doc(rng, reduced_form(rng, g), d)
            args = ["crosscheck", "A", files.write(doc), "--samples", "4" if g == 1 else "2", "--seed", str(rng.randrange(1000))]
        else:
            raise ValueError(f"unknown op code {code!r}")
        mix_g[g] = mix_g.get(g, 0) + 1
        mix_index[index] = mix_index.get(index, 0) + 1

        def run(args=args, out_path=out_path):
            status, stdout = run_cli(args)
            produced = None
            if out_path is not None and os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    produced = fh.read()
            return status, stdout, produced

        ops.append(Op(kind=OPS[code], run=run, info={"args": args}))

    properties = {
        "pattern": PATTERN,
        "ops": {c: OPS[c] for c in sorted(set(PATTERN))},
        "g_mix": {str(k): v / len(PATTERN) for k, v in sorted(mix_g.items())},
        "coset_index_mix": {str(k): v / len(PATTERN) for k, v in sorted(mix_index.items())},
    }
    return Workload(
        ops=ops,
        properties=properties,
        check=lambda op, out: check(tt, op, out),
        cleanup=lambda: shutil.rmtree(work, ignore_errors=True),
    )


def _results(theta, points):
    out = []
    for text in points:
        v = tuple(Fraction(x) for x in text.split(","))
        res = theta.evaluate(v)
        out.append({"point": [fmt(c) for c in v], "value": fmt(res.value), "witnesses": [list(u) for u in res.witnesses]})
    return out


def check(tt, op, out) -> str | None:
    code, stdout, produced = out
    args = op.info["args"]
    if code != 0:
        return f"exit code {code}"
    command, path = args[0], args[1] if args[0] != "crosscheck" else args[2]
    with open(path, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    if command == "export":
        want = tt.export_mesh(tt.CellComplex.from_json_dict(doc), args[3])
        return None if produced == want else "exported mesh differs from export_mesh"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("command") != command or report.get("input_sha256") != hashlib.sha256(raw).hexdigest():
        return "report names the wrong command or input"
    checks = report.get("checks", [])
    if not all(c["passed"] for c in checks):
        return "a check in the report failed"
    if command == "validate":
        if "T" in doc:
            f = tt.NAThetaFunction.from_json_dict(doc)
            want = f"valid series, g = {f.g}"
        elif "factor" in doc:
            theta = tt.TropicalThetaFunction.from_json_dict(doc)
            want = f"{len(theta.profile.entries)} stored cosets"
        else:
            rep = tt.validate(tt.TropicalPolarizationData.from_json_dict(doc))
            want = f"index {rep.index}" + (" (principal)" if rep.principal else "")
        if want not in [c["detail"] for c in checks]:
            return f"validate report lacks {want!r}"
        return None
    if command == "eval":
        theta = tt.TropicalThetaFunction.from_json_dict(doc)
        return None if report["results"] == _results(theta, args[2:]) else "eval results differ from evaluate"
    if command == "riemann":
        theta = tt.riemann_theta(tt.TropicalPolarizationData.from_json_dict(doc))
        blob = json.dumps(theta.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        if produced != blob.encode():
            return "riemann --out file differs from riemann_theta"
        points = [args[i + 1] for i, a in enumerate(args) if a == "--point"]
        return None if report["results"] == _results(theta, points) else "riemann results differ from evaluate"
    # crosscheck
    suite, samples, seed = args[1], int(args[4]), int(args[6])
    if suite == "A":
        outcomes = tt.suite_a(tt.NAThetaFunction.from_json_dict(doc), samples=samples, seed=seed)
    elif suite == "B":
        outcomes = tt.suite_b(tt.PeriodMatrix.from_json_rows(doc["T"]), doc.get("Lambda"), samples=samples, seed=seed)
    else:
        period = tt.PeriodMatrix.from_json_rows(doc["T"])
        from troptheta.nonarch import canonical_cocycle

        basis = tt.theta_basis(period, canonical_cocycle(period, doc["Lambda"]))
        outcomes = tt.suite_c(basis[0], basis[1], pairs=samples, seed=seed)
    want = [o.to_json_dict() for o in outcomes]
    return None if checks == want else f"crosscheck {suite} outcomes differ from suite_{suite.lower()}"
