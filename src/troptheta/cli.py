"""Command-line front end.

Every subcommand reads exact JSON, does exact arithmetic, and writes a
canonical single-line JSON report to stdout.  Report bytes depend only on
the input bytes and the flags, never on wall clock or filesystem paths, so
repeated runs are byte-identical.  Timings go to stderr.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 the input
was unusable (bad JSON, missing fields, wrong flags).

The command group `main` and its commands are built on first use, so a
process that imports this module and runs no command loads neither click
nor hashlib (which maps OpenSSL).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from .crosschecks import CheckOutcome, suite_a, suite_b, suite_c
from .geometry import (
    CellComplex,
    RankTooLargeError,
    UnsupportedFormatError,
    corner_locus,
    export_mesh,
)
from .nonarch import (
    NAThetaFunction,
    PeriodMatrix,
    SeriesTooLargeError,
    canonical_cocycle,
    theta_basis,
    tropicalize,
    verify_cocycle,
)
from .rationals import format_fraction, parse_fraction
from .theta import TropicalThetaFunction, riemann_theta
from .varieties import TropicalPolarizationData
from .varieties import validate as validate_data


def _read(path: str) -> tuple[bytes, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise click.UsageError(f"{path}: top-level JSON object expected")
    return raw, doc


def _require_keys(doc: dict, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise click.UsageError("missing fields: " + ", ".join(missing))


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": passed, "detail": detail}


def _finish(report: dict, started: float, ok: bool) -> None:
    # print, not click.echo: click caches a wrapper per stream and the entry
    # keeps the stream alive, so a caller that swaps sys.stdout for each
    # in-process call would keep every report it was ever sent.
    print(json.dumps(report, sort_keys=True, separators=(",", ":")), flush=True)
    print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr, flush=True)
    sys.exit(0 if ok else 1)


def _fail(command: str, digest: str, check: str, exc: Exception, started: float, **extra) -> None:
    """Report that building the command's object failed, and exit 1."""
    report = {"command": command, "input_sha256": digest, "checks": [_check(check, False, str(exc))], **extra}
    _finish(report, started, False)


def _parse_point(text: str, g: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != g:
        raise click.UsageError(f"point {text!r} has {len(parts)} coordinates, expected {g}")
    try:
        return tuple(parse_fraction(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_variety(doc: dict) -> TropicalPolarizationData:
    _require_keys(doc, ("g", "P", "Lambda"))
    try:
        return TropicalPolarizationData.from_json_dict(doc)
    except ValueError as exc:
        # malformed entries are a schema problem, not a failed check
        raise click.UsageError(str(exc))


def _validity_checks(data: TropicalPolarizationData) -> list[dict]:
    rep = validate_data(data)
    out = [
        _check(
            "pairing-nondegenerate",
            rep.pairing_nondegenerate,
            "pairing nondegenerate" if rep.pairing_nondegenerate else "pairing degenerate",
        ),
        _check(
            "form-symmetric",
            rep.beta_symmetric,
            "induced form symmetric" if rep.beta_symmetric else "induced form not symmetric",
        ),
    ]
    if rep.beta_positive_definite:
        out.append(_check("form-positive-definite", True, "all pivots positive"))
    else:
        out.append(
            _check(
                "form-positive-definite",
                False,
                f"pivot {rep.first_bad_pivot} not positive"
                if rep.first_bad_pivot is not None
                else "form not positive definite",
            )
        )
    if rep.index is None:
        out.append(_check("polarization-finite-index", False, "det Lambda = 0"))
    else:
        detail = f"index {rep.index}" + (" (principal)" if rep.principal else "")
        out.append(_check("polarization-finite-index", True, detail))
    return out


def _results(theta: TropicalThetaFunction, points: tuple[str, ...]) -> list[dict]:
    """The exact value and every witness at each point "p/q,p/q,..."."""
    results = []
    for text in points:
        v = _parse_point(text, theta.g)
        res = theta.evaluate(v)
        results.append(
            {
                "point": [format_fraction(c) for c in v],
                "value": format_fraction(res.value),
                "witnesses": [list(u) for u in res.witnesses],
            }
        )
    return results


def _theta_from_any(doc: dict) -> TropicalThetaFunction:
    if "T" in doc:
        _require_keys(doc, ("T", "Lambda", "c", "coeffs"))
        return tropicalize(NAThetaFunction.from_json_dict(doc))
    if "factor" in doc:
        _require_keys(doc, ("g", "P", "factor", "profile"))
        return TropicalThetaFunction.from_json_dict(doc)
    return riemann_theta(_load_variety(doc))


def _build() -> None:
    """Import click and hashlib and define the command group `main` and its
    commands as module globals.  `__getattr__` runs it on first use of any
    of them, so importing this module loads neither; the helpers above name
    click only when a command runs."""
    global click, hashlib
    import click
    import hashlib

    _INPUT = click.Path(exists=True, dir_okay=False)
    _SEED = click.IntRange(0, 2**64 - 1)

    @click.group()
    def main() -> None:
        """Exact tools for tropical theta functions and their divisors."""

    @main.command()
    @click.argument("path", type=_INPUT)
    def validate(path: str) -> None:
        """Check a variety, tropical theta, or Fourier series JSON file.

        The file kind is inferred from its fields: "T" means a Fourier series
        over Puiseux coefficients, "factor" means a tropical theta function,
        anything else is treated as polarization data.
        """
        started = time.perf_counter()
        raw, doc = _read(path)
        checks: list[dict] = []
        if "T" in doc:
            _require_keys(doc, ("T", "Lambda", "c", "coeffs"))
            try:
                f = NAThetaFunction.from_json_dict(doc)
            except SeriesTooLargeError as exc:
                raise click.UsageError(str(exc))
            except ValueError as exc:
                checks.append(_check("construction", False, str(exc)))
            else:
                checks.append(_check("construction", True, f"valid series, g = {f.g}"))
                try:
                    rep, inv = verify_cocycle(f.cocycle), f.verify_invariance()
                except SeriesTooLargeError as exc:
                    raise click.UsageError(str(exc))
                checks.append(
                    _check(
                        "cocycle-relation",
                        rep.ok,
                        f"{rep.checked} relations hold" if rep.ok else f"{len(rep.failures)} relations fail",
                    )
                )
                checks.append(
                    _check(
                        "coefficient-invariance",
                        inv.ok,
                        f"{inv.checked} identities hold" if inv.ok else f"{len(inv.failures)} identities fail",
                    )
                )
        elif "factor" in doc:
            _require_keys(doc, ("g", "P", "factor", "profile"))
            try:
                theta = TropicalThetaFunction.from_json_dict(doc)
            except ValueError as exc:
                checks.append(_check("construction", False, str(exc)))
            else:
                checks.append(_check("construction", True, f"{len(theta.profile.entries)} stored cosets"))
                checks.extend(_validity_checks(theta.base))
        else:
            checks.extend(_validity_checks(_load_variety(doc)))
        report = {
            "command": "validate",
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "checks": checks,
        }
        _finish(report, started, all(c["passed"] for c in checks))

    @main.command("eval", context_settings={"ignore_unknown_options": True})
    @click.argument("path", type=_INPUT)
    @click.argument("points", nargs=-1)
    def eval_(path: str, points: tuple[str, ...]) -> None:
        """Evaluate a tropical theta JSON file at points "p/q,p/q,...".

        Each result records the exact value and every lattice class attaining
        the minimum (more than one witness means the point lies on the divisor).
        """
        started = time.perf_counter()
        raw, doc = _read(path)
        _require_keys(doc, ("g", "P", "factor", "profile"))
        try:
            theta = TropicalThetaFunction.from_json_dict(doc)
        except ValueError as exc:
            _fail("eval", hashlib.sha256(raw).hexdigest(), "construction", exc, started, results=[])
        results = _results(theta, points)
        report = {
            "command": "eval",
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "checks": [],
            "results": results,
        }
        _finish(report, started, True)

    @main.command()
    @click.argument("path", type=_INPUT)
    @click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the theta JSON here instead of stdout.")
    @click.option("--point", "points", multiple=True, help='Also evaluate at "p/q,p/q,..." (requires --out).')
    def riemann(path: str, out: str | None, points: tuple[str, ...]) -> None:
        """Build the Riemann theta function of a principal polarization.

        Reads variety JSON and emits the theta function as JSON.  Without --out
        the theta JSON goes to stdout and no report is printed; with --out the
        mesh goes to the file and a report (plus any --point evaluations) goes
        to stdout.
        """
        started = time.perf_counter()
        raw, doc = _read(path)
        data = _load_variety(doc)
        digest = hashlib.sha256(raw).hexdigest()
        if points and out is None:
            raise click.UsageError("--point requires --out")
        try:
            theta = riemann_theta(data)
        except ValueError as exc:
            _fail("riemann", digest, "construction", exc, started, results=[])
        blob = json.dumps(theta.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        if out is None:
            print(blob, end="", flush=True)
            print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr, flush=True)
            return
        with open(out, "w") as fh:
            fh.write(blob)
        results = _results(theta, points)
        report = {
            "command": "riemann",
            "input_sha256": digest,
            "checks": [_check("construction", True, f"{len(theta.profile.entries)} stored cosets")],
            "results": results,
        }
        _finish(report, started, True)

    @main.command()
    @click.argument("suite", type=click.Choice(["A", "B", "C"]))
    @click.argument("path", type=_INPUT)
    @click.option("--samples", type=click.IntRange(1, 1_000_000), default=None, help="Sample count (suite default if omitted).")
    @click.option("--seed", type=_SEED, default=0, show_default=True)
    def crosscheck(suite: str, path: str, samples: int | None, seed: int) -> None:
        """Run one of the exact verification suites.

        A expects a Fourier series file and tests the transformation law of its
        tropicalization.  B expects {"T": ..., "Lambda"?: ...} and compares the
        tropicalized Riemann series against the intrinsic tropical theta.  C
        expects either {"f1": ..., "f2": ...} or a non-principal {"T", "Lambda"}
        (its first two basis elements are used) and tests that valuations of
        ratios descend to the quotient.
        """
        started = time.perf_counter()
        raw, doc = _read(path)
        outcomes: tuple[CheckOutcome, ...]
        used = samples
        try:
            if suite == "A":
                _require_keys(doc, ("T", "Lambda", "c", "coeffs"))
                f = NAThetaFunction.from_json_dict(doc)
                used = samples if samples is not None else 50
                outcomes = suite_a(f, samples=used, seed=seed)
            elif suite == "B":
                _require_keys(doc, ("T",))
                period = PeriodMatrix.from_json_rows(doc["T"])
                used = samples if samples is not None else 100
                outcomes = suite_b(period, doc.get("Lambda"), samples=used, seed=seed)
            else:
                if "f1" in doc and "f2" in doc:
                    f1 = NAThetaFunction.from_json_dict(doc["f1"])
                    f2 = NAThetaFunction.from_json_dict(doc["f2"])
                else:
                    _require_keys(doc, ("T", "Lambda"))
                    period = PeriodMatrix.from_json_rows(doc["T"])
                    basis = theta_basis(period, canonical_cocycle(period, doc["Lambda"]))
                    if len(basis) < 2:
                        raise ValueError("need a non-principal polarization with at least two basis elements")
                    f1, f2 = basis[0], basis[1]
                used = samples if samples is not None else 50
                outcomes = suite_c(f1, f2, pairs=used, seed=seed)
        except (KeyError, TypeError) as exc:
            raise click.UsageError(f"malformed input for suite {suite}: {exc}")
        except SeriesTooLargeError as exc:
            raise click.UsageError(str(exc))
        except ValueError as exc:
            outcomes = (CheckOutcome("precondition", False, str(exc)),)
            used = 0 if used is None else used
        report = {
            "command": "crosscheck",
            "suite": suite,
            "input_sha256": hashlib.sha256(raw).hexdigest(),
            "seed": seed,
            "samples": used,
            "checks": [o.to_json_dict() for o in outcomes],
        }
        _finish(report, started, all(o.passed for o in outcomes))

    @main.command()
    @click.argument("path", type=_INPUT)
    @click.option("--out", type=click.Path(dir_okay=False), required=True, help="Mesh output file.")
    @click.option("--format", "fmt", type=click.Choice(["json", "svg", "obj"]), default="json", show_default=True)
    def divisor(path: str, out: str, fmt: str) -> None:
        """Extract the theta divisor of a file as a mesh plus topology report.

        Accepts variety JSON (its Riemann theta is built first), tropical theta
        JSON, or a Fourier series file (tropicalized first).  The mesh goes to
        --out; the report with cell counts and Betti numbers goes to stdout.
        """
        started = time.perf_counter()
        raw, doc = _read(path)
        digest = hashlib.sha256(raw).hexdigest()
        try:
            theta = _theta_from_any(doc)
            complex_ = corner_locus(theta)
        except (RankTooLargeError, SeriesTooLargeError) as exc:
            raise click.UsageError(str(exc))
        except ValueError as exc:
            _fail("divisor", digest, "divisor-extraction", exc, started)
        try:
            mesh = export_mesh(complex_, fmt)
        except UnsupportedFormatError as exc:
            raise click.UsageError(str(exc))
        with open(out, "wb") as fh:
            fh.write(mesh)
        q = complex_.quotient
        report = {
            "command": "divisor",
            "input_sha256": digest,
            "format": fmt,
            "checks": [_check("divisor-extraction", True, f"{len(complex_.cells)} cells in the fundamental domain")],
            "divisor": {
                "cells": len(complex_.cells),
                "skeleton_pieces": len(complex_.skeleton),
                "zero_cells": len(q.points),
                "one_cells": q.one_cell_count,
                "top_cells": q.top_cell_count,
                "components": q.betti0,
                "betti": [q.betti0, q.betti1],
                "euler_characteristic": q.euler_characteristic,
            },
        }
        _finish(report, started, True)

    @main.command()
    @click.argument("path", type=_INPUT)
    @click.option("--format", "fmt", type=click.Choice(["json", "svg", "obj"]), default="svg", show_default=True)
    @click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout.")
    def export(path: str, fmt: str, out: str | None) -> None:
        """Convert a divisor mesh JSON file to another mesh format."""
        started = time.perf_counter()
        raw, doc = _read(path)
        _require_keys(doc, ("g", "domain", "cells", "skeleton", "quotient"))
        try:
            complex_ = CellComplex.from_json_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"not a mesh file: {exc}")
        try:
            blob = export_mesh(complex_, fmt)
        except UnsupportedFormatError as exc:
            raise click.UsageError(str(exc))
        if out is None:
            sys.stdout.buffer.write(blob)
            sys.stdout.buffer.flush()
        else:
            with open(out, "wb") as fh:
                fh.write(blob)
        print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr, flush=True)

    globals().update(
        main=main, validate=validate, eval_=eval_, riemann=riemann, crosscheck=crosscheck, divisor=divisor, export=export
    )


def __getattr__(name: str):
    if name in ("main", "validate", "eval_", "riemann", "crosscheck", "divisor", "export"):
        _build()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    __getattr__("main")()
