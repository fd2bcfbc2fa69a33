"""Command-line front end.

Every subcommand reads exact JSON, does exact arithmetic, and writes a
canonical single-line JSON report to stdout.  Report bytes depend only on
the input bytes and the flags, never on wall clock or filesystem paths, so
repeated runs are byte-identical.  Timings go to stderr.

Every command runs one path: `_read` returns the input's sha256 with its
document, one reader per document kind (series, theta, variety) checks that
kind's fields and builds it, `_attempt` turns a ValueError from building
into a failed check and a refusal into a usage error, and `_finish` prints
the report and exits.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 the input
was unusable (bad JSON, missing fields, wrong flags) or was refused as too
large to answer: a series of more than 4096 cosets or whose coefficients
need more than 2^20 bits, a divisor at g above 3 or of more than 10,000
cells in its fundamental domain.

The command group `main` and its commands are built on first use, so a
process that imports this module and runs no command loads neither click
nor hashlib (which maps OpenSSL).
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from typing import NoReturn

from .crosschecks import CheckOutcome, suite_a, suite_b, suite_c
from .geometry import (
    CellComplex,
    DivisorTooLargeError,
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

# inputs too large to answer: each exits 2 with its message
_REFUSALS = (SeriesTooLargeError, RankTooLargeError, UnsupportedFormatError, DivisorTooLargeError)
# suite -> (function, default sample count)
_SUITES = {"A": (suite_a, 50), "B": (suite_b, 100), "C": (suite_c, 50)}


def _read(path: str) -> tuple[str, dict]:
    """The sha256 of a file's bytes and the JSON object they hold."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise click.UsageError(f"{path}: top-level JSON object expected")
    return hashlib.sha256(raw).hexdigest(), doc


def _require_keys(doc: dict, keys: tuple[str, ...]) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise click.UsageError("missing fields: " + ", ".join(missing))


def _attempt(name: str, make, *args, **kwargs) -> tuple[object, list[CheckOutcome]]:
    """(make(...), []), or (None, [the failed check `name`]) if make raises
    a ValueError; a refusal exits 2."""
    try:
        return make(*args, **kwargs), []
    except _REFUSALS as exc:
        raise click.UsageError(str(exc))
    except ValueError as exc:
        return None, [CheckOutcome(name, False, str(exc))]


def _finish(command: str, digest: str, checks: list[CheckOutcome], started: float, blob: bytes | None = None, **fields) -> NoReturn:
    """Print the report of `command` on the input `digest` (or, given a
    blob, those bytes instead) and the elapsed time; exit 0 if every check
    passed, else 1."""
    if blob is None:
        # print, not click.echo: click caches a wrapper per stream and the
        # entry keeps the stream alive, so a caller that swaps sys.stdout for
        # each in-process call would keep every report it was ever sent.
        report = {"command": command, "input_sha256": digest, "checks": [c.to_json_dict() for c in checks], **fields}
        print(json.dumps(report, sort_keys=True, separators=(",", ":")), flush=True)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()
    print(f"elapsed_ms={int((time.perf_counter() - started) * 1000)}", file=sys.stderr, flush=True)
    sys.exit(0 if all(c.passed for c in checks) else 1)


def _series(doc: dict) -> NAThetaFunction:
    _require_keys(doc, ("T", "Lambda", "c", "coeffs"))
    return NAThetaFunction.from_json_dict(doc)


def _theta(doc: dict) -> TropicalThetaFunction:
    _require_keys(doc, ("g", "P", "factor", "profile"))
    return TropicalThetaFunction.from_json_dict(doc)


def _variety(doc: dict) -> TropicalPolarizationData:
    _require_keys(doc, ("g", "P", "Lambda"))
    try:
        return TropicalPolarizationData.from_json_dict(doc)
    except ValueError as exc:
        # malformed entries are a schema problem, not a failed check
        raise click.UsageError(str(exc))


def _theta_from_any(doc: dict) -> TropicalThetaFunction:
    """By its fields: "T" marks a series (tropicalized), "factor" a theta,
    anything else a variety (its Riemann theta)."""
    if "T" in doc:
        return tropicalize(_series(doc))
    return _theta(doc) if "factor" in doc else riemann_theta(_variety(doc))


def _constructed(theta: TropicalThetaFunction) -> CheckOutcome:
    return CheckOutcome("construction", True, f"{len(theta.profile.entries)} stored cosets")


def _validity_checks(data: TropicalPolarizationData) -> list[CheckOutcome]:
    rep = validate_data(data)
    pivot = "all pivots positive" if rep.beta_positive_definite else (
        "form not positive definite" if rep.first_bad_pivot is None else f"pivot {rep.first_bad_pivot} not positive"
    )
    index = "det Lambda = 0" if rep.index is None else f"index {rep.index}" + (" (principal)" if rep.principal else "")
    return [
        CheckOutcome("pairing-nondegenerate", rep.pairing_nondegenerate,
                     "pairing nondegenerate" if rep.pairing_nondegenerate else "pairing degenerate"),
        CheckOutcome("form-symmetric", rep.beta_symmetric,
                     "induced form symmetric" if rep.beta_symmetric else "induced form not symmetric"),
        CheckOutcome("form-positive-definite", rep.beta_positive_definite, pivot),
        CheckOutcome("polarization-finite-index", rep.index is not None, index),
    ]


def _series_checks(doc: dict) -> list[CheckOutcome]:
    f = _series(doc)
    rep, inv = verify_cocycle(f.cocycle), f.verify_invariance()
    return [
        CheckOutcome("construction", True, f"valid series, g = {f.g}"),
        CheckOutcome("cocycle-relation", rep.ok,
                     f"{rep.checked} relations hold" if rep.ok else f"{len(rep.failures)} relations fail"),
        CheckOutcome("coefficient-invariance", inv.ok,
                     f"{inv.checked} identities hold" if inv.ok else f"{len(inv.failures)} identities fail"),
    ]


def _theta_checks(doc: dict) -> list[CheckOutcome]:
    theta = _theta(doc)
    return [_constructed(theta), *_validity_checks(theta.base)]


def _suite_inputs(suite: str, doc: dict) -> tuple:
    """The positional arguments of a suite before its sample count."""
    if suite == "A":
        return (_series(doc),)
    if suite == "B":
        _require_keys(doc, ("T",))
        return PeriodMatrix.from_json_rows(doc["T"]), doc.get("Lambda")
    if "f1" in doc and "f2" in doc:
        return NAThetaFunction.from_json_dict(doc["f1"]), NAThetaFunction.from_json_dict(doc["f2"])
    _require_keys(doc, ("T", "Lambda"))
    period = PeriodMatrix.from_json_rows(doc["T"])
    basis = theta_basis(period, canonical_cocycle(period, doc["Lambda"]))
    if len(basis) < 2:
        raise ValueError("need a non-principal polarization with at least two basis elements")
    return basis[0], basis[1]


def _divisor(doc: dict, fmt: str) -> tuple[CellComplex, bytes]:
    complex_ = corner_locus(_theta_from_any(doc))
    return complex_, export_mesh(complex_, fmt)


def _parse_point(text: str, g: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != g:
        raise click.UsageError(f"point {text!r} has {len(parts)} coordinates, expected {g}")
    try:
        return tuple(parse_fraction(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(str(exc))


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
        digest, doc = _read(path)
        if "T" in doc or "factor" in doc:
            checks, failed = _attempt("construction", _series_checks if "T" in doc else _theta_checks, doc)
        else:
            checks, failed = _validity_checks(_variety(doc)), []
        _finish("validate", digest, failed or checks, started)

    @main.command("eval", context_settings={"ignore_unknown_options": True})
    @click.argument("path", type=_INPUT)
    @click.argument("points", nargs=-1)
    def eval_(path: str, points: tuple[str, ...]) -> None:
        """Evaluate a tropical theta JSON file at points "p/q,p/q,...".

        Each result records the exact value and every lattice class attaining
        the minimum (more than one witness means the point lies on the divisor).
        """
        started = time.perf_counter()
        digest, doc = _read(path)
        theta, failed = _attempt("construction", _theta, doc)
        _finish("eval", digest, failed, started, results=[] if failed else _results(theta, points))

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
        digest, doc = _read(path)
        data = _variety(doc)
        if points and out is None:
            raise click.UsageError("--point requires --out")
        theta, failed = _attempt("construction", riemann_theta, data)
        if failed:
            _finish("riemann", digest, failed, started, results=[])
        blob = (json.dumps(theta.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n").encode()
        if out is None:
            _finish("riemann", digest, [], started, blob=blob)
        with open(out, "wb") as fh:
            fh.write(blob)
        _finish("riemann", digest, [_constructed(theta)], started, results=_results(theta, points))

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
        digest, doc = _read(path)
        run, default = _SUITES[suite]
        try:
            inputs, failed = _attempt("precondition", _suite_inputs, suite, doc)
            # a suite that never ran reports 0 samples unless some were asked for
            used = samples or (0 if failed else default)
            if not failed:
                outcomes, failed = _attempt("precondition", run, *inputs, used, seed=seed)
        except (KeyError, TypeError) as exc:
            raise click.UsageError(f"malformed input for suite {suite}: {exc}")
        checks = failed or list(outcomes)
        _finish("crosscheck", digest, checks, started, suite=suite, seed=seed, samples=used)

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
        digest, doc = _read(path)
        built, failed = _attempt("divisor-extraction", _divisor, doc, fmt)
        if failed:
            _finish("divisor", digest, failed, started)
        complex_, mesh = built
        with open(out, "wb") as fh:
            fh.write(mesh)
        q = complex_.quotient
        counts = {
            "cells": len(complex_.cells),
            "skeleton_pieces": len(complex_.skeleton),
            "zero_cells": len(q.points),
            "one_cells": q.one_cell_count,
            "top_cells": q.top_cell_count,
            "components": q.betti0,
            "betti": [q.betti0, q.betti1],
            "euler_characteristic": q.euler_characteristic,
        }
        checks = [CheckOutcome("divisor-extraction", True, f"{len(complex_.cells)} cells in the fundamental domain")]
        _finish("divisor", digest, checks, started, format=fmt, divisor=counts)

    @main.command()
    @click.argument("path", type=_INPUT)
    @click.option("--format", "fmt", type=click.Choice(["json", "svg", "obj"]), default="svg", show_default=True)
    @click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write here instead of stdout.")
    def export(path: str, fmt: str, out: str | None) -> None:
        """Convert a divisor mesh JSON file to another mesh format."""
        started = time.perf_counter()
        digest, doc = _read(path)
        _require_keys(doc, ("g", "domain", "cells", "skeleton", "quotient"))
        try:
            complex_ = CellComplex.from_json_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"not a mesh file: {exc}")
        blob, _ = _attempt("export", export_mesh, complex_, fmt)  # it raises only refusals
        if out is not None:
            with open(out, "wb") as fh:
                fh.write(blob)
        _finish("export", digest, [], started, blob=blob if out is None else b"")

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
