"""The command line keeps one read-build-report path: a syntax check over
cli.py.

Every command reads its input through `_read`, the one place that hashes
it; builds through `_attempt`, which holds the one tuple of refusals (the
inputs too large to answer, exit 2); and reports through `_finish`, the one
place that prints the elapsed time and exits.  A command that hashes its own
input, names a refusal type itself, prints its own timing or exits on its
own would add a second copy of that step, and fails this test.  Every
report line is a crosschecks.CheckOutcome, so a dict that holds a "passed"
key is a second builder of one.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "troptheta" / "cli.py"
REFUSALS = ("SeriesTooLargeError", "RankTooLargeError", "UnsupportedFormatError", "DivisorTooLargeError")
STEPS = ("hashlib.sha256", "elapsed_ms", "sys.exit", *REFUSALS)


def step_uses(source: str) -> dict[str, int]:
    """How often the source calls hashlib.sha256 or sys.exit, prints a
    string holding "elapsed_ms", and names each refusal type (imports do
    not count)."""
    uses = dict.fromkeys(STEPS, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func in ("hashlib.sha256", "sys.exit"):
                uses[func] += 1
            elif func == "print" and any(
                isinstance(c, ast.Constant) and "elapsed_ms" in str(c.value) for a in node.args for c in ast.walk(a)
            ):
                uses["elapsed_ms"] += 1
        elif isinstance(node, ast.Name) and node.id in REFUSALS:
            uses[node.id] += 1
    return uses


def test_cli_has_one_read_build_report_path():
    assert step_uses(CLI.read_text()) == dict.fromkeys(STEPS, 1)


def test_the_guard_sees_a_second_copy():
    planted = CLI.read_text() + (
        "\n\ndef _fail(raw, started):\n"
        "    digest = hashlib.sha256(raw).hexdigest()\n"
        "    try:\n"
        "        corner_locus(None)\n"
        "    except (RankTooLargeError, DivisorTooLargeError) as exc:\n"
        "        raise click.UsageError(str(exc))\n"
        "    print(f'elapsed_ms={started}', file=sys.stderr)\n"
        "    sys.exit(1)\n"
    )
    assert step_uses(planted) == {
        **dict.fromkeys(STEPS, 1),
        "hashlib.sha256": 2,
        "elapsed_ms": 2,
        "sys.exit": 2,
        "RankTooLargeError": 2,
        "DivisorTooLargeError": 2,
    }


def passed_dicts(source: str) -> int:
    """How many dict displays with a "passed" key, or dict(...) calls with a
    passed= keyword, the source holds: hand-built report lines."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            count += any(isinstance(k, ast.Constant) and k.value == "passed" for k in node.keys)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "dict":
            count += any(k.arg == "passed" for k in node.keywords)
    return count


def test_cli_builds_report_lines_only_as_check_outcomes():
    assert passed_dicts(CLI.read_text()) == 0


def test_the_guard_sees_a_hand_built_report_line():
    planted = CLI.read_text() + (
        "\n\ndef _check(name, passed, detail):\n"
        '    return {"name": name, "passed": passed, "detail": detail}\n'
        "\n\ndef _line(name, passed, detail):\n"
        "    return dict(name=name, passed=passed, detail=detail)\n"
    )
    assert passed_dicts(planted) == 2
