"""The library computes without floats: a syntax check over src/troptheta.

Every value is a Fraction or an int, with math.inf as the one valuation
sentinel.  A float(...) call or a float literal anywhere in the package
fails this test, except inside geometry._fmt, which prints mesh
coordinates for SVG and OBJ files.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "troptheta"
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
