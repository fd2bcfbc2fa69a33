import sys
import types

import pytest

from troptheta import lattice, linalg


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(f) wraps f at every binding the package holds, module
    attributes and methods of the package's classes (as the benchmark's
    tracer wraps it), and returns the list of its call arguments."""

    def wrap(original):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "troptheta" or name.startswith("troptheta."):
                classes = [v for v in vars(module).values() if isinstance(v, type)]
                for owner in [module, *classes]:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            monkeypatch.setattr(owner, attr, counting)
        return calls

    return wrap


@pytest.fixture
def solve_calls(count_calls):
    """Every linalg.solve call; the list of call arguments."""
    return count_calls(linalg.solve)


@pytest.fixture
def walk_nodes():
    """Every node that the nearest-first walk of lattice._argmin enters, as
    (level, partial distance, x): each call of its `node`, seen by a
    profile hook, so nothing in the package is patched.  A node at level -1
    is a leaf: x is then a lattice point, in the walk's coordinates, and the
    distance its full scaled distance from the centre."""
    (code,) = [c for c in lattice._argmin.__code__.co_consts if isinstance(c, types.CodeType) and c.co_name == "node"]
    nodes = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            local = frame.f_locals
            nodes.append((local["i"], local["t"], tuple(local["x"])))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield nodes
    finally:
        sys.setprofile(previous)
