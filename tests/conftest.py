import sys

import pytest

from troptheta import linalg


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
