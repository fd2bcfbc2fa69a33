import sys

import pytest

from troptheta import linalg


@pytest.fixture
def solve_calls(monkeypatch):
    """Every linalg.solve call, counted at each binding the package holds
    (as the benchmark's tracer wraps it); the list of call arguments."""
    calls = []
    original = linalg.solve

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "troptheta" or name.startswith("troptheta."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls
