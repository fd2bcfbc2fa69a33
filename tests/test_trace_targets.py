"""The benchmark's tracer must find every library function it names.

perfbench/tracer.py patches functions by module and name; a rename in the
library would make `--trace 1` runs fail.  This test loads the tracer by
path, installs it over the modules the CLI imports, and uninstalls it.
"""

import importlib.util
from pathlib import Path

import troptheta.cli  # noqa: F401  (imports every traced module)
from troptheta import geometry, lattice, nonarch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = load_tracer().Tracer()
    minimize, terms_below = lattice.minimize_quadratic, geometry._terms_below
    tracer.install()
    try:
        assert tracer.installed
        assert nonarch._terms_below is geometry._terms_below is not terms_below
        assert "troptheta.nonarch._terms_below" in tracer.bindings("geometry._terms_below")
    finally:
        tracer.uninstall()
    assert lattice.minimize_quadratic is minimize
    assert nonarch._terms_below is terms_below
