"""The benchmark's tracer must find every library function it names.

perfbench/tracer.py patches functions by module and name; a rename in the
library would make `--trace 1` runs fail.  This test loads the tracer by
path, installs it over the modules the CLI imports, and uninstalls it.
The benchmark's traced `divisor` run also requires some layers to be
called at all; the last test checks that a divisor still calls them.
"""

import importlib.util
from pathlib import Path

import troptheta.cli  # noqa: F401  (imports every traced module)
from troptheta import geometry, lattice, linalg, nonarch
from troptheta.linalg import RatMatrix
from troptheta.theta import riemann_theta
from troptheta.varieties import TropicalPolarizationData

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


def test_divisor_calls_the_layers_its_benchmark_traces(count_calls):
    # each layer the benchmark's self-test maps to the `divisor` workload
    # (besides those named by the op itself) must see at least one call.
    # The tracer patches lattice.enumerate_below at every binding that holds
    # it, so geometry's sweep must call that very function by name.
    assert geometry.enumerate_below is lattice.enumerate_below
    calls = {
        name: count_calls(f)
        for name, f in [
            ("lattice.enumerate_below", lattice.enumerate_below),
            ("geometry._build_cell", geometry._build_cell),
            ("geometry._terms_below", geometry._terms_below),
            ("linalg.inverse", linalg.inverse),
        ]
    }
    data = TropicalPolarizationData(g=2, P=RatMatrix(((2, 1), (1, 2))), Lambda=((1, 0), (0, 1)))
    geometry.corner_locus(riemann_theta(data))
    assert all(calls.values()), {name: len(c) for name, c in calls.items()}


def test_eval_calls_the_layers_its_benchmark_traces(count_calls):
    # the layers the benchmark's self-test maps to the `eval` workload: a
    # fresh theta's first value reduces its form (by the name the tracer
    # patches, so the reduction stays visible) and minimizes through it
    from troptheta.theta import TropicalThetaFunction

    calls = {
        name: count_calls(f)
        for name, f in [
            ("lattice.lll_reduce", lattice.lll_reduce),
            ("lattice.minimize_quadratic", lattice.minimize_quadratic),
            ("theta.evaluate", TropicalThetaFunction.evaluate),
        ]
    }
    lattice._reduced.cache_clear()
    data = TropicalPolarizationData(g=2, P=RatMatrix(((2, 3), (3, 7))), Lambda=((1, 0), (0, 1)))
    riemann_theta(data).evaluate((0, 0))
    assert {name: len(c) for name, c in calls.items()} == {
        "lattice.lll_reduce": 1,
        "lattice.minimize_quadratic": 1,
        "theta.evaluate": 1,
    }
