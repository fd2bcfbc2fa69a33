"""Self-test of the benchmark: every workload at a tiny size, the traced
run's layer coverage, planted wrong answers, and the tracer's bindings.

    python3 -m pytest perfbench/tests -q

Takes about two minutes: each workload runs twice (untraced and traced),
and a run always completes at least 20 ops.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
from common import OUT, import_troptheta  # noqa: E402
from tracer import TARGETS, TraceTargetError, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layer -> the workload whose traced run must call it (the mapping table
# in perfbench/README.md)
LAYER_WORKLOAD = {
    "lattice.minimize_quadratic": "eval",
    "lattice.lll_reduce": "eval",
    "theta.evaluate": "eval",
    "theta.construct": "cli",
    "lattice.CosetLattice.representatives": "cli",
    "lattice.CosetLattice.decompose": "cli",
    "varieties.validate": "cli",
    "cli.validate": "cli",
    "cli.eval": "cli",
    "cli.riemann": "cli",
    "cli.crosscheck": "cli",
    "cli.export": "cli",
    "geometry.corner_locus": "divisor",
    "geometry._build_cell": "divisor",
    "geometry._terms_below": "divisor",
    "geometry.export_mesh": "divisor",
    "lattice.enumerate_below": "divisor",
    "linalg.solve": "divisor",
    "linalg.inverse": "divisor",
    "puiseux.mul": "nonarch",
    "puiseux.pow": "nonarch",
    "nonarch.coefficient": "nonarch",
    "nonarch.NACocycle.value": "nonarch",
    "nonarch.tropicalize": "nonarch",
    "nonarch.evaluate_at_point": "nonarch",
    "crosschecks.suite_a": "nonarch",
    "crosschecks.suite_b": "nonarch",
    "crosschecks.suite_c": "nonarch",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return w, run_bench(w, 0), run_bench(w, 1)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_completes_and_prints_every_metric(runs):
    workload, plain, traced = runs
    res = _result(plain)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 20
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]] == {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        assert res["metrics"][m["name"]]["value"] > 0
    assert "fail_ratio 0.0 1" in plain.stdout.splitlines()
    report = json.loads(next(l for l in plain.stdout.splitlines() if l.startswith("report "))[7:])
    assert report["inputs"] and report["tail_percentile"] >= 50


def test_traced_run_covers_its_layers(runs):
    workload, plain, traced = runs
    res = _result(traced)
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["trace.overhead_ratio"]["value"] > 0
    for layer, mapped in LAYER_WORKLOAD.items():
        if mapped == workload:
            assert metrics[f"{layer}.calls"]["value"] > 0, layer


def test_layer_table_names_every_target():
    assert set(LAYER_WORKLOAD) == set(TARGETS)


@pytest.fixture(scope="module")
def tt():
    return import_troptheta()


def _drive(tt, name, monkeypatch, target, attr, replacement):
    wl = worker.build(name, tt, 1)
    monkeypatch.setattr(target, attr, replacement)
    try:
        return worker.drive(wl, seconds=0.05)
    finally:
        wl.cleanup()


def test_shifted_evaluate_is_a_failure(tt, monkeypatch):
    original = tt.TropicalThetaFunction.evaluate

    def shifted(self, v):
        res = original(self, v)
        return replace(res, value=res.value + 1)

    out = _drive(tt, "eval", monkeypatch, tt.TropicalThetaFunction, "evaluate", shifted)
    assert out["attempted"] >= 20 and out["failed"] == out["attempted"]


def test_wrong_coefficient_is_a_failure(tt, monkeypatch):
    original = tt.NAThetaFunction.coefficient

    def doubled(self, u):
        return original(self, u) * tt.PuiseuxNumber.rational(2)

    out = _drive(tt, "nonarch", monkeypatch, tt.NAThetaFunction, "coefficient", doubled)
    assert out["failed"] > 0


def test_raising_op_is_a_failure(tt, monkeypatch):
    def boom(theta):
        raise RuntimeError("planted")

    out = _drive(tt, "divisor", monkeypatch, sys.modules["troptheta"], "corner_locus", boom)
    assert out["failed"] == out["attempted"] and "planted" in out["errors"][0]


def test_cli_nonzero_exit_is_a_failure(tt, monkeypatch):
    class Broken:
        @staticmethod
        def from_json_dict(doc):
            raise ValueError("planted")

    # `eval` reports the construction failure and exits 1
    out = _drive(tt, "cli", monkeypatch, sys.modules["troptheta.cli"], "TropicalThetaFunction", Broken)
    assert out["failed"] > 0 and any("exit code 1" in e for e in out["errors"])


def test_tracer_patches_every_binding(tt):
    tracer = Tracer()
    original = tt.lattice.minimize_quadratic
    tracer.install()
    try:
        assert tt.theta.minimize_quadratic is not original
        assert tt.theta.minimize_quadratic is tt.lattice.minimize_quadratic
        assert "troptheta.theta.minimize_quadratic" in tracer.bindings("lattice.minimize_quadratic")
        assert "troptheta.geometry.enumerate_below" in tracer.bindings("lattice.enumerate_below")
        assert "troptheta.cli.validate_data" in tracer.bindings("varieties.validate")
    finally:
        tracer.uninstall()
    assert tt.theta.minimize_quadratic is original


def test_missing_target_fails_loudly(tt):
    tracer = Tracer({"lattice.gone": ("troptheta.lattice", "no_such_function", {})})
    with pytest.raises(TraceTargetError):
        tracer.install()


def test_refuses_to_run_without_the_program():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("eval", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
