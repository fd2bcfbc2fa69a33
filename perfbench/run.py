"""troptheta benchmark: one seeded workload per call, every output checked.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 20 --trace 0

Workloads: eval, cli, divisor, nonarch (see perfbench/README.md).  Each run
starts a fresh single-threaded worker process for the closed loop, then
more worker processes that only set up, one after another, for the median
set-up time.  With --trace 1 the worker wraps the library's layer functions
and the run reports per-layer metrics instead of end-to-end ones.

Prints `name value unit` lines, one `report {...}` line with the recorded
input properties, and last one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when every op passed its check,
1 when some failed, 2 when there is no program to run, 3 when a worker
crashed or overran.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import PROBE_REF_S, ROOT, SRC, median  # noqa: E402
from tracer import TARGETS  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170  # a run ends well inside 180 s
COUNT_UNITS = {"bytes": "B"}
RATIO_COUNTERS = {"kept", "hits"}  # only reported as ratios


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (spawn time, its JSON line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker overran {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed nothing")
    return started, json.loads(lines[-1])


def end_to_end(loop: dict, setups: list[tuple[float, float]], peak_rss_mb: float) -> dict:
    return {
        "ops_per_s": (loop["ops_per_s"], "op/s"),
        "op_p50_ms": (loop["op_p50_ms"], "ms"),
        "op_tail_ms": (loop["op_tail_ms"], "ms"),
        "setup_s": (median([s * PROBE_REF_S / speed for s, speed in setups]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(layers: dict, overhead_ratio: float) -> dict:
    out = {}
    for name in TARGETS:
        rec = layers[name]
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        for kind in TARGETS[name][2]:
            if kind not in RATIO_COUNTERS:
                out[f"{name}.{kind}"] = (rec[kind], COUNT_UNITS.get(kind, "count"))

    def ratio(a, b):
        return a / b if b else 0.0

    evals = layers["theta.evaluate"]["calls"]
    in_evals = layers["lattice.minimize_quadratic"]["under"].get("theta.evaluate", 0)
    built = layers["geometry._build_cell"]["under"].get("geometry.corner_locus", 0)
    coeff = layers["nonarch.coefficient"]
    out["theta.minimizations_per_eval"] = (ratio(in_evals, evals), "1")
    out["geometry.kept_cell_ratio"] = (ratio(layers["geometry.corner_locus"]["kept"], built), "1")
    out["nonarch.coefficient.hit_ratio"] = (ratio(coeff["hits"], coeff["calls"]), "1")
    out["trace.overhead_ratio"] = (overhead_ratio, "1")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "troptheta" / "__init__.py").is_file():
        print(f"run.py: no library source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        started, result = spawn([*common, "--trace", str(args.trace), "--mode", "run"], deadline)
        setups = [(result["setup_end"] - started, result["loop"]["probe_median_s"])]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                started, ready = spawn([*common, "--mode", "setup"], deadline)
                setups.append((ready["setup_end"] - started, ready["probe_median_s"]))
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    loop = result["loop"]
    attempted, failed = loop["attempted"], loop["failed"]
    if args.trace:
        metrics = per_layer(result["layers"], loop["overhead_ratio"])
    else:
        metrics = end_to_end(loop, setups, result["peak_rss_mb"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": failed / attempted,
        "errors": loop["errors"],
        "raw_ops_per_s": loop["raw_ops_per_s"],
        "raw_op_p50_ms": loop["raw_op_p50_ms"],
        "raw_op_tail_ms": loop.get("raw_op_tail_ms"),
        "probes": loop["probes"],
        "probe_median_s": loop["probe_median_s"],
        "op_kinds": loop["kinds"],
        "distinct_ops": loop["distinct_ops"],
        "tail_percentile": loop.get("tail_percentile"),
        "tail_samples_beyond": loop.get("tail_samples_beyond"),
        "raw_setup_s": [s for s, _ in setups],
        "setup_probe_median_s": [speed for _, speed in setups],
        "inputs": result["properties"],
    }
    if args.trace:
        report["spans"], report["spans_file"] = result["spans"], result["spans_file"]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_ratio {report['fail_ratio']} 1")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
