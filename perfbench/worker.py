"""One workload process: set up, run the closed loop, check, report.

    python3 perfbench/worker.py --workload eval --seed 1 --seconds 20 --trace 0 --mode run

`--mode setup` stops after set-up and times the calibration kernel.  The
process prints one JSON line with `setup_end` (a CLOCK_MONOTONIC reading,
comparable with the parent's), the kernel's median time and, in run mode,
the loop's results.  run.py turns these into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    MIN_OPS,
    OUT,
    PROBE_EVERY_S,
    PROBES_AFTER_SETUP,
    Workload,
    import_troptheta,
    median,
    percentile,
    probe,
    speed_factors,
    tail,
)

# a run whose ops keep failing stops early: its result is refused anyway
MAX_FAILED = 100
# ops per block when traced and untraced blocks alternate
TRACE_BLOCK = 50

WORKLOADS = ("eval", "cli", "divisor", "nonarch")


def build(name: str, tt, seed: int) -> Workload:
    if name == "eval":
        import wl_eval as mod
    elif name == "cli":
        import wl_cli as mod
    elif name == "divisor":
        import wl_divisor as mod
    else:
        import wl_nonarch as mod
    return mod.build(tt, seed)


def drive(wl: Workload, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: op i+1 starts only after op i returned.

    Runs for `seconds`, and at least MIN_OPS ops.  Only the op call is
    timed; comparing its output with the first output of the same op
    happens between timed intervals.  After the loop, each distinct op's
    first output goes through the full check, untraced.

    With a tracer, ops run in pairs of blocks: a block untraced, then the
    same ops traced.  The ratio of the traced to the untraced time is the
    tracing overhead; only the traced blocks' spans are recorded.

    Every PROBE_EVERY_S the calibration kernel is timed between two ops;
    each reported time is scaled by PROBE_REF_S / its nearby kernel times.
    """
    ops = wl.ops
    block = min(len(ops), TRACE_BLOCK) if tracer is not None else len(ops)
    latencies = array("d")
    traced = array("b")
    probes = array("d")
    positions = array("l")
    first: dict[int, object] = {}
    prints: dict[int, object] = {}
    matched: Counter = Counter()
    failed = 0
    errors: list[str] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    next_probe = clock()
    i = 0
    while failed < MAX_FAILED:
        if clock() >= next_probe:
            if tracer is not None:
                tracer.uninstall()
            probes.append(probe())
            next_probe = clock() + PROBE_EVERY_S
        if i >= MIN_OPS and clock() >= deadline and (tracer is None or i % (2 * block) == 0):
            break
        if tracer is None:
            j = i % len(ops)
        else:
            pair, step = divmod(i, 2 * block)
            j = (pair * block + step % block) % len(ops)
            if step < block:
                tracer.uninstall()
            else:
                tracer.install()
            tracer.op = i
        op = ops[j]
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        latencies.append(clock() - t0)
        positions.append(len(probes))
        traced.append(tracer is not None and tracer.installed)
        i += 1
        if error is None:
            fp = wl.fingerprint(op, out)
            if j not in first:
                first[j], prints[j] = out, fp
            elif fp != prints[j]:
                error = "gave a different output on repeat"
        if error is None:
            matched[j] += 1
        else:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {j} ({op.kind}) {error}")
    if tracer is not None:
        tracer.op = -1
        tracer.uninstall()
    for j, out in sorted(first.items()):
        reason = wl.check(ops[j], out)
        if reason is not None:
            failed += matched[j]
            if len(errors) < 5:
                errors.append(f"op {j} ({ops[j].kind}): {reason}")
    kinds = Counter(ops[k % len(ops)].kind for k in range(i))
    speed = median(probes)
    scaled = [lat * f for lat, f in zip(latencies, speed_factors(positions, probes))]
    out = {
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "kinds": dict(sorted(kinds.items())),
        "distinct_ops": len(first),
        "probes": len(probes),
        "probe_median_s": speed,
    }
    rung = tail(latencies)
    if rung is not None:
        out["tail_percentile"], out["tail_samples_beyond"] = rung[0], rung[2]
    for prefix, values in (("", scaled), ("raw_", latencies)):
        out[prefix + "ops_per_s"] = i / sum(values)
        out[prefix + "op_p50_ms"] = percentile(values, 50) * 1e3
        if rung is not None:
            out[prefix + "op_tail_ms"] = tail(values)[1] * 1e3
    if tracer is not None:
        on = sum(v for v, t in zip(latencies, traced) if t)
        off = sum(v for v, t in zip(latencies, traced) if not t)
        out["overhead_ratio"] = on / off
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    args = ap.parse_args(argv)

    tt = import_troptheta()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced too: construction cost shows there
    wl = build(args.workload, tt, args.seed)
    setup_end = time.monotonic()
    report = {"setup_end": setup_end}
    try:
        if args.mode == "setup":
            report["probe_median_s"] = median([probe() for _ in range(PROBES_AFTER_SETUP)])
        if args.mode == "run":
            report["loop"] = drive(wl, args.seconds, tracer)
        if args.mode == "run" and tracer is not None:
            report["layers"] = tracer.summary()
            path = OUT / f"spans-{args.workload}-seed{args.seed}.bin.gz"
            tracer.dump(path)
            report["spans_file"] = str(path.relative_to(OUT.parent))
            report["spans"] = len(tracer.span_name)
        report["properties"] = wl.properties
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        wl.cleanup()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
