"""Shared pieces of the benchmark: locating the library, seeded input
generators, the op record, and latency statistics.

Nothing here calls the library to decide what is correct: the generators
and oracles use their own exact `Fraction` arithmetic.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# a run always completes at least this many ops, so that the tail latency
# has ten samples beyond it even when --seconds is tiny
MIN_OPS = 20
# The ladder stops at p95: above it, a run of this length on a shared
# machine measures the machine's interruptions more than the program.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_BEYOND = 10


class MissingProgramError(RuntimeError):
    """The checkout holds no library source to benchmark."""


def import_troptheta():
    """Import the library from this checkout's `src/`, never from elsewhere."""
    init = SRC / "troptheta" / "__init__.py"
    if not init.is_file():
        raise MissingProgramError(f"no library source at {init}")
    sys.path.insert(0, str(SRC))
    import troptheta
    import troptheta.cli  # noqa: F401  (the command line is a layer too)

    if Path(troptheta.__file__).resolve() != init.resolve():
        raise MissingProgramError(f"troptheta imported from {troptheta.__file__}, not {init}")
    return troptheta


# ---------- op records ----------


@dataclass
class Op:
    """One unit of work: `run` is timed, `kind` labels it in the report."""

    kind: str
    run: Callable[[], object]
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A fixed op list plus the hooks that check its outputs.

    `fingerprint(op, out)` is cheap and is compared across repeats of an
    op; `check(op, out)` is the full oracle, run once per distinct op after
    the timed phase, and returns None or the reason the output is wrong.
    """

    ops: list[Op]
    properties: dict
    check: Callable[[Op, object], str | None]
    fingerprint: Callable[[Op, object], object] = lambda op, out: out
    cleanup: Callable[[], None] = lambda: None


# ---------- exact helpers ----------


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_matrix(d: int, g: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(d if i == j else 0 for j in range(g)) for i in range(g))


def quad(B, n) -> Fraction:
    """n^T B n."""
    g = len(n)
    return sum(B[i][j] * n[i] * n[j] for i in range(g) for j in range(g))


# Default reduced shape per g.  Seeds vary a form only by a signed
# permutation of its coordinates: the lattice, and so the cost of every op
# on it, stays the same from seed to seed.
SHAPES = {
    1: ((2,),),
    2: ((2, 1), (1, 3)),
    3: ((3, 1, 1), (1, 3, 1), (1, 1, 4)),
}


def reduced_form(rng: random.Random, g: int, shape=None) -> list[list[int]]:
    """A seeded signed permutation (D Q)^T B (D Q) of a reduced shape B:
    diagonally dominant, so positive definite and already LLL-reduced."""
    B = shape or SHAPES[g]
    g = len(B)
    perm = rng.sample(range(g), g)
    sign = [rng.choice((-1, 1)) for _ in range(g)]
    return [[sign[i] * sign[j] * B[perm[i]][perm[j]] for j in range(g)] for i in range(g)]


def generic_point(rng: random.Random, g: int) -> tuple[Fraction, ...]:
    """Denominators 7/11/13 keep the point off the small-denominator walls."""
    return tuple(Fraction(rng.randint(-40, 40), (7, 11, 13)[i % 3]) for i in range(g))


# ---------- machine speed ----------

# On a shared 2-vCPU virtual machine the CPU speed changes by up to 2x
# within seconds, alike for every CPU-bound Python workload.  So a worker
# times a fixed calibration kernel between two ops every PROBE_EVERY_S
# (and PROBES_AFTER_SETUP times after a set-up-only run), and scales each
# time it reports by PROBE_REF_S / (median of the PROBE_NEAREST kernel
# times nearest to it): times are given at the speed where the kernel
# takes PROBE_REF_S.  The raw times are in the report line too.
PROBE_EVERY_S = 0.1
PROBES_AFTER_SETUP = 25
PROBE_NEAREST = 4
PROBE_REF_S = 0.002


def probe() -> float:
    """Time one run of a fixed pure-Python kernel of the library's kind:
    arithmetic on small Fractions."""
    import gc

    gc.disable()  # time the machine, not the collector's view of the heap
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(1, i % 5 + 2)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factors(positions, probes) -> list[float]:
    """PROBE_REF_S / (median of the PROBE_NEAREST probes around each
    position); a position is the number of probes taken before the op."""
    out = []
    last = len(probes) - PROBE_NEAREST
    for k in positions:
        lo = max(0, min(k - PROBE_NEAREST // 2, last))
        out.append(PROBE_REF_S / median(probes[lo : lo + PROBE_NEAREST]))
    return out


# ---------- latency statistics ----------


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def tail(values) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond) at the highest ladder percentile
    that still has at least TAIL_BEYOND samples beyond it (nearest rank);
    None when there are too few samples for any rung."""
    s = sorted(values)
    n = len(s)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (p, s[rank - 1], n - rank)
    return best
