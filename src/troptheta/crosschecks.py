"""Seeded exact-equality suites tying the two theta layers together.

Suite A: the tropicalization of a theta Fourier series satisfies the
tropical transformation law on a random grid, exactly.
Suite B: for a principal polarization under the symmetric square-root
normalization, the series generated from a_0 = 1 tropicalizes to the
intrinsic tropical Riemann theta with additive constant zero.
Suite C: the quotient of two series with the same cocycle has point
valuations descending to the periodic difference of the tropicalizations.

Everything is Fraction-exact; randomness is deterministic in the seed, so
suite outcomes are reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import identity, int_rows_from, matvec
from .nonarch import (
    NAThetaFunction,
    PeriodMatrix,
    build_riemann_theta,
    construct_rational_function,
    tropicalize,
)
from .puiseux import PuiseuxNumber
from .theta import riemann_theta, verify_transformation
from .varieties import TropicalPolarizationData, embed_Mprime

# pairwise-coprime odd denominators keep random samples off the ties that
# live on small-denominator walls
_DENOMINATORS = (7, 11, 13)


@dataclass(frozen=True)
class CheckOutcome:
    """One named pass/fail line of a suite run."""

    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def sample_points(g: int, count: int, seed: int, spread: int = 40):
    rng = random.Random(seed)
    return tuple(
        tuple(
            Fraction(rng.randint(-spread, spread), _DENOMINATORS[i % 3])
            for i in range(g)
        )
        for _ in range(count)
    )


def sample_shifts(g: int, count: int, seed: int, spread: int = 3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = tuple(rng.randint(-spread, spread) for _ in range(g))
        if any(n):
            out.append(n)
    return tuple(out)


def seeded_period(g: int, seed: int, spread: int = 2) -> PeriodMatrix:
    """A seeded symmetric positive-definite monomial period matrix: the
    exponents are L L^T for an integer lower-triangular L with positive
    diagonal."""
    rng = random.Random(seed)
    L = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i):
            L[i][j] = rng.randint(-spread, spread)
        L[i][i] = rng.randint(1, spread + 1)
    exps = [
        [sum(L[i][k] * L[j][k] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]
    return PeriodMatrix(
        tuple(
            tuple(
                PuiseuxNumber.monomial(Fraction(1), Fraction(e)) for e in row
            )
            for row in exps
        )
    )


def suite_a(
    f: NAThetaFunction, samples: int = 50, shifts: int = 7, seed: int = 0
) -> tuple[CheckOutcome, ...]:
    """Quasi-periodicity of the tropicalized series:
    f_trop(v) = f_trop(v + P^T n) + c_trop(n) + <lambda(n), v> exactly."""
    trop = tropicalize(f)
    points = sample_points(trop.g, samples, seed)
    shift_vecs = sample_shifts(trop.g, shifts, seed + 1)
    report = verify_transformation(trop, points, shift_vecs)
    if report.ok:
        detail = f"{report.checked} exact identities"
    else:
        first = report.failures[0]
        detail = (
            f"{len(report.failures)}/{report.checked} failed; first at "
            f"v={first.point} n={first.shift}: {first.lhs} != {first.rhs}"
        )
    return (CheckOutcome("transformation-law", report.ok, detail),)


def suite_b(
    period: PeriodMatrix, Lambda=None, samples: int = 100, seed: int = 0
) -> tuple[CheckOutcome, ...]:
    """Principal tropicalization identity: tropicalize(series from a_0 = 1)
    equals the intrinsic tropical Riemann theta pointwise, constant zero."""
    g = period.g
    Lambda = identity(g) if Lambda is None else int_rows_from(Lambda, "Lambda")
    series = build_riemann_theta(period, Lambda)
    trop = tropicalize(series)
    intrinsic = riemann_theta(
        TropicalPolarizationData(g=g, P=period.pairing(), Lambda=Lambda)
    )
    points = sample_points(g, samples, seed)
    bad = []
    for v in points:
        lhs = trop.evaluate(v).value
        rhs = intrinsic.evaluate(v).value
        if lhs != rhs:
            bad.append((v, lhs, rhs))
    if bad:
        v, lhs, rhs = bad[0]
        match_detail = f"{len(bad)}/{len(points)} mismatched; first at v={v}: {lhs} != {rhs}"
    else:
        match_detail = f"{len(points)}/{len(points)} exact equalities, additive constant 0"
    outcomes = [CheckOutcome("riemann-match", not bad, match_detail)]

    # symmetric normalization makes the coefficient valuations even
    even_bad = 0
    even_checked = 0
    rng = random.Random(seed + 1)
    for _ in range(samples // 4 or 1):
        n = tuple(rng.randint(-3, 3) for _ in range(g))
        lam_n = tuple(matvec(Lambda, n))
        neg = tuple(-x for x in lam_n)
        even_checked += 1
        if trop.extended_w(lam_n) != trop.extended_w(neg):
            even_bad += 1
    outcomes.append(
        CheckOutcome(
            "even-valuations",
            even_bad == 0,
            f"{even_checked - even_bad}/{even_checked} symmetric pairs",
        )
    )
    return tuple(outcomes)


def suite_c(
    f1: NAThetaFunction,
    f2: NAThetaFunction,
    pairs: int = 50,
    points: int = 20,
    seed: int = 0,
) -> tuple[CheckOutcome, ...]:
    """Same-cocycle quotients descend: h_trop is lattice-periodic, and at
    monomial points with unique dominant terms the exact partial sums give
    val f1(x) - val f2(x) = h_trop(trop x)."""
    h = construct_rational_function(f1, f2)
    ht = h.h_trop
    g = f1.g
    base = ht.base

    sample = sample_points(g, pairs, seed)
    shift_vecs = sample_shifts(g, pairs, seed + 1)
    aperiodic = 0
    for v, n in zip(sample, shift_vecs):
        translate = tuple(
            a + b for a, b in zip(v, embed_Mprime(base, n))
        )
        if ht(v) != ht(translate):
            aperiodic += 1
    outcomes = [
        CheckOutcome(
            "difference-periodic",
            aperiodic == 0,
            f"{pairs - aperiodic}/{pairs} sample/shift pairs agree",
        )
    ]

    rng = random.Random(seed + 2)
    collected = 0
    mismatched = 0
    attempts = 0
    while collected < points and attempts < 100 * points:
        attempts += 1
        exps = tuple(
            Fraction(rng.randint(-40, 40), _DENOMINATORS[i % 3])
            for i in range(g)
        )
        x = tuple(PuiseuxNumber.monomial(Fraction(1), e) for e in exps)
        value, dominant_unique = h.val_at(x)
        if not dominant_unique:
            continue
        collected += 1
        if value != ht(exps):
            mismatched += 1
    outcomes.append(
        CheckOutcome(
            "valuation-identity",
            mismatched == 0 and collected == points,
            f"{collected - mismatched}/{points} monomial points with unique "
            f"dominants match",
        )
    )
    return tuple(outcomes)
