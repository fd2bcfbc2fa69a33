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

from .linalg import identity, matvec
from .nonarch import (
    NAThetaFunction,
    PeriodMatrix,
    build_riemann_theta,
    construct_rational_function,
    tropicalize,
)
from .puiseux import PuiseuxNumber
from .theta import _check_samples, _mismatch, riemann_theta, verify_transformation
from .varieties import TropicalPolarizationData

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
    series = build_riemann_theta(period, identity(g) if Lambda is None else Lambda)
    Lambda, trop = series.cocycle.Lambda, tropicalize(series)
    intrinsic = riemann_theta(
        TropicalPolarizationData(g=g, P=period.pairing(), Lambda=Lambda)
    )
    zero = [(0,) * g]
    match = _check_samples(
        ((v, zero) for v in sample_points(g, samples, seed)),
        lambda v: lambda _: _mismatch(trop(v), intrinsic(v)),
    )
    if match.ok:
        match_detail = f"{match.checked}/{match.checked} exact equalities, additive constant 0"
    else:
        first = match.failures[0]
        match_detail = f"{len(match.failures)}/{match.checked} mismatched; first at v={first.point}: {first.lhs} != {first.rhs}"
    outcomes = [CheckOutcome("riemann-match", match.ok, match_detail)]

    # symmetric normalization makes the coefficient valuations even
    rng = random.Random(seed + 1)
    draws = [tuple(rng.randint(-3, 3) for _ in range(g)) for _ in range(samples // 4 or 1)]

    def symmetric(n):
        lam_n = matvec(Lambda, n)
        return lambda _: _mismatch(trop.extended_w(lam_n), trop.extended_w(tuple(-x for x in lam_n)))

    even = _check_samples(((n, zero) for n in draws), symmetric)
    detail = f"{even.checked - len(even.failures)}/{even.checked} symmetric pairs"
    outcomes.append(CheckOutcome("even-valuations", even.ok, detail))
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

    cases = zip(sample_points(g, pairs, seed), ((n,) for n in sample_shifts(g, pairs, seed + 1)))
    periodic = _check_samples(cases, ht._periodic_sides)
    detail = f"{periodic.checked - len(periodic.failures)}/{periodic.checked} sample/shift pairs agree"
    outcomes = [CheckOutcome("difference-periodic", periodic.ok, detail)]

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
