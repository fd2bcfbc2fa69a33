"""Seeded exact-equality suites tying the two theta layers together.

Suite A: the tropicalization of a theta Fourier series satisfies the
tropical transformation law on a random grid, exactly.
Suite B: for a principal polarization under the symmetric square-root
normalization, the series generated from a_0 = 1 tropicalizes to the
intrinsic tropical Riemann theta with additive constant zero.
Suite C: the quotient of two series with the same cocycle has point
valuations descending to the periodic difference of the tropicalizations.

Everything is exact: the suites compare integers (each theta value as the
integer pair of TropicalThetaFunction._value, cross-multiplied) and form
Fractions only for a failing case.  Randomness is deterministic in the
seed, so suite outcomes are reproducible byte for byte.  One seeded stream of
rational points (`_points`) gives `sample_points` and suite C's monomial
points, and one of integer vectors (`_shifts`) gives `sample_shifts` and
suite B's valuation pairs, each with a fixed spread.  Each outcome is a
CheckOutcome, the one report line the command line prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .lattice import _over_common_denominator
from .linalg import identity, matmul, matvec, transpose
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


def _points(g: int, seed: int):
    """The endless seeded stream of rational points behind `sample_points`:
    coordinates p / d with |p| <= 40, d cycling through _DENOMINATORS."""
    rng = random.Random(seed)
    while True:
        yield tuple(Fraction(rng.randint(-40, 40), _DENOMINATORS[i % 3]) for i in range(g))


def sample_points(g: int, count: int, seed: int):
    return tuple(islice(_points(g, seed), count))


def _shifts(g: int, seed: int):
    """The endless seeded stream of integer vectors in [-3, 3]^g behind
    `sample_shifts`, zero included."""
    rng = random.Random(seed)
    while True:
        yield tuple(rng.randint(-3, 3) for _ in range(g))


def sample_shifts(g: int, count: int, seed: int):
    return tuple(islice(filter(any, _shifts(g, seed)), count))


def seeded_period(g: int, seed: int) -> PeriodMatrix:
    """A seeded symmetric positive-definite monomial period matrix: the
    exponents are L L^T for an integer lower-triangular L with entries in
    [-2, 2] below a diagonal in [1, 3]."""
    rng = random.Random(seed)
    L = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i):
            L[i][j] = rng.randint(-2, 2)
        L[i][i] = rng.randint(1, 3)
    exps = matmul(L, transpose(L))
    return PeriodMatrix(tuple(tuple(PuiseuxNumber.monomial(Fraction(1), Fraction(e)) for e in row) for row in exps))


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

    def riemann(v):
        q, V = _over_common_denominator(v)
        return lambda _: _mismatch(*trop._value(q, V), *intrinsic._value(q, V))

    match = _check_samples(((v, zero) for v in sample_points(g, samples, seed)), riemann)
    if match.ok:
        match_detail = f"{match.checked}/{match.checked} exact equalities, additive constant 0"
    else:
        first = match.failures[0]
        match_detail = f"{len(match.failures)}/{match.checked} mismatched; first at v={first.point}: {first.lhs} != {first.rhs}"
    outcomes = [CheckOutcome("riemann-match", match.ok, match_detail)]

    # symmetric normalization makes the coefficient valuations even
    draws = islice(_shifts(g, seed + 1), samples // 4 or 1)

    def symmetric(n):
        lam_n = matvec(Lambda, n)
        neg = tuple(-x for x in lam_n)
        same = trop._w_numerator(lam_n) == trop._w_numerator(neg)
        return lambda _: None if same else (trop.extended_w(lam_n), trop.extended_w(neg))

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

    collected = mismatched = 0
    for exps in islice(_points(g, seed + 2), max(100 * points, 0)):
        value, dominant_unique = h.val_at(tuple(PuiseuxNumber.monomial(Fraction(1), e) for e in exps))
        if dominant_unique:
            collected += 1
            num, den = ht.expression._value(*_over_common_denominator(exps))
            mismatched += value.numerator * den != num * value.denominator
            if collected == points:
                break
    detail = f"{collected - mismatched}/{points} monomial points with unique dominants match"
    outcomes.append(CheckOutcome("valuation-identity", mismatched == 0 and collected == points, detail))
    return tuple(outcomes)
