"""Workload `nonarch`: one op is one crosscheck suite, one coefficient of a
fresh series, or one evaluate_at_point.

Periods are seeded monomial matrices q^P (coefficients 1) at g=1 and g=2.
Suites A, B and C run at small sample counts with Lambda = I (Riemann
series from a_0 = 1) and Lambda = 2I (level-2 basis series).  Each
`coefficient` op builds a fresh Riemann series and asks for one a_u at a
fixed |u| (seeded signs): the cost is quadratic in |u| today, and is where
closed-form Puiseux powers must show.  `evaluate_at_point` sums every term
up to a cutoff a few units above the minimal valuation.  Nothing else
measures `puiseux` and `nonarch`.

Checks: every suite outcome passes; a_u equals the closed form
q^(u^T P u / 2); the partial sum equals the benchmark's own box sum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from common import Op, Workload, quad, reduced_form, scalar_matrix

# One letter per op, cycled (see KINDS).  The two coefficient ops are the
# slowest tenth, so the 95th percentile lands inside their block; the six
# g=1 suite A ops span the middle, so the median lands inside theirs.
PATTERN = "kaeCbcAaEgeKbEBacGbe"
KINDS = {  # letter -> (g, description)
    "a": (1, "suite_a, g=1, Lambda = 1"),
    "A": (2, "suite_a, g=2, Lambda = I"),
    "b": (1, "suite_a, g=1, Lambda = 2 basis"),
    "B": (2, "suite_a, g=2, Lambda = 2I basis"),
    "c": (1, "suite_b, g=1"),
    "C": (2, "suite_b, g=2"),
    "g": (1, "suite_c, g=1, Lambda = 2 basis"),
    "G": (2, "suite_c, g=2, Lambda = 2I basis"),
    "k": (1, "coefficient, g=1"),
    "K": (2, "coefficient, g=2"),
    "e": (1, "evaluate_at_point, g=1"),
    "E": (2, "evaluate_at_point, g=2"),
}
# |u| per coefficient op: fixed sizes, seeded signs
COEFF_U = {"k": (160,), "K": (85, 85)}
CUTOFF_ABOVE_MIN = 3


def _period(tt, P):
    return tt.PeriodMatrix(tuple(tuple(tt.PuiseuxNumber.monomial(1, x) for x in row) for row in P))


def _valuation(P, u, v):
    """val(a_u x^u) = u^T P u / 2 + <u, v> for the Riemann series of q^P."""
    return Fraction(quad(P, u), 2) + sum(a * b for a, b in zip(u, v))


def _box_sum(P, v, cutoff):
    """{exponent: count} over all u with val <= cutoff, by a box scan that
    grows until no point on its boundary is below the cutoff."""
    g = len(P)
    radius = 2
    while True:
        terms = {}
        edge = False
        for u in product(range(-radius, radius + 1), repeat=g):
            e = _valuation(P, u, v)
            if e <= cutoff:
                terms[e] = terms.get(e, 0) + 1
                edge = edge or max(abs(x) for x in u) == radius
        if not edge:
            return terms
        radius *= 2


def _minimum(P, v) -> Fraction:
    """The minimal valuation, by a box scan that grows until every point on
    the box's boundary is strictly above the box's minimum."""
    g = len(P)
    radius = 2
    while True:
        vals = {u: _valuation(P, u, v) for u in product(range(-radius, radius + 1), repeat=g)}
        best = min(vals.values())
        if all(vals[u] > best for u in vals if max(abs(x) for x in u) == radius):
            return best
        radius *= 2


def build(tt, seed: int) -> Workload:
    rng = random.Random(seed)
    from troptheta.nonarch import canonical_cocycle

    ops = []
    coeff_sizes = []
    for code in PATTERN:
        g, kind = KINDS[code]
        P = reduced_form(rng, g)
        period = _period(tt, P)
        ident, twice = scalar_matrix(1, g), scalar_matrix(2, g)
        info = {"P": P}
        if code in "aA":
            f = tt.build_riemann_theta(period, ident)
            s = rng.randrange(1000)
            run = lambda f=f, s=s: tt.suite_a(f, samples=6, seed=s)
        elif code in "bB":
            basis = tt.theta_basis(period, canonical_cocycle(period, twice))
            f, s = basis[rng.randrange(len(basis))], rng.randrange(1000)
            run = lambda f=f, s=s: tt.suite_a(f, samples=6, seed=s)
        elif code in "cC":
            s = rng.randrange(1000)
            run = lambda period=period, ident=ident, s=s: tt.suite_b(period, ident, samples=20, seed=s)
        elif code in "gG":
            basis = tt.theta_basis(period, canonical_cocycle(period, twice))
            s = rng.randrange(1000)
            run = lambda f1=basis[0], f2=basis[1], s=s: tt.suite_c(f1, f2, pairs=6, points=4, seed=s)
        elif code in "kK":
            f = tt.build_riemann_theta(period, ident)
            u = tuple(rng.choice((-1, 1)) * m for m in COEFF_U[code])
            coeff_sizes.append(sum(abs(x) for x in u))
            info["u"] = u

            def run(f=f, u=u):
                fresh = tt.NAThetaFunction(cocycle=f.cocycle, coeffs=f.coeffs)
                return fresh.coefficient(u)
        else:
            f = tt.build_riemann_theta(period, ident)
            v = tuple(Fraction(rng.randint(-20, 20), (7, 11)[i]) for i in range(g))
            x = tuple(tt.PuiseuxNumber.monomial(1, c) for c in v)
            minimum = _minimum(P, v)
            cutoff = minimum + CUTOFF_ABOVE_MIN
            info.update(minimum=minimum, expected=_box_sum(P, v, cutoff))
            run = lambda f=f, x=x, cutoff=cutoff: tt.evaluate_at_point(f, x, cutoff)
        ops.append(Op(kind=kind, run=run, info=info))

    def check(op, out):
        if op.kind.startswith("suite"):
            bad = [o.name for o in out if not o.passed]
            return f"suite outcomes failed: {bad}" if bad else None
        if op.kind.startswith("coefficient"):
            P, u = op.info["P"], op.info["u"]
            want = ((Fraction(quad(P, u), 2), Fraction(1)),)
            return None if out.terms == want else f"a_{u} = {out} is not q^({want[0][0]})"
        want = tuple(sorted((e, Fraction(n)) for e, n in op.info["expected"].items()))
        if out.value.terms != want or out.terms != sum(op.info["expected"].values()):
            return "partial sum differs from the box sum"
        if out.trop_value != op.info["minimum"]:
            return f"minimal valuation {out.trop_value}, box scan {op.info['minimum']}"
        return None

    properties = {
        "pattern": PATTERN,
        "ops": {c: KINDS[c][1] for c in sorted(set(PATTERN))},
        "g_mix": {str(g): sum(KINDS[c][0] == g for c in PATTERN) / len(PATTERN) for g in (1, 2)},
        "lambda_mix": {
            "I": sum(c not in "bBgG" for c in PATTERN) / len(PATTERN),
            "2I": sum(c in "bBgG" for c in PATTERN) / len(PATTERN),
        },
        "coefficient_abs_u": sorted(set(coeff_sizes)),
        "cutoff_above_minimum": CUTOFF_ABOVE_MIN,
    }
    return Workload(ops=ops, properties=properties, check=check)
