"""Workload `eval`: one op is one TropicalThetaFunction.evaluate.

Five thetas, each evaluated at 100 points: principal Riemann thetas at
g=2 and g=3 on a reduced and on a skewed seeded form, and one tropicalized
level-2 basis theta at g=2 (index 4; three of its four profile entries are
`inf`).  Per theta, seven points in ten are generic (denominators 7/11/13),
two lie on the divisor on a half-integer grid, one lies 10^30 from the
origin.  `lattice` and `theta` do almost all the work.

The oracle is an exact Fraction box scan over lattice vectors around the
reported witnesses, using the benchmark's own copy of the theta's data.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from common import SHAPES, Op, Workload, generic_point, quad, reduced_form, scalar_matrix

POINTS_PER_THETA = 100
# unimodular bases that skew the reduced shapes (det 1)
SKEW = {
    2: ((1, 2), (1, 3)),
    3: ((1, 2, 1), (1, 3, 2), (2, 5, 4)),
}
# per ten points: generic, on-divisor, far
POINT_PATTERN = "GGDGGFGDGG"
FAR = 10**30
INF = float("inf")


class ThetaData:
    """The benchmark's own copy of a theta with Lambda = d*I: pairing P,
    linear part ell, and w on the coset representatives {0..d-1}^g."""

    def __init__(self, P, d, ell, profile):
        self.P = [[Fraction(x) for x in row] for row in P]
        self.g = len(P)
        self.d = d
        self.ell = tuple(Fraction(x) for x in ell)
        self.profile = profile  # rep -> Fraction or INF

    def term(self, u, v) -> Fraction | float:
        """w(u) + <u, v> for u = rep + d*n, by the extension rule."""
        rep = tuple(x % self.d for x in u)
        n = tuple((x - r) // self.d for x, r in zip(u, rep))
        w = self.profile[rep]
        if w == INF:
            return INF
        g = self.g
        quad_n = Fraction(self.d) * quad(self.P, n) / 2
        pair = sum(n[i] * self.P[i][j] * rep[j] for i in range(g) for j in range(g))
        return w + quad_n + sum(e * x for e, x in zip(self.ell, n)) + pair + sum(a * b for a, b in zip(u, v))

    def divisor_point(self, rng: random.Random):
        """A half-integer point where the single finite coset's quadratic is
        centred at m/2 with m not all even: n -> m - n swaps its minimizers,
        so the minimum has at least two witnesses."""
        (rep,) = [r for r, w in self.profile.items() if w != INF]
        g = self.g
        while True:
            m = [rng.randint(-3, 3) for _ in range(g)]
            if any(x % 2 for x in m):
                break
        # Lambda^T v = -(P Lambda) m / 2 - ell - P rep, with Lambda = d*I
        return tuple(
            (-self.d * sum(self.P[i][j] * m[j] for j in range(g)) / 2
             - self.ell[i] - sum(self.P[i][j] * rep[j] for j in range(g))) / self.d
            for i in range(g)
        )

    def box_scan(self, witnesses, v, radius):
        """Minimum and argmin of the terms over the boxes of half-width
        `radius` (in lattice steps) around each witness, in every coset."""
        g = self.g
        best, arg = None, set()
        finite = [r for r, w in self.profile.items() if w != INF]
        for wit in witnesses:
            n0 = tuple((x - x % self.d) // self.d for x in wit)
            for rep in finite:
                for dn in product(range(-radius, radius + 1), repeat=g):
                    u = tuple(r + self.d * (a + b) for r, a, b in zip(rep, n0, dn))
                    t = self.term(u, v)
                    if best is None or t < best:
                        best, arg = t, {u}
                    elif t == best:
                        arg.add(u)
        return best, arg


def skew(B, U) -> list[list[int]]:
    """U^T B U: the same lattice in the basis given by the columns of U."""
    g = len(B)
    return [
        [sum(U[k][i] * B[k][l] * U[l][j] for k in range(g) for l in range(g)) for j in range(g)]
        for i in range(g)
    ]


def skewed_form(rng: random.Random, g: int) -> list[list[int]]:
    """D (U^T B U) D for the default reduced shape B, the fixed basis U and
    seeded signs D.  Sign flips leave LLL's steps, and so the cost, as they
    are; a permutation would not."""
    S = skew(SHAPES[g], SKEW[g])
    sign = [rng.choice((-1, 1)) for _ in range(g)]
    return [[sign[i] * sign[j] * S[i][j] for j in range(g)] for i in range(g)]


def _principal(tt, P):
    g = len(P)
    data = tt.TropicalPolarizationData(g, tuple(tuple(Fraction(x) for x in r) for r in P), scalar_matrix(1, g))
    tt.require_valid(data)
    zero = tuple(0 for _ in range(g))
    return tt.riemann_theta(data), ThetaData(P, 1, [0] * g, {zero: Fraction(0)})


def level2_theta(tt, P, k):
    """Basis theta k of the level-2 polarization on the period q^P, and its
    data derived by hand: the canonical cocycle has c_i = q^(P_ii), so
    ell = 0, and w is 0 on the k-th representative of {0,1}^2, inf elsewhere."""
    g = len(P)
    period = tt.PeriodMatrix(
        tuple(tuple(tt.PuiseuxNumber.monomial(1, x) for x in row) for row in P)
    )
    from troptheta.nonarch import canonical_cocycle

    basis = tt.theta_basis(period, canonical_cocycle(period, scalar_matrix(2, g)))
    theta = tt.tropicalize(basis[k])
    reps = sorted(product(range(2), repeat=g))
    profile = {r: (Fraction(0) if i == k else INF) for i, r in enumerate(reps)}
    return theta, ThetaData(P, 2, [0] * g, profile)


def build(tt, seed: int) -> Workload:
    rng = random.Random(seed)
    thetas = []  # (label, theta, data)
    for g in (2, 3):
        thetas.append((f"g{g}-reduced", *_principal(tt, reduced_form(rng, g))))
        thetas.append((f"g{g}-skewed", *_principal(tt, skewed_form(rng, g))))
    k = rng.choice((1, 2))
    thetas.append(("g2-level2", *level2_theta(tt, reduced_form(rng, 2), k)))

    points = []  # per theta: list of (kind, point)
    for _, _, data in thetas:
        pts = []
        for i in range(POINTS_PER_THETA):
            kind = POINT_PATTERN[i % len(POINT_PATTERN)]
            if kind == "D":
                p = data.divisor_point(rng)
            elif kind == "F":
                signs = [rng.choice((-1, 1)) for _ in range(data.g)]
                p = tuple(x + s * FAR for x, s in zip(generic_point(rng, data.g), signs))
            else:
                p = generic_point(rng, data.g)
            pts.append((kind, p))
        points.append(pts)

    # warm-up: one evaluation per theta, so lazy per-theta work is set-up
    for _, theta, data in thetas:
        theta.evaluate(tuple(Fraction(1, 7) for _ in range(data.g)))

    ops = []
    for i in range(POINTS_PER_THETA):
        for t, (label, theta, data) in enumerate(thetas):
            kind, p = points[t][i]
            ops.append(
                Op(
                    kind=f"{label}/{kind}",
                    run=lambda theta=theta, p=p: theta.evaluate(p),
                    info={"data": data, "point": p, "on_divisor": kind == "D", "theta": theta},
                )
            )

    def check(op, res):
        data, v = op.info["data"], op.info["point"]
        theta = op.info["theta"]
        if theta.factor.ell != data.ell or {r: w for r, w in theta.profile.entries} != data.profile:
            return "theta data differs from the hand-derived data"
        if list(res.witnesses) != sorted(set(res.witnesses)):
            return "witnesses not sorted and distinct"
        if op.info["on_divisor"] and len(res.witnesses) < 2:
            return f"divisor point {v} has {len(res.witnesses)} witness"
        radius = 1 if data.g == 3 else 2
        best, arg = data.box_scan(res.witnesses, v, radius)
        if best != res.value:
            return f"value {res.value} but box scan minimum {best}"
        if arg != set(res.witnesses):
            return f"witnesses {res.witnesses} but box scan argmin {sorted(arg)}"
        return None

    kinds = {"G": "generic", "D": "on_divisor", "F": "far"}
    share = {kinds[c]: POINT_PATTERN.count(c) / len(POINT_PATTERN) for c in kinds}
    properties = {
        "thetas": [
            {"label": label, "g": data.g, "index": data.d**data.g, "P": [[str(x) for x in r] for r in data.P]}
            for label, _, data in thetas
        ],
        "point_share": share,
        "far_distance": "1e30",
        "points_per_theta": POINTS_PER_THETA,
        "level2_basis_index": k,
    }
    return Workload(
        ops=ops,
        properties=properties,
        check=check,
        fingerprint=lambda op, res: (res.value, res.witnesses),
    )
