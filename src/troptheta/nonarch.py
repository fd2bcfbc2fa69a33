"""Theta functions on totally degenerate non-Archimedean tori, exactly.

The torus is K^g / (period lattice), K the exact Puiseux field model; periods
are encoded by a matrix T of monomials whose exponent matrix is the tropical
pairing P.  A polarization Lambda plus a cocycle c (monomial values on the
generators, extended through c(u1+u2) = c(u1) c(u2) t(u1, lambda(u2)))
determines theta functions: Fourier coefficient families a_u with

    a_{u + lambda(u')} = t(u', u) * c(u') * a_u.

Taking val of everything recovers the tropical layer: profiles, factors and
the min formula.  Series are never truncated approximately; partial sums
carry every term up to an exact valuation cutoff.

Every factor of the extension rule is a monomial whose exponent is an
integer bilinear or quadratic form over one denominator, so each period and
each cocycle is compiled once, on first use, into integer monomials over one
common exponent denominator D: (D val, coefficient numerator, coefficient
denominator) for every period entry T_ij, every generator value c(e'_i) and
every pair value t(e'_i, lambda(e'_j)).  `t`, `t_lambda`, `value`, the
cocycle's symmetry check and `coefficient` are then integer dot products
and integer powers, with one exponent Fraction and one coefficient Fraction
at the end, handed to puiseux's trusted constructor (a monomial, or a
series times a nonzero monomial, is canonical as it stands).  Partial sums
form x^u the same way and canonicalize all their terms once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import floor, lcm
from typing import Iterable, NamedTuple, Sequence

from .geometry import _terms_below
from .lattice import CosetLattice, NotPositiveDefiniteError, _gso, _over_common_denominator
from .linalg import (
    IntRows,
    IntVec,
    RatMatrix,
    ShapeMismatchError,
    identity,
    int_det,
    int_rows_from,
    int_vector_from,
    is_symmetric,
    json_list,
    matmul,
    matvec,
    transpose,
)
from .puiseux import PuiseuxNumber, Term
from .theta import (
    AutomorphyFactor,
    CheckFailure,
    CheckReport,
    NotPrincipalError,
    TropicalThetaExpression,
    TropicalThetaFunction,
    ValuationProfile,
    difference_to_periodic,
)
from .varieties import InvalidDataError, TropicalPolarizationData


class NotAmpleError(ValueError):
    """The exponent form P * Lambda is not positive-definite."""


class CocycleMismatchError(ValueError):
    """Operands carry different periods or cocycles."""


class ZeroCoordinateError(ValueError):
    """Evaluation point has a zero coordinate."""


class CutoffBelowMinimumError(ValueError):
    """Requested valuation cutoff lies below the minimal term valuation."""


class ZeroDenominatorError(ZeroDivisionError):
    """Rational function with identically zero denominator."""


class SeriesTooLargeError(ValueError):
    """A series has more than _MAX_INDEX cosets, or one of its exact
    coefficients needs an integer power of more than _MAX_BITS bits."""


# A series' file need not list its cosets (a missing coefficient is 0), yet
# its coefficient table and its tropicalization hold one entry per coset; and
# a coefficient a_u holds powers whose size grows with |u|^2, so a cocycle
# value of valuation 10^30 puts the dominant terms at |u| ~ 10^30.
_MAX_INDEX = 4096
_MAX_BITS = 1 << 20


# c q^(e/D) as (e, numerator of c, denominator of c), over a D the holder keeps
Mono = tuple[int, int, int]


def _mono(m: PuiseuxNumber, D: int) -> Mono:
    (e, c), = m.terms
    return e.numerator * (D // e.denominator), c.numerator, c.denominator


def _fold(factors: Iterable[tuple[Mono, int]]) -> Mono:
    """prod m^k over (m, k) pairs: the exponents add up, and numerators and
    denominators multiply as integer powers (swapped for k < 0)."""
    exp, num, den = 0, 1, 1
    for (e, a, b), k in factors:
        if k:
            exp += k * e
            if k < 0:
                a, b, k = b, a, -k
            size = max(abs(a), abs(b))
            if size > 1 and k * size.bit_length() > _MAX_BITS:
                raise SeriesTooLargeError(f"coefficient ({a}/{b})^{k} exceeds {_MAX_BITS} bits")
            num *= a**k
            den *= b**k
    return exp, num, den


def _term(D: int, m: Mono) -> Term:
    return Fraction(m[0], D), Fraction(m[1], m[2])


def _reduced(m: Mono) -> Mono:
    c = Fraction(m[1], m[2])
    return m[0], c.numerator, c.denominator


def _monomial(D: int, m: Mono) -> PuiseuxNumber:
    return PuiseuxNumber._trusted((_term(D, m),))


def _bilinear(T: Sequence[Sequence[Mono]], a: Sequence[int], b: Sequence[int]):
    """The factors of prod_{i,j} T_ij^(a_i b_j)."""
    return ((m, ai * bj) for row, ai in zip(T, a) if ai for m, bj in zip(row, b))


def _literal(x, name: str) -> PuiseuxNumber:
    """A Puiseux literal from JSON: a string, or an integer constant."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise TypeError(f"{name}: Puiseux literal required, got {type(x).__name__}: {x!r}")
    return PuiseuxNumber.parse(str(x))


class _Kernel(NamedTuple):
    """A cocycle's monomials over one exponent denominator D: the period
    entries T_ij, the generator values G_i = c(e'_i) and the pair values
    Q_ij = t(e'_i, lambda(e'_j)), each with a reduced coefficient."""

    D: int
    T: tuple[tuple[Mono, ...], ...]
    G: tuple[Mono, ...]
    Q: tuple[tuple[Mono, ...], ...]


@dataclass(frozen=True)
class PeriodMatrix:
    """Multiplicative periods: a g x g matrix of monomials c*q^r with c > 0.

    The exponent matrix (r_ij) is the tropical pairing P and must be
    nondegenerate.
    """

    entries: tuple[tuple[PuiseuxNumber, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(e for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        g = len(rows)
        if any(len(r) != g for r in rows) or g == 0:
            raise ShapeMismatchError("period matrix must be square and nonempty")
        for row in rows:
            for e in row:
                if not isinstance(e, PuiseuxNumber) or not e.is_monomial():
                    raise InvalidDataError(f"period entry must be a monomial: {e}")
                if e.leading_coefficient() <= 0:
                    raise InvalidDataError(
                        f"period entry must have positive coefficient: {e}"
                    )
        from .linalg import det

        if det(self.exponent_rows()) == 0:
            raise InvalidDataError("period exponent matrix is degenerate")

    @property
    def g(self) -> int:
        return len(self.entries)

    def exponent_rows(self):
        return tuple(tuple(e.val() for e in row) for row in self.entries)

    def pairing(self) -> RatMatrix:
        return RatMatrix(self.exponent_rows())

    @cached_property
    def _kernel(self) -> tuple[int, tuple[tuple[Mono, ...], ...]]:
        """D and the entries as integer monomials over it."""
        D = lcm(*(e.val().denominator for row in self.entries for e in row))
        return D, tuple(tuple(_mono(e, D) for e in row) for row in self.entries)

    def t(self, nprime: Sequence[int], u: Sequence[int]) -> PuiseuxNumber:
        """t(u', u) = prod_{i,j} T[i][j]^(n'_i u_j), one monomial whose
        exponent is the bilinear form n'^T P u."""
        D, T = self._kernel
        nprime, u = tuple(map(int, nprime)), tuple(map(int, u))
        return _monomial(D, _fold(_bilinear(T, nprime, u)))

    def to_json_rows(self) -> list:
        return [[str(e) for e in row] for row in self.entries]

    @classmethod
    def from_json_rows(cls, rows: list) -> "PeriodMatrix":
        try:
            entries = tuple(
                tuple(_literal(e, "T") for e in json_list(row, "each row of T"))
                for row in json_list(rows, "T")
            )
        except TypeError as exc:
            raise InvalidDataError(str(exc)) from exc
        return cls(entries=entries)


@dataclass(frozen=True)
class NACocycle:
    """A cocycle for (lambda, T): monomial generator values c(e'_i), extended
    multiplicatively through the relation with t(., lambda(.))."""

    period: PeriodMatrix
    Lambda: IntRows
    generators: tuple[PuiseuxNumber, ...]

    def __post_init__(self):
        object.__setattr__(self, "Lambda", int_rows_from(self.Lambda))
        g = self.period.g
        if len(self.Lambda) != g or any(len(r) != g for r in self.Lambda):
            raise ShapeMismatchError("Lambda shape mismatch")
        if len(self.generators) != g:
            raise ShapeMismatchError("need one generator value per basis vector")
        for c in self.generators:
            if not isinstance(c, PuiseuxNumber) or not c.is_monomial():
                raise InvalidDataError(f"cocycle generator must be a monomial: {c}")
        # symmetry of t(e'_i, lambda(e'_j)) is what makes the extension a
        # genuine cocycle; check it exactly
        Q = self._kernel.Q
        for i in range(g):
            for j in range(i):
                if Q[i][j] != Q[j][i]:
                    raise InvalidDataError(
                        f"t(e'_{i}, lambda(e'_{j})) != t(e'_{j}, lambda(e'_{i}))"
                    )

    @property
    def g(self) -> int:
        return self.period.g

    @cached_property
    def _kernel(self) -> _Kernel:
        """Q_ij = prod_k T_ik^(Lambda_kj), since lambda(e'_j) is column j."""
        D = lcm(self.period._kernel[0], *(c.val().denominator for c in self.generators))
        T = tuple(tuple(_mono(e, D) for e in row) for row in self.period.entries)
        Q = tuple(
            tuple(_reduced(_fold(zip(row, col))) for col in transpose(self.Lambda))
            for row in T
        )
        return _Kernel(D, T, tuple(_mono(c, D) for c in self.generators), Q)

    def lambda_is_zero(self) -> bool:
        return all(x == 0 for r in self.Lambda for x in r)

    def value(self, n: Sequence[int]) -> PuiseuxNumber:
        """c(n) = prod_i c(e'_i)^(n_i) t_ii^(n_i (n_i - 1)/2) prod_{i<j}
        t_ij^(n_i n_j), t_ij = t(e'_i, lambda(e'_j)), as one monomial."""
        return _monomial(self._kernel.D, _fold(self._value_factors(tuple(map(int, n)))))

    def _value_factors(self, n: IntVec):
        G, Q = self._kernel.G, self._kernel.Q
        yield from zip(G, n)
        for i, ni in enumerate(n):
            if ni:
                yield Q[i][i], ni * (ni - 1) // 2
                yield from ((Q[i][j], ni * n[j]) for j in range(i + 1, len(n)))

    def _extension(self, n: IntVec, u: IntVec) -> Term:
        """t(n, u) c(n) as (exponent, coefficient): the factor with
        a_{u + lambda(n)} = t(n, u) c(n) a_u."""
        k = self._kernel
        return _term(k.D, _fold(chain(_bilinear(k.T, n, u), self._value_factors(n))))

    def t_lambda(self, n1: Sequence[int], n2: Sequence[int]) -> PuiseuxNumber:
        """t(u1', lambda(u2')) = prod_{i,j} t_ij^(n1_i n2_j)."""
        n1, n2 = tuple(map(int, n1)), tuple(map(int, n2))
        return _monomial(self._kernel.D, _fold(_bilinear(self._kernel.Q, n1, n2)))

    def to_json_list(self) -> list:
        return [str(c) for c in self.generators]


def verify_cocycle(cocycle: NACocycle, samples: int = 20, seed: int = 0) -> CheckReport:
    """Exact spot-check of c(u1+u2) = c(u1) c(u2) t(u1, lambda(u2)) on all
    generator pairs plus `samples` seeded random pairs with |n_i| <= 4; a
    failure carries the pair (n1, n2) as its point and shift."""
    g, rng = cocycle.g, random.Random(seed)
    pairs = list(product(identity(g), repeat=2))
    for _ in range(samples):
        pairs.append(tuple(tuple(rng.randint(-4, 4) for _ in range(g)) for _ in range(2)))
    failures = []
    for n1, n2 in pairs:
        total = tuple(a + b for a, b in zip(n1, n2))
        lhs = cocycle.value(total)
        rhs = cocycle.value(n1) * cocycle.value(n2) * cocycle.t_lambda(n1, n2)
        if lhs != rhs:
            failures.append(CheckFailure(point=n1, shift=n2, lhs=lhs, rhs=rhs))
    return CheckReport(checked=len(pairs), failures=tuple(failures))


@dataclass(frozen=True)
class NAThetaFunction:
    """Fourier data of a theta function: one coefficient per coset of
    M / lambda(M'), everything else generated by the extension rule."""

    cocycle: NACocycle
    coeffs: tuple[tuple[IntVec, PuiseuxNumber], ...]

    def __post_init__(self):
        g = self.cocycle.g
        entries = []
        for rep, a in self.coeffs:
            rep = tuple(int(x) for x in rep)
            if len(rep) != g:
                raise ShapeMismatchError("coefficient index rank mismatch")
            if not isinstance(a, PuiseuxNumber):
                raise InvalidDataError("coefficients must be Puiseux numbers")
            entries.append((rep, a))
        if self.cocycle.lambda_is_zero():
            seen = set()
            for rep, _ in entries:
                if rep in seen:
                    raise InvalidDataError(f"duplicate support point {rep}")
                seen.add(rep)
            norm = sorted(entries)
        else:

            def move(rep: IntVec, n: IntVec, a: PuiseuxNumber) -> PuiseuxNumber:
                # a_{rep + lambda(n)} = t(n, rep) c(n) a_rep, one monomial factor
                e, c = self.cocycle._extension(n, rep)
                return a._shifted(-e, 1 / c)

            table = self._cosets.normal_form(entries, move, "coefficient", InvalidDataError)
            norm = [(rep, table.get(rep, PuiseuxNumber.zero())) for rep in _representatives(self._cosets)]
        object.__setattr__(self, "coeffs", tuple(norm))
        if all(a.is_zero() for _, a in self.coeffs):
            raise InvalidDataError("theta function needs a nonzero coefficient")

    @property
    def g(self) -> int:
        return self.cocycle.g

    @cached_property
    def _cosets(self) -> CosetLattice | None:
        if self.cocycle.lambda_is_zero():
            return None
        return CosetLattice(self.cocycle.Lambda)

    @cached_property
    def _table(self) -> dict[IntVec, PuiseuxNumber]:
        return dict(self.coeffs)

    @cached_property
    def _trop(self) -> TropicalThetaFunction:
        return _tropicalize(self)

    def coefficient(self, u: Sequence[int]) -> PuiseuxNumber:
        """a_u, from the stored coset data via the extension rule."""
        u = tuple(int(x) for x in u)
        table = self._table
        if u in table:
            return table[u]
        if self._cosets is None:
            return PuiseuxNumber.zero()
        rep, n = self._cosets.decompose(u)
        a = table[rep]
        if not a.is_zero():
            a = a._shifted(*self.cocycle._extension(n, rep))
        table[u] = a
        return a

    def verify_invariance(self, samples: int = 20, seed: int = 0) -> CheckReport:
        """Exact check of a_{u + lambda(u')} = t(u', u) c(u') a_u on the
        stored (and cached) indices plus seeded random ones; a failure
        carries u as its point and u' as its shift."""
        rng = random.Random(seed)
        g = self.g
        indices = sorted(self._table.keys())
        for _ in range(samples):
            indices.append(tuple(rng.randint(-4, 4) for _ in range(g)))
        shifts = [tuple(rng.randint(-2, 2) for _ in range(g)) for _ in range(5)]
        shifts = [s for s in shifts if any(s)] or [tuple(1 for _ in range(g))]
        lam_shifts = [(nprime, matvec(self.cocycle.Lambda, nprime)) for nprime in shifts]
        failures = []
        checked = 0
        for u in indices:
            for nprime, lam_shift in lam_shifts:
                target = tuple(a + b for a, b in zip(u, lam_shift))
                lhs = self.coefficient(target)
                rhs = (
                    self.cocycle.period.t(nprime, u)
                    * self.cocycle.value(nprime)
                    * self.coefficient(u)
                )
                checked += 1
                if lhs != rhs:
                    failures.append(CheckFailure(point=u, shift=nprime, lhs=lhs, rhs=rhs))
        return CheckReport(checked=checked, failures=tuple(failures))

    # ---------- serialization ----------

    def to_json_dict(self) -> dict:
        return {
            "T": self.cocycle.period.to_json_rows(),
            "Lambda": [list(r) for r in self.cocycle.Lambda],
            "c": self.cocycle.to_json_list(),
            "coeffs": [
                {"rep": list(r), "a": str(a)} for r, a in self.coeffs
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NAThetaFunction":
        period = PeriodMatrix.from_json_rows(data["T"])
        try:
            Lambda = int_rows_from(data["Lambda"], "Lambda")
            generators = tuple(_literal(c, "c") for c in json_list(data["c"], "c"))
            coeffs = []
            for e in json_list(data["coeffs"], "coeffs"):
                if not isinstance(e, dict) or not {"rep", "a"} <= e.keys():
                    raise TypeError(f'each entry of coeffs needs "rep" and "a", got {e!r}')
                coeffs.append((int_vector_from(e["rep"], "rep"), _literal(e["a"], "a")))
        except TypeError as exc:
            raise InvalidDataError(str(exc)) from exc
        return cls(
            cocycle=NACocycle(period=period, Lambda=Lambda, generators=generators),
            coeffs=tuple(coeffs),
        )


def _representatives(cosets: CosetLattice) -> tuple[IntVec, ...]:
    """A series' coset reps, or SeriesTooLargeError beyond _MAX_INDEX."""
    if cosets.index > _MAX_INDEX:
        raise SeriesTooLargeError(f"polarization index {cosets.index} exceeds {_MAX_INDEX} cosets")
    return cosets.representatives()


def _require_ample(cocycle: NACocycle):
    B = matmul(cocycle.period.exponent_rows(), cocycle.Lambda)
    if not is_symmetric(B):
        raise NotAmpleError("exponent form P * Lambda is not symmetric")
    try:
        _gso(B)
    except NotPositiveDefiniteError as exc:
        raise NotAmpleError(
            f"exponent form P * Lambda is not positive-definite (pivot {exc.pivot_index})"
        ) from exc
    return B


def _polarization(period: PeriodMatrix, Lambda) -> IntRows:
    """Lambda as integer rows, g x g for the period's g."""
    Lambda, g = int_rows_from(Lambda, "Lambda"), period.g
    if len(Lambda) != g or any(len(r) != g for r in Lambda):
        raise ShapeMismatchError("Lambda shape mismatch")
    return Lambda


def _diagonal_pairs(period: PeriodMatrix, Lambda: IntRows) -> Iterable[PuiseuxNumber]:
    """The pair values t(e'_i, lambda(e'_i)), generator by generator."""
    g = period.g
    for i in range(g):
        yield period.t(tuple(int(k == i) for k in range(g)), tuple(row[i] for row in Lambda))


def build_riemann_theta(period: PeriodMatrix, Lambda) -> NAThetaFunction:
    """The symmetric-normalized Riemann theta for a principal polarization:
    c(e'_i) = sqrt(t(e'_i, lambda(e'_i))) (square roots chosen on generator
    pairs, extended bilinearly), coefficients generated from a_0 = 1."""
    Lambda = _polarization(period, Lambda)
    if abs(int_det(Lambda)) != 1:
        raise NotPrincipalError("build_riemann_theta needs |det Lambda| = 1")
    # CoefficientNotASquareError if a pair value is not a square
    gens = tuple(t_ii.sqrt_monomial() for t_ii in _diagonal_pairs(period, Lambda))
    cocycle = NACocycle(period=period, Lambda=Lambda, generators=gens)
    _require_ample(cocycle)
    zero = tuple(0 for _ in range(period.g))
    return NAThetaFunction(
        cocycle=cocycle, coeffs=((zero, PuiseuxNumber.one()),)
    )


def canonical_cocycle(period: PeriodMatrix, Lambda) -> NACocycle:
    """Square-root-normalized cocycle when the diagonal pair values are
    squares, otherwise generator values 1."""
    Lambda = _polarization(period, Lambda)
    gens = []
    for t_ii in _diagonal_pairs(period, Lambda):
        try:
            gens.append(t_ii.sqrt_monomial())
        except ValueError:
            gens.append(PuiseuxNumber.one())
    return NACocycle(period=period, Lambda=Lambda, generators=tuple(gens))


def theta_basis(period: PeriodMatrix, cocycle: NACocycle) -> tuple[NAThetaFunction, ...]:
    """The standard basis of theta functions for (lambda, c): the k-th has
    a = 1 on the k-th coset representative and 0 on the others; there are
    exactly [M : lambda(M')] = |det Lambda| of them."""
    if cocycle.period != period:
        raise CocycleMismatchError("cocycle belongs to a different period matrix")
    if cocycle.lambda_is_zero() or int_det(cocycle.Lambda) == 0:
        raise NotAmpleError("theta_basis needs an invertible polarization")
    _require_ample(cocycle)
    reps = _representatives(CosetLattice(cocycle.Lambda))
    out = []
    for rep in reps:
        out.append(
            NAThetaFunction(
                cocycle=cocycle, coeffs=((rep, PuiseuxNumber.one()),)
            )
        )
    return tuple(out)


def tropicalize(f: NAThetaFunction) -> TropicalThetaFunction:
    """val of everything: profile w(u0) = val(a_u0) on the coset reps; the
    factor's linear part is how val(c) differs from the quadratic
    (1/2) n^T (P Lambda) n.  Computed once per series and cached on it."""
    return f._trop


def _tropicalize(f: NAThetaFunction) -> TropicalThetaFunction:
    g = f.g
    P = f.cocycle.period.exponent_rows()
    base_lambda = f.cocycle.Lambda
    if int_det(base_lambda) == 0:
        base_lambda = identity(g)
    base = TropicalPolarizationData(
        g=g, P=RatMatrix(P), Lambda=base_lambda
    )
    if f.cocycle.lambda_is_zero():
        if any(c.val() != 0 for c in f.cocycle.generators):
            raise InvalidDataError(
                "lambda = 0 tropicalization needs a valuation-trivial cocycle"
            )
        entries = tuple(
            (rep, a.val()) for rep, a in f.coeffs if not a.is_zero()
        )
        factor = AutomorphyFactor(
            Lambda=tuple(tuple(0 for _ in range(g)) for _ in range(g)),
            ell=tuple(Fraction(0) for _ in range(g)),
        )
        return TropicalThetaFunction(
            base=base, factor=factor, profile=ValuationProfile(entries=entries)
        )
    B = matmul(P, f.cocycle.Lambda)
    ell = tuple(
        f.cocycle.generators[i].val() - Fraction(1, 2) * B[i][i] for i in range(g)
    )
    factor = AutomorphyFactor(Lambda=f.cocycle.Lambda, ell=ell)
    entries = tuple((rep, a.val()) for rep, a in f.coeffs)
    return TropicalThetaFunction(
        base=base, factor=factor, profile=ValuationProfile(entries=entries)
    )


@dataclass(frozen=True)
class PartialSum:
    """All Fourier terms with val <= cutoff, summed exactly."""

    value: PuiseuxNumber
    terms: int
    trop_value: Fraction
    dominant_unique: bool


def evaluate_at_point(
    f: NAThetaFunction, x: Sequence[PuiseuxNumber], cutoff=None
) -> PartialSum:
    """Sum a_u x^u over every u with val(a_u x^u) <= cutoff, exactly.

    val(a_u x^u) = w(u) + <u, trop(x)> for the tropicalization, so the terms
    are the u of the (u, D w(u)) pairs of geometry._terms_below at trop(x)
    and the cutoff, in integers: one enumeration below the cutoff per
    finite coset (a finite scan when lambda = 0), summed in lex order of u.
    x must have monomial nonzero coordinates; cutoff must be at least the
    minimal term valuation f_trop(trop(x)), which is the default.  That
    minimum and whether one term attains it come from one integer argmin of
    the tropicalization (TropicalThetaFunction._least), not from `evaluate`.
    When the minimal-valuation term is unique, val(value) equals that
    minimum.
    """
    g = f.g
    if len(x) != g:
        raise ShapeMismatchError("point rank mismatch")
    for xj in x:
        if not isinstance(xj, PuiseuxNumber) or xj.is_zero():
            raise ZeroCoordinateError("point coordinates must be nonzero")
        if not xj.is_monomial():
            raise InvalidDataError("point coordinates must be monomials")
    v = tuple(xj.val() for xj in x)
    trop = tropicalize(f)
    least, witnesses = trop._least(v)
    cutoff = least if cutoff is None else Fraction(cutoff)
    if cutoff < least:
        raise CutoffBelowMinimumError(f"cutoff {cutoff} below minimal valuation {least}")

    # v = V / q; each term's D q val(a_u x^u) is an integer, so floor the cutoff
    q, V = _over_common_denominator(v)
    X = tuple(_mono(xj, q) for xj in x)
    terms = [u for u, _ in _terms_below(trop, q, V, floor(cutoff * trop._kernel.D * q))]
    # a_u x^u, with x^u one monomial; all terms canonicalized once
    products = (f.coefficient(u)._shifted(*_term(q, _fold(zip(X, u)))) for u in terms)
    return PartialSum(
        value=PuiseuxNumber(tuple(chain.from_iterable(p.terms for p in products))),
        terms=len(terms),
        trop_value=least,
        dominant_unique=len(witnesses) == 1,
    )


@dataclass(frozen=True)
class NARationalFunction:
    """h = f1 / f2 for two thetas with the same period and cocycle; its
    tropicalization h_trop = f1_trop - f2_trop descends to the torus."""

    numerator: NAThetaFunction
    denominator: NAThetaFunction

    @cached_property
    def h_trop(self):
        expr = TropicalThetaExpression(
            terms=(
                (1, tuple(Fraction(0) for _ in range(self.numerator.g)), tropicalize(self.numerator)),
                (-1, tuple(Fraction(0) for _ in range(self.numerator.g)), tropicalize(self.denominator)),
            )
        )
        return difference_to_periodic(expr)

    def val_at(self, x: Sequence[PuiseuxNumber]) -> tuple[Fraction, bool]:
        """val f1(x) - val f2(x) from exact partial sums at the minimal
        cutoff; the bool reports whether both dominant terms were unique
        (only then is the value certified equal to h_trop(trop x))."""
        s1 = evaluate_at_point(self.numerator, x)
        s2 = evaluate_at_point(self.denominator, x)
        ok = s1.dominant_unique and s2.dominant_unique
        return s1.value.val() - s2.value.val(), ok


def construct_rational_function(
    f1: NAThetaFunction, f2: NAThetaFunction
) -> NARationalFunction:
    """Pair two thetas of the same (period, lambda, c) into a rational
    function on the torus; exact cocycle equality is a precondition."""
    if f1.cocycle.period != f2.cocycle.period:
        raise CocycleMismatchError("period matrices differ")
    if f1.cocycle != f2.cocycle:
        raise CocycleMismatchError("cocycles differ")
    if all(a.is_zero() for _, a in f2.coeffs):
        raise ZeroDenominatorError("denominator theta is identically zero")
    h = NARationalFunction(numerator=f1, denominator=f2)
    h.h_trop  # force the descent check now: NonzeroAutomorphyError if broken
    return h
