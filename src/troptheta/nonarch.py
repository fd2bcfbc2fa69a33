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
integer bilinear or quadratic form over one denominator, so each cocycle is
compiled once, on first use, into one integer kernel over a common exponent
denominator D (`_Kernel`): the exponent forms D P, D val c and D P Lambda,
and the few period, generator and pair coefficients that are not 1.
t(n, u) c(n) has exponent n^T (D P) u + <D val c, n> + sum_i Q_ii n_i (n_i -
1)/2 + sum_{i<j} Q_ij n_i n_j over D, Q = D P Lambda, and a coefficient
folded from the non-unit factors alone.  `t`, `t_lambda`, `value` and the
extension rule behind `coefficient` read that kernel, with one exponent
Fraction and one coefficient Fraction at the end, handed to puiseux's
trusted constructor (a monomial, or a series times a nonzero monomial, is
canonical as it stands).  Partial sums form x^u the same way and
canonicalize all their terms once.  Both identity checks compare the
kernel's integer triples (exponent, numerator, denominator), through
theta's one check loop, and form the exact Puiseux sides only for a failing
case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import floor, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .geometry import _terms_below
from .lattice import CosetLattice, NotPositiveDefiniteError, _gso, _over_common_denominator
from .linalg import (
    IntRows,
    IntVec,
    RatMatrix,
    ShapeMismatchError,
    _as_fraction,
    _as_int,
    det,
    identity,
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
)
from .puiseux import PuiseuxNumber, Term
from .theta import (
    AutomorphyFactor,
    CheckReport,
    NotPrincipalError,
    TropicalThetaExpression,
    TropicalThetaFunction,
    ValuationProfile,
    _check_samples,
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


def _times(*ms: Mono) -> Mono:
    """The product of monomials over one D."""
    exp, num, den = 0, 1, 1
    for e, a, b in ms:
        exp, num, den = exp + e, num * a, den * b
    return exp, num, den


def _same(x: Mono, y: Mono) -> bool:
    """x and y are one monomial: equal exponents and equal coefficients."""
    return x[0] == y[0] and x[1] * y[2] == y[1] * x[2]


def _term(D: int, m: Mono) -> Term:
    return Fraction(m[0], D), Fraction(m[1], m[2])


def _reduced(m: Mono) -> Mono:
    c = Fraction(m[1], m[2])
    return m[0], c.numerator, c.denominator


def _monomial(D: int, m: Mono) -> PuiseuxNumber:
    return PuiseuxNumber._trusted((_term(D, m),))


def _pairing(rows: IntRows, coeffs, a: IntVec, b: IntVec) -> Mono:
    """prod_{i,j} M_ij^(a_i b_j) for the monomials M_ij with exponents rows
    and with the coefficients coeffs that are not 1: exponent a^T rows b."""
    e = sum(ai * sum(map(mul, row, b)) for ai, row in zip(a, rows) if ai)
    if not coeffs:
        return e, 1, 1
    _, num, den = _fold((m, a[i] * b[j]) for i, j, m in coeffs)
    return e, num, den


def _period_entry(e, name: str) -> PuiseuxNumber:
    """e, checked to be a monomial c q^r with c > 0."""
    if not isinstance(e, PuiseuxNumber) or not e.is_monomial():
        raise InvalidDataError(f"{name} entry must be a monomial: {e}")
    if e.leading_coefficient() <= 0:
        raise InvalidDataError(f"{name} entry must have positive coefficient: {e}")
    return e


def _literal(x, name: str) -> PuiseuxNumber:
    """A Puiseux literal from JSON: a string, or an integer constant."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise TypeError(f"{name}: Puiseux literal required, got {type(x).__name__}: {x!r}")
    return PuiseuxNumber.parse(str(x))


class _Kernel(NamedTuple):
    """The extension rule of one cocycle in integers over one exponent
    denominator D.  Exponents: P = D val T_ij (the entries of D P), c =
    D val c(e'_i) and Q = D val t(e'_i, lambda(e'_j)) (the entries of
    D P Lambda).  Coefficients: only the factors whose coefficient is not 1,
    as (i, j, (0, num, den)) for T and for Q (reduced) and (i, (0, num, den))
    for c; a unit coefficient adds nothing to a fold.  Every method returns
    one monomial (exponent over D, numerator, denominator)."""

    D: int
    P: IntRows
    c: IntVec
    Q: IntRows
    T_coeffs: tuple[tuple[int, int, Mono], ...]
    c_coeffs: tuple[tuple[int, Mono], ...]
    Q_coeffs: tuple[tuple[int, int, Mono], ...]

    @classmethod
    def of(cls, entries, Lambda: IntRows, generators) -> "_Kernel":
        """The kernel of (T, Lambda, c); Q_ij = prod_k T_ik^(Lambda_kj),
        since lambda(e'_j) is column j."""
        D = lcm(*(m.val().denominator for m in chain(chain.from_iterable(entries), generators)))
        T = [[_mono(e, D) for e in row] for row in entries]
        G = [_mono(c, D) for c in generators]
        Q = [[_reduced(_fold(zip(row, col))) for col in transpose(Lambda)] for row in T]

        def exponents(rows):
            return tuple(tuple(e for e, _, _ in row) for row in rows)

        def coeffs(rows):
            return tuple((i, j, (0, a, b)) for i, row in enumerate(rows) for j, (_, a, b) in enumerate(row) if a != b)

        c_coeffs = tuple((i, (0, a, b)) for i, (_, a, b) in enumerate(G) if a != b)
        return cls(D, exponents(T), tuple(e for e, _, _ in G), exponents(Q), coeffs(T), c_coeffs, coeffs(Q))

    def pair(self, n: IntVec, u: IntVec) -> Mono:
        """t(n, u) = prod_{i,j} T_ij^(n_i u_j): exponent n^T (D P) u."""
        return _pairing(self.P, self.T_coeffs, n, u)

    def value(self, n: IntVec) -> Mono:
        """c(n) = prod_i c(e'_i)^(n_i) Q_ii^(n_i (n_i - 1)/2) prod_{i<j}
        Q_ij^(n_i n_j), Q_ij = t(e'_i, lambda(e'_j))."""
        e = 0
        for i, ni in enumerate(n):
            if ni:
                row = self.Q[i]
                e += ni * self.c[i] + ni * (ni - 1) // 2 * row[i] + ni * sum(map(mul, row[i + 1 :], n[i + 1 :]))
        if not (self.c_coeffs or self.Q_coeffs):
            return e, 1, 1
        powers = ((m, n[i] * (n[i] - 1) // 2 if i == j else n[i] * n[j]) for i, j, m in self.Q_coeffs if i <= j)
        _, a, b = _fold(chain(((m, n[i]) for i, m in self.c_coeffs), powers))
        return e, a, b

    def t_lambda(self, n1: IntVec, n2: IntVec) -> Mono:
        """t(n1, lambda(n2)) = prod_{i,j} Q_ij^(n1_i n2_j): exponent
        n1^T (D P Lambda) n2."""
        return _pairing(self.Q, self.Q_coeffs, n1, n2)

    def extension(self, n: IntVec, u: IntVec) -> Mono:
        """t(n, u) c(n), the factor with a_{u + lambda(n)} = t(n, u) c(n) a_u."""
        e, a, b = self.pair(n, u)
        f, c, d = self.value(n)
        return e + f, a * c, b * d


@dataclass(frozen=True)
class PeriodMatrix:
    """Multiplicative periods: a g x g matrix of monomials c*q^r with c > 0.

    The exponent matrix (r_ij) is the tropical pairing P and must be
    nondegenerate.
    """

    entries: tuple[tuple[PuiseuxNumber, ...], ...]

    def __post_init__(self):
        # square of its own size, and at least 1 x 1
        rows = square_rows(self.entries, len(self.entries) or 1, "period matrix", _period_entry)
        object.__setattr__(self, "entries", rows)
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
    def _kernel(self) -> _Kernel:
        """The kernel of the trivial cocycle (lambda = 0, c = 1), whose pair
        is t."""
        zero = ((0,) * self.g,) * self.g
        return _Kernel.of(self.entries, zero, (PuiseuxNumber.one(),) * self.g)

    def t(self, nprime: Sequence[int], u: Sequence[int]) -> PuiseuxNumber:
        """t(u', u) = prod_{i,j} T[i][j]^(n'_i u_j), one monomial whose
        exponent is the bilinear form n'^T P u."""
        k = self._kernel
        return _monomial(k.D, k.pair(lattice_vector(nprime, self.g, "n'"), lattice_vector(u, self.g, "u")))

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
        g = self.period.g
        object.__setattr__(self, "Lambda", square_rows(self.Lambda, g, "Lambda", _as_int))
        if len(self.generators) != g:
            raise ShapeMismatchError("need one generator value per basis vector")
        for c in self.generators:
            if not isinstance(c, PuiseuxNumber) or not c.is_monomial():
                raise InvalidDataError(f"cocycle generator must be a monomial: {c}")
        # symmetry of t(e'_i, lambda(e'_j)) is what makes the extension a
        # genuine cocycle; check it exactly
        k = self._kernel
        coeffs = {(i, j): m for i, j, m in k.Q_coeffs}
        for i in range(g):
            for j in range(i):
                if k.Q[i][j] != k.Q[j][i] or coeffs.get((i, j)) != coeffs.get((j, i)):
                    raise InvalidDataError(
                        f"t(e'_{i}, lambda(e'_{j})) != t(e'_{j}, lambda(e'_{i}))"
                    )

    @property
    def g(self) -> int:
        return self.period.g

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel.of(self.period.entries, self.Lambda, self.generators)

    def lambda_is_zero(self) -> bool:
        return all(x == 0 for r in self.Lambda for x in r)

    def value(self, n: Sequence[int]) -> PuiseuxNumber:
        """c(n) = prod_i c(e'_i)^(n_i) t_ii^(n_i (n_i - 1)/2) prod_{i<j}
        t_ij^(n_i n_j), t_ij = t(e'_i, lambda(e'_j)), as one monomial."""
        return _monomial(self._kernel.D, self._kernel.value(lattice_vector(n, self.g, "n")))

    def _extension(self, n: IntVec, u: IntVec) -> Term:
        """t(n, u) c(n) as (exponent, coefficient), read off the kernel: the
        factor with a_{u + lambda(n)} = t(n, u) c(n) a_u."""
        return _term(self._kernel.D, self._kernel.extension(n, u))

    def t_lambda(self, n1: Sequence[int], n2: Sequence[int]) -> PuiseuxNumber:
        """t(u1', lambda(u2')) = prod_{i,j} t_ij^(n1_i n2_j)."""
        n1, n2 = lattice_vector(n1, self.g, "n1"), lattice_vector(n2, self.g, "n2")
        return _monomial(self._kernel.D, self._kernel.t_lambda(n1, n2))

    def to_json_list(self) -> list:
        return [str(c) for c in self.generators]


def verify_cocycle(cocycle: NACocycle, samples: int = 20, seed: int = 0) -> CheckReport:
    """Exact spot-check of c(u1+u2) = c(u1) c(u2) t(u1, lambda(u2)) on all
    generator pairs plus `samples` seeded random pairs with |n_i| <= 4: each
    side is one product of kernel monomials, compared as integer triples.  A
    failure carries the pair (n1, n2) as its point and shift, and
    value(n1 + n2) and value(n1) value(n2) t_lambda(n1, n2) as its sides."""
    g, rng, k = cocycle.g, random.Random(seed), cocycle._kernel
    cases = [(e, identity(g)) for e in identity(g)]
    for _ in range(samples):
        n1, n2 = (tuple(rng.randint(-4, 4) for _ in range(g)) for _ in range(2))
        cases.append((n1, (n2,)))

    def differ(n1, n2):
        total = tuple(map(add, n1, n2))
        if not _same(k.value(total), _times(k.value(n1), k.value(n2), k.t_lambda(n1, n2))):
            return cocycle.value(total), cocycle.value(n1) * cocycle.value(n2) * cocycle.t_lambda(n1, n2)

    return _check_samples(cases, lambda n1: lambda n2: differ(n1, n2))


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
            rep = lattice_vector(rep, g, "coefficient rep")
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

    @cached_property
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
        g, cocycle = self.g, self.cocycle
        P = cocycle.period.exponent_rows()
        base = TropicalPolarizationData(g=g, P=P, Lambda=cocycle.Lambda if int_det(cocycle.Lambda) else identity(g))
        # val(c) less the quadratic's diagonal; B = 0 when lambda = 0
        B = matmul(P, cocycle.Lambda)
        ell = tuple(c.val() - Fraction(1, 2) * B[i][i] for i, c in enumerate(cocycle.generators))
        zero = cocycle.lambda_is_zero()
        if zero and any(ell):
            raise InvalidDataError("lambda = 0 tropicalization needs a valuation-trivial cocycle")
        entries = tuple((rep, a.val()) for rep, a in self.coeffs if not (zero and a.is_zero()))
        factor = AutomorphyFactor(Lambda=cocycle.Lambda, ell=ell)
        return TropicalThetaFunction(base=base, factor=factor, profile=ValuationProfile(entries=entries))

    def coefficient(self, u: Sequence[int]) -> PuiseuxNumber:
        """a_u, from the stored coset data via the extension rule."""
        return self._coefficient(lattice_vector(u, self.g, "u"))

    def _coefficient(self, u: IntVec) -> PuiseuxNumber:
        """a_u for a parsed u, memoized."""
        table = self._table
        if u in table:
            return table[u]
        if self._cosets is None:
            return PuiseuxNumber.zero()
        rep, n = self._cosets._decompose(u)
        a = table[rep]
        if not a.is_zero():
            a = a._shifted(*self.cocycle._extension(n, rep))
        table[u] = a
        return a

    def verify_invariance(self, samples: int = 20, seed: int = 0) -> CheckReport:
        """Exact check of a_{u + lambda(u')} = t(u', u) c(u') a_u at the
        stored coset reps and seeded random u, never at the coefficient cache
        that earlier calls grew.  For u = rep + lambda(n), a_u = a_rep m(n,
        rep) with m(n, rep) the kernel's t(n, rep) c(n), so the identity is
        m(n + n', rep) = m(n, rep) t(n', u) c(n') in integer triples (at
        lambda = 0, u + lambda(u') = u and m is 1).  The table is read once
        per index: where it holds an entry other than a_rep m, both sides are
        read through `coefficient` and compared exactly.  A failure carries
        u, u' and the exact a_{u + lambda(u')} and t(u', u) c(u') a_u."""
        rng = random.Random(seed)
        g, cocycle = self.g, self.cocycle
        indices = [rep for rep, _ in self.coeffs]
        for _ in range(samples):
            indices.append(tuple(rng.randint(-4, 4) for _ in range(g)))
        shifts = [tuple(rng.randint(-2, 2) for _ in range(g)) for _ in range(5)]
        shifts = [s for s in shifts if any(s)] or [tuple(1 for _ in range(g))]
        lam = {nprime: matvec(cocycle.Lambda, nprime) for nprime in shifts}
        k, table, cosets = cocycle._kernel, self._table, self._cosets

        def held(w, rep, n):
            """Whether the table holds nothing at w = rep + lambda(n) but what
            the extension rule gives."""
            if w not in table or w == rep:
                return True
            a = table[rep]
            return table[w] == (a if a.is_zero() else a._shifted(*_term(k.D, k.extension(n, rep))))

        def sides(u):
            rep, n = cosets._decompose(u) if cosets else (u, (0,) * g)
            live = not table.get(rep, PuiseuxNumber.zero()).is_zero()
            m_u = k.extension(n, rep) if live else None
            u_held = held(u, rep, n)

            def differ(nprime):
                v = tuple(map(add, u, lam[nprime]))
                n_v = tuple(map(add, n, nprime)) if cosets else n
                if u_held and held(v, rep, n_v):
                    # a zero coset holds 0 = 0 without forming t(u', u) c(u')
                    if not live or _same(k.extension(n_v, rep), _times(m_u, k.extension(nprime, u))):
                        return None
                elif self._coefficient(v) == self._coefficient(u)._shifted(*_term(k.D, k.extension(nprime, u))):
                    return None
                return self._coefficient(v), cocycle.period.t(nprime, u) * cocycle.value(nprime) * self._coefficient(u)

            return differ

        return _check_samples(((u, shifts) for u in indices), sides)

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
            generators = tuple(_literal(c, "c") for c in json_list(data["c"], "c"))
            cocycle = NACocycle(period=period, Lambda=data["Lambda"], generators=generators)
            coeffs = []
            for e in json_list(data["coeffs"], "coeffs"):
                if not isinstance(e, dict) or not {"rep", "a"} <= e.keys():
                    raise TypeError(f'each entry of coeffs needs "rep" and "a", got {e!r}')
                coeffs.append((int_vector_from(e["rep"], "rep"), _literal(e["a"], "a")))
        except TypeError as exc:
            raise InvalidDataError(str(exc)) from exc
        return cls(cocycle=cocycle, coeffs=tuple(coeffs))


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


def _diagonal_pairs(period: PeriodMatrix, Lambda: IntRows) -> Iterable[PuiseuxNumber]:
    """The pair values t(e'_i, lambda(e'_i)), generator by generator."""
    for e, col in zip(identity(period.g), transpose(Lambda)):
        yield period.t(e, col)


def build_riemann_theta(period: PeriodMatrix, Lambda) -> NAThetaFunction:
    """The symmetric-normalized Riemann theta for a principal polarization:
    c(e'_i) = sqrt(t(e'_i, lambda(e'_i))) (square roots chosen on generator
    pairs, extended bilinearly), coefficients generated from a_0 = 1."""
    Lambda = square_rows(Lambda, period.g, "Lambda", _as_int)
    if abs(int_det(Lambda)) != 1:
        raise NotPrincipalError("build_riemann_theta needs |det Lambda| = 1")
    # CoefficientNotASquareError if a pair value is not a square
    gens = tuple(t_ii.sqrt_monomial() for t_ii in _diagonal_pairs(period, Lambda))
    cocycle = NACocycle(period=period, Lambda=Lambda, generators=gens)
    _require_ample(cocycle)
    return NAThetaFunction(cocycle=cocycle, coeffs=(((0,) * period.g, PuiseuxNumber.one()),))


def canonical_cocycle(period: PeriodMatrix, Lambda) -> NACocycle:
    """Square-root-normalized cocycle when the diagonal pair values are
    squares, otherwise generator values 1."""
    Lambda = square_rows(Lambda, period.g, "Lambda", _as_int)
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
    (1/2) n^T (P Lambda) n.  Built once per series, by NAThetaFunction._trop;
    its values sit in one table (TropicalThetaFunction._coset_constants),
    per coset rep, or per support point when lambda = 0."""
    return f._trop


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
    for xj in x:
        if not isinstance(xj, PuiseuxNumber) or xj.is_zero():
            raise ZeroCoordinateError("point coordinates must be nonzero")
        if not xj.is_monomial():
            raise InvalidDataError("point coordinates must be monomials")
    # v = trop(x) = V / q; each term's D q val(a_u x^u) is an integer, so the cutoff is floored
    q, V = _over_common_denominator(point([xj.val() for xj in x], f.g, "x"))
    trop = tropicalize(f)
    least, witnesses = trop._least(q, V)
    cutoff = least if cutoff is None else _as_fraction(cutoff, "cutoff")
    if cutoff < least:
        raise CutoffBelowMinimumError(f"cutoff {cutoff} below minimal valuation {least}")

    X = tuple(_mono(xj, q) for xj in x)
    terms = [u for u, _ in _terms_below(trop, q, V, floor(cutoff * trop._kernel.D * q))]
    # a_u x^u, with x^u one monomial; all terms canonicalized once
    products = (f._coefficient(u)._shifted(*_term(q, _fold(zip(X, u)))) for u in terms)
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
        zero = (0,) * self.numerator.g
        terms = ((1, zero, tropicalize(self.numerator)), (-1, zero, tropicalize(self.denominator)))
        return difference_to_periodic(TropicalThetaExpression(terms))

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
