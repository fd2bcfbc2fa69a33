import random
from fractions import Fraction

import pytest

from troptheta.linalg import RatMatrix, ShapeMismatchError, matvec, solve, transpose
from troptheta.varieties import (
    InvalidDataError,
    TropicalPolarizationData,
    dual,
    embed_M_dual,
    embed_Mprime,
    polarization_map,
    reduce_mod_lattice,
    validate,
)

F = Fraction


def data_of(P, Lam):
    return TropicalPolarizationData(g=len(P), P=RatMatrix(P), Lambda=Lam)


G1 = data_of([[2]], [[1]])
G2 = data_of([[2, 1], [1, 2]], [[1, 0], [0, 1]])
G2_SKEW = data_of([[2, 1], [0, 2]], [[2, -1], [0, 2]])  # P asymmetric, beta = 4I


def test_validate_standard_fixtures():
    for data in (G1, G2):
        report = validate(data)
        assert report.ok
        assert report.principal
        assert report.index == 1

    report = validate(G2_SKEW)
    assert report.ok
    assert report.index == 4
    assert not report.principal


def test_validate_rejects_indefinite_beta():
    report = validate(data_of([[1, 2], [2, 1]], [[1, 0], [0, 1]]))
    assert report.beta_symmetric and not report.beta_positive_definite
    assert report.first_bad_pivot == 2
    assert not report.ok


def test_validate_rejects_asymmetric_beta():
    report = validate(data_of([[2, 1], [0, 2]], [[1, 0], [0, 1]]))
    assert not report.beta_symmetric
    assert not report.ok


def test_validate_degenerate_polarization():
    report = validate(data_of([[2, 0], [0, 2]], [[1, 0], [0, 0]]))
    assert report.index is None
    assert not report.ok


def test_embed_and_reduce_g1():
    assert embed_Mprime(G1, (1,)) == (F(2),)
    p = reduce_mod_lattice(G1, (F(5, 2),))
    assert p.rep == (F(1, 2),)
    assert p.shift == (1,)
    p = reduce_mod_lattice(G1, (F(-1, 2),))
    assert p.rep == (F(3, 2),)
    assert p.shift == (-1,)


def test_embed_and_reduce_g2():
    assert embed_Mprime(G2, (1, 0)) == (F(2), F(1))
    assert embed_Mprime(G2, (0, 1)) == (F(1), F(2))
    rng = random.Random(5)
    for _ in range(30):
        v = tuple(F(rng.randint(-40, 40), rng.choice([1, 2, 3, 5])) for _ in range(2))
        p = reduce_mod_lattice(G2, v)
        # rep + P^T shift reproduces the input exactly
        back = tuple(a + b for a, b in zip(p.rep, embed_Mprime(G2, p.shift)))
        assert back == v
        # rep has coefficients in [0, 1) w.r.t. the period basis
        t = solve(transpose(G2.P.entries), p.rep)
        assert all(0 <= c < 1 for c in t)


def test_reduce_is_idempotent():
    p = reduce_mod_lattice(G2, (F(7, 3), F(-5, 2)))
    again = reduce_mod_lattice(G2, p.rep)
    assert again.rep == p.rep
    assert again.shift == (0, 0)


def test_dual_principal_examples():
    d = dual(G1)
    assert d.P.entries == ((F(2),),)
    assert d.Lambda == ((1,),)
    assert dual(d) == G1

    diag = data_of([[2, 0], [0, 4]], [[1, 0], [0, 1]])
    dd = dual(diag)
    assert dd.P.entries == ((F(2), F(0)), (F(0), F(4)))
    assert validate(dd).ok
    assert dual(dd) == diag


def test_dual_transposes_pairing_and_stays_valid():
    d = dual(G2_SKEW)
    assert d.P.entries == transpose(G2_SKEW.P.entries)
    assert validate(d).ok
    # dual polarization is |det Lambda| * Lambda^{-1}
    assert d.Lambda == ((2, 1), (0, 2))


def test_polarization_map_descends():
    # worked example: images of v and v + (period) differ by an M-lattice vector
    a = polarization_map(G1, (F(0),))
    b = polarization_map(G1, (F(2),))
    assert a == (F(0),)
    assert b == (F(2),)
    assert b[0] - a[0] == embed_M_dual(G1, (1,))[0]

    rng = random.Random(6)
    for data in (G2, G2_SKEW):
        for _ in range(20):
            v = tuple(F(rng.randint(-9, 9), 2) for _ in range(2))
            n = tuple(rng.randint(-3, 3) for _ in range(2))
            lhs = polarization_map(data, tuple(a + b for a, b in zip(v, embed_Mprime(data, n))))
            rhs = polarization_map(data, v)
            diff = tuple(x - y for x, y in zip(lhs, rhs))
            m = tuple(matvec(data.Lambda, n))
            assert diff == embed_M_dual(data, m)


def test_json_roundtrip():
    for data in (G1, G2, G2_SKEW):
        assert TropicalPolarizationData.from_json_dict(data.to_json_dict()) == data
    with pytest.raises(InvalidDataError):
        TropicalPolarizationData.from_json_dict({"g": 1, "P": [["0.5"]], "Lambda": [[1]]})


def test_shape_mismatches():
    with pytest.raises(ShapeMismatchError):
        data_of([[2, 1], [1, 2]], [[1]])
    with pytest.raises(ShapeMismatchError):
        embed_Mprime(G2, (1,))
