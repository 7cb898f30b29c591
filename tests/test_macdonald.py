"""Macdonald polynomials: tableau sum, difference operator, oracle, Pieri."""

import re

import pytest

from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.euler import GLWeight, _zsum, glob_vars, macdonald_in_z
from maclab.macdonald import (
    DenominatorSurvives,
    apply_D1N,
    eigenvalue,
    mac_vars,
    macdonald_P,
    macdonald_P_oracle,
    monomial_symmetric,
    pieri_L,
    psi_T,
)
from maclab.tableaux import (
    ThetaMatrix,
    dominates,
    enumerate_pol_lambda,
    partitions_upto,
)

QS = ("q", "s")
ONE = LaurentPolynomial.one(QS)
Q = LaurentPolynomial.var(QS, "q")
S = LaurentPolynomial.var(QS, "s")


def test_monomial_symmetric_examples():
    m1 = monomial_symmetric((1,), 2)
    v = mac_vars(2)
    assert m1 == LaurentPolynomial(v, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
    m11 = monomial_symmetric((1, 1), 2)
    assert m11 == LaurentPolynomial(v, {(0, 0, 1, 1): 1})
    assert len(monomial_symmetric((2, 1), 3).terms) == 6


def test_psi_trivial_cases():
    assert psi_T(ThetaMatrix(2), (2,)).is_one()
    # single-box shapes always carry coefficient 1
    for n in (2, 3):
        for th in enumerate_pol_lambda((1,), n):
            assert rational_eq(psi_T(th, (1,)), FactoredRational.one(QS))


def test_psi_row_two_value():
    # coefficient of m_(1,1) in P_(2): (1+q)(1-s)/(1-qs)
    psi = psi_T(ThetaMatrix(2, {(1, 2): 1}), (2,))
    expected = FactoredRational(QS, 1, None,
                                [(ONE + Q, 1), (ONE - S, 1), (ONE - Q * S, -1)])
    assert rational_eq(psi, expected)


def test_macdonald_P_small():
    P1 = macdonald_P((1,), 3)
    assert set(P1.mcoeffs) == {(1,)}
    assert P1.coefficient((1,)).is_one()
    P11 = macdonald_P((1, 1), 2)
    assert set(P11.mcoeffs) == {(1, 1)}
    P2 = macdonald_P((2,), 2)
    assert rational_eq(
        P2.coefficient((1, 1)),
        FactoredRational(QS, 1, None, [(ONE + Q, 1), (ONE - S, 1), (ONE - Q * S, -1)]))


def test_apply_D1N_examples():
    v = mac_vars(2)
    one = LaurentPolynomial.one(v)
    s = LaurentPolynomial.var(v, "s")
    q = LaurentPolynomial.var(v, "q")
    y1 = LaurentPolynomial.var(v, "y1")
    y2 = LaurentPolynomial.var(v, "y2")
    assert apply_D1N(one, 2) == one + s
    assert apply_D1N(y1 + y2, 2) == (one + q * s) * (y1 + y2)
    assert apply_D1N(y1 * y2, 2) == q * (one + s) * y1 * y2


def test_apply_D1N_rejects_asymmetric():
    v = mac_vars(2)
    y1 = LaurentPolynomial.var(v, "y1")
    with pytest.raises(DenominatorSurvives):
        apply_D1N(y1, 2)


@pytest.mark.parametrize("exps, pair", [
    ((2, 1, 0), "(y1 - y2)"),
    # symmetric in y1, y2: (y1 - y2) divides, the remainder shows at (y1 - y3)
    ((1, 1, 0), "(y1 - y3)"),
])
def test_apply_D1N_rejects_asymmetric_on_long_chains(exps, pair):
    # at n = 3 the Vandermonde divisions walk chains of several steps
    v = mac_vars(3)
    f = LaurentPolynomial.monomial(v, (0, 0) + exps)
    with pytest.raises(DenominatorSurvives, match=re.escape(pair)):
        apply_D1N(f, 3)


def test_eigen_identity_small():
    for (lam, n) in [((1,), 2), ((2,), 2), ((2, 1), 3), ((1, 1, 1), 3)]:
        P = macdonald_P(lam, n)
        poly, _den = P.clear_denominators()
        ev = eigenvalue(lam, n).transform(mac_vars(n), {})
        assert apply_D1N(poly, n) == ev * poly, (lam, n)


def test_oracle_equals_tableau_sum_small():
    for (lam, n) in [((2,), 2), ((2, 1), 3), ((3, 1), 3), ((2, 2), 4)]:
        assert macdonald_P(lam, n).equals(macdonald_P_oracle(lam, n)), (lam, n)


def test_symmetry_of_tableau_sum():
    # the full y-polynomial is invariant under every transposition
    for (lam, n) in [((2, 1), 3), ((3,), 2)]:
        P = macdonald_P(lam, n)
        poly, _den = P.clear_denominators()
        v = mac_vars(n)
        for k in range(1, n):
            swapped = poly.transform(v, {
                f"y{k}": (1, tuple(1 if x == v.index(f"y{k+1}") else 0 for x in range(len(v)))),
                f"y{k+1}": (1, tuple(1 if x == v.index(f"y{k}") else 0 for x in range(len(v)))),
            })
            assert swapped == poly, (lam, n, k)


def test_unitriangularity():
    for n in range(1, 4):
        for lam in partitions_upto(4, n):
            P = macdonald_P(lam, n)
            assert P.coefficient(lam).is_one()
            for mu in P.mcoeffs:
                assert dominates(lam, mu), (lam, mu)


def test_pieri_identity_rank_two():
    # sum_r L_r(w) P_{T_r w} = (z_1 + z_2) P_w on the SL torus
    n = 2
    vars = glob_vars(n)
    for lv in [(0,), (1,), (2,)]:
        w = GLWeight(lv)
        lhs = FactoredRational.zero(vars)
        for r in (1, 2):
            sh = w.shifted(r)
            if not sh.is_dominant():
                continue
            L = pieri_L(lv, r, n).transform(vars, {})
            lhs = lhs + L * macdonald_in_z(sh)
        assert rational_eq(lhs, _zsum(n) * macdonald_in_z(w)), lv


def test_pieri_edge_values():
    # adding to the top row always carries coefficient 1
    assert pieri_L((1,), 2, 2).is_one()
    assert pieri_L((1, 0), 3, 3).is_one()
    # blocked shifts vanish through the (1 - q^{l_r}) factor
    qt = ("q", "t")
    blocked = pieri_L((0,), 1, 2)
    assert rational_eq(blocked, FactoredRational.zero(qt))
