"""Localization series: coefficients, difference equation, stabilization."""

from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.laumon import (
    C_theta,
    J_infinity,
    J_series,
    an_summation_check,
    lau_vars,
    local_character,
    substitution_check,
    verify_difference_equation,
    verify_local_limit,
)
from maclab.tableaux import ThetaMatrix


def mono(vars, **kw):
    e = [0] * len(vars)
    for k, v in kw.items():
        e[vars.index(k)] = v
    return LaurentPolynomial.monomial(vars, e)


def test_C_trivial():
    assert C_theta(ThetaMatrix(2), 2).is_one()
    assert C_theta(ThetaMatrix(3), 3).is_one()


def test_C_single_box_examples():
    v = lau_vars(2)
    one = LaurentPolynomial.one(v)
    expected = FactoredRational(v, 1, None, [
        (one - mono(v, q=1, t=1), 1), (one - mono(v, q=1, t=1, z2=1, z1=-1), 1),
        (one - mono(v, q=1), -1), (one - mono(v, q=1, z2=1, z1=-1), -1),
    ])
    assert rational_eq(C_theta(ThetaMatrix(2, {(1, 2): 1}), 2), expected)

    v3 = lau_vars(3)
    one3 = LaurentPolynomial.one(v3)
    expected23 = FactoredRational(v3, 1, None, [
        (one3 - mono(v3, q=1, t=1), 1), (one3 - mono(v3, q=1, t=1, z3=1, z2=-1), 1),
        (one3 - mono(v3, q=1), -1), (one3 - mono(v3, q=1, z3=1, z2=-1), -1),
    ])
    assert rational_eq(C_theta(ThetaMatrix(3, {(2, 3): 1}), 3), expected23)


def test_J_series_coefficients():
    J = J_series(2, 2)
    assert J.coeffs[(0,)].is_one()
    assert rational_eq(J.coeffs[(1,)], C_theta(ThetaMatrix(2, {(1, 2): 1}), 2))
    J3 = J_series(3, 2)
    total = C_theta(ThetaMatrix(3, {(1, 3): 1}), 3) \
        + C_theta(ThetaMatrix(3, {(1, 2): 1, (2, 3): 1}), 3)
    assert rational_eq(J3.coeffs[(1, 1)], total)


def test_difference_equation():
    for (n, d) in [(2, 3), (3, 2), (3, 3)]:
        residual = verify_difference_equation(n, d)
        assert not residual.coeffs, (n, d, residual)


def test_substitution_dictionary():
    for (n, d) in [(2, 3), (3, 2)]:
        assert substitution_check(n, d) == [], (n, d)


def test_J_infinity_low_order():
    s = J_infinity(2, 0)
    assert {k: p.constant_coef() for k, p in s.coeffs.items()} == {(0, 0): 1}
    s1 = J_infinity(2, 1)
    # order 1: 1 + q (1 + z2/z1); the qt-terms start at order 2
    v = s1.coeff_vars
    assert s1.coeffs[(0, 0)] == LaurentPolynomial.one(v)
    assert s1.coeffs[(1, 0)] == LaurentPolynomial(v, {(0, 0): 1, (-1, 1): 1})


def test_J_infinity_of_rank_one_is_one():
    # its symbols enter with multiplicity N - 1 = 0, which leaves a ledger as it is
    for order in range(3):
        assert J_infinity(1, order).is_one()


def test_local_character_is_polynomial_in_z():
    # individual fixed points have z-poles; the sum must not
    s = local_character(3, (1, 1), 2)
    for p in s.coeffs.values():
        assert p.terms is not None


def test_stabilization_to_infinite_product():
    for n in (2, 3):
        assert verify_local_limit(n, 2) == (True, []), n


def test_short_schedule_is_reported_unstable():
    # degrees (1) and (2) still differ at order 2: the report must say so
    # and carry a witness rather than passing
    stabilized, diff = verify_local_limit(2, 2, schedule=[(1,), (2,)])
    assert not stabilized
    assert diff


def test_only_the_last_two_schedule_points_are_evaluated(monkeypatch):
    import maclab.laumon

    seen = []
    real = maclab.laumon.local_character

    def spy(n, alpha, order):
        seen.append(tuple(alpha))
        return real(n, alpha, order)

    monkeypatch.setattr(maclab.laumon, "local_character", spy)
    schedule = [(1,), (2,), (3,), (4,)]
    assert verify_local_limit(2, 2, schedule=schedule) == (True, [])
    assert seen == [(3,), (4,)]


def test_a_schedule_of_fewer_than_two_points_raises():
    import pytest

    for schedule in ([], [(1,)]):
        with pytest.raises(ValueError, match="at least two points"):
            verify_local_limit(2, 2, schedule=schedule)


def test_an_summation_low_rank():
    assert an_summation_check(1, 3) == []
    assert an_summation_check(2, 2) == []
    assert an_summation_check(1, 0) == []


def test_an_unstable_lattice_radius_carries_a_witness():
    # radius 1 is too small at these orders: the sums at radii 1 and 2
    # differ, and their coefficient differences are the witness
    for rank, order in [(1, 3), (2, 2)]:
        diff = an_summation_check(rank, order, radius=1)
        assert isinstance(diff, list) and diff, (rank, order)
        assert all(w["left"] != w["right"] for w in diff)


def test_J_infinity_rank_three_t_series():
    # the extra factor (q t^2;q)_inf/(t;q)_inf contributes the geometric
    # t-series 1/(1-t): pure t-coefficients are all 1
    s = J_infinity(3, 2)
    for b in (1, 2):
        assert s.coeffs[(0, b)].is_one()


def test_expand_sum_reports_uncancelled_poles():
    import pytest
    from maclab.algebra import FactoredRational, LaurentPolynomial
    from maclab.series import NonPolynomialCoefficient, expand_sum

    v = lau_vars(2)
    one = LaurentPolynomial.one(v)
    zr = LaurentPolynomial.monomial(v, (0, 0, 1, -1))
    lone = FactoredRational(v, 1, None, [(one - zr, -1)])
    with pytest.raises(NonPolynomialCoefficient):
        expand_sum([lone], 1)
