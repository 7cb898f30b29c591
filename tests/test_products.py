"""The quotient and inverse of factored rationals and the coefficient
builders, against the chained ``*``/``/`` references of
``tests/coefficient_reference.py``; and the products of infinite
Pochhammer symbols filled into one ledger, against the series products of
the symbols expanded one by one (``tests/series_reference.py``)."""

import itertools

import pytest

from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.baker import ba_vars, c_N_closed, c_N_closed_alt, c_N_recursive
from maclab.checks import _printed_c2, _printed_c3
from maclab.euler import (
    GLWeight, _arc_prefactor, _weyl_factor, _weyl_group, chi_bQ_closed, frakD_K, glob_vars,
    hp_prefactor)
from maclab.laumon import C_theta, J_infinity, _lattice_points, _lattice_product, _lattice_term
from maclab.macdonald import pieri_L, psi_T
from maclab.tableaux import ThetaMatrix, enumerate_pol_lambda, partitions_upto, theta_upto_degree
import coefficient_reference as ref
import series_reference

V = ("q", "t")
ONE = LaurentPolynomial.one(V)
Q = LaurentPolynomial.var(V, "q")
T = LaurentPolynomial.var(V, "t")
A = FactoredRational(V, 2, (1, 0), [(ONE - Q, 1), (ONE + T, -1)])
B = FactoredRational(V, -3, (0, -2), [(ONE - Q * T, 2)])
C = FactoredRational(V, 1, (0, 1), [(ONE + T, 1), (ONE - Q, -2)])


def same(got, want):
    return got == want and rational_eq(got, want) and type(got.coef) is type(want.coef)


def chain(num, den=()):
    """prod(num) / prod(den) by the package's binary ``*`` and ``/``."""
    out = FactoredRational.one(V)
    for x in num:
        out = out * x
    for x in den:
        out = out / x
    return out


@pytest.mark.parametrize("num, den", [
    ([A, B], [C]), ([A], [B, C]), ([], [A]), ([A, B, C], []), ([B, B], [A, A]),
])
def test_product_equals_the_chain(num, den):
    # the package's quotient and inverse against the reference's ``div``
    assert same(chain(num, den), ref.product_reference(V, num, den))
    for x in den:
        assert same(x.inverse(), ref.div(FactoredRational.one(V), x))


def test_a_zero_operand_gives_zero():
    zero = FactoredRational.zero(V)
    got = chain([A, zero, B], [C])
    assert got.is_zero() and got == FactoredRational.zero(V)
    assert got == ref.product_reference(V, [A, zero, B], [C])
    assert same(zero / A, ref.div(zero, A))


def test_a_zero_divisor_raises_as_division_does():
    zero = FactoredRational.zero(V)
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    for x in (A, zero):
        with pytest.raises(ZeroDivisionError):
            ref.div(x, zero)
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_mixed_contexts_raise():
    other = FactoredRational.one(("q", "s"))
    with pytest.raises(ValueError):
        ref.div(A, other)
    with pytest.raises(ValueError):
        A / other
    with pytest.raises(ValueError):
        other / A


def test_a_cancelling_factor_pair_drops_out_of_the_map():
    got = (A * B) / A
    assert same(got, B)
    assert got._fmap.keys() == B._fmap.keys()
    for x in (A, B, C):
        assert (x / x).is_one()
    # (1 + t) is a denominator of A and a numerator of C
    assert (C / A.inverse()).factors == ((ONE - Q, -1),)


def test_integral_and_fractional_coefficients_keep_their_type():
    two = FactoredRational.monomial(V, (0, 0), 2)
    six = FactoredRational.monomial(V, (0, 0), 6)
    assert type((six / two).coef) is int
    assert same(six / two, ref.div(six, two))
    assert same(two / six, ref.div(two, six))
    assert same(two.inverse(), ref.div(FactoredRational.one(V), two))


def _thetas(n, max_entry):
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    for vals in itertools.product(range(max_entry + 1), repeat=len(pairs)):
        yield ThetaMatrix(n, dict(zip(pairs, vals)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_c_N_forms_equal_their_chains(n):
    for th in _thetas(n, 2):
        assert same(c_N_closed(th, n), ref.c_N_closed_reference(th, n)), th.entries
        assert same(c_N_closed_alt(th, n), ref.c_N_closed_alt_reference(th, n)), th.entries
        assert same(c_N_recursive(th, n), ref.c_N_recursive_reference(th, n)), th.entries


def test_psi_T_equals_its_chain_over_the_tableau_oracle_range():
    for n in range(1, 5):
        for lam in partitions_upto(5, n):
            for th in enumerate_pol_lambda(lam, n):
                assert same(psi_T(th, lam), ref.psi_T_reference(th, lam)), (lam, th.entries)


def test_C_theta_equals_its_chain():
    thetas = theta_upto_degree(3, 4)
    assert len(thetas) > 20
    for th in thetas:
        assert same(C_theta(th, 3), ref.C_theta_reference(th, 3)), th.entries


def test_c_N_closed_keeps_the_shared_context():
    # the builders pass ba_vars(n) itself, and the product keeps that tuple
    th = ThetaMatrix(3, {(1, 2): 1, (2, 3): 2})
    assert c_N_closed(th, 3).vars is ba_vars(3)


def _weights(max_n, max_sum):
    for n in range(1, max_n + 1):
        for lv in itertools.product(range(max_sum + 1), repeat=n - 1):
            if sum(lv) <= max_sum:
                yield GLWeight(lv)


def _weight_pairs():
    for w in _weights(4, 3):
        yield hp_prefactor(w), ref.hp_prefactor_reference(w), w.lvec
        for r in range(1, w.n + 1):
            yield frakD_K(w, r), ref.frakD_K_reference(w, r), (w.lvec, r)
            yield pieri_L(w.lvec, r, w.n), ref.pieri_L_reference(w.lvec, r, w.n), (w.lvec, r)


def _weyl_pairs():
    for n in range(1, 5):
        for w in _weyl_group(n):
            yield _weyl_factor(n, w), ref.weyl_factor_reference(n, w), w


def _printed_pairs():
    yield _printed_c2(ba_vars(2)).value(), ref.printed_c2_reference(), "c2"
    for ts in itertools.product(range(3), repeat=3):
        yield _printed_c3(ba_vars(3), *ts).value(), ref.printed_c3_reference(*ts), ts


def _lattice_pairs():
    for rank in (1, 2):
        vars = ("q", "t") + tuple(f"z{i}" for i in range(1, rank + 2))
        for chi in _lattice_points(rank + 1, 2):
            for order in range(4):
                yield (_lattice_term(vars, chi, order),
                       ref.lattice_term_reference(vars, chi, order), (chi, order))


def _arc_pairs():
    for n in (2, 3):
        for lv in [(0,) * (n - 1), (1,) + (0,) * (n - 2)]:
            for order in range(4):
                w = GLWeight(lv)
                yield _arc_prefactor(w, order), ref.arc_prefactor_reference(w, order), (lv, order)


def test_prefactors_over_the_sl_context_equal_their_re_embedding():
    # G_value, verify_cor_diff and check_pieri fill these ledgers over
    # glob_vars(n) directly; the values are those of the (q, t) forms
    # mapped there
    seen = 0
    for w in _weights(4, 3):
        vars = glob_vars(w.n)
        pairs = [(hp_prefactor(w, vars), hp_prefactor(w).transform(vars, {}))]
        pairs += [(frakD_K(w, r, vars), frakD_K(w, r).transform(vars, {}))
                  for r in range(1, w.n + 1)]
        pairs += [(pieri_L(w.lvec, r, w.n, vars), pieri_L(w.lvec, r, w.n).transform(vars, {}))
                  for r in range(1, w.n + 1)]
        for got, want in pairs:
            assert got == want, w.lvec
            assert got.canonical_str() == want.canonical_str(), w.lvec
            assert got.vars is vars
            seen += 1
    assert seen


@pytest.mark.parametrize("pairs", [_weight_pairs, _weyl_pairs, _printed_pairs,
                                   _lattice_pairs, _arc_pairs], ids=lambda f: f.__name__)
def test_ledger_builders_equal_their_factored_forms(pairs):
    # hp_prefactor, frakD_K, pieri_L, the Weyl factor, the printed c2 and
    # c3, an_summation_check's terms and chi_bQ_localization's prefactor
    # fill a ledger; their factored forms chain uncached symbols
    seen = 0
    for got, want, where in pairs():
        assert got == want, where
        assert got.canonical_str() == want.canonical_str(), where
        assert type(got.coef) is type(want.coef), where
        seen += 1
    assert seen


@pytest.mark.parametrize("order", range(4))
def test_infinite_products_equal_the_series_products(order):
    # J_infinity, the right side of the lattice identity and the closed
    # chi(bQ) against products of separately expanded symbols
    for n in (2, 3, 4):
        assert J_infinity(n, order) == series_reference.J_infinity(n, order), n
    for rank in (1, 2, 3):
        vars = ("q", "t") + tuple(f"z{i}" for i in range(1, rank + 2))
        assert (_lattice_product(vars, rank, order)
                == series_reference.lattice_right_side(rank, order)), rank
    for w in [w for w in _weights(4, 1) if w.n >= 2]:
        assert chi_bQ_closed(w, order) == series_reference.chi_bQ_closed(w, order), w.lvec
