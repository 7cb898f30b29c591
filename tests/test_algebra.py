"""Core exact-arithmetic layer: polynomials, factored rationals, expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclab.algebra import (
    DenominatorNotUnit,
    ExactDivisionError,
    FactoredRational,
    LaurentPolynomial,
    rational_eq,
)
from maclab.series import expand, expand_split

V = ("q", "t")
ONE = LaurentPolynomial.one(V)
Q = LaurentPolynomial.var(V, "q")
T = LaurentPolynomial.var(V, "t")


def frac(num, den=()):
    return FactoredRational(V, 1, None,
                            [(p, 1) for p in num] + [(p, -1) for p in den])


# -- polynomial ring ------------------------------------------------------------

small_polys = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-4, 4)),
    max_size=5,
).map(lambda ts: LaurentPolynomial(V, {(a, b): c for a, b, c in ts}))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_evaluation_is_ring_hom(a, b):
    pt = {"q": Fraction(2, 3), "t": Fraction(5, 7)}
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_no_zero_terms_stored():
    p = Q - Q
    assert p.is_zero()
    assert p.terms == {}


def test_division_exact_and_laurent():
    assert (ONE - Q * Q).divide_exact(ONE - Q) == ONE + Q
    lhs = LaurentPolynomial.monomial(V, (-2, 0), 1)
    a = ONE - lhs            # 1 - q^-2
    b = ONE - LaurentPolynomial.monomial(V, (-1, 0))
    q = a.divide_exact(b)    # 1 + q^-1
    assert q == ONE + LaurentPolynomial.monomial(V, (-1, 0))
    with pytest.raises(ExactDivisionError):
        (ONE - Q * T).divide_exact(ONE - Q)


def test_substitution_monomial():
    p = ONE - Q * T
    # t -> q t: exponent bookkeeping
    out = p.substitute("t", 1, (1, 1))
    assert out == ONE - LaurentPolynomial.monomial(V, (2, 1))


def test_canonical_serialization_round_trip():
    poly = (ONE - Q) * (ONE + T) * (ONE + Q * T)
    obj = poly.to_json_obj()
    assert LaurentPolynomial.from_json_obj(obj) == poly
    exps = [tuple(t["exp"]) for t in obj["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))


# -- factored rationals ----------------------------------------------------------

def test_expand_geometric():
    s = expand(frac([], [ONE - T]), 3)
    assert [s.coeffs.get((0, b)).constant_coef() for b in range(4)] == [1, 1, 1, 1]


def test_expand_long_division():
    # (1-qt)/(1-q) = 1 + q - qt + q^2 + ... (hand long division)
    s = expand(frac([ONE - Q * T], [ONE - Q]), 2)
    expected = {(0, 0): 1, (1, 0): 1, (1, 1): -1, (2, 0): 1}
    got = {k: p.constant_coef() for k, p in s.coeffs.items()}
    assert got == expected


def test_expand_identity_cancellation():
    s = expand(frac([ONE - Q], [ONE - Q]), 3)
    assert {k: p.constant_coef() for k, p in s.coeffs.items()} == {(0, 0): 1}


def test_expand_rejects_coefficient_pole():
    W = ("q", "t", "z1", "z2")
    one = LaurentPolynomial.one(W)
    zratio = LaurentPolynomial.monomial(W, (0, 0, 1, -1))
    fr = FactoredRational(W, 1, None, [(one - zratio, -1)])
    with pytest.raises(DenominatorNotUnit):
        expand(fr, 2)
    rest, ser = expand_split(fr, 2)
    assert rest.factors  # the pole is preserved exactly


def test_rational_eq_examples():
    a = frac([ONE - Q * Q], [ONE - Q])
    assert rational_eq(a, FactoredRational.from_poly(ONE + Q))
    b = frac([ONE - Q * T], [ONE - Q])
    c = frac([ONE - Q * T], [ONE - T])
    assert not rational_eq(b, c)


def test_rational_eq_is_equivalence():
    fr_pool = [
        frac([ONE - Q * Q], [ONE - Q]),
        FactoredRational.from_poly(ONE + Q),
        frac([(ONE + Q) * (ONE - T)], [ONE - T]),
        frac([ONE - T], [ONE - Q]),
    ]
    for x in fr_pool:
        assert rational_eq(x, x)
    for x in fr_pool:
        for y in fr_pool:
            assert rational_eq(x, y) == rational_eq(y, x)
    # transitivity on the known-equal triple
    assert rational_eq(fr_pool[0], fr_pool[1])
    assert rational_eq(fr_pool[1], fr_pool[2])
    assert rational_eq(fr_pool[0], fr_pool[2])


def test_add_cancels_to_zero():
    a = frac([ONE - Q], [ONE - T])
    assert (a - a).is_zero()


def test_to_laurent_divides_out_denominator():
    fr = frac([ONE - Q * Q * T * T], [ONE - Q * T])
    assert fr.to_laurent() == ONE + Q * T


def test_expand_product_rule():
    # expand(a*b) == expand(a)*expand(b) below truncation
    a = frac([ONE - Q * T], [ONE - Q])
    b = frac([], [ONE - T])
    lhs = expand(a * b, 3)
    rhs = (expand(a, 3) * expand(b, 3)).truncate(3)
    assert lhs == rhs
