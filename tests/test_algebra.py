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
from algebra_reference import evaluate, from_json_obj

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
    assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)
    assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)


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


def test_division_is_by_binomials_only():
    # no monomial shift and no long division: 0, 1 or 3 terms are refused
    # even where the quotient exists
    for divisor in (ONE - ONE, Q, ONE + Q + Q * Q):
        with pytest.raises(ValueError, match="not 2"):
            (divisor * (ONE + T)).divide_exact(divisor)


def test_substitution_monomial():
    p = ONE - Q * T
    # t -> q t: exponent bookkeeping
    out = p.transform(V, {"t": (1, (1, 1))})
    assert out == ONE - LaurentPolynomial.monomial(V, (2, 1))


def test_canonical_serialization_round_trip():
    poly = (ONE - Q) * (ONE + T) * (ONE + Q * T)
    obj = poly.to_json_obj()
    assert from_json_obj(obj) == poly
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


# -- substitution against the uncached reference ---------------------------------

V3 = ("q", "t", "z")


def transform_reference(fr, new_vars, mapping):
    """:meth:`FactoredRational.transform` through the constructor: every
    factor is mapped through :meth:`LaurentPolynomial.transform` and the
    constructor canonicalises the images again."""
    new_vars = tuple(new_vars)
    if fr.is_zero():
        return FactoredRational.zero(new_vars)
    unit = LaurentPolynomial.monomial(fr.vars, fr.exps, fr.coef).transform(new_vars, mapping)
    (e, c), = unit.terms.items()
    factors = []
    for p, m in fr.factors:
        image = p.transform(new_vars, mapping)
        if image.is_zero():
            if m < 0:
                raise ZeroDivisionError("denominator factor vanished under substitution")
            return FactoredRational.zero(new_vars)
        factors.append((image, m))
    return FactoredRational(new_vars, c, e, factors)


exps3 = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1))
coefs3 = st.sampled_from([1, -1, 2, Fraction(1, 2)])


@st.composite
def factored3(draw):
    """Factored rationals over V3; 1 - q and 1 + t are drawn often, so
    that mappings to constants make factors vanish."""
    pool = [LaurentPolynomial(V3, {(0, 0, 0): 1, (1, 0, 0): -1}),
            LaurentPolynomial(V3, {(0, 0, 0): 1, (0, 1, 0): 1})]
    random = st.dictionaries(exps3, coefs3, min_size=2, max_size=3).map(
        lambda t: LaurentPolynomial(V3, t))
    polys = st.one_of(st.sampled_from(pool), random)
    factors = draw(st.lists(st.tuples(polys, st.integers(-2, 2)), max_size=4))
    return FactoredRational(V3, draw(coefs3), draw(exps3), factors)


@st.composite
def mappings3(draw):
    """A target context (V3 itself, or V3 with one more variable) and a
    monomial map of some variables of V3; a variable may go to a
    constant, which makes 1 - q or 1 + t vanish."""
    new_vars = draw(st.sampled_from([V3, V3 + ("w",)]))
    width = len(new_vars)
    image = st.tuples(coefs3, st.tuples(*[st.integers(-1, 1)] * width))
    const = st.tuples(st.sampled_from([1, -1]), st.just((0,) * width))
    mapping = draw(st.dictionaries(st.sampled_from(V3), st.one_of(const, image), max_size=3))
    return new_vars, mapping


def _outcome(fn):
    try:
        return fn()
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=150, deadline=None)
@given(factored3(), mappings3())
def test_transform_equals_the_uncached_reference(fr, case):
    new_vars, mapping = case
    expected = _outcome(lambda: transform_reference(fr, new_vars, mapping))
    assert _outcome(lambda: fr.transform(new_vars, mapping)) == expected


@pytest.mark.parametrize("m_q, m_t", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
@pytest.mark.parametrize("mapping", [{"q": (1, (0, 0, 0))}, {"t": (-1, (0, 0, 0))},
                                     {"q": (1, (0, 0, 0)), "t": (-1, (0, 0, 0))},
                                     {"q": (1, (-1, 0, 0)), "t": (2, (0, -1, 1))}])
def test_transform_collapses_as_the_reference(m_q, m_t, mapping):
    # (1 - q)^m_q (1 + t)^m_t with q -> 1 and/or t -> -1: a vanishing
    # numerator gives zero, a vanishing denominator raises, and when both
    # vanish the first factor in key order decides.  q -> 1/q and
    # t -> 2z/t move the leading term, so the images' units (-1 and 2)
    # go to the coefficient
    one_minus_q = LaurentPolynomial(V3, {(0, 0, 0): 1, (1, 0, 0): -1})
    one_plus_t = LaurentPolynomial(V3, {(0, 0, 0): 1, (0, 1, 0): 1})
    fr = FactoredRational(V3, 3, (1, 0, -1), [(one_minus_q, m_q), (one_plus_t, m_t)])
    expected = _outcome(lambda: transform_reference(fr, V3, mapping))
    assert _outcome(lambda: fr.transform(V3, mapping)) == expected
