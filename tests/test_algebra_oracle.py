"""Differential tests of the algebra layer against sympy.

Small random Laurent polynomials in two or three variables, with small
integer and Fraction coefficients, are pushed through maclab's exact
arithmetic and through sympy; the results must agree as values.  The
integer products are also checked against the per-term ``Fraction``
product they replaced (``tests/algebra_reference.py``), coefficient
types included.  The n-ary product is checked against the chain of
binary ``*`` and ``/`` (``tests/coefficient_reference.py``).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from maclab.algebra import (  # noqa: E402
    ExactDivisionError,
    FactoredRational,
    LaurentPolynomial,
    rational_eq,
)
from maclab.series import expand  # noqa: E402
import algebra_reference as ref  # noqa: E402
from coefficient_reference import product_reference  # noqa: E402

CONTEXTS = [("q", "t"), ("q", "t", "z1")]
SYMBOLS = {v: sympy.Symbol(v) for v in CONTEXTS[-1]}

oracle = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

coefs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
nonzero_coefs = coefs.filter(lambda c: c != 0)


def exps(vars):
    return st.tuples(*[st.integers(-2, 2)] * len(vars))


def polys(vars, min_terms=0, max_terms=4, coefs=nonzero_coefs):
    return st.dictionaries(exps(vars), coefs, min_size=min_terms,
                           max_size=max_terms).map(lambda t: LaurentPolynomial(vars, t))


@st.composite
def factored(draw, vars, max_factors=3):
    factors = draw(st.lists(st.tuples(polys(vars, 1, 3), st.integers(-2, 2)),
                            max_size=max_factors))
    return FactoredRational(vars, draw(coefs), draw(exps(vars)), factors)


contexts = st.sampled_from(CONTEXTS)


def rat(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def mono(vars, e):
    return sympy.Mul(*[SYMBOLS[v] ** k for v, k in zip(vars, e)])


def to_sympy(x):
    if isinstance(x, LaurentPolynomial):
        return sympy.Add(*[rat(c) * mono(x.vars, e) for e, c in x.terms.items()])
    value = rat(x.coef) * mono(x.vars, x.exps)
    for p, m in x.factors:
        value *= to_sympy(p) ** m
    return value


def same_poly(a, b):
    return sympy.expand(a - b) == 0


def same_value(a, b):
    return sympy.cancel(sympy.together(a - b)) == 0


# -- Laurent polynomials -----------------------------------------------------


@oracle
@given(st.data())
def test_ring_operations_match_sympy(data):
    vars = data.draw(contexts)
    p, q = data.draw(polys(vars)), data.draw(polys(vars))
    n = data.draw(st.integers(0, 3))
    P, Q = to_sympy(p), to_sympy(q)
    assert same_poly(to_sympy(p + q), P + Q)
    assert same_poly(to_sympy(p - q), P - Q)
    assert same_poly(to_sympy(p * q), P * Q)
    assert same_poly(to_sympy(p ** n), P ** n)


@oracle
@given(st.data())
def test_divide_exact_recovers_the_cofactor(data):
    vars = data.draw(contexts)
    p, q = data.draw(polys(vars)), data.draw(polys(vars, 1))
    assert (p * q).divide_exact(q) == p


@oracle
@given(st.data())
def test_divide_exact_agrees_with_sympy_on_divisibility(data):
    vars = data.draw(contexts)
    p, q = data.draw(polys(vars, 1, 3)), data.draw(polys(vars, 2, 3))
    _num, den = sympy.fraction(sympy.cancel(to_sympy(p) / to_sympy(q)))
    divisible = len(sympy.Add.make_args(sympy.expand(den))) == 1
    if divisible:
        assert same_value(to_sympy(p.divide_exact(q)), to_sympy(p) / to_sympy(q))
    else:
        with pytest.raises(ExactDivisionError):
            p.divide_exact(q)


@st.composite
def binomials(draw, vars):
    """c_a x^e_a + c_b x^e_b whose exponent difference has a leading
    component of -2, -1, 1 or 2: negative leads exercise the orientation,
    a step of 2 puts two residue classes of chains into each bucket."""
    n = len(vars)
    i0 = draw(st.integers(0, n - 1))
    lead = draw(st.sampled_from((-2, -1, 1, 2)))
    diff = (0,) * i0 + (lead,) + draw(st.tuples(*[st.integers(-2, 2)] * (n - i0 - 1)))
    ea = draw(exps(vars))
    eb = tuple(x + y for x, y in zip(ea, diff))
    return LaurentPolynomial(vars, {ea: draw(nonzero_coefs), eb: draw(nonzero_coefs)})


@oracle
@given(st.data())
def test_binomial_division_matches_sympy(data):
    vars = CONTEXTS[-1]
    p = data.draw(polys(vars, 1, 12))
    b = data.draw(binomials(vars))
    assert (p * b).divide_exact(b) == p
    # a binomial is not a unit of the Laurent ring, so one extra monomial
    # leaves a remainder
    m = LaurentPolynomial.monomial(vars, data.draw(exps(vars)), data.draw(nonzero_coefs))
    _num, den = sympy.fraction(sympy.cancel(to_sympy(p * b + m) / to_sympy(b)))
    assert len(sympy.Add.make_args(sympy.expand(den))) > 1
    with pytest.raises(ExactDivisionError):
        (p * b + m).divide_exact(b)


# -- factored rationals --------------------------------------------------------


@oracle
@given(st.data())
def test_factored_arithmetic_matches_sympy(data):
    vars = data.draw(contexts)
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    n = data.draw(st.integers(-2, 2))
    A, B = to_sympy(a), to_sympy(b)
    assert same_value(to_sympy(a * b), A * B)
    assert same_value(to_sympy(a + b), A + B)
    assume(not a.is_zero())
    assert same_value(to_sympy(a.inverse()), 1 / A)
    assert same_value(to_sympy(a ** n), A ** n)


@oracle
@given(st.data())
def test_rational_eq_matches_sympy(data):
    vars = data.draw(contexts)
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    assert rational_eq(a, b) == same_value(to_sympy(a), to_sympy(b))
    # the same value with every factor multiplied out is still equal
    num, den = a.num_den()
    expanded = FactoredRational.from_poly(num) / FactoredRational.from_poly(den)
    assert rational_eq(a, expanded)


@oracle
@given(st.data())
def test_merged_product_equals_canonicalised_product(data):
    vars = data.draw(contexts)
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    assume(not a.is_zero())
    # b / a shares every factor of a, so the merge must cancel some of them
    for c in (b, b / a):
        rebuilt = FactoredRational(
            vars, a.coef * c.coef, tuple(x + y for x, y in zip(a.exps, c.exps)),
            a.factors + c.factors)
        assert a * c == rebuilt
    assert a * a.inverse() == FactoredRational.one(vars)
    assert a.inverse() == FactoredRational(
        vars, Fraction(1) / a.coef, tuple(-x for x in a.exps),
        [(p, -m) for p, m in a.factors])


@oracle
@given(st.data())
def test_quotient_equals_product_with_inverse(data):
    vars = data.draw(contexts)
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    zero = FactoredRational.zero(vars)
    for x in (a, zero):
        with pytest.raises(ZeroDivisionError):
            x / zero
    assume(not b.is_zero())
    # b / b cancels every factor; a * b / b and a / (a * b) share factors
    # with the divisor
    pairs = [(a, b), (b, b), (a * b, b)] + ([] if a.is_zero() else [(a, a * b)])
    for x, y in pairs:
        q = x / y
        assert q == x * y.inverse()
        assert rational_eq(q, x * y.inverse())


@oracle
@given(st.data())
def test_a_chain_of_quotients_equals_the_reference(data):
    # the package's ``*`` and ``/`` (``/`` is ``*`` by the inverse)
    # against the reference's merging ``mul`` and ``div``
    vars = data.draw(contexts)
    num = data.draw(st.lists(factored(vars), max_size=4))
    den = data.draw(st.lists(factored(vars).filter(lambda x: not x.is_zero()), max_size=4))
    # a quotient of a drawn value by itself cancels every factor pair
    den += data.draw(st.lists(st.sampled_from(num), max_size=2)) if num else []
    got = FactoredRational.one(vars)
    for x in num:
        got = got * x
    if any(x.is_zero() for x in den):
        with pytest.raises(ZeroDivisionError):
            for x in den:
                got = got / x
        return
    for x in den:
        got = got / x
    want = product_reference(vars, num, den)
    assert got == want
    assert rational_eq(got, want)
    assert type(got.coef) is type(want.coef)


# -- (q,t)-series expansion -------------------------------------------------------


@st.composite
def unit_denominators(draw, vars):
    """A factor whose (q,t)-minimal part is one monomial c z^k (z the
    coefficient variables): its inverse expands as a series in q and t."""
    lead = (0, 0) + draw(st.tuples(*[st.integers(-1, 1)] * (len(vars) - 2)))
    tail = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  *[st.integers(-1, 1)] * (len(vars) - 2)).filter(lambda e: e[0] + e[1] > 0),
        nonzero_coefs, min_size=1, max_size=2))
    tail[lead] = draw(nonzero_coefs)
    return LaurentPolynomial(vars, tail)


@st.composite
def unit_factored(draw, vars):
    # one numerator factor at most: sympy.series slows sharply with more
    num = draw(st.lists(st.tuples(polys(vars, 1, 3), st.just(1)), max_size=1))
    den = draw(st.lists(st.tuples(unit_denominators(vars), st.integers(-2, -1)),
                        min_size=1, max_size=2))
    return FactoredRational(vars, draw(nonzero_coefs), draw(exps(vars)), num + den)


@oracle
@given(st.data())
def test_expand_matches_sympy_series(data):
    vars = data.draw(contexts)
    fr = data.draw(unit_factored(vars))
    trunc = data.draw(st.integers(0, 3))
    series = expand(fr, trunc)
    q, t, eps = SYMBOLS["q"], SYMBOLS["t"], sympy.Symbol("eps")
    mine = sympy.Add(*[to_sympy(p) * q ** a * t ** b for (a, b), p in series.coeffs.items()])
    # grade by total (q,t)-degree: q -> eps q, t -> eps t, expand in eps
    graded = to_sympy(fr).subs({q: eps * q, t: eps * t}, simultaneous=True)
    theirs = sympy.series(graded, eps, 0, trunc + 1).removeO().subs(eps, 1)
    assert same_poly(mine, theirs)


# -- re-embedding into another context ----------------------------------------------


@oracle
@given(st.data())
def test_reembedding_matches_the_general_transform(data):
    vars = data.draw(contexts)
    p = data.draw(polys(vars))
    extra = data.draw(st.lists(st.sampled_from(["z2", "z3", "s"]), unique=True))
    target = tuple(data.draw(st.permutations(list(vars) + extra)))
    # naming every variable's own image forces the general substitution loop
    unit = {v: (1, tuple(int(w == v) for w in target)) for v in vars}
    fast = p.transform(target, {})
    assert fast.vars == target
    assert fast == p.transform(target, unit)
    assert fast.transform(target, {}) is fast
    # a variable with no place in the target is an error on both paths
    with pytest.raises(ValueError):
        p.transform(vars[1:], {})


# -- integer products against the per-term Fraction product ----------------------


def same_terms(p, q):
    """Equal polynomials whose equal coefficients also have equal types."""
    return p == q and all(type(c) is type(q.terms[e]) for e, c in p.terms.items())


@st.composite
def integral_pairs(draw, vars):
    """Two polynomials with Fraction coefficients whose product has none:
    n/d * P times d*k/n * Q for integer P, Q."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    ints = st.integers(-3, 3).filter(bool)
    k = draw(ints)
    p, q = draw(polys(vars, 1, coefs=ints)), draw(polys(vars, 1, coefs=ints))
    return p.scale(Fraction(n, d)), q.scale(Fraction(d * k, n))


@oracle
@given(st.data())
def test_product_matches_the_fraction_reference(data):
    vars = data.draw(contexts)
    p, q = data.draw(polys(vars)), data.draw(polys(vars))
    # (p + q)(p - q): the cross terms cancel to zero
    for a, b in [(p, q), (p + q, p - q), (p, p)]:
        assert same_terms(a * b, ref.mul(a, b))
    assert same_terms(p ** 3, ref.power(p, 3))
    a, b = data.draw(integral_pairs(vars))
    assert all(type(c) is int for c in (a * b).terms.values())
    assert same_terms(a * b, ref.mul(a, b))


def outcome(f, x):
    try:
        return f(x)
    except ExactDivisionError:
        return "inexact"


@oracle
@given(st.data())
def test_expansions_match_the_fraction_reference(data):
    vars = data.draw(contexts)
    a = data.draw(factored(vars))
    for mine, theirs in zip(a.num_den(), ref.num_den(a)):
        assert same_terms(mine, theirs)
    got, want = outcome(FactoredRational.to_laurent, a), outcome(ref.to_laurent, a)
    assert got == want
    if got != "inexact":
        assert same_terms(got, want)
    # a quotient that divides exactly, with Fraction coefficients that
    # come out integral
    p, q = data.draw(integral_pairs(vars))
    exact = FactoredRational(vars, data.draw(nonzero_coefs), data.draw(exps(vars)),
                             [(p * q, 1), (q, -1)])
    assert same_terms(exact.to_laurent(), ref.to_laurent(exact))


@oracle
@given(st.data())
def test_rational_eq_matches_the_fraction_reference(data):
    vars = data.draw(contexts)
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    assert rational_eq(a, b) == ref.rational_eq(a, b)
    # equal values over different factor multisets take the expanded path
    num, den = a.num_den()
    expanded = FactoredRational.from_poly(num) / FactoredRational.from_poly(den)
    for x, y in [(a, expanded), (a + b, expanded + b), (a * b, expanded * b)]:
        assert rational_eq(x, y) is ref.rational_eq(x, y) is True
    # the same integer expansion over another denominator is another value
    assume(not a.is_zero())
    x = a.scale(Fraction(1, a.coef.numerator))
    for y in (x.scale(Fraction(1, 2)), expanded.scale(Fraction(1, 2 * a.coef.numerator))):
        assert rational_eq(x, y) is ref.rational_eq(x, y) is False
