"""The Kronecker decision of ``algebra.sum_is_zero`` and ``rational_eq``
against the ``Fraction`` reference (``tests/algebra_reference.py``): its
``rational_eq`` and a ``+`` fold of expanded numerator and denominator
pairs.

Random sums cover ``Fraction`` coefficients, negative unit exponents and
contexts of 1, 2 and 6 variables; hand-built sums sit next to the
collisions a digit width or a degree bound taken from one term alone
would make, and at the top corner of the (q, s) box.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from maclab import algebra, memo
from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq, sum_is_zero
from maclab.baker import ba_vars
from maclab.checks import run_check
from maclab.reports import Status
import algebra_reference as ref

CONTEXTS = [("q",), ("q", "s"), ba_vars(4)]

oracle = settings(max_examples=30, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

coefs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
nonzero_coefs = coefs.filter(lambda c: c != 0)


def exps(vars):
    return st.tuples(*[st.integers(-2, 2)] * len(vars))


def polys(vars, max_terms):
    return st.dictionaries(exps(vars), nonzero_coefs, min_size=1,
                           max_size=max_terms).map(lambda t: LaurentPolynomial(vars, t))


@st.composite
def factored(draw, vars):
    """A factored rational; smaller in the 6-variable context, whose
    reference expansions grow fastest."""
    wide = len(vars) > 2
    mults = st.integers(-1, 1) if wide else st.integers(-2, 2)
    factors = draw(st.lists(st.tuples(polys(vars, 2 if wide else 3), mults),
                            max_size=2 if wide else 3))
    return FactoredRational(vars, draw(coefs), draw(exps(vars)), factors)


def poly(vars, terms):
    return LaurentPolynomial(vars, terms)


def fr(p):
    return FactoredRational.from_poly(p)


def unit(vars, i, k=1):
    """x_i^k in ``vars``."""
    return tuple(k if j == i else 0 for j in range(len(vars)))


def decided(terms):
    """``sum_is_zero(terms)``, checked against the reference fold."""
    got = sum_is_zero(terms)
    assert got is ref.sum_is_zero(terms)
    return got


# -- against the reference -------------------------------------------------


@oracle
@given(st.data())
def test_sums_match_the_reference_fold(data):
    vars = data.draw(st.sampled_from(CONTEXTS))
    terms = data.draw(st.lists(factored(vars), max_size=3))
    decided(terms)
    # the negated sum closes the list to zero, whatever the factor forms
    total = FactoredRational.zero(vars)
    for x in terms:
        total = total + x
    assert decided(terms + [-total])
    assume(not total.is_zero())
    assert not decided(terms + [-total.scale(2)])


@oracle
@given(st.data())
def test_sums_with_shared_factors_at_different_multiplicities(data):
    vars = data.draw(st.sampled_from(CONTEXTS))
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    p = fr(data.draw(polys(vars, 3)))
    assume(not p.is_zero())
    # a p + b p^2 - (a + b p) p == 0, the last term in another factor form
    rest = (a + b * p) * p
    assert decided([a * p, b * p ** 2, -rest])
    assert decided([a * p, -rest, b * p ** 2])
    assume(not (b * p ** 2).is_zero())
    assert not decided([a * p, -rest])


@oracle
@given(st.data())
def test_rational_eq_matches_the_reference(data):
    vars = data.draw(st.sampled_from(CONTEXTS))
    a, b = data.draw(factored(vars)), data.draw(factored(vars))
    assert rational_eq(a, b) is ref.rational_eq(a, b)
    num, den = a.num_den()
    expanded = fr(num) / fr(den)
    for x, y in [(a, expanded), (a * b, expanded * b)]:
        assert rational_eq(x, y) is ref.rational_eq(x, y) is True
    assume(not a.is_zero())
    assert rational_eq(a, expanded.scale(Fraction(1, 2))) is False


@oracle
@given(st.data())
def test_a_sum_that_cancels_in_one_torus_key_only(data):
    vars = ba_vars(4)
    a = data.draw(factored(vars))
    assume(not a.is_zero())
    z1 = poly(vars, {unit(vars, 2): 1})
    one = LaurentPolynomial.one(vars)
    # a (1 + z1) - a leaves a z1: the z1^0 part cancels, the z1^1 part not
    assert not decided([a * fr(one + z1), -a])
    assert decided([a * fr(one + z1), -a, -(a * fr(z1))])
    # the same with the torus part carried by a factor of q, s and z1
    p = fr(poly(vars, {unit(vars, 0): 1, unit(vars, 2): -1}))
    q = fr(poly(vars, {unit(vars, 0): 1}))
    assert not decided([a * p, -(a * q)])
    assert decided([a * p, -(a * q), a * fr(z1)])


@pytest.mark.parametrize("vars", CONTEXTS, ids=len)
def test_one_term_and_all_zero_lists(vars):
    zero = FactoredRational.zero(vars)
    x = FactoredRational(vars, Fraction(-2, 3), (-1,) * len(vars),
                         [(poly(vars, {unit(vars, 0): 1, (0,) * len(vars): 2}), -2)])
    assert decided([])
    assert decided([zero])
    assert decided([zero, zero, zero])
    assert not decided([x])
    assert not decided([zero, x, zero])
    assert decided([x, zero, -x])
    assert rational_eq(zero, zero) and not rational_eq(x, zero) and not rational_eq(zero, x)


def test_a_context_mismatch_raises():
    a = FactoredRational.one(("q", "t"))
    b = FactoredRational.one(("q", "s"))
    zero = FactoredRational.zero(("q", "s"))
    for terms in ([a, b], [a, zero], [zero, a], [a, a, zero]):
        with pytest.raises(ValueError):
            sum_is_zero(terms)
    with pytest.raises(ValueError):
        rational_eq(a, b)


# -- hand-built near-collisions --------------------------------------------


@pytest.mark.parametrize("vars", CONTEXTS, ids=len)
@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 255, 256])
def test_a_difference_of_two_to_the_one_sided_width(vars, m):
    """m q^(j+1) against m 2^k q^j with k from the first side's L1 norm
    alone: under q -> 2^k the two images would be equal.  The same for
    (m + m q)^e against its expansion plus q^2 - 2^k q."""
    k = m.bit_length()
    for j in (0, 1, 3):
        a = FactoredRational.monomial(vars, unit(vars, 0, j + 1), m)
        b = FactoredRational.monomial(vars, unit(vars, 0, j), m << k)
        assert not decided([a, -b])
        assert rational_eq(a, b) is ref.rational_eq(a, b) is False
    for e in (1, 2, 5):
        a = fr(poly(vars, {unit(vars, 0): m, (0,) * len(vars): m})) ** e
        num, _ = a.num_den()
        k = sum(map(abs, num.terms.values())).bit_length()
        near = num + poly(vars, {unit(vars, 0, 2): 1, unit(vars, 0): -(1 << k)})
        assert not decided([a, -fr(near)])
        assert rational_eq(a, fr(num)) is True


@pytest.mark.parametrize("vars", CONTEXTS[1:], ids=len)
@pytest.mark.parametrize("e", [0, 1, 3])
def test_s_against_the_power_of_q_past_one_sided_degree(vars, e):
    """(1 + q)^e + s against (1 + q)^e + q^(e+1): with the q-degree e of
    the first side alone, s and q^(e+1) would land on one digit."""
    one_q = poly(vars, {(0,) * len(vars): 1, unit(vars, 0): 1})
    base, _ = (fr(one_q) ** e).num_den()
    s = poly(vars, {unit(vars, 1): 1})
    qq = poly(vars, {unit(vars, 0, e + 1): 1})
    a, b = fr(base + s), fr(base + qq)
    assert not decided([a, -b])
    assert rational_eq(a, b) is ref.rational_eq(a, b) is False


@pytest.mark.parametrize("vars", CONTEXTS[1:], ids=len)
@pytest.mark.parametrize("d1, d2", [(1, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("c", [-2, -1, 0, 1, 2, 1 << 8])
def test_a_difference_at_the_top_corner_of_the_box(vars, d1, d2, c):
    """(1 + q)^d1 (1 + s)^d2 against its expansion with c q^d1 s^d2
    added: the corner carries the top digit of the image."""
    one = (0,) * len(vars)
    a = (fr(poly(vars, {one: 1, unit(vars, 0): 1})) ** d1
         * fr(poly(vars, {one: 1, unit(vars, 1): 1})) ** d2)
    if len(vars) > 2:
        a = a * fr(poly(vars, {one: 1, unit(vars, 3): -1}))
    num, _ = a.num_den()
    corner = tuple(x + y for x, y in zip(unit(vars, 0, d1), unit(vars, 1, d2)))
    b = fr(num + poly(vars, {corner: c}))
    assert decided([a, -b]) is (c == 0)
    assert rational_eq(a, b) is ref.rational_eq(a, b) is (c == 0)
    # the corner under a denominator that cancels on both sides
    den = fr(poly(vars, {one: 2, unit(vars, 0): 1, unit(vars, 1): 3}))
    assert rational_eq(a / den, b / den) is (c == 0)


# -- the shape of the images -------------------------------------------------


@oracle
@given(st.data())
def test_images_keep_the_torus_sparse_and_inside_the_box(data):
    """Only q and s are packed; every image, power and product fits in
    k (D_1 + 1)(D_2 + 1) bits, with D_2 bounded from the inputs."""
    vars = ba_vars(4)
    terms = data.draw(st.lists(factored(vars), min_size=2, max_size=3))
    steps, bits = [], [0]
    real_image, real_mul = algebra._kronecker_image, algebra._mul_terms

    def image(terms, st, npack):
        steps.append(st)
        out = real_image(terms, st, npack)
        assert all(len(key) == len(vars) - 2 for key in out)
        return out

    def mul(a, b):
        out = real_mul(a, b)
        bits[0] = max([bits[0]] + [c.bit_length() for c in out.values()])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_kronecker_image", image)
        mp.setattr(algebra, "_mul_terms", mul)
        decided(terms)
    if not steps:
        return
    k, stride = steps[0]
    assert all(s == (k, stride) for s in steps)
    live = [x for x in terms if not x.is_zero()]
    low = min(x.exps[1] for x in live)
    d2 = max(x.exps[1] - low for x in live)
    for key in {key for x in live for key in x._fmap}:
        p = next(x._fmap[key][0] for x in live if key in x._fmap)
        ms = [x._fmap.get(key, (None, 0))[1] for x in live]
        d2 += (max(ms) - min(ms)) * max(e[1] for e in p.terms)
    assert bits[0] <= k * (stride // k) * (d2 + 1)


# -- no expansion behind the decisions ----------------------------------------


@pytest.mark.parametrize("name, params", [
    ("tableau-oracle", {"max_size": 4, "max_n": 3}),
    ("pieri", {"max_n": 3, "max_weight_sum": 2}),
    ("cordiff", {"max_n": 3, "max_weight_sum": 2}),
])
def test_passing_checks_decide_without_expanding(monkeypatch, name, params):
    memo.clear_all()
    real = algebra._expand
    callers = []

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(algebra, "_expand", spy)
    assert run_check(name, **params).status == Status.PASSED
    assert callers, "the spy saw no expansion at all"
    assert not {"rational_eq", "sum_is_zero"} & set(callers), set(callers)
    memo.clear_all()
