"""expand_sum, split-series sums and products against independent
per-term expansions.

expand_sum expands each distinct factor power once per call and reuses it
across terms, and folds the terms by their pole part; these tests pin
both to the plain per-term result.  The Weyl-group certifier
(``certify_weyl_sum``) is pinned to the sum of the mapped terms and to
the image loop it replaced (``tests/weyl_reference.py``).  A split
series keeps the purely coefficient-side poles of its terms as separate
multipliers; its sum is pinned to the ``+`` fold and the groups dict it
replaced (``tests/series_reference.py``), and its product to the
expansion of the factored product.  The arithmetic that ``QTSeries`` and
``XSeries`` share is pinned on ``XSeries`` to plain dicts of polynomials.
"""

from operator import add, mul, sub

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.series import (
    InsufficientTruncation,
    NonPolynomialCoefficient,
    NonRootPole,
    QTSeries,
    XSeries,
    expand,
    expand_split,
    expand_sum,
    split_expand,
    split_mul,
    split_sum,
)
from series_reference import fold_split, split_sum_by_add
from weyl_reference import expand_by_images, expand_weyl_sum, weyl_images

VARS = ("q", "t", "z1", "z2")

coefs = st.integers(-3, 3).filter(lambda c: c != 0)


@st.composite
def numerators(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-1, 1), st.integers(-1, 1)),
        coefs, min_size=1, max_size=4))
    return LaurentPolynomial(VARS, terms)


@st.composite
def unit_denominators(draw):
    """A factor with one term c z^k of (q,t)-degree 0 and a tail of
    positive (q,t)-degree: its inverse expands as a (q,t)-series."""
    lead = (0, 0) + draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-1, 1),
                  st.integers(-1, 1)).filter(lambda e: e[0] + e[1] > 0),
        coefs, min_size=1, max_size=2))
    terms[lead] = draw(coefs)
    return LaurentPolynomial(VARS, terms)


@st.composite
def shared_factor_sums(draw):
    """Terms built from one small pool of factors, each with its own unit
    monomial, so one factor is expanded at several relative orders."""
    nums = draw(st.lists(numerators(), min_size=1, max_size=2))
    dens = draw(st.lists(unit_denominators(), min_size=1, max_size=2))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = [(p, draw(st.integers(0, 2))) for p in nums]
        factors += [(p, -draw(st.integers(0, 2))) for p in dens]
        unit = draw(st.tuples(st.integers(-1, 2), st.integers(0, 2),
                              st.integers(-1, 1), st.integers(-1, 1)))
        terms.append(FactoredRational(VARS, draw(coefs), unit, factors))
    return terms


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shared_factor_sums(), st.integers(0, 3))
def test_expand_sum_equals_the_sum_of_expansions(terms, trunc):
    expected = QTSeries(VARS[2:], trunc)
    for fr in terms:
        expected = expected + expand(fr, trunc)
    assert expand_sum(terms, trunc) == expected


W = ("q", "t", "z1")


def _poly(terms):
    return LaurentPolynomial(W, terms)


def _pole_pair(z_coef):
    """1/(1 - z1) and (t (1 - z1^2) - 1 + z_coef z1)/(1 - z1^2): two terms
    with different z-only denominators, summing to t when z_coef = -1."""
    a = FactoredRational(W, 1, None, [(_poly({(0, 0, 0): 1, (0, 0, 1): -1}), -1)])
    num = _poly({(0, 1, 0): 1, (0, 1, 2): -1, (0, 0, 0): -1, (0, 0, 1): z_coef})
    b = FactoredRational(W, 1, None, [(num, 1), (_poly({(0, 0, 0): 1, (0, 0, 2): -1}), -1)])
    return [a, b]


def test_cancelling_poles_of_different_denominators_give_a_polynomial():
    a, b = _pole_pair(-1)
    poles = [[p for p, m in fr.factors if m < 0] for fr in (a, b)]
    assert poles[0] != poles[1]
    series = expand_sum([a, b], 2)
    assert series == QTSeries(("z1",), 2, {(0, 1): LaurentPolynomial.one(("z1",))})


def test_uncancelled_poles_of_different_denominators_raise():
    with pytest.raises(NonPolynomialCoefficient):
        expand_sum(_pole_pair(-2), 2)


def test_a_pole_that_is_no_binomial_is_a_programming_error():
    # exact division is by binomials only: 1/(1 + z1 + z1^2) raises the
    # divisor's ValueError, which is no ArithmeticError, so it is not
    # reported as an uncancelled pole
    trinomial = _poly({(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1})
    with pytest.raises(ValueError, match="3 terms"):
        expand_sum([FactoredRational(W, 1, None, [(trinomial, -1)])], 1)


def test_memoised_factor_series_hold_no_term_above_their_truncation():
    # (q - t)^3 at degree 2: the cube of q - t is cut back to degree 2,
    # and so is every other series the expansion memoises
    q, t = LaurentPolynomial.var(W, "q"), LaurentPolynomial.var(W, "t")
    memo: dict = {}
    expand_split(FactoredRational(W, 1, None, [(q - t, 3)]), 2, _memo=memo)
    series = {key: s for key, s in memo.items() if isinstance(s, QTSeries)}
    assert any(key[1:] == (3, 2) for key in series)
    for s in series.values():
        assert all(sum(k) <= s.trunc for k in s.coeffs), s


# VARS is the SL(3) context (q, t, z1, z2), with z3 = (z1 z2)^-1; the Weyl
# certifier sums over the six images sigma_w: z_i -> z_{w(i)}
IMAGES = weyl_images(3)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shared_factor_sums(), st.integers(0, 3))
def test_expand_sum_images_add_the_mapped_terms(terms, trunc):
    mapped = [fr.transform(VARS, sigma) for sigma in IMAGES[1:] for fr in terms]
    assert expand_weyl_sum(terms, trunc) == expand_sum(terms + mapped, trunc)


def test_poles_cancel_against_the_image_of_a_term():
    # 1/(1 - z1/z2) has a pole; its six images pair up as
    # 1/(1 - z_i/z_j) + 1/(1 - z_j/z_i) = 1 over the three positive roots
    lone = FactoredRational(VARS, 1, None,
                            [(LaurentPolynomial(VARS, {(0, 0, 0, 0): 1, (0, 0, 1, -1): -1}), -1)])
    with pytest.raises(NonPolynomialCoefficient):
        expand_sum([lone], 1)
    three = QTSeries(VARS[2:], 1, {(0, 0): LaurentPolynomial.const(VARS[2:], 3)})
    assert expand_weyl_sum([lone], 1) == three
    assert expand_by_images([lone], 1, IMAGES) == three


# the root binomials 1 - z_i/z_j (i < j) over VARS: z1/z2, z1/z3, z2/z3
ROOTS = [LaurentPolynomial(VARS, {(0, 0, 0, 0): 1, e: -1})
         for e in [(0, 0, 1, -1), (0, 0, 2, 1), (0, 0, 1, 2)]]


@st.composite
def root_poled_sums(draw):
    """One to three terms, each with a numerator, a unit denominator and
    root-binomial poles of multiplicity 1 or 2."""
    num, den = draw(numerators()), draw(unit_denominators())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [(num, draw(st.integers(0, 1))), (den, -draw(st.integers(0, 1)))]
        factors += [(p, -draw(st.integers(0, 2))) for p in ROOTS]
        unit = draw(st.tuples(st.integers(-1, 1), st.integers(0, 1),
                              st.integers(-1, 1), st.integers(-1, 1)))
        terms.append(FactoredRational(VARS, draw(coefs), unit, factors))
    return terms


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonPolynomialCoefficient:
        return NonPolynomialCoefficient


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(root_poled_sums(), st.integers(0, 2))
def test_antisymmetriser_agrees_with_the_image_loop(terms, trunc):
    # equal series, or both find uncancelled poles, as about half the
    # sums with a double pole do; simple poles always cancel over W
    got = _outcome(expand_weyl_sum, terms, trunc)
    assert got == _outcome(expand_by_images, terms, trunc, IMAGES)
    if all(m >= -1 for fr in terms for _p, m in fr.factors):
        assert got is not NonPolynomialCoefficient


def test_a_pole_that_is_no_root_binomial_raises():
    # 1 - z1 is no root of SL(3) (the roots are z_i/z_j); 1 - z1^2/z2^2
    # is the square of one times 1 + z1/z2; (1 - z1/z2) in a numerator
    # and the unit of an inverted root are fine
    one = LaurentPolynomial.one(VARS)
    z1 = LaurentPolynomial.var(VARS, "z1")
    ratio = LaurentPolynomial.monomial(VARS, (0, 0, 1, -1))
    for bad in (one - z1, one - ratio * ratio):
        term = FactoredRational(VARS, 1, None, [(bad, -1)])
        with pytest.raises(NonRootPole):
            expand_weyl_sum([term], 1)
    ok = FactoredRational(VARS, 1, None, [(one - ratio, 1), (ratio - one, -2)])
    assert expand_weyl_sum([ok], 1) == expand_by_images([ok], 1, IMAGES)
    # the error is no ArithmeticError, so no handler that turns failed
    # arithmetic into a witness can catch it
    assert not issubclass(NonRootPole, ArithmeticError)


# -- split series ---------------------------------------------------------------

# purely coefficient-side binomials over VARS: the pole parts of split series
POLES = [LaurentPolynomial(VARS, {(0, 0, 0, 0): 1, (0, 0, 1, 0): -1}),
         LaurentPolynomial(VARS, {(0, 0, 0, 0): 1, (0, 0, 1, -1): -1})]


@st.composite
def poled_sums(draw):
    """One to three terms sharing a numerator and a unit denominator,
    each with its own unit monomial and at most one simple pole from
    POLES."""
    num, den = draw(numerators()), draw(unit_denominators())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [(num, draw(st.integers(0, 1))), (den, -draw(st.integers(0, 1)))]
        pole = draw(st.sampled_from([None] + POLES))
        if pole is not None:
            factors.append((pole, -1))
        unit = draw(st.tuples(st.integers(-1, 1), st.integers(0, 1),
                              st.integers(-1, 1), st.integers(-1, 1)))
        terms.append(FactoredRational(VARS, draw(coefs), unit, factors))
    return terms


@st.composite
def split_pairs(draw):
    """Pairs (rest, series) over VARS with rest 1 or one pole of POLES and
    truncations 0..3, and the negated coefficients of some of them under
    another truncation, so that sums of one pole part cancel."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        pole = draw(st.sampled_from([None] + POLES))
        rest = FactoredRational(VARS, 1, None, [] if pole is None else [(pole, -1)])
        coeffs = draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(-1, 3)).filter(lambda k: sum(k) <= 3),
            st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), coefs,
                            min_size=1, max_size=3), max_size=4))
        coeffs = {k: LaurentPolynomial(VARS[2:], t) for k, t in coeffs.items()}
        pairs.append((rest, QTSeries(VARS[2:], draw(st.integers(0, 3)), coeffs)))
        if draw(st.booleans()):
            pairs.append((rest, QTSeries(VARS[2:], draw(st.integers(0, 3)),
                                         {k: -p for k, p in coeffs.items()})))
    return pairs


@settings(max_examples=80, deadline=None)
@given(split_pairs())
def test_split_sum_equals_the_add_fold_and_the_groups(pairs):
    before = [(rest, dict(ser.coeffs), ser.trunc) for rest, ser in pairs]
    got = split_sum(pairs)
    want = split_sum_by_add(pairs)
    assert [rest for rest, _s in got] == [rest for rest, _s in want]
    groups: dict = {}
    for rest, ser in pairs:
        fold_split(groups, rest, ser)
    for (rest, ser), (_rest, ref) in zip(got, want):
        assert ser == ref and ser.trunc == ref.trunc
        pole = tuple(sorted((k, m) for k, (_p, m) in rest._fmap.items()))
        folded = {key: t for (key, p), (_r, t) in groups.items()
                  if p == pole and t and sum(key) <= ser.trunc}
        assert {k: p.terms for k, p in ser.coeffs.items()} == folded
    # the given series are never mutated
    assert [(rest, dict(ser.coeffs), ser.trunc) for rest, ser in pairs] == before


def test_split_sum_cancels_a_pair_to_an_empty_series():
    rest = FactoredRational(VARS, 1, None, [(POLES[0], -1)])
    z = LaurentPolynomial.var(VARS[2:], "z1")
    a = QTSeries(VARS[2:], 2, {(0, 1): z, (2, 0): z})
    b = QTSeries(VARS[2:], 1, {(0, 1): -z})
    ((got_rest, got),) = split_sum([(rest, a), (rest, b)])
    assert got_rest is rest and got.is_zero() and got.trunc == 1


def test_equal_series_of_different_truncation_hash_alike():
    # == ignores the truncation, so the hash must too
    z = LaurentPolynomial.var(VARS[2:], "z1")
    a = QTSeries(VARS[2:], 3, {(0, 1): z})
    b = QTSeries(VARS[2:], 1, {(0, 1): z})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _valuation_lb(terms):
    return min(fr.valuation_lb(("q", "t")) for fr in terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(poled_sums(), poled_sums(), st.integers(0, 2))
def test_split_product_equals_the_expansion_of_the_product(a_terms, b_terms, order):
    # each factor is expanded just far enough for the other's valuation
    # bound, as euler_char_series expands its J-pieces
    va, vb = _valuation_lb(a_terms), _valuation_lb(b_terms)
    assume(va + vb <= order)
    a = split_expand(a_terms, order - vb)
    b = split_expand(b_terms, order - va)
    # D clears every pole of a product, so both sides expand as series
    clear = FactoredRational(VARS, 1, None, [(p, 2) for p in POLES])
    z_clear = FactoredRational(VARS[2:], 1, None, [
        (LaurentPolynomial(VARS[2:], {e[2:]: c for e, c in p.terms.items()}), 2) for p in POLES])
    got = QTSeries(VARS[2:], order)
    for rest, series in split_mul(a, b, order):
        assert series.trunc == order and rest.vars == VARS[2:]
        # z_clear * rest is a z-polynomial: it multiplies each coefficient
        cleared = (z_clear * rest).to_laurent()
        got = got + QTSeries(VARS[2:], order, {k: cleared * p for k, p in series.coeffs.items()})
    expected = QTSeries(VARS[2:], order)
    for x in a_terms:
        for y in b_terms:
            expected = expected + expand(clear * x * y, order)
    assert got == expected


def test_split_product_below_the_order_raises():
    # two series exact up to degree 0 with valuation 0: their product is
    # exact up to degree 0 only
    q = LaurentPolynomial.var(VARS, "q")
    fr = FactoredRational(VARS, 1, None, [(LaurentPolynomial.one(VARS) - q, -1)])
    a = split_expand([fr], 0)
    assert split_mul(a, a, 0)
    with pytest.raises(InsufficientTruncation):
        split_mul(a, a, 1)


# XSeries in two ratio variables over the base context (q, t): the shared
# truncated-series arithmetic against plain dicts of Laurent polynomials
BASE = ("q", "t")


@st.composite
def x_dicts(draw):
    """``(trunc, {key: polynomial})``: single-term coefficients +-q^e, so
    sums and products cancel often, some zero and some beyond trunc."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.sampled_from([-1, 0, 1]), st.integers(0, 1)), max_size=5))
    polys = {k: LaurentPolynomial(BASE, {(e, 0): c} if c else {}) for k, (c, e) in terms.items()}
    return draw(st.integers(0, 4)), polys


def _x_series(trunc, polys):
    return XSeries(2, BASE, trunc, {k: FactoredRational.from_poly(p) for k, p in polys.items()})


def _ref(trunc, polys):
    """The stored dict: nonzero coefficients of total degree <= trunc."""
    return trunc, {k: p for k, p in polys.items() if sum(k) <= trunc and not p.is_zero()}


def _ref_add(a, b, sign=1):
    trunc = min(a[0], b[0])
    out = dict(a[1])
    for k, p in b[1].items():
        out[k] = out[k] + p.scale(sign) if k in out else p.scale(sign)
    return _ref(trunc, out)


def _ref_mul(a, b):
    """Exact up to min(a.trunc + val(b), b.trunc + val(a)), val the
    lowest total degree stored (0 for an empty series)."""
    val_a, val_b = (min(map(sum, x[1]), default=0) for x in (a, b))
    out: dict = {}
    for k1, p1 in a[1].items():
        for k2, p2 in b[1].items():
            k = (k1[0] + k2[0], k1[1] + k2[1])
            out[k] = out[k] + p1 * p2 if k in out else p1 * p2
    return _ref(min(a[0] + val_b, b[0] + val_a), out)


def _as_ref(s: XSeries):
    return s.trunc, {k: v.to_laurent() for k, v in s.coeffs.items()}


@settings(max_examples=100, deadline=None)
@given(x_dicts(), x_dicts())
def test_x_series_arithmetic_matches_plain_dicts(a, b):
    sa, sb = _x_series(*a), _x_series(*b)
    a, b = _ref(*a), _ref(*b)
    assert _as_ref(sa) == a
    assert _as_ref(sa + sb) == _ref_add(a, b)
    assert _as_ref(sa - sb) == _ref_add(a, b, -1)
    assert _as_ref(-sb) == _ref_add((b[0], {}), b, -1)
    assert _as_ref(sa * sb) == _ref_mul(a, b)


def test_x_product_without_a_constant_term_is_exact_to_the_valuation_rule():
    # a = s x1 + s^2 x1^2 + ... has valuation 1, so a (exact to 4) times
    # b = 1/(1 - x1 - x2) (exact to 2) is exact to min(4 + 0, 2 + 1) = 3
    s = FactoredRational.monomial(BASE, (0, 1))
    one = FactoredRational.one(BASE)

    def a(trunc):
        return XSeries.geometric(2, BASE, trunc, s, (1, 0)) - XSeries.one(2, BASE, trunc)

    def b(trunc):
        return XSeries.geometric(2, BASE, trunc, one, (1, 0)) * \
            XSeries.geometric(2, BASE, trunc, one, (0, 1))

    got = a(4) * b(2)
    assert got.trunc == 3
    assert got.sorted_items() == [kv for kv in (a(8) * b(8)).sorted_items() if sum(kv[0]) <= 3]
    assert any(sum(k) == 3 for k in got.coeffs)


@pytest.mark.parametrize("other", [
    QTSeries(("z1",), 2, {(0, 0): LaurentPolynomial.one(("z1",))}),
    XSeries.one(1, BASE, 2),
    XSeries.one(2, ("q", "s"), 2),
], ids=["qt-series", "other-n", "other-base-vars"])
def test_series_of_different_contexts_do_not_combine(other):
    x = XSeries.one(2, BASE, 2)
    for op in (add, sub, mul):
        with pytest.raises(ValueError, match="contexts differ"):
            op(x, other)
        with pytest.raises(ValueError, match="contexts differ"):
            op(other, x)
