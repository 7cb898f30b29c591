"""Finite and truncated-infinite Pochhammer symbols, binomial ledgers,
q-shifts.  The infinite symbols of a ledger (``Ledger.inf``) are pinned
to the symbols expanded and inverted one by one
(``tests/series_reference.py``), the symbol and image fills to the same
fills made one binomial at a time (``tests/ledger_reference.py``), and
ledger equality to ``rational_eq`` of the values."""

import itertools
import sys
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maclab import qcalc
from maclab.algebra import FactoredRational, LaurentPolynomial, _canonical_factor, rational_eq
from maclab.baker import ba_vars
from maclab.checks import run_check
from maclab.macdonald import QS
from maclab.laumon import lau_vars
from maclab.qcalc import Ledger, NonConvergent, pochhammer
from maclab.reports import Status
from maclab.series import XSeries, expand
from coefficient_reference import pochhammer_reference, product_reference
from ledger_reference import binomial_reference, image_reference, zratio_reference
from series_reference import pochhammer_inf, series_inverse

V = ("q", "t")
ONE = LaurentPolynomial.one(V)
Q = LaurentPolynomial.var(V, "q")
T = LaurentPolynomial.var(V, "t")


def mono(qe, te):
    return FactoredRational.monomial(V, (qe, te))


def test_pochhammer_basics():
    p = mono(0, 1)
    assert pochhammer(p, 0).is_one()
    two = pochhammer(p, 2)
    expected = FactoredRational(V, 1, None, [(ONE - T, 1), (ONE - Q * T, 1)])
    assert rational_eq(two, expected)
    assert rational_eq(pochhammer(mono(1, 0), 1), FactoredRational.from_poly(ONE - Q))


def test_pochhammer_recursion():
    p = mono(1, 1)
    for n in range(5):
        left = pochhammer(p, n + 1)
        step = FactoredRational.from_poly(ONE - LaurentPolynomial.monomial(V, (n + 1, 1)))
        assert rational_eq(left, pochhammer(p, n) * step)


def test_pochhammer_negative_base_normalizes():
    # (q^-1; q)_1 = 1 - q^-1 = -q^-1 (1 - q)
    fr = pochhammer(mono(-1, 0), 1)
    assert fr.coef == -1
    assert fr.exps == (-1, 0)
    assert len(fr.factors) == 1


CONTEXTS = [ba_vars(2), ba_vars(3), ba_vars(4), ("q", "s")]
base_coefs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
).filter(lambda c: c != 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pochhammer_matches_uncached_reference(data):
    # a coefficient-1 base over q, asked twice (the second time its
    # binomials come from qcalc._binomial); any other coefficient raises
    vars = data.draw(st.sampled_from(CONTEXTS))
    exps = data.draw(st.tuples(*[st.integers(-2, 2)] * len(vars)))
    other = data.draw(base_coefs.filter(lambda c: c != 1))
    n = data.draw(st.integers(0, 4))
    as_poly = data.draw(st.booleans())
    make = LaurentPolynomial.monomial if as_poly else FactoredRational.monomial
    p = make(vars, exps)
    for _ in range(2):
        got = pochhammer(p, n)
        ref = pochhammer_reference(p, n)
        assert got == ref
        assert got.canonical_str() == ref.canonical_str()
    with pytest.raises(ValueError, match="coefficient-1"):
        pochhammer(make(vars, exps, other), n)


def test_ledger_zratio_matches_reference():
    vars = ba_vars(3)
    for n in range(4):
        led = Ledger(vars)
        led.zratio(n, -1, 1, 3, 2)
        ref = pochhammer_reference(FactoredRational.monomial(vars, (-1, 1, 0, -1, 1)), n)
        assert led.value() == ref


# -- binomial ledgers ------------------------------------------------------------

W = ba_vars(2)
W_ONE = LaurentPolynomial.one(W)
binomial_exps = st.tuples(*[st.integers(-2, 2)] * len(W))
ledger_rows = st.lists(st.tuples(binomial_exps, st.integers(-2, 2).filter(bool)), max_size=6)


def _binomial_value(e, m):
    return FactoredRational(W, 1, None, [(W_ONE - LaurentPolynomial.monomial(W, e), m)])


def _ledger(rows, unit=(0,) * len(W)):
    led = Ledger(W, 1, unit)
    for e, m in rows:
        led.binomial(e, m)
    return led


def _outcome(fn):
    try:
        return fn()
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_a_binomial_converts_to_its_canonical_factor():
    for e in itertools.product(range(-2, 3), repeat=len(W)):
        if not any(e):
            continue
        led = _ledger([(e, 1)])
        (oriented,) = led.binomials
        key, poly, low = qcalc._binomial(W, oriented)
        u_c, u_e, canon, canon_key = _canonical_factor(W_ONE - LaurentPolynomial.monomial(W, oriented))
        dense = [0] * len(W)
        for i, x in low:
            dense[i] = x
        assert (u_c, u_e, canon, canon_key) == (1, tuple(dense), poly, key)
        assert led.value() == _binomial_value(e, 1)
        assert led.value().canonical_str() == _binomial_value(e, 1).canonical_str()


@settings(max_examples=150, deadline=None)
@given(ledger_rows, binomial_exps)
def test_a_ledger_converts_to_the_product_of_its_binomials(rows, unit):
    # a zero binomial (e = 0) is a zero symbol: a zero numerator, or a
    # ZeroDivisionError in the denominator, also next to a zero numerator
    want = _outcome(lambda: product_reference(
        W, [FactoredRational.monomial(W, unit)] + [_binomial_value(e, m) for e, m in rows]))
    got = _outcome(lambda: _ledger(rows, unit).value())
    assert got == want
    if isinstance(want, FactoredRational):
        assert type(got.coef) is type(want.coef)
        assert got.canonical_str() == want.canonical_str()


@settings(max_examples=150, deadline=None)
@given(ledger_rows.map(lambda rows: [(e, m) for e, m in rows if any(e)]),
       binomial_exps, st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_an_image_is_the_substitution_of_the_value(rows, unit, lam):
    # z_i -> s^{2-i} q^{lambda_i} over (q, s): a collapsing binomial makes
    # the value zero or raises exactly as FactoredRational.transform does
    mapping = {"z1": (1, (lam[0], 1)), "z2": (1, (lam[1], 0))}
    weights = ((1, 0, lam[0], lam[1]), (0, 1, 1, 0))
    led = _ledger(rows, unit)
    want = _outcome(lambda: led.value().transform(QS, mapping))
    got = _outcome(lambda: led.image(QS, weights, {}).value())
    assert got == want


@settings(max_examples=150, deadline=None)
@given(ledger_rows.map(lambda rows: [(e, m) for e, m in rows if any(e)]),
       binomial_exps, st.sampled_from([1, -1]))
def test_a_counted_valuation_is_the_valuation_of_the_value(rows, unit, sign):
    # the (q, s)-valuation after q -> q^sign, against valuation_lb of the
    # built and substituted value
    led = _ledger(rows, unit)
    value = led.value().transform(W, {"q": (1, (sign, 0, 0, 0))})
    assert led.valuation((sign, 1, 0, 0)) == value.valuation_lb(W[:2])


# -- symbol and image fills against the per-binomial reference -------------------

Z_INDICES = {ba_vars(3): [None, 1, 2, 3], QS: [None]}


@st.composite
def symbol_rows(draw, vars):
    """A ``zratio`` row (n, qpow, xpow, znum, zden, mult) over ``vars``
    whose q-range lies below, across or above the tie k = -sum(rest),
    with n in -1..4 and mult in -2..2.  A third of the rows have rest =
    0 (xpow 0, znum = zden), whose factor at the tie k = 0 is 1 - 1."""
    index = st.sampled_from(Z_INDICES[vars])
    if draw(st.integers(0, 2)):
        xpow, znum, zden = draw(st.integers(-2, 2)), draw(index), draw(index)
    else:
        xpow, znum = 0, draw(index)
        zden = znum
    tie = -(xpow + (znum is not None) - (zden is not None))
    return (draw(st.integers(-1, 4)), tie + draw(st.integers(-4, 1)), xpow, znum, zden,
            draw(st.integers(-2, 2)))


@st.composite
def ledger_maps(draw, vars):
    """``(target, weights)`` for ``Ledger.image``: z_i -> s^{3-i} q^{lambda_i}
    into (q, s) as the termination scan maps, z_i -> q^{c_i} z_i as the
    recursion maps, or any matrix with entries in -1..1 into (q, s)."""
    width = len(vars)
    kind = draw(st.sampled_from(["scan", "shift", "matrix"] if vars != QS else ["matrix"]))
    if kind == "scan":
        return QS, ((1, 0) + draw(st.tuples(*[st.integers(0, 2)] * 3)), (0, 1, 2, 1, 0))
    if kind == "shift":
        eye = [tuple(int(a == b) for a in range(width)) for b in range(width)]
        return vars, [(1, 0) + draw(st.tuples(*[st.integers(-2, 0)] * 3))] + eye[1:]
    row = st.tuples(*[st.integers(-1, 1)] * width)
    return QS, (draw(row), draw(row))


def _fill(vars, start, rows, zratio, binomial):
    """The ledger filled row by row from ``start``, by ``zratio`` for a
    symbol row and by ``binomial`` for an (e, mult) row, and the
    ``(type, message)`` of the error that stopped it, or None."""
    led = Ledger(vars, *start)
    for row in rows:
        try:
            (zratio if len(row) == 6 else binomial)(led, *row)
        except (ValueError, ZeroDivisionError) as exc:
            return led, (type(exc), str(exc))
    return led, None


def _state(led):
    if not isinstance(led, Ledger):
        return led
    return led.vars, type(led.coef), led.coef, led.unit, list(led.binomials.items())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_symbols_and_images_fill_as_one_binomial_at_a_time(data):
    # each ledger is filled by symbol and binomial rows, then mapped with
    # one table of images per side shared by all of them, collapsed
    # images included; both sides must leave the same coefficient, unit
    # and binomials, in the same order, and raise the same errors
    vars = data.draw(st.sampled_from(list(Z_INDICES)))
    start = st.tuples(st.one_of(base_coefs, st.just(0)),
                      st.tuples(*[st.integers(-2, 2)] * len(vars)))
    binomial_rows = st.tuples(st.tuples(*[st.integers(-2, 2)] * len(vars)), st.integers(-2, 2))
    rows = st.lists(st.one_of(symbol_rows(vars), binomial_rows), max_size=5)
    ledgers = data.draw(st.lists(st.tuples(start, rows), min_size=1, max_size=3))
    target, weights = data.draw(ledger_maps(vars))
    images, reference_images = {}, {}
    for start, rows in ledgers:
        got, got_error = _fill(vars, start, rows, Ledger.zratio, Ledger.binomial)
        want, want_error = _fill(vars, start, rows, zratio_reference, binomial_reference)
        assert got_error == want_error
        assert _state(got) == _state(want)
        got_image = _outcome(lambda: got.image(target, weights, images))
        want_image = _outcome(lambda: image_reference(want, target, weights, reference_images))
        assert _state(got_image) == _state(want_image)


def test_the_first_collapsed_factor_in_key_order_decides():
    # z1 -> s q, z2 -> 1 collapses both 1 - qs/z1 and 1 - qs z2/z1: the
    # one first in key order decides, a numerator for zero and a
    # denominator for ZeroDivisionError, whatever the other one is and
    # in whichever order the two were filled
    weights, mapping = ((1, 0, 1, 0), (0, 1, 1, 0)), {"z1": (1, (1, 1)), "z2": (1, (0, 0))}
    outcomes = []
    for mults in ((1, -1), (-1, 1)):
        for rows in itertools.permutations(zip([(1, 1, -1, 0), (1, 1, -1, 1)], mults)):
            led = _ledger(list(rows))
            got = _outcome(lambda: led.image(QS, weights, {}).value())
            assert got == _outcome(lambda: led.value().transform(QS, mapping))
            outcomes.append(type(got))
    assert outcomes.count(tuple) == outcomes.count(FactoredRational) == 2


def test_a_zero_factor_at_the_tie_acts_as_its_binomial():
    # (x^0 z1/z1; q)_3 from q^-1: the factor at k = 0 is 1 - 1
    vars = ba_vars(3)
    for mult in (1, -1, 0):
        led, ref = Ledger(vars), Ledger(vars)
        outcome = _outcome(lambda: led.zratio(3, -1, 0, 1, 1, mult))
        assert outcome == _outcome(lambda: zratio_reference(ref, 3, -1, 0, 1, 1, mult))
        assert _state(led) == _state(ref)
        if mult > 0:
            assert led.coef == 0
        elif mult < 0:
            assert outcome == (ZeroDivisionError, "zero polynomial in denominator")
        else:
            assert led == Ledger(vars) and not led.binomials
    with pytest.raises(ValueError, match="nonnegative"):
        Ledger(vars).zratio(-1, 0, 0, 1, 1, mult=0)


def test_zero_binomials_follow_the_product():
    zero = (0,) * len(W)
    assert _ledger([(zero, 1), ((1, 0, 0, 0), -1)]).value().is_zero()
    with pytest.raises(ZeroDivisionError):
        _ledger([(zero, 1), (zero, -1)])
    with pytest.raises(ValueError, match="valuation of zero"):
        _ledger([(zero, 1)]).valuation((1, 1, 0, 0))


# -- ledger equality ----------------------------------------------------------------
#
# A recipe (coef, unit, ops) fills a ledger over (q, s, z1, z2, z3): each
# op is ("z", n, qpow, xpow, znum, zden, mult), a ``zratio`` row, or
# ("b", e, m), a ``binomial`` row.  Equality of ledgers must be equality
# of their values, which ``rational_eq`` decides by cross-multiplying.

Z = ba_vars(3)
Z_EXPS = st.tuples(*[st.integers(-2, 2)] * len(Z)).filter(any)
Z_IDX = st.sampled_from([None, 1, 2, 3])
MULTS = st.integers(-2, 2).filter(bool)


def _zratio_base(op) -> tuple:
    """The exponent vector of the base of a ``zratio`` row at q^0."""
    _, _n, _qpow, xpow, znum, zden, _m = op
    e = [0, xpow, 0, 0, 0]
    for k, d in ((znum, 1), (zden, -1)):
        if k is not None:
            e[1 + k] += d
    return tuple(e)


def _zero_free(op) -> bool:
    """No factor of the row is 1 - 1."""
    if op[0] == "b":
        return True
    _, n, qpow = op[:3]
    return any(_zratio_base(op)) or not qpow <= 0 < qpow + n


ledger_ops = st.lists(st.one_of(
    st.tuples(st.just("z"), st.integers(0, 3), st.integers(-2, 2), st.integers(-1, 1),
              Z_IDX, Z_IDX, MULTS).filter(_zero_free),
    st.tuples(st.just("b"), Z_EXPS, MULTS)), max_size=6)
recipes = st.tuples(base_coefs, st.tuples(*[st.integers(-2, 2)] * len(Z)), ledger_ops)


def _build(recipe) -> Ledger:
    coef, unit, ops = recipe
    led = Ledger(Z, coef, unit)
    for op in ops:
        if op[0] == "z":
            led.zratio(*op[1:])
        else:
            led.binomial(*op[1:])
    return led


def _agrees_with_values(a: Ledger, b: Ledger) -> bool:
    eq = a == b
    assert (b == a) == eq and (a != b) == (not eq)
    assert eq == rational_eq(a.value(), b.value())
    return eq


@st.composite
def rerouted(draw, recipe):
    """The recipe of the same value by another route: a ``zratio`` row
    split by telescoping, (x;q)_{m+l} = (x;q)_m (xq^m;q)_l, a binomial
    row 1 - x^e written as -x^e (1 - x^-e), and the rows reordered."""
    coef, unit, ops = recipe
    ops, unit = list(ops), list(unit)
    for k, op in enumerate(list(ops)):
        if op[0] == "z" and draw(st.booleans()):
            _, n, qpow, *rest = op
            m = draw(st.integers(0, n))
            ops[k:k + 1] = [("z", m, qpow, *rest), ("z", n - m, qpow + m, *rest)]
            break
    for k, op in enumerate(ops):
        if op[0] == "b" and draw(st.booleans()):
            _, e, m = op
            ops[k] = ("b", tuple(-x for x in e), m)
            coef = coef * (-1) ** (m & 1)
            unit = [u + m * x for u, x in zip(unit, e)]
    return coef, tuple(unit), draw(st.permutations(ops))


@st.composite
def near_misses(draw, recipe):
    """The recipe with one exponent, one multiplicity, the coefficient or
    one unit entry changed."""
    coef, unit, ops = recipe
    ops, unit = list(ops), list(unit)
    where = draw(st.sampled_from(["coef", "unit"] + (["row"] if ops else [])))
    delta = draw(st.sampled_from([-1, 1]))
    if where == "coef":
        coef = coef + delta
    elif where == "unit":
        unit[draw(st.integers(0, len(Z) - 1))] += delta
    else:
        k = draw(st.integers(0, len(ops) - 1))
        op = list(ops[k])
        if op[0] == "b" and draw(st.booleans()):
            e = list(op[1])
            e[draw(st.integers(0, len(Z) - 1))] += delta
            op[1] = tuple(e)
        elif op[0] == "z" and draw(st.booleans()):
            op[2] += delta                    # the q-exponent of the base
        else:
            op[-1] += delta                   # the multiplicity
        op = tuple(op)
        assume(op[0] == "z" and _zero_free(op) or op[0] == "b" and any(op[1]))
        ops[k] = op
    return coef, tuple(unit), ops


@settings(max_examples=150, deadline=None)
@given(recipes, st.data())
def test_a_ledger_filled_by_another_route_is_equal(recipe, data):
    a, b = _build(recipe), _build(data.draw(rerouted(recipe)))
    assert _agrees_with_values(a, b)
    assert a.binomials == b.binomials and a.unit == b.unit


@settings(max_examples=200, deadline=None)
@given(recipes, st.data())
def test_ledger_equality_is_equality_of_the_values(recipe, data):
    # near misses of a ledger, and unrelated ledgers
    other = data.draw(st.one_of(near_misses(recipe), recipes))
    _agrees_with_values(_build(recipe), _build(other))


@settings(max_examples=100, deadline=None)
@given(recipes, ledger_ops)
def test_zero_ledgers_are_equal_whatever_binomials_they_carry(recipe, ops):
    zero = (0,) * len(Z)
    a = _build((0, recipe[1], recipe[2]))
    b = _build((1, zero, [("b", zero, 1)] + ops))
    assert a.coef == 0 and b.coef == 0
    assert _agrees_with_values(a, b)
    assert not _agrees_with_values(a, _build(recipe))


def test_ledger_equality_needs_the_same_context():
    a, b = Ledger(Z), Ledger(ba_vars(2))
    assert a != b and Ledger(Z, 0) != Ledger(ba_vars(2), 0)
    assert a == Ledger(Z) and a != 1
    with pytest.raises(TypeError):
        hash(a)


def test_a_single_changed_entry_is_unequal():
    # 1 - x^2 = (1 - x)(1 + x): the binomials of e and 2e are distinct
    e = (0, 1, 0, 0, 0)
    a = _build((1, (0,) * len(Z), [("b", e, 1)]))
    for other in [(1, (0,) * len(Z), [("b", (0, 2, 0, 0, 0), 1)]),
                  (1, (0,) * len(Z), [("b", e, 2)]),
                  (-1, (0,) * len(Z), [("b", e, 1)]),
                  (1, (0, 1, 0, 0, 0), [("b", e, 1)])]:
        assert not _agrees_with_values(a, _build(other))


def test_pochhammer_checks_run_before_the_cache():
    with pytest.raises(ValueError, match="monomial"):
        pochhammer(FactoredRational.from_poly(ONE - Q), 2)
    with pytest.raises(ValueError, match="monomial"):
        pochhammer(ONE + T, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        pochhammer(mono(1, 0), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        Ledger(ba_vars(2)).zratio(-1, 1, 0)
    with pytest.raises(ValueError, match="coefficient-1"):
        pochhammer(FactoredRational.monomial(("t", "q"), (0, 1)), 1)
    assert pochhammer(FactoredRational.zero(V), 3).is_one()
    assert pochhammer(LaurentPolynomial.zero(V), 3).is_one()


def _inf(order, *symbols):
    """The expansion of one ledger filled with ``Ledger.inf(order, *s)``
    for each s in ``symbols``."""
    led = Ledger(V)
    for s in symbols:
        led.inf(order, *s)
    return expand(led.value(), order)


def test_pochhammer_inf_examples():
    # (q;q)_inf to order 2: 1 - q - q^2
    s = _inf(2, (1, 0))
    assert {k: p.constant_coef() for k, p in s.coeffs.items()} == {
        (0, 0): 1, (1, 0): -1, (2, 0): -1}
    # (qt;q)_inf to order 2: only the k=0 factor contributes
    s2 = _inf(2, (1, 1))
    assert {k: p.constant_coef() for k, p in s2.coeffs.items()} == {(0, 0): 1, (1, 1): -1}
    # below the degree of its base a symbol is 1
    assert _inf(1, (1, 1)).is_one()


def test_pochhammer_inf_matches_finite():
    order = 4
    assert _inf(order, (0, 1)) == expand(pochhammer(mono(0, 1), order + 1), order)


def test_pochhammer_inf_rejects_degree_zero():
    # (1;q) and (q^-1;q): a base of degree <= 0 gives no truncated product
    for qpow in (0, -1):
        with pytest.raises(NonConvergent):
            Ledger(V).inf(2, qpow, 0)
        with pytest.raises(NonConvergent):
            pochhammer_inf(mono(qpow, 0), 2)


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("qpow, xpow, znum, zden", [
    (1, 0, None, None), (0, 1, None, None), (1, 1, 2, 1), (1, 0, 1, 3), (2, -1, 3, 2), (0, 2, 2, 3)])
def test_ledger_inf_equals_the_expanded_symbols(qpow, xpow, znum, zden, order):
    # a symbol and its inverse, each with multiplicity up to 2, against
    # the series of the symbol expanded alone and inverted as a series
    vars = lau_vars(3)
    e = [qpow, xpow, 0, 0, 0]
    for k, d in ((znum, 1), (zden, -1)):
        if k is not None:
            e[1 + k] += d
    one = pochhammer_inf(FactoredRational.monomial(vars, e), order)
    for mult in (1, 2, -1, -2):
        led = Ledger(vars)
        led.inf(order, qpow, xpow, znum, zden, mult)
        want = one if mult > 0 else series_inverse(one)
        if abs(mult) == 2:
            want = (want * want).truncate(order)
        assert expand(led.value(), order) == want


@dataclass(frozen=True)
class QShift:
    """Substitution variable -> q^power * variable.

    Composition of shifts in the same variable adds powers; a shift is
    inverted by negating its power.
    """

    variable: str
    power: int

    def compose(self, other: "QShift") -> "QShift":
        if self.variable != other.variable:
            raise ValueError("cannot compose shifts in different variables")
        return QShift(self.variable, self.power + other.power)

    def inverse(self) -> "QShift":
        return QShift(self.variable, -self.power)


def apply_qshift(obj, shift: QShift, qvar: str = "q"):
    """Apply the substitution v -> q^power * v exactly, term by term.

    Acts on polynomials and factored rationals over a context containing
    both the shifted variable and ``q``.  For an :class:`XSeries` the
    ratio variables are positional: name them ``x1``, ``x2``, ... and
    each coefficient picks up q^{power * alpha_i}.
    """
    if isinstance(obj, (LaurentPolynomial, FactoredRational)):
        if shift.variable not in obj.vars:
            raise ValueError(f"unknown variable {shift.variable}")
        e = [0] * len(obj.vars)
        e[obj.vars.index(shift.variable)] = 1
        e[obj.vars.index(qvar)] += shift.power
        return obj.transform(obj.vars, {shift.variable: (1, tuple(e))})
    i = int(shift.variable[1:])
    iq = obj.base_vars.index(qvar)

    def twist(k, c):
        e = [0] * len(obj.base_vars)
        e[iq] = shift.power * k[i - 1]
        return c * FactoredRational.monomial(obj.base_vars, e)

    return obj.map_coeffs(twist)


def test_qshift_action_and_composition():
    W = ("q", "s", "y1", "y2")
    y1 = LaurentPolynomial.var(W, "y1")
    y2 = LaurentPolynomial.var(W, "y2")
    shifted = apply_qshift(y1 + y2, QShift("y1", 1))
    assert shifted == LaurentPolynomial.monomial(W, (1, 0, 1, 0)) + y2
    s = QShift("y1", 2)
    assert s.compose(QShift("y1", -2)) == QShift("y1", 0)
    assert s.inverse() == QShift("y1", -2)


def test_qshift_is_invertible_ring_hom():
    W = ("q", "s", "y1", "y2")
    a = LaurentPolynomial.var(W, "y1") + LaurentPolynomial.var(W, "q")
    b = LaurentPolynomial.var(W, "y2") - LaurentPolynomial.one(W)
    s = QShift("y2", 3)
    assert apply_qshift(a * b, s) == apply_qshift(a, s) * apply_qshift(b, s)
    assert apply_qshift(apply_qshift(a * b, s), s.inverse()) == a * b


def test_qshift_on_x_series():
    base = ("q", "t")
    # x1 x2: shifting x1 up by q and x2 down by q^-1 cancels
    s = XSeries(2, base, 2, {(1, 1): FactoredRational.one(base)})
    up = apply_qshift(s, QShift("x1", 1))
    down = apply_qshift(up, QShift("x2", -1))
    assert down.coeffs == s.coeffs
    # a lone x1 picks up one power of q
    s1 = XSeries(2, base, 2, {(1, 0): FactoredRational.one(base)})
    shifted = apply_qshift(s1, QShift("x1", -1))
    assert shifted.coeffs[(1, 0)] == FactoredRational.monomial(base, (-1, 0))


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_cn_and_substitution_decide_on_ledgers_alone(monkeypatch):
    # every module that binds rational_eq is counted, and so are the
    # ledger conversion and the substitution of a factored rational
    counts: dict = {}
    for mod in [m for k, m in sys.modules.items() if k.startswith("maclab")]:
        if hasattr(mod, "rational_eq"):
            _count_calls(monkeypatch, mod, "rational_eq", counts)
    _count_calls(monkeypatch, Ledger, "value", counts)
    _count_calls(monkeypatch, FactoredRational, "transform", counts)
    assert run_check("cn", max_entry=2, max_n=4).status == Status.PASSED
    assert counts == {}
    assert run_check("substitution", n=3, degree=3).status == Status.PASSED
    assert counts == {}
