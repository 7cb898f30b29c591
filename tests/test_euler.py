"""Global characters: Weyl sums, stable limits, closed forms, shift operator."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclab import euler, memo, qcalc
from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.checks import run_check
from maclab.euler import (
    F_poly,
    GLWeight,
    H0_closed,
    H_limit,
    W_poly,
    chi_bQ_closed,
    chi_bQ_localization,
    euler_char_global,
    euler_char_series,
    frakD_K,
    h_series,
    hp_prefactor,
    verify_cor_diff,
    weyl_invariance_check,
)
from maclab.reports import Status
from maclab.laumon import C_theta, lau_vars
from maclab.qcalc import Ledger
from maclab.series import (
    InsufficientTruncation,
    NonPolynomialCoefficient,
    certify_weyl_sum,
    expand,
    expand_sum,
)
from maclab.tableaux import theta_by_degree
from weyl_reference import (
    _arc_terms,
    _certify_by_images,
    built_j_valuation,
    expand_by_images,
    plant_uncancelled_pole,
    weyl_images,
)

QT = ("q", "t")


def test_weight_coordinates():
    w = GLWeight((2, 1))
    assert w.components() == (3, 1, 0)
    assert w.partition() == (3, 2)
    assert w.is_dominant()
    assert not GLWeight((-1, 2)).is_dominant()
    assert w.pairing((1, 0)) == 2
    # simple coroot / fundamental weight duality
    for i in range(2):
        gamma = tuple(1 if k == i else 0 for k in range(2))
        for j in range(2):
            lv = tuple(1 if k == j else 0 for k in range(2))
            assert GLWeight(lv).pairing(gamma) == (1 if i == j else 0)


def test_weight_is_immutable_and_keys_the_z_table_by_value():
    w = GLWeight((1, 0))
    for name, value in (("lvec", (0, 1)), ("n", 4)):
        with pytest.raises(AttributeError):
            setattr(w, name, value)
    assert (w.lvec, w.n) == ((1, 0), 3)
    assert w == GLWeight([1, 0]) and hash(w) == hash(GLWeight([1, 0]))
    assert w != GLWeight((0, 1)) and w != (1, 0)
    table = euler._mz_memo
    table.clear()
    hits, misses = table.hits, table.misses
    first = euler.macdonald_in_z(w)
    assert euler.macdonald_in_z(GLWeight((1, 0))) is first
    assert (table.hits - hits, table.misses - misses) == (1, 1)
    assert len(table) == 1


def test_shift_map():
    w = GLWeight((1, 1))
    assert w.shifted(1).lvec == (0, 1)
    assert w.shifted(2).lvec == (2, 0)
    assert w.shifted(3).lvec == (1, 2)


def test_euler_char_base_case():
    # degree 0, untwisted: the Weyl sum collapses to the t-factorial 1 + t
    val = euler_char_global((0,), GLWeight((0,)))
    lau = val.to_laurent()
    v = lau.vars
    assert lau == LaurentPolynomial(v, {(0, 0, 0): 1, (0, 1, 0): 1})


def test_euler_char_degree_one_is_t_polynomial():
    val = euler_char_global((1,), GLWeight((0,))).to_laurent()
    assert val == LaurentPolynomial(val.vars, {(0, b, 0): 1 for b in range(4)})


def test_weyl_invariance():
    assert weyl_invariance_check((1,), GLWeight((1,))) is True
    assert weyl_invariance_check((1, 1), GLWeight((1, 0))) is True


def test_H0_examples():
    h2 = H0_closed(2)
    one = LaurentPolynomial.one(h2.vars)
    t = LaurentPolynomial.var(h2.vars, "t")
    assert rational_eq(h2, FactoredRational(h2.vars, 1, None, [(one - t, -1)]))
    s3 = expand(H0_closed(3), 3)
    assert [s3.coeffs[(0, b)].constant_coef() for b in range(4)] == [1, 3, 7, 13]


def test_H0_equals_W_times_F():
    for n in range(2, 5):
        W = W_poly(n)
        F = F_poly(n, 8)
        WF = [sum(W[i] * F[k - i] for i in range(min(len(W), k + 1))) for k in range(9)]
        h0 = expand(H0_closed(n), 8)
        vals = [(h0.coeffs.get((0, b)).constant_coef() if (0, b) in h0.coeffs else 0)
                for b in range(9)]
        assert WF == vals, n


def test_F_poly_rank_two():
    # only the simple root contributes, with weight 2 per copy
    assert F_poly(2, 6) == [1, 0, 1, 0, 1, 0, 1]


def test_H_limit_matches_closed_forms():
    assert H_limit(GLWeight((0,)), 2) == expand(H0_closed(2), 2)
    w = GLWeight((1,))
    assert H_limit(w, 2) == h_series(w, 2)
    # (z1+z2)/(1-q) on the SL torus
    s = h_series(w, 2)
    zpart = s.coeffs[(0, 0)]
    assert zpart == LaurentPolynomial(s.coeff_vars, {(1,): 1, (-1,): 1})


def test_H_limit_vanishes_for_nondominant():
    assert H_limit(GLWeight((-1,)), 2).is_zero()
    assert H_limit(GLWeight((-1, 0)), 1).is_zero()


def test_H_limit_raises_on_unstable_schedule():
    import pytest
    from maclab.euler import NotStabilized

    with pytest.raises(NotStabilized):
        H_limit(GLWeight((0,)), 2, schedule=[(0,), (1,)])
    with pytest.raises(ValueError, match="at least two points"):
        H_limit(GLWeight((1, 0)), 1, schedule=[])
    with pytest.raises(ValueError, match="at least two points"):
        H_limit(GLWeight((0,)), 2, schedule=[(1,)])


def test_H_limit_evaluates_only_the_last_two_schedule_points(monkeypatch):
    import maclab.euler

    seen = []
    real = maclab.euler.euler_char_series

    def spy(alpha, weight, order):
        seen.append(tuple(alpha))
        return real(alpha, weight, order)

    monkeypatch.setattr(maclab.euler, "euler_char_series", spy)
    w = GLWeight((1,))
    assert H_limit(w, 2) == h_series(w, 2)
    assert seen == [(3,), (4,)]


def test_K_examples():
    one = LaurentPolynomial.one(QT)
    q = LaurentPolynomial.var(QT, "q")
    t = LaurentPolynomial.var(QT, "t")
    k2 = frakD_K(GLWeight((0,)), 2)
    assert rational_eq(k2, FactoredRational(QT, 1, None, [(one - q, 1), (one - t, -1)]))
    k1 = frakD_K(GLWeight((0,)), 1)
    num = one - LaurentPolynomial.monomial(QT, (-1, 2))
    assert rational_eq(k1, FactoredRational(QT, 1, None, [(num, 1), (one - t, -1)]))


def test_cordiff_hand_case():
    # N=2, weight 0: K_2(0) G(w1) = (z1+z2) G(0)
    assert verify_cor_diff(GLWeight((0,))) is True


def test_cordiff_exact_small():
    for lv in [(1,), (2,), (0, 0), (1, 0), (0, 1)]:
        assert verify_cor_diff(GLWeight(lv)) is True, lv


def test_hp_closed_form_pieces():
    weight = GLWeight((1,))
    pref = hp_prefactor(weight)
    assert weight.partition() == (1,)
    one = LaurentPolynomial.one(QT)
    q = LaurentPolynomial.var(QT, "q")
    t = LaurentPolynomial.var(QT, "t")
    assert rational_eq(pref, FactoredRational(QT, 1, None, [(one - t, 1), (one - q, -1)]))


def test_hp_series_cross_check():
    # N=2, weight 2: against the stable limit at order 3
    w = GLWeight((2,))
    assert H_limit(w, 3, schedule=[(3,), (4,), (5,)]) == h_series(w, 3)


def test_chi_bQ():
    for lv in [(0,), (1,)]:
        w = GLWeight(lv)
        assert chi_bQ_closed(w, 2) == chi_bQ_localization(w, 2), lv
    # past the acceptance range: the cutoff is proved, not tuned to order 2
    for lv in [(0, 0), (1, 0)]:
        w = GLWeight(lv)
        assert chi_bQ_closed(w, 3) == chi_bQ_localization(w, 3), lv
    # the N=2 closed form has no extra infinite-product factor
    w0 = GLWeight((0,))
    assert chi_bQ_closed(w0, 2) == expand(H0_closed(2), 2)
    # N=3 untwisted: H0(3) * (t;q)_inf / (q t^2;q)_inf expanded
    w3 = GLWeight((0, 0))
    s = chi_bQ_closed(w3, 1)
    assert s.coeffs[(0, 0)].constant_coef() == 1
    assert s.coeffs[(0, 1)].constant_coef() == 2   # 3 (from H0) - 1 (from (t;q)_inf)


def test_c_glob_entries_share_factor_objects():
    # the cached C_theta values take every factor polynomial from
    # qcalc._binomial, so they keep one object per distinct factor, and
    # they equal the substitution of the value
    memo.clear_all()
    n, gv = 3, euler.glob_vars(3)
    seen = {}
    for w in [(1, 2, 3), (3, 1, 2)]:
        mapping = {f"z{i}": (1, euler._wslot_exp(n, i, w)) for i in range(1, n + 1)}
        for th in theta_by_degree(n, (1, 2)):
            got = euler._C_glob(th.entry_list(), n, w, False)
            assert got == C_theta(th, n).transform(gv, mapping)
            shared = {key: poly for key, poly, _low in qcalc._binomial.table.values()}
            for key, (poly, _) in got._fmap.items():
                assert shared[key] is poly
                assert seen.setdefault(key, poly) is poly
    assert len(seen) > 1


# -- the Weyl orbit against per-w summands ------------------------------------


def _weyl_group(n):
    return list(permutations(range(1, n + 1)))


def _per_w_series(alpha, weight, order):
    """The reference: the summands of every Weyl element built and
    expanded on their own, in one expand_sum with identity images."""
    terms = [t for w in _weyl_group(weight.n)
             for t in euler._localization_terms(alpha, weight, w)]
    return expand_sum(terms, order)


@st.composite
def localization_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    lv = draw(st.tuples(*[st.integers(-1, 2)] * (n - 1)))
    alpha = draw(st.tuples(*[st.integers(0, 3)] * (n - 1)))
    return alpha, GLWeight(lv), draw(st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(localization_cases())
def test_orbit_series_equals_per_w_expansion(case):
    alpha, weight, order = case
    assert euler_char_series(alpha, weight, order) == _per_w_series(alpha, weight, order)


def _orbit_series(alpha, weight, order):
    """The expansion that the J-piece convolution and the antisymmetriser
    replaced: every w = id summand built as one product and expanded, the
    Weyl images added one by one by the reference certification."""
    n = weight.n
    terms = euler._localization_terms(alpha, weight, tuple(range(1, n + 1)))
    return expand_by_images(terms, order, weyl_images(n))


# (weight, alpha) -> the orbit expansion to order 2; it is exact below
# order 2, so its truncations are the expansions to orders 0 and 1
_orbit_reference: dict = {}


def _clear_j_tables():
    """Empty the J-piece tables, as in a fresh process."""
    euler._j_piece.table.clear()
    euler._j_valuation.table.clear()


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("lv", [lv for n in (2, 3) for lv in product(range(-1, 3), repeat=n - 1)],
                         ids=str)
def test_convolution_equals_orbit_expansion_on_a_grid(lv, cache):
    # alpha_i in 0..3 and order 0..2; "cold" empties the J-piece tables
    # before every call, "warm" reuses what the earlier calls left there
    weight = GLWeight(lv)
    for alpha in product(range(4), repeat=len(lv)):
        if (lv, alpha) not in _orbit_reference:
            _orbit_reference[(lv, alpha)] = _orbit_series(alpha, weight, 2)
        for order in range(3):
            if cache == "cold":
                _clear_j_tables()
            expected = _orbit_reference[(lv, alpha)].truncate(order)
            assert euler_char_series(alpha, weight, order) == expected, (alpha, order)


def test_a_second_identical_check_reuses_the_j_pieces():
    # the J-piece tables live as long as the process: a second identical
    # hp run finds every piece and valuation it asks for
    tables = (euler._j_piece.table, euler._j_valuation.table)
    _clear_j_tables()
    params = {"max_n": 3, "order": 1, "max_weight_sum": 1}
    assert run_check("hp", **params).status == Status.PASSED
    first = [(len(t), t.misses) for t in tables]
    assert all(size > 0 for size, _misses in first)
    hits = [t.hits for t in tables]
    assert run_check("hp", **params).status == Status.PASSED
    assert [(len(t), t.misses) for t in tables] == first
    assert all(t.hits > h for t, h in zip(tables, hits))


@pytest.mark.parametrize("lv", [(0,), (1,), (2,), (0, 0), (1, 0), (0, 1)])
def test_arc_orbit_sum_equals_per_w_expansion(lv):
    weight, order = GLWeight(lv), 2
    n = weight.n
    terms = [t for w in _weyl_group(n)
             for t in _arc_terms(weight, order, w, 2)]
    got = chi_bQ_localization(weight, order)
    assert got == expand_sum(terms, order)
    ident_terms = _arc_terms(weight, order, tuple(range(1, n + 1)), 2)
    assert got == expand_by_images(ident_terms, order, weyl_images(n))


def _degrees_upto(n, top):
    """Every degree vector d of rank n with |d| <= top."""
    return [d for d in product(range(top + 1), repeat=n - 1) if sum(d) <= top]


@pytest.mark.parametrize("n, top", [(2, 8), (3, 6), (4, 4)])
def test_inverted_pieces_meet_the_proved_bound(n, top):
    # the cutoff of chi_bQ_localization: valuation_lb(C_theta(q^-1)) is
    # at least the entry sum of theta, which is at least max(d)
    ident = tuple(range(1, n + 1))
    for d in _degrees_upto(n, top):
        for th in theta_by_degree(n, d):
            value = euler._C_glob(th.entry_list(), n, ident, True)
            assert value.valuation_lb(QT) >= sum(th.entries.values()) >= max(d), th
        assert euler._j_valuation(n, d, True) >= max(d), d


def _times_q(led, qpow):
    """A copy of the ledger ``led`` times q^qpow; ``led`` is left as it is."""
    out = Ledger(led.vars, led.coef, [led.unit[0] + qpow] + led.unit[1:])
    out.binomials = dict(led.binomials)
    return out


def test_a_piece_below_the_proved_bound_raises(monkeypatch):
    # a power of q planted in the shared ledger of one theta of degree
    # (1, 1) takes its inverted value to valuation 0, below max(d) = 1;
    # the count and the values both see it, and the sum must refuse the
    # piece, not drop its low terms
    real = euler._c_ledger
    first = theta_by_degree(3, (1, 1))[0].entry_list()

    def c_ledger(theta_key, n):
        led = real(theta_key, n)
        if (theta_key, n) == (first, 3):
            led = _times_q(led, led.valuation((-1, 1, 0, 0, 0)))
        return led

    memo.clear_all()
    monkeypatch.setattr(euler, "_c_ledger", c_ledger)
    try:
        assert euler._j_valuation(3, (1, 1), True) < 1
        with pytest.raises(InsufficientTruncation):
            chi_bQ_localization(GLWeight((0, 0)), 2)
    finally:
        memo.clear_all()


@pytest.mark.parametrize("inverted, degree", [(True, (1, 0)), (False, (1, 1))])
def test_a_value_below_its_counted_valuation_raises(monkeypatch, inverted, degree):
    # q^-1 planted in one value of an expanded piece, but not in its
    # ledger: the count no longer bounds the values, and the sum must
    # raise, not return.  The inverted piece of degree (1, 0) is expanded
    # by chi_bQ_localization, the plain one of degree (1, 1) by
    # euler_char_series at alpha = (1, 1)
    real = euler._j_values

    def j_values(n, d, inv):
        values = real(n, d, inv)
        if (inv, d) == (inverted, degree):
            shift = FactoredRational.monomial(euler.glob_vars(n), (-1,) + (0,) * n)
            values = [values[0] * shift] + values[1:]
        return values

    _clear_j_tables()
    monkeypatch.setattr(euler, "_j_values", j_values)
    try:
        with pytest.raises(InsufficientTruncation, match="counted valuation"):
            if inverted:
                chi_bQ_localization(GLWeight((0, 0)), 2)
            else:
                euler_char_series((1, 1), GLWeight((0, 0)), 2)
    finally:
        _clear_j_tables()


@pytest.mark.parametrize("inverted", [False, True])
@pytest.mark.parametrize("n, top", [(2, 8), (3, 5), (4, 3)])
def test_counted_valuation_equals_the_built_values(n, top, inverted):
    # the count of every theta against valuation_lb of its built value,
    # and of every piece with each d_k <= top against the reference
    grading = (-1 if inverted else 1, 1) + (0,) * n
    ident = tuple(range(1, n + 1))
    _clear_j_tables()
    for d in product(range(top + 1), repeat=n - 1):
        for th in theta_by_degree(n, d):
            built = euler._C_glob(th.entry_list(), n, ident, inverted).valuation_lb(QT)
            assert euler._c_ledger(th.entry_list(), n).valuation(grading) == built, th
        assert euler._j_valuation(n, d, inverted) == built_j_valuation(n, d, inverted), d


def test_c_theta_reaches_the_sl_context_without_a_transform(monkeypatch):
    # the valuation count builds no factored rational, and the Weyl and
    # q-inversion images of C_theta map its ledger, not its value
    built, transforms = [], []
    real_init, real_from_map = FactoredRational.__init__, FactoredRational._from_map.__func__
    real_transform = FactoredRational.transform

    def init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    def from_map(cls, *args):
        built.append(args[0])
        return real_from_map(cls, *args)

    def transform(self, *args):
        transforms.append(self.vars)
        return real_transform(self, *args)

    monkeypatch.setattr(FactoredRational, "__init__", init)
    monkeypatch.setattr(FactoredRational, "_from_map", classmethod(from_map))
    monkeypatch.setattr(FactoredRational, "transform", transform)
    memo.clear_all()
    assert euler._j_valuation(3, (2, 2), True) >= 2
    assert euler._j_valuation(3, (2, 2), False) >= 0
    assert built == []
    for w in permutations(range(1, 4)):
        for inverted in (False, True):
            euler._C_glob((1, 0, 1), 3, w, inverted)
    assert transforms == []
    assert len(built) == 12


def test_a_cold_arc_space_sum_converts_only_the_expanded_thetas(monkeypatch):
    # at N = 4, weight 0, order 2 the proved box holds 27 degree vectors;
    # the counts leave 4 pieces, and only their thetas get a value
    expanded = []
    real = euler._j_piece

    def j_piece(n, degree, inverted, trunc):
        expanded.append((n, degree, inverted))
        return real(n, degree, inverted, trunc)

    memo.clear_all()
    monkeypatch.setattr(euler, "_j_piece", j_piece)
    chi_bQ_localization(GLWeight((0, 0, 0)), 2)
    ident = (1, 2, 3, 4)
    used = {(th.entry_list(), n, ident, inverted)
            for n, degree, inverted in expanded for th in theta_by_degree(n, degree)}
    assert set(euler._c_cache) == used
    assert len(used) == 4


def test_c_glob_inverts_q_in_its_one_substitution():
    # the reference is the two-step path: q -> 1/q over (q, t, z_1 .. z_N),
    # then z -> wz into the SL context
    pairs = 0
    for n, top in ((2, 3), (3, 3), (4, 2)):
        gv = euler.glob_vars(n)
        inv = (-1,) + (0,) * (len(lau_vars(n)) - 1)
        for w in permutations(range(1, n + 1)):
            mapping = {f"z{i}": (1, euler._wslot_exp(n, i, w)) for i in range(1, n + 1)}
            for d in _degrees_upto(n, top):
                for th in theta_by_degree(n, d):
                    ref = C_theta(th, n).transform(lau_vars(n), {"q": (1, inv)})
                    ref = ref.transform(gv, mapping)
                    got = euler._C_glob(th.entry_list(), n, w, True)
                    assert got.canonical_str() == ref.canonical_str(), (th, w)
                    pairs += 1
    assert pairs == 374


def _summed_split(monkeypatch, alpha, weight, order):
    """The split series, context and order that euler_char_series
    certifies."""
    seen = []
    real = euler.certify_weyl_sum

    def certify(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(euler, "certify_weyl_sum", certify)
    series = euler_char_series(alpha, weight, order)
    monkeypatch.setattr(euler, "certify_weyl_sum", real)
    (args,) = seen
    return series, args


@pytest.mark.parametrize("alpha, lv, order", [
    ((1, 1, 1), (0, 0, 0), 2), ((1, 1, 1), (1, 0, 0), 2), ((2, 2, 2), (0, 0, 1), 1),
    ((2, 1, 1), (-1, 1, 0), 2), ((1, 2, 1), (0, -1, 1), 2)])
def test_antisymmetriser_equals_the_image_loop_at_rank_4(monkeypatch, alpha, lv, order):
    # the last two weights are nondominant: their sums vanish
    series, (split, vars, trunc) = _summed_split(monkeypatch, alpha, GLWeight(lv), order)
    assert series == _certify_by_images(split, vars, trunc, images=weyl_images(4))
    assert series.is_zero() == (min(lv) < 0)


@pytest.mark.parametrize("how", ["missing", "perturbed"])
def test_a_planted_uncancelled_pole_raises(monkeypatch, how):
    # the sum of the other images cannot hide a double pole whose w = id
    # group is broken: both certifications refuse it
    _series, (split, vars, trunc) = _summed_split(monkeypatch, (2, 2), GLWeight((1, 0)), 2)
    assert certify_weyl_sum(split, vars, trunc) == _series
    broken = plant_uncancelled_pole(split, how)
    with pytest.raises(NonPolynomialCoefficient):
        certify_weyl_sum(broken, vars, trunc)
    with pytest.raises(NonPolynomialCoefficient):
        _certify_by_images(broken, vars, trunc, images=weyl_images(3))


@pytest.mark.parametrize("alpha, lv", [((2,), (1,)), ((3,), (-1,)), ((1, 1), (1, 0)),
                                       ((1, 1), (-1, 1))])
def test_global_character_expands_to_the_orbit_series(alpha, lv):
    # euler_char_global adds the independently built summands of every w
    weight = GLWeight(lv)
    total = euler_char_global(alpha, weight).to_laurent()
    assert expand(FactoredRational.from_poly(total), 2) == euler_char_series(alpha, weight, 2)


@pytest.mark.parametrize("n, broken", [(2, (2, 1)), (3, (2, 3, 1))])
def test_weyl_check_fails_on_a_broken_w_term(monkeypatch, n, broken):
    # the check must see each w-term as built, not an image of the w = id term
    params = {"n": n, "alpha": (1,) * (n - 1), "weight": (1,) + (0,) * (n - 2)}
    assert run_check("weyl", **params).status == Status.PASSED
    real = euler._weyl_factor

    def weyl_factor(n, w):
        f = real(n, w)
        return f.scale(2) if w == broken else f

    monkeypatch.setattr(euler, "_weyl_factor", weyl_factor)
    assert run_check("weyl", **params).status == Status.FAILED
