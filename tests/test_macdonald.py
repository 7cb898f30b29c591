"""Macdonald polynomials: tableau sum, difference operator, oracle, Pieri."""

import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maclab.checks
import maclab.macdonald
from maclab.algebra import FactoredRational, LaurentPolynomial, rational_eq
from maclab.checks import run_check
from maclab.euler import GLWeight, _zsum, glob_vars, macdonald_in_z
from maclab.macdonald import (
    DenominatorSurvives,
    SymmetricPolynomial,
    _d1n_m_action,
    _schur_m,
    apply_D1N,
    eigen_residual,
    eigenvalue,
    mac_vars,
    macdonald_P,
    macdonald_P_oracle,
    monomial_symmetric,
    oracle_rows,
    pieri_L,
    psi_T,
    satisfies_oracle,
)
from maclab.reports import Status
from maclab.tableaux import (
    Partition,
    ThetaMatrix,
    dominates,
    enumerate_pol_lambda,
    partitions_of,
    partitions_upto,
    strip_sizes,
)
from algebra_reference import clear_denominators

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


def apply_D1N_reference(f, n):
    """The operator by its general formula: all N summands over the full
    Vandermonde V = prod_{a<b} (y_a - y_b), then V divided out; summand i
    is prod_{j != i} (s y_i - y_j) times the pairs of V without i, signed
    by prod_{j<i} (y_j - y_i) relative to (y_i - y_j), times T_{q,y_i} f."""
    vars = mac_vars(n)

    def y(i):
        return LaurentPolynomial.var(vars, f"y{i}")

    s_mono = LaurentPolynomial.var(vars, "s")
    total = LaurentPolynomial.zero(vars)
    for i in range(1, n + 1):
        e = [0] * len(vars)
        e[0] = 1
        e[vars.index(f"y{i}")] = 1
        tf = f.transform(vars, {f"y{i}": (1, tuple(e))})
        num = LaurentPolynomial.one(vars)
        for j in range(1, n + 1):
            if j != i:
                num = num * (s_mono * y(i) - y(j))
        comp = LaurentPolynomial.one(vars)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if a != i and b != i:
                    comp = comp * (y(a) - y(b))
        term = num * comp * tf
        total = total + (term if (i - 1) % 2 == 0 else -term)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            total = total.divide_exact(y(a) - y(b))
    return total


@st.composite
def symmetric_polys(draw):
    """A few random terms over (q, s, y_1..y_n), n = 1..4, each summed over
    every permutation of its y-exponents."""
    n = draw(st.integers(1, 4))
    coefs = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))
    seeds = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * (2 + n)),
                                 coefs.filter(bool), min_size=1, max_size=3))
    terms: dict = {}
    for e, c in seeds.items():
        for perm in permutations(e[2:]):
            k = e[:2] + perm
            terms[k] = terms.get(k, 0) + Fraction(c)
    return n, LaurentPolynomial(mac_vars(n), terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_polys())
def test_apply_D1N_matches_general_formula(case):
    n, f = case
    assert apply_D1N(f, n) == apply_D1N_reference(f, n)


def test_apply_D1N_rejects_asymmetric_input_the_reference_divides():
    # -q y1^3 + (q^2 + q + 1) y1^2 y2: V divides the general formula's sum,
    # but the operator is defined on symmetric polynomials only
    v = mac_vars(2)
    f = LaurentPolynomial(v, {(1, 0, 3, 0): -1, (2, 0, 2, 1): 1,
                              (1, 0, 2, 1): 1, (0, 0, 2, 1): 1})
    assert not apply_D1N_reference(f, 2).is_zero()
    with pytest.raises(DenominatorSurvives, match=re.escape("(y1 - y2)")):
        apply_D1N(f, 2)


def m_expansion(f, n):
    """The m-expansion of a symmetric polynomial over (q, s, y_1..y_N),
    read off its dominant monomials: partition -> polynomial over (q, s)."""
    out: dict = {}
    for e, c in f.terms.items():
        ye = e[2:]
        if all(a >= b for a, b in zip(ye, ye[1:])):
            mu = Partition(ye)
            out[mu] = out.get(mu, LaurentPolynomial.zero(QS)) \
                + LaurentPolynomial.monomial(QS, e[:2], c)
    return {mu: p for mu, p in out.items() if not p.is_zero()}


ACTION_RANGE = [(mu, n) for n in range(1, 5) for mu in partitions_upto(6, n)] \
    + [(mu, 5) for mu in partitions_upto(4, 5)]


def test_oracle_action_equals_the_divided_operator_image():
    # the alternant coefficients of V D m_mu through the Schur basis,
    # against the folded sum divided by V
    for mu, n in ACTION_RANGE:
        expected = m_expansion(apply_D1N(monomial_symmetric(mu, n), n), n)
        assert _d1n_m_action.__wrapped__(mu, n) == expected, (mu, n)


def test_schur_m_expansion_counts_tableaux():
    # Kostka numbers: the tableaux of shape lambda with dominant weight nu
    for n in range(1, 5):
        for lam in partitions_upto(6, n):
            kostka = Counter()
            for th in enumerate_pol_lambda(lam, n):
                w = strip_sizes(th, lam)
                if all(a >= b for a, b in zip(w, w[1:])):
                    kostka[Partition(w)] += 1
            assert _schur_m(lam, n) == kostka, (lam, n)


def test_oracle_action_divides_over_y_only(monkeypatch):
    divide = LaurentPolynomial.divide_exact
    contexts = []

    def recording(self, divisor):
        contexts.append(self.vars)
        return divide(self, divisor)

    def refused(f, n):
        raise AssertionError("apply_D1N called")

    monkeypatch.setattr(LaurentPolynomial, "divide_exact", recording)
    monkeypatch.setattr(maclab.macdonald, "apply_D1N", refused)
    _schur_m.table.clear()
    for mu in partitions_upto(4, 3):
        _d1n_m_action.__wrapped__(mu, 3)
    assert contexts
    assert all(vars == ("y1", "y2", "y3") for vars in contexts)


def eigen_holds_reference(P, ev):
    """The eigen identity through the y-expansion: D applied to P with its
    denominators cleared, compared with ev times the same polynomial."""
    n = P.n
    poly, _den = clear_denominators(P)
    return apply_D1N(poly, n) == ev.transform(mac_vars(n), {}) * poly


CRITERION_2 = [(lam, n) for n in range(1, 5) for lam in partitions_upto(5, n)]


def test_eigen_identity_small():
    # the whole range of criterion 2, by both routes to the operator
    for (lam, n) in CRITERION_2:
        P, ev = macdonald_P(lam, n), eigenvalue(lam, n)
        assert eigen_holds_reference(P, ev), (lam, n)
        assert eigen_residual(P, ev) == {}, (lam, n)


@pytest.mark.parametrize("shift", [Q, -S], ids=["ev+q", "ev-s"])
def test_eigen_residual_rejects_a_wrong_eigenvalue(shift):
    for (lam, n) in CRITERION_2:
        P, ev = macdonald_P(lam, n), eigenvalue(lam, n) + shift
        assert not eigen_holds_reference(P, ev), (lam, n)
        assert eigen_residual(P, ev), (lam, n)


def test_eigen_residual_refuses_an_eigenvalue_over_y():
    ev = eigenvalue((2, 1), 3).transform(mac_vars(3), {})
    with pytest.raises(ValueError):
        eigen_residual(macdonald_P((2, 1), 3), ev)


def test_eigen_residual_rejects_a_perturbed_coefficient():
    # one m-coefficient times q: no longer an eigenfunction unless that
    # coefficient is all of P
    q = FactoredRational.from_poly(Q)
    for (lam, n) in CRITERION_2:
        P, ev = macdonald_P(lam, n), eigenvalue(lam, n)
        for mu, c in P.mcoeffs.items():
            bad = SymmetricPolynomial(n, {**P.mcoeffs, mu: c * q})
            holds = len(P.mcoeffs) == 1
            assert eigen_holds_reference(bad, ev) == holds, (lam, n, mu)
            assert (eigen_residual(bad, ev) == {}) == holds, (lam, n, mu)


@st.composite
def m_expansions(draw):
    """n = 1..3, up to three partitions of size <= 3, each with a small
    polynomial coefficient over (q, s), and an arbitrary 'eigenvalue'."""
    n = draw(st.integers(1, 3))
    polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.integers(-2, 2).filter(bool), min_size=1, max_size=3)
    coeffs = draw(st.dictionaries(st.sampled_from(partitions_upto(3, n)),
                                  polys, min_size=1, max_size=3))
    P = SymmetricPolynomial(n, {mu: FactoredRational.from_poly(LaurentPolynomial(QS, t))
                                for mu, t in coeffs.items()})
    return P, LaurentPolynomial(QS, draw(polys))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(m_expansions())
def test_eigen_residual_is_the_bialternant_of_the_operator_image(case):
    # V * (D - ev) P through apply_D1N, read at strictly decreasing exponents
    P, ev = case
    n = P.n
    vars = mac_vars(n)
    poly, den = clear_denominators(P)
    assert den.is_one()
    vandermonde = LaurentPolynomial.one(vars)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            vandermonde = vandermonde * (LaurentPolynomial.var(vars, f"y{a}")
                                         - LaurentPolynomial.var(vars, f"y{b}"))
    image = (apply_D1N(poly, n) - ev.transform(vars, {}) * poly) * vandermonde
    expected: dict = {}
    for e, c in image.terms.items():
        k = e[2:]
        if all(a > b for a, b in zip(k, k[1:])):
            expected[k] = expected.get(k, LaurentPolynomial.zero(QS)) \
                + LaurentPolynomial.monomial(QS, e[:2], c)
    assert eigen_residual(P, ev) == {k: p for k, p in expected.items() if not p.is_zero()}


def test_eigen_check_reports_a_perturbed_P(monkeypatch):
    def perturbed(lam, n):
        P = macdonald_P(lam, n)
        if (tuple(lam), n) != ((2, 1), 3):
            return P
        c = P.coefficient((1, 1, 1))
        return SymmetricPolynomial(n, {**P.mcoeffs, (1, 1, 1): c * FactoredRational.from_poly(Q)})

    monkeypatch.setattr(maclab.checks, "macdonald_P", perturbed)
    rep = run_check("eigen", max_size=3, max_n=3)
    assert rep.status == Status.FAILED
    assert rep.witnesses == [{"lambda": [2, 1], "n": 3}]


def test_oracle_equals_tableau_sum_small():
    for (lam, n) in [((2,), 2), ((2, 1), 3), ((3, 1), 3), ((2, 2), 4)]:
        assert macdonald_P(lam, n).equals(macdonald_P_oracle(lam, n)), (lam, n)


@pytest.mark.parametrize("build", [eigenvalue, macdonald_P, macdonald_P_oracle, oracle_rows])
def test_more_parts_than_variables_is_refused(build):
    with pytest.raises(ValueError, match="partition has more parts than variables"):
        build((1, 1, 1), 2)


def _perturbations(P, lam):
    """(label, mu, SymmetricPolynomial) triples: each m-coefficient of P
    scaled by 2, times (1 - q), or dropped; a key off the oracle's basis;
    P[lam] replaced by q; and each coefficient rewritten as (c - 1) + 1,
    an equal value, in another factored form for 40 of the 109
    coefficients of criterion 1's range."""
    n, coef = P.n, P.mcoeffs
    one = FactoredRational.one(QS)
    one_minus_q = FactoredRational.from_poly(ONE - Q)
    size = sum(lam)
    off_basis = [mu for mu in partitions_of(size, n) if not dominates(lam, mu)]
    off_basis.append(Partition((size + 1,)))
    out = [("off-basis", mu, {**coef, mu: one}) for mu in off_basis]
    out.append(("P[lam] = q", lam, {**coef, lam: FactoredRational.from_poly(Q)}))
    for mu, c in coef.items():
        out.append(("x2", mu, {**coef, mu: c.scale(2)}))
        out.append(("x(1-q)", mu, {**coef, mu: c * one_minus_q}))
        out.append(("drop", mu, {k: v for k, v in coef.items() if k != mu}))
        out.append(("rewritten", mu, {**coef, mu: (c - one) + one}))
    return [(label, mu, SymmetricPolynomial(n, m)) for label, mu, m in out]


# criterion 1 (``tableau-oracle``) has the range of criterion 2
@pytest.mark.parametrize("n", range(1, 5))
def test_satisfies_oracle_accepts_exactly_what_the_oracle_equals(n):
    for lam in partitions_upto(5, n):
        P, O = macdonald_P(lam, n), macdonald_P_oracle(lam, n)
        assert satisfies_oracle(P, lam) and P.equals(O), (lam, n)
        assert satisfies_oracle(O, lam), (lam, n)
        for label, mu, bad in _perturbations(P, lam):
            assert satisfies_oracle(bad, lam) == bad.equals(O), (lam, n, label, mu)
            assert bad.equals(O) == (label == "rewritten"), (lam, n, label, mu)


def test_oracle_rows_are_unitriangular_in_basis_order():
    for (lam, n) in [((3, 1), 3), ((2, 2), 4), ((5,), 4)]:
        basis, rows = oracle_rows(lam, n)
        assert basis[0] == Partition(lam)
        assert [mu for mu, _gap, _pairs in rows] == basis[1:]
        for mu, gap, pairs in rows:
            assert not gap.is_zero()
            earlier = basis[:basis.index(mu)]
            assert [nu for nu, _d in pairs] == [nu for nu in earlier if mu in _d1n_m_action(nu, n)]


def test_a_passing_tableau_oracle_solves_no_oracle(monkeypatch):
    # every module that binds rational_eq or macdonald_P_oracle is counted
    counts: dict = {}

    def count(mod, name):
        real = getattr(mod, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)

    for mod in [m for k, m in sys.modules.items() if k.startswith("maclab")]:
        for name in ("rational_eq", "macdonald_P_oracle"):
            if hasattr(mod, name):
                count(mod, name)
    assert run_check("tableau-oracle").status == Status.PASSED
    assert counts == {}


def test_symmetry_of_tableau_sum():
    # the full y-polynomial is invariant under every transposition
    for (lam, n) in [((2, 1), 3), ((3,), 2)]:
        P = macdonald_P(lam, n)
        poly, _den = clear_denominators(P)
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
