"""A bug must raise, not pass as a mathematical witness: the error
handlers around exact computations catch only ArithmeticError."""

import pytest

import maclab.checks
from maclab import euler
from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.checks import check_names, run_check
from maclab.series import NonPolynomialCoefficient, NonRootPole, expand_sum
from weyl_reference import has_double_pole, plant_uncancelled_pole


def _boom(*args, **kwargs):
    raise TypeError("injected bug")


@pytest.mark.parametrize("name", check_names())
def test_a_parameter_the_check_does_not_take_raises(name):
    with pytest.raises(TypeError, match="no_such_parameter"):
        run_check(name, no_such_parameter=1)


def test_run_check_accepts_and_ignores_workers():
    report = run_check("cordiff", workers=2, max_n=2, max_weight_sum=1)
    assert report.parameters == {"max_n": 2, "max_weight_sum": 1, "equality_mode": "exact"}


def test_weyl_runs_at_the_given_weight_and_by_default_at_zero(monkeypatch):
    seen = []

    def spy(alpha, weight):
        seen.append((alpha, weight.lvec))
        return True

    monkeypatch.setattr(maclab.checks, "weyl_invariance_check", spy)
    run_check("weyl", n=3, weight=(1, 0))
    run_check("weyl", n=3)
    run_check("weyl", n=3, alpha=(2, 1))
    assert seen == [((1, 1), (1, 0)), ((1, 1), (0, 0)), ((2, 1), (0, 0))]


@pytest.mark.parametrize("params, message", [
    ({"alpha": (-1,)}, "negative entry"),
    ({"n": 3, "alpha": (2, -1)}, "negative entry"),
    ({"n": 3, "weight": (0,)}, "weight vector must have length N-1"),
])
def test_weyl_refuses_a_negative_degree_and_a_weight_of_another_rank(params, message):
    # a negative degree has no splitting gamma + beta: the character was an
    # empty sum, and 0 PASSED as W-invariant
    with pytest.raises(ValueError, match=message):
        run_check("weyl", **params)


def test_the_series_refuses_a_negative_degree():
    with pytest.raises(ValueError, match="negative entry"):
        euler.euler_char_series((1, -1), euler.GLWeight((0, 0)), 2)


def test_expand_sum_propagates_non_arithmetic_errors(monkeypatch):
    v = ("q", "t", "z1")
    term = FactoredRational.from_poly(LaurentPolynomial.one(v) + LaurentPolynomial.var(v, "q"))
    monkeypatch.setattr(FactoredRational, "to_laurent", _boom)
    with pytest.raises(TypeError, match="injected bug"):
        expand_sum([term], 2)


def test_check_termination_propagates_non_arithmetic_errors(monkeypatch):
    monkeypatch.setattr(maclab.checks, "specialize_each", _boom)
    with pytest.raises(TypeError, match="injected bug"):
        run_check("termination", max_size=1, max_n=1)


def test_check_hp_propagates_an_uncancelled_weyl_pole(monkeypatch):
    # a broken Weyl-group sum is a bug, not a witness: run_check raises
    real = euler.certify_weyl_sum

    def certify(split, *args, **kwargs):
        if has_double_pole(split):
            split = plant_uncancelled_pole(split, "missing")
        return real(split, *args, **kwargs)

    monkeypatch.setattr(euler, "certify_weyl_sum", certify)
    with pytest.raises(NonPolynomialCoefficient):
        run_check("hp", max_n=3, order=2, max_weight_sum=1)


def test_check_hp_propagates_a_pole_that_is_no_root(monkeypatch):
    # at N = 2 the root is z1/z2 = z1^2 over (q, t, z1); a Weyl factor
    # with the pole 1 - z1 instead cannot be certified
    def weyl_factor(n, w):
        v = euler.glob_vars(n)
        one, z1 = LaurentPolynomial.one(v), LaurentPolynomial.var(v, "z1")
        return FactoredRational(v, 1, None, [(one - LaurentPolynomial.var(v, "t") * z1, 1),
                                             (one - z1, -1)])

    monkeypatch.setattr(euler, "_weyl_factor", weyl_factor)
    with pytest.raises(NonRootPole):
        run_check("hp", max_n=2, order=1, max_weight_sum=1)


def test_constructors_reject_an_exponent_vector_that_does_not_fit():
    v = ("q", "s")
    with pytest.raises(ValueError):
        LaurentPolynomial(v, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        LaurentPolynomial.monomial(v, (1,))
    with pytest.raises(ValueError):
        FactoredRational(v, 1, (1, 2, 3))


def test_factored_rational_rejects_a_factor_from_another_context():
    qt = ("q", "t")
    factor = LaurentPolynomial.one(qt) + LaurentPolynomial.var(qt, "q")
    with pytest.raises(ValueError):
        FactoredRational(("q", "s"), 1, None, [(factor, 1)])
    # an equal context held in another sequence is the same context
    assert FactoredRational(list(qt), 1, None, [(factor, 1)]) == FactoredRational.from_poly(factor)
