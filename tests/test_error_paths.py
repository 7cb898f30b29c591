"""A bug must raise, not pass as a mathematical witness: the error
handlers around exact computations catch only ArithmeticError."""

import pytest

import maclab.checks
from maclab.algebra import FactoredRational, LaurentPolynomial
from maclab.checks import run_check
from maclab.series import expand_sum


def _boom(*args, **kwargs):
    raise TypeError("injected bug")


def test_expand_sum_propagates_non_arithmetic_errors(monkeypatch):
    v = ("q", "t", "z1")
    term = FactoredRational.from_poly(LaurentPolynomial.one(v) + LaurentPolynomial.var(v, "q"))
    monkeypatch.setattr(FactoredRational, "to_laurent", _boom)
    with pytest.raises(TypeError, match="injected bug"):
        expand_sum([term], 2)


def test_check_termination_propagates_non_arithmetic_errors(monkeypatch):
    monkeypatch.setattr(maclab.checks, "specialize_f_to_P", _boom)
    with pytest.raises(TypeError, match="injected bug"):
        run_check("termination", max_size=1, max_n=1)
