"""Microbenchmarks of the algebra kernels behind criterion 1.

Two LaurentPolynomial kernels of ``macdonald.apply_D1N``, on the
operands it meets at N = 4 on P_(4,1), the largest cleared polynomial
of ``eigen``'s default range (2672 terms):

* ``__mul__``: the one product ``apply_D1N`` builds per call, the
  24-term factor prod_{j != 1} (s y_1 - y_j) times the Vandermonde
  complement, times T_{q,y_1} P (24 x 2672 terms);
* ``divide_exact``: the operator output over the full Vandermonde,
  eps * P * prod_{a<b} (y_a - y_b), divided by its first factor
  y_1 - y_2.

``rational_eq`` at N = 4, mu = (2,1,1,1) and lambda = (5), tableau
formula against eigen-solve oracle: the comparison with the largest
uncancelled parts for |lambda| <= 5, N <= 4 (714 terms over both sides
once multiplied out), decided on their Kronecker images in (q, s)
(``algebra.sum_is_zero``) without multiplying them out.  A failing
``tableau-oracle`` makes such comparisons to name its witnesses.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import sys
from pathlib import Path

import pytest

from maclab.algebra import LaurentPolynomial, rational_eq
from maclab.macdonald import eigenvalue, mac_vars, macdonald_P, macdonald_P_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from algebra_reference import clear_denominators  # noqa: E402

N = 4
LAM = (4, 1)


def _y(vars, i):
    return LaurentPolynomial.var(vars, f"y{i}")


@pytest.fixture(scope="module")
def operands():
    vars = mac_vars(N)
    poly, _den = clear_denominators(macdonald_P(LAM, N))
    s = LaurentPolynomial.var(vars, "s")
    factor = LaurentPolynomial.one(vars)
    for j in range(2, N + 1):
        factor = factor * (s * _y(vars, 1) - _y(vars, j))
    for a in range(2, N + 1):
        for b in range(a + 1, N + 1):
            factor = factor * (_y(vars, a) - _y(vars, b))
    shift = [0] * len(vars)
    shift[0] = shift[vars.index("y1")] = 1
    shifted = poly.transform(vars, {"y1": (1, tuple(shift))})
    dividend = eigenvalue(LAM, N).transform(vars, {}) * poly
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            dividend = dividend * (_y(vars, a) - _y(vars, b))
    return factor, shifted, dividend, _y(vars, 1) - _y(vars, 2)


def test_mul_24_by_2672(benchmark, operands):
    factor, shifted, _dividend, _divisor = operands
    assert (len(factor.terms), len(shifted.terms)) == (24, 2672)
    product = benchmark(factor.__mul__, shifted)
    assert product.terms


def test_divide_vandermonde_binomial(benchmark, operands):
    _factor, _shifted, dividend, divisor = operands
    quotient = benchmark(dividend.divide_exact, divisor)
    assert quotient * divisor == dividend


MU = (2, 1, 1, 1)


def test_rational_eq_largest_tableau_comparison(benchmark):
    tableau = macdonald_P((5,), N).coefficient(MU)
    oracle = macdonald_P_oracle((5,), N).coefficient(MU)
    assert benchmark(rational_eq, tableau, oracle)
