"""Microbenchmarks of the two LaurentPolynomial kernels behind the eigen check.

The operands are the ones ``macdonald.apply_D1N`` meets at N = 4 on
P_(4,1), the largest cleared polynomial of ``eigen``'s default range
(2672 terms):

* ``__mul__``: the one product ``apply_D1N`` builds per call, the
  24-term factor prod_{j != 1} (s y_1 - y_j) times the Vandermonde
  complement, times T_{q,y_1} P (24 x 2672 terms);
* ``divide_exact``: the operator output over the full Vandermonde,
  eps * P * prod_{a<b} (y_a - y_b), divided by its first factor
  y_1 - y_2.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import pytest

from maclab.algebra import LaurentPolynomial
from maclab.macdonald import eigenvalue, mac_vars, macdonald_P

N = 4
LAM = (4, 1)


def _y(vars, i):
    return LaurentPolynomial.var(vars, f"y{i}")


@pytest.fixture(scope="module")
def operands():
    vars = mac_vars(N)
    poly, _den = macdonald_P(LAM, N).clear_denominators()
    s = LaurentPolynomial.var(vars, "s")
    factor = LaurentPolynomial.one(vars)
    for j in range(2, N + 1):
        factor = factor * (s * _y(vars, 1) - _y(vars, j))
    for a in range(2, N + 1):
        for b in range(a + 1, N + 1):
            factor = factor * (_y(vars, a) - _y(vars, b))
    shift = [0] * len(vars)
    shift[0] = shift[vars.index("y1")] = 1
    shifted = poly.substitute("y1", 1, shift)
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
