"""Microbenchmarks of the domain layer: the two routes to the difference
operator on P_(4,1) at N = 4, the largest input in ``eigen``'s default
range.

* ``apply_D1N`` on P_(4,1) cleared of its (q, s) denominators (2672
  terms).  It now serves only the eigen-solve oracle of
  ``tableau-oracle``; the result must equal the eigenvalue times the
  input.
* ``eigen_residual`` on the m-expansion of P_(4,1): the predicate of the
  ``eigen`` check, which must find no residual.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import pytest

from maclab.macdonald import apply_D1N, eigen_residual, eigenvalue, mac_vars, macdonald_P

N = 4
LAM = (4, 1)


@pytest.fixture(scope="module")
def cleared():
    poly, _den = macdonald_P(LAM, N).clear_denominators()
    return poly


def test_apply_D1N_P41(benchmark, cleared):
    assert len(cleared.terms) == 2672
    image = benchmark(apply_D1N, cleared, N)
    assert image == eigenvalue(LAM, N).transform(mac_vars(N), {}) * cleared


def test_eigen_residual_P41(benchmark):
    residual = benchmark(eigen_residual, macdonald_P(LAM, N), eigenvalue(LAM, N))
    assert residual == {}
