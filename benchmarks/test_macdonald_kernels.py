"""Microbenchmark of the domain layer: the difference operator of ``eigen``.

``apply_D1N`` on P_(4,1) at N = 4, cleared of its (q, s) denominators
(2672 terms): the largest operator input in ``eigen``'s default range.
The result must equal the eigenvalue times the input.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import pytest

from maclab.macdonald import apply_D1N, eigenvalue, mac_vars, macdonald_P

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
