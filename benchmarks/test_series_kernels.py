"""Microbenchmark of the series layer: one localization sum of ``hp``.

``expand_sum`` over the torus fixed-point terms of the global character
at N = 3, degree alpha = (4, 4), weight (1, 0), to (q,t)-order 2: the
last schedule point of ``H_limit`` for that weight, and the largest
single sum the ``hp`` check folds.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import pytest

from maclab.euler import GLWeight, _localization_terms
from maclab.series import expand_sum

ALPHA = (4, 4)
WEIGHT = GLWeight((1, 0))
ORDER = 2


@pytest.fixture(scope="module")
def terms():
    return _localization_terms(ALPHA, WEIGHT)


def test_expand_sum_hp_localization(benchmark, terms):
    series = benchmark(expand_sum, terms, ORDER)
    assert not series.is_zero()
