"""Microbenchmarks of the series layer: one localization sum of ``hp``.

The global character at N = 3, degree alpha = (4, 4), weight (1, 0), to
(q,t)-order 2: the last schedule point of ``H_limit`` for that weight,
and the largest single sum the ``hp`` check folds.  Two cases:

* ``expand_sum`` over the summands of every Weyl element, each built on
  its own: the per-w reference;
* ``euler_char_series``, which convolves the per-degree J-pieces of the
  w = id part, multiplies by the Weyl factor once and adds the Weyl
  images; it must equal the reference.  After the first round it reads
  every J-piece from its cache, as ``H_limit`` does across the weights
  and schedule points of one check (about 60% of its lookups hit).

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

from itertools import permutations

import pytest

from maclab.euler import GLWeight, _localization_terms, euler_char_series
from maclab.series import expand_sum

ALPHA = (4, 4)
WEIGHT = GLWeight((1, 0))
ORDER = 2


@pytest.fixture(scope="module")
def terms():
    return [t for w in permutations(range(1, WEIGHT.n + 1))
            for t in _localization_terms(ALPHA, WEIGHT, w)]


@pytest.fixture(scope="module")
def per_w(terms):
    return expand_sum(terms, ORDER)


def test_expand_sum_hp_localization(benchmark, terms, per_w):
    series = benchmark(expand_sum, terms, ORDER)
    assert not series.is_zero()
    assert series == per_w


def test_euler_char_series_hp_orbit(benchmark, per_w):
    assert benchmark(euler_char_series, ALPHA, WEIGHT, ORDER) == per_w
