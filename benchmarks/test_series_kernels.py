"""Microbenchmarks of the series layer: one localization sum of ``hp``,
one arc-space sum of ``chibq`` and the valuation bounds of its J-pieces.

The global character at N = 3, degree alpha = (4, 4), weight (1, 0), to
(q,t)-order 2: the last schedule point of ``H_limit`` for that weight,
and the largest single sum the ``hp`` check folds.  Four cases:

* ``expand_sum`` over the summands of every Weyl element, each built on
  its own: the per-w reference;
* ``euler_char_series``, which convolves the per-degree J-pieces of the
  w = id part, multiplies by the Weyl factor once and certifies the sum
  over the Weyl group; it must equal the reference.  After the first
  round it reads every J-piece from its cache, as ``H_limit`` does
  across the weights and schedule points of one check (about 60% of its
  lookups hit);
* the certification alone, on the split series that
  ``euler_char_series`` sums: by the image loop of ``tests/weyl_reference.py`` (six images,
  each added with ``FactoredRational.__add__``) and by the one-pass
  antisymmetriser ``certify_weyl_sum``.  Both must give the series
  above.

A fifth case times ``chi_bQ_localization`` at N = 3, weight (1, 0),
order 3, one order past the ``chibq`` acceptance range, and checks it
against ``chi_bQ_closed``.

The last two cases take the valuation of every inverted J-piece in the
proved box of ``chi_bQ_localization`` at N = 4, weight 0, order 2 (the
27 degree vectors with each d_k <= 2), each round from empty memo
tables: counted off the C_theta ledgers (``euler._j_valuation``), and
read off the built values (``built_j_valuation`` of
``tests/weyl_reference.py``, the path the count replaced).  Both must
give the same valuations.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from maclab import euler, memo
from maclab.euler import (
    GLWeight,
    _localization_terms,
    chi_bQ_closed,
    chi_bQ_localization,
    euler_char_series,
)
from maclab.series import certify_weyl_sum, expand_sum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from weyl_reference import _certify_by_images, built_j_valuation, weyl_images  # noqa: E402

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


@pytest.fixture(scope="module")
def summed():
    """The split series, context and order that euler_char_series
    certifies."""
    seen = []
    real = euler.certify_weyl_sum

    def certify(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    euler.certify_weyl_sum = certify
    try:
        euler_char_series(ALPHA, WEIGHT, ORDER)
    finally:
        euler.certify_weyl_sum = real
    (args,) = seen
    return args


def test_certify_hp_split_by_images(benchmark, summed, per_w):
    split, vars, trunc = summed
    images = weyl_images(WEIGHT.n)
    assert benchmark(_certify_by_images, split, vars, trunc, images=images) == per_w


def test_certify_hp_split_antisymmetrised(benchmark, summed, per_w):
    split, vars, trunc = summed
    assert benchmark(certify_weyl_sum, split, vars, trunc) == per_w


def test_chi_bQ_localization_past_the_chibq_range(benchmark):
    assert benchmark(chi_bQ_localization, WEIGHT, 3) == chi_bQ_closed(WEIGHT, 3)


BOX = list(product(range(3), repeat=3))


@pytest.fixture(scope="module")
def box_valuations():
    return [built_j_valuation(4, d, True) for d in BOX]


def test_j_valuation_counted_chibq_box(benchmark, box_valuations):
    def counted():
        return [euler._j_valuation(4, d, True) for d in BOX]

    assert benchmark.pedantic(counted, setup=memo.clear_all, rounds=10) == box_valuations


def test_j_valuation_built_chibq_box(benchmark, box_valuations):
    def built():
        return [built_j_valuation(4, d, True) for d in BOX]

    assert benchmark.pedantic(built, setup=memo.clear_all, rounds=10) == box_valuations
