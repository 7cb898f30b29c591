"""Microbenchmarks of the Pochhammer layer: the coefficient forms of
``cn`` and the scan of ``termination``.

``c_N_closed`` over the theta grid that ``cn`` scans at N = 4 with
entries 0..1 (64 matrices): each value is a product of finite
q-Pochhammer ratios, filled into a binomial ledger
(:class:`maclab.qcalc.Ledger`) and converted to a factored rational
once.  Every value must equal ``c_N_recursive``.  The same grid is timed
for all three forms together (closed, recursive, rewritten), as ``cn``
builds them, and the termination scan is timed at the range of the
benchmark's ``termination`` case (|lambda| <= 3, N <= 3): one pass over
each rank's theta grid, each ledger mapped into (q, s) per partition and
converted only inside the polytope, each result equal to P_lambda.

The cold case starts each round with every memo table empty
(``memo.clear_all()``), as one ``cn`` run in a fresh process does; the
warm case reuses the table of canonical binomial factors
(``qcalc._binomial``) filled by earlier rounds, as a long-lived process
does.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import itertools

import pytest

from maclab import memo
from maclab.algebra import rational_eq
from maclab.baker import c_N_closed, c_N_closed_alt, c_N_recursive, specialize_each
from maclab.macdonald import macdonald_P
from maclab.tableaux import ThetaMatrix, partitions_upto

N = 4
MAX_ENTRY = 1
PAIRS = [(i, j) for i in range(1, N) for j in range(i + 1, N + 1)]
THETAS = [ThetaMatrix(N, dict(zip(PAIRS, vals)))
          for vals in itertools.product(range(MAX_ENTRY + 1), repeat=len(PAIRS))]


def closed_grid():
    return [c_N_closed(th, N) for th in THETAS]


def clear_cache():
    memo.clear_all()


@pytest.fixture(scope="module")
def recursive():
    return [c_N_recursive(th, N) for th in THETAS]


def check(values, recursive):
    assert len(values) == 64
    assert all(rational_eq(a, b) for a, b in zip(values, recursive))


def test_c_N_closed_cn_grid_cold(benchmark, recursive):
    check(benchmark.pedantic(closed_grid, setup=clear_cache, rounds=10), recursive)


def test_c_N_closed_cn_grid_warm(benchmark, recursive):
    check(benchmark(closed_grid), recursive)


def three_forms():
    return [(c_N_closed(th, N), c_N_recursive(th, N), c_N_closed_alt(th, N)) for th in THETAS]


def test_c_N_three_forms_cn_grid(benchmark):
    values = benchmark(three_forms)
    assert len(values) == 64
    assert all(rational_eq(a, b) and rational_eq(a, c) for a, b, c in values)


TERMINATION_SIZE = 3
TERMINATION_N = 3


def termination_scan():
    return {n: specialize_each(partitions_upto(TERMINATION_SIZE, n), n)
            for n in range(1, TERMINATION_N + 1)}


def test_termination_scan(benchmark):
    results = benchmark(termination_scan)
    for n, specialized in results.items():
        lams = partitions_upto(TERMINATION_SIZE, n)
        assert len(specialized) == len(lams)
        assert all(S.equals(macdonald_P(lam, n)) for lam, S in zip(lams, specialized))
