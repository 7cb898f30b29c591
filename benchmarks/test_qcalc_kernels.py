"""Microbenchmarks of the Pochhammer layer: the coefficient forms of
``cn``, the symbol fills behind them and the scan of ``termination``.

``_closed_ledger`` over the theta grid that ``cn`` scans at N = 4 with
entries 0..1 (64 matrices): each c_N(theta) is a product of finite
q-Pochhammer ratios, filled into a binomial ledger
(:class:`maclab.qcalc.Ledger`).  Every ledger must equal the
``_recursive_ledger`` of its theta, compared as ledgers, as ``cn``
compares them.  The same grid is timed for all three forms together
(closed, recursive, rewritten), as ``cn`` builds and compares them.

The symbol fill replays every ``Ledger.zratio`` row that the ``cn``
cases of the ``coeff-forms`` workload make (``max_entry`` 1 at N <= 4
and ``max_entry`` 2 at N <= 3), one fresh ledger per ledger those cases
fill, and must leave each ledger as the per-binomial reference fill
does (``tests/ledger_reference.py``).

The termination scan is timed at the range of the benchmark's
``termination`` case (|lambda| <= 3, N <= 3): one pass over each rank's
theta grid, each ledger mapped into (q, s) per partition and converted
only inside the polytope, each result equal to P_lambda.

The cold case starts each round with every memo table empty
(``memo.clear_all()``), as one ``cn`` run in a fresh process does; the
warm case reuses the tables filled by earlier rounds (canonical
binomial factors, ``qcalc._binomial``, and oriented symbols,
``qcalc._symbol``), as a long-lived process does.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import inspect
import itertools
import sys
from pathlib import Path

import pytest

from maclab import memo
from maclab.baker import _closed_alt_ledger, _closed_ledger, _recursive_ledger, specialize_each
from maclab.checks import run_check
from maclab.macdonald import macdonald_P
from maclab.qcalc import Ledger
from maclab.tableaux import ThetaMatrix, partitions_upto

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from ledger_reference import zratio_reference  # noqa: E402

N = 4
MAX_ENTRY = 1
PAIRS = [(i, j) for i in range(1, N) for j in range(i + 1, N + 1)]
THETAS = [ThetaMatrix(N, dict(zip(PAIRS, vals)))
          for vals in itertools.product(range(MAX_ENTRY + 1), repeat=len(PAIRS))]


def closed_grid():
    return [_closed_ledger(th, N) for th in THETAS]


def clear_cache():
    memo.clear_all()


@pytest.fixture(scope="module")
def recursive():
    return [_recursive_ledger(th, N) for th in THETAS]


def check(ledgers, recursive):
    assert len(ledgers) == 64
    assert ledgers == recursive


def test_closed_ledger_cn_grid_cold(benchmark, recursive):
    check(benchmark.pedantic(closed_grid, setup=clear_cache, rounds=10), recursive)


def test_closed_ledger_cn_grid_warm(benchmark, recursive):
    check(benchmark(closed_grid), recursive)


def three_forms():
    return [(_closed_ledger(th, N), _recursive_ledger(th, N), _closed_alt_ledger(th, N))
            for th in THETAS]


def test_c_N_three_forms_cn_grid(benchmark):
    ledgers = benchmark(three_forms)
    assert len(ledgers) == 64
    assert all(a == b and a == c for a, b, c in ledgers)


COEFF_FORMS_CN = [{"max_entry": 1, "max_n": 4}, {"max_entry": 2, "max_n": 3}]


@pytest.fixture(scope="module")
def symbol_rows():
    """``(vars, rows)`` for every ledger that the ``cn`` cases of
    ``coeff-forms`` fill: its context and its ``zratio`` rows
    (n, qpow, xpow, znum, zden, mult), in call order."""
    filled = {}
    real = Ledger.zratio
    signature = inspect.signature(real)

    def record(led, *args, **kwargs):
        bound = signature.bind(led, *args, **kwargs)
        bound.apply_defaults()
        filled.setdefault(id(led), (led, []))[1].append(tuple(bound.arguments.values())[1:])
        real(led, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Ledger, "zratio", record)
        for params in COEFF_FORMS_CN:
            assert run_check("cn", **params).passed
    return [(led.vars, rows) for led, rows in filled.values()]


def fill(symbol_rows, zratio=Ledger.zratio):
    out = []
    for vars, rows in symbol_rows:
        led = Ledger(vars)
        for row in rows:
            zratio(led, *row)
        out.append(led)
    return out


def test_symbol_fill_coeff_forms_cn_rows(benchmark, symbol_rows):
    ledgers = benchmark.pedantic(fill, args=(symbol_rows,), setup=clear_cache, rounds=10)
    want = fill(symbol_rows, zratio_reference)
    assert sum(len(rows) for _, rows in symbol_rows) > 1000
    assert [(a.coef, a.unit, a.binomials) for a in ledgers] == \
        [(b.coef, b.unit, b.binomials) for b in want]


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
