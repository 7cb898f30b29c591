"""Microbenchmarks of the domain layer: the routes to the difference
operator at N = 4.

* ``apply_D1N`` on P_(4,1) cleared of its (q, s) denominators (2672
  terms), the largest input in ``eigen``'s default range.  It folds the
  operator's product form and divides it by the Vandermonde; the tests
  hold the eigen-solve oracle's images to it.  The result must equal the
  eigenvalue times the input.
* ``eigen_residual`` on the m-expansion of P_(4,1): the predicate of the
  ``eigen`` check, which must find no residual.
* The eigen-solve oracle's operator images, cold: ``_d1n_m_action`` for
  every m_mu of ``tableau-oracle``'s default range (|mu| <= 5, N <= 4,
  52 images), read off the same product form with no Vandermonde
  division, with their memo tables emptied before each round.  Each
  image's diagonal entry must be the eigenvalue of mu.
* ``satisfies_oracle`` on P_(5) and P_(4,1): the predicate of
  ``tableau-oracle``, which checks the tableau sum against the rows of
  the oracle's triangular system without solving it, with the operator
  images warm.  It must accept.

Not part of the test suite.  Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only
"""

import sys
from pathlib import Path

import pytest

from maclab.macdonald import (
    _d1n_m_action,
    _schur_m,
    apply_D1N,
    eigen_residual,
    eigenvalue,
    mac_vars,
    macdonald_P,
    oracle_rows,
    satisfies_oracle,
)
from maclab.tableaux import partitions_upto

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from algebra_reference import clear_denominators, reembed  # noqa: E402

N = 4
LAM = (4, 1)
ACTIONS = [(mu, n) for n in range(1, N + 1) for mu in partitions_upto(5, n)]


@pytest.fixture(scope="module")
def cleared():
    poly, _den = clear_denominators(macdonald_P(LAM, N))
    return poly


def test_apply_D1N_P41(benchmark, cleared):
    assert len(cleared.terms) == 2672
    image = benchmark(apply_D1N, cleared, N)
    assert image == reembed(eigenvalue(LAM, N), mac_vars(N)) * cleared


def test_eigen_residual_P41(benchmark):
    residual = benchmark(eigen_residual, macdonald_P(LAM, N), eigenvalue(LAM, N))
    assert residual == {}


def test_oracle_actions_cold(benchmark):
    def actions():
        _d1n_m_action.table.clear()
        _schur_m.table.clear()
        return {key: _d1n_m_action(*key) for key in ACTIONS}

    images = benchmark(actions)
    assert len(images) == 52
    # D is triangular on the m-basis with the eigenvalues on the diagonal
    assert all(images[mu, n][mu] == eigenvalue(mu, n) for mu, n in ACTIONS)


@pytest.mark.parametrize("lam", [(5,), (4, 1)], ids=["5", "4,1"])
def test_satisfies_oracle_warm(benchmark, lam):
    P = macdonald_P(lam, N)
    oracle_rows(lam, N)   # warms the operator images the rows read
    assert benchmark(satisfies_oracle, P, lam)
