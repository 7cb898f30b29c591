"""The memo registry: every module-level memo of the package is a
:class:`maclab.memo.Table` declared by :func:`maclab.memo.cached` with a
cap, it lives as long as the process, and it stays bounded with its
values unchanged past its cap."""

import importlib
import pkgutil

import pytest

import maclab
from maclab import euler, macdonald, memo, qcalc
from maclab.algebra import rational_eq
from maclab.checks import run_check
from maclab.euler import GLWeight, macdonald_in_z
from maclab.laumon import C_theta
from maclab.macdonald import macdonald_P, macdonald_P_oracle
from maclab.tableaux import partitions_upto, theta_by_degree, theta_upto_degree
from coefficient_reference import C_theta_reference

# the rank-keyed context helpers: one entry per rank or per process
RANK_KEYED = {"maclab.baker.ba_vars", "maclab.euler.glob_vars", "maclab.laumon.lau_vars",
              "maclab.series._sl_weyl", "maclab.cache.source_hash",
              "maclab.cli.build_parser"}

# module-level dicts that are filled once at import and never written
CONSTANT_DICTS = {"maclab.checks.CHECKS", "maclab.checks.ALIASES"}

# every memo table of the package and its cap
TABLES = {
    "qcalc._binomial": 4096,
    "qcalc._symbol": 256,
    "euler._c_ledger": 4096,
    "euler._C_glob": 4096,
    "euler._j_valuation": 1024,
    "euler._j_piece": 1024,
    "euler.macdonald_in_z": 256,
    "macdonald._tableau_sum": 256,
    "macdonald._d1n_m_action": 256,
    "macdonald._schur_m": 256,
}


def _modules():
    for info in pkgutil.iter_modules(maclab.__path__):
        yield importlib.import_module(f"maclab.{info.name}")


def unregistered_memos() -> list:
    """The module-level dicts, ``lru_cache``/``cache`` functions and
    memoised functions of every ``maclab`` module that are neither a
    registered table nor allowed above, as ``module.name``."""
    registered = {id(table) for table in memo.tables}
    out = []
    for module in _modules():
        for name, value in vars(module).items():
            where = f"{module.__name__}.{name}"
            if isinstance(value, dict) and not name.startswith("__"):
                if id(value) not in registered and where not in CONSTANT_DICTS:
                    out.append(where)
            elif hasattr(value, "cache_info"):
                if f"{value.__module__}.{value.__qualname__}" not in RANK_KEYED:
                    out.append(where)
            elif hasattr(value, "table") and id(value.table) not in registered:
                out.append(where)
    return out


def test_every_memo_is_a_registered_table_with_a_cap():
    assert unregistered_memos() == []
    assert {table.name: table.cap for table in memo.tables} == TABLES


def test_every_table_is_declared_by_cached():
    # each table is the .table of the memoised function it is named after
    declared = {f"{module.__name__.rpartition('.')[2]}.{name}": value.table
                for module in _modules() for name, value in vars(module).items()
                if callable(value) and isinstance(getattr(value, "table", None), memo.Table)}
    assert all(declared.get(table.name) is table for table in memo.tables)


def test_tables_outlive_a_check_and_clear_all_empties_every_table():
    memo.clear_all()
    assert run_check("hp", max_n=2, order=1, max_weight_sum=1).passed
    assert euler._j_piece.table and euler._j_valuation.table and euler._c_cache
    memo.clear_all()
    assert all(not t for t in memo.tables)


# -- bounded past the cap ------------------------------------------------------

def _c_theta_cases():
    # C_theta at two Weyl elements against the unshared substitution
    n, gv = 3, euler.glob_vars(3)
    for w in [(1, 2, 3), (2, 1, 3)]:
        mapping = {f"z{i}": (1, euler._wslot_exp(n, i, w)) for i in range(1, n + 1)}
        for alpha in [(1, 1), (1, 2), (2, 2)]:
            for th in theta_by_degree(n, alpha):
                yield ((lambda th=th, w=w: euler._C_glob(th.entry_list(), n, w, False)),
                       C_theta(th, n).transform(gv, mapping))


def _c_ledger_cases():
    # the shared ledgers' values against the chain of Pochhammer symbols
    for alpha in [(1, 1), (1, 2), (2, 2)]:
        for th in theta_by_degree(3, alpha):
            yield (lambda th=th: euler._c_ledger(th.entry_list(), 3)), C_theta_reference(th, 3)


def _macdonald_cases():
    # the tableau sum against the eigen-solve oracle
    for n in (2, 3):
        for lam in partitions_upto(3, n):
            yield (lambda lam=lam, n=n: macdonald_P(lam, n)), macdonald_P_oracle(lam, n)


def _action_cases():
    # the operator images against the uncached function
    for n in (2, 3):
        for mu in partitions_upto(3, n):
            yield ((lambda mu=mu, n=n: macdonald._d1n_m_action(mu, n)),
                   macdonald._d1n_m_action.__wrapped__(mu, n))


def _schur_cases():
    # the Schur m-expansions against the uncached function
    for n in (2, 3):
        for lam in partitions_upto(3, n):
            yield ((lambda lam=lam, n=n: macdonald._schur_m(lam, n)),
                   macdonald._schur_m.__wrapped__(lam, n))


def _mz_cases():
    # P in z against the value computed before the cap was lowered
    for lv in [(0,), (1,), (2,), (0, 0), (1, 0), (0, 1)]:
        weight = GLWeight(lv)
        yield (lambda weight=weight: macdonald_in_z(weight)), macdonald_in_z(weight)


def _binomial_cases():
    # ledger conversions against the chain of cached Pochhammer symbols
    for th in theta_upto_degree(3, 2):
        if any(th.entries.values()):
            yield (lambda th=th: C_theta(th, 3)), C_theta_reference(th, 3)


CASES = {
    "euler._c_cache": (euler._c_cache, _c_theta_cases, lambda a, b: a == b),
    "euler._c_ledger": (euler._c_ledger.table, _c_ledger_cases, lambda a, b: a.value() == b),
    "macdonald._P_memo": (macdonald._P_memo, _macdonald_cases, lambda a, b: a.equals(b)),
    "macdonald._action_memo": (macdonald._action_memo, _action_cases, lambda a, b: a == b),
    "macdonald._schur_m": (macdonald._schur_m.table, _schur_cases, lambda a, b: a == b),
    "euler._mz_memo": (euler._mz_memo, _mz_cases, rational_eq),
    "qcalc._binomial": (qcalc._binomial.table, _binomial_cases, lambda a, b: a == b),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_table_stays_bounded_past_its_cap(monkeypatch, name):
    # a loop over more keys than a cap of 3, twice: the table stays
    # bounded and every value, recomputed after the table emptied
    # itself, is unchanged
    table, cases, same = CASES[name]
    cases = list(cases())
    assert len(cases) > 3
    table.clear()
    monkeypatch.setattr(table, "cap", 3)
    for _ in range(2):
        for call, expected in cases:
            assert same(call(), expected)
            assert 1 <= len(table) <= 3
