"""No check that reads a (q,t)-series sum is vacuous: a fault planted in
the fixed-point coefficients that a check sums makes it report FAILED
with a witness, never PASSED.

Each plant patches the name where the check reads it: ``junichi`` and
``shir`` build C_theta through ``laumon.C_ledger``, while ``hp``,
``vanishing`` and ``chibq`` read the shared ledgers through
``euler._c_ledger`` (``euler`` binds ``C_ledger`` at import, so a plant
on ``laumon`` does not reach them).  Every memo table is emptied before
and after each plant, so that no planted value stays in a
process-scoped table.
"""

import pytest

from maclab import euler, laumon, memo
from maclab.checks import run_check
from maclab.qcalc import Ledger
from maclab.reports import Status


@pytest.fixture(autouse=True)
def empty_tables():
    memo.clear_all()
    yield
    memo.clear_all()


def _times_one_minus_qt(led: Ledger) -> Ledger:
    """A copy of ``led`` times (1 - qt)."""
    out = _copy(led)
    out.binomial((1, 1) + (0,) * (len(led.vars) - 2), 1)
    return out


def _doubled(led: Ledger) -> Ledger:
    out = _copy(led)
    out.coef *= 2
    return out


def _copy(led: Ledger) -> Ledger:
    out = Ledger(led.vars, led.coef, led.unit)
    out.binomials = dict(led.binomials)
    return out


def _assert_fails(name, **params):
    report = run_check(name, **params)
    assert report.status == Status.FAILED, (name, params)
    assert report.witnesses


@pytest.mark.parametrize("name, params", [
    ("junichi", {"n": 2, "order": 2}), ("junichi", {"n": 3, "order": 2}),
    ("shir", {"n": 2, "degree": 3}), ("shir", {"n": 3, "degree": 2})])
def test_a_laumon_ledger_times_one_minus_qt_fails(monkeypatch, name, params):
    real = laumon.C_ledger

    def planted(theta, n):
        led = real(theta, n)
        return _times_one_minus_qt(led) if theta[(1, 2)] >= 1 else led

    monkeypatch.setattr(laumon, "C_ledger", planted)
    _assert_fails(name, **params)


def _plant_euler_ledger(monkeypatch, fault):
    """``euler._c_ledger`` with ``fault`` applied to a copy of the shared
    ledger of the fixed point theta_12 = 1, every other entry 0.  (A
    fault at every theta with theta_12 = 1 breaks the cancellation of
    the Weyl denominators at N = 3, so ``hp`` raises
    NonPolynomialCoefficient there instead.)"""
    real = euler._c_ledger

    def planted(theta_key, n):
        led = real(theta_key, n)
        return fault(led) if theta_key == (1,) + (0,) * (len(theta_key) - 1) else led

    monkeypatch.setattr(euler, "_c_ledger", planted)


@pytest.mark.parametrize("name, params", [
    ("hp", {"max_n": 3, "order": 2, "max_weight_sum": 2}), ("chibq", {"max_n": 3, "order": 2})])
def test_a_doubled_euler_ledger_fails(monkeypatch, name, params):
    _plant_euler_ledger(monkeypatch, _doubled)
    _assert_fails(name, **params)


def test_an_euler_ledger_times_one_minus_qt_fails_vanishing(monkeypatch):
    _plant_euler_ledger(monkeypatch, _times_one_minus_qt)
    _assert_fails("vanishing", max_n=3, order=2)
