"""No acceptance check is vacuous: a fault planted in a coefficient that
a check reads makes it report FAILED with a witness, never PASSED.

Each plant patches the name where the check reads it: ``junichi``,
``shir`` and ``substitution`` build C_theta through ``laumon.C_ledger``,
while ``hp``, ``vanishing`` and ``chibq`` read the shared ledgers through
``euler._c_ledger`` (``euler`` binds ``C_ledger`` at import, so a plant
on ``laumon`` does not reach them).  ``checks`` binds the c_N ledger
builders and ``H0_closed`` at import, so ``cn`` and ``h0`` are planted
there; ``cordiff`` reads ``euler.frakD_K``, ``pieri`` reads
``checks.pieri_L``, ``tableau-oracle`` reads
``macdonald.psi_T`` through ``macdonald_P``, ``dai-ichi`` reads
``baker.c_N_closed``, ``ansum`` reads ``laumon._lattice_product`` and
``weyl`` reads ``euler._weyl_factor``.  Every memo table is emptied
before and after each plant, so that no planted value outlives its
test in a table.

The canonical JSON of the planted-fault reports of the checks whose
verifiers hand their findings to ``checks`` (``shir``, ``junichi``,
``substitution``, ``dai-ichi``, ``ansum``, ``cordiff``, ``pieri`` and
``weyl``), and of ``tableau-oracle``, which builds its witnesses only
once its predicate fails, is pinned by its sha256, so that a change in
how those findings become witnesses shows as a changed byte.
"""

import hashlib

import pytest

from maclab import baker, checks, euler, laumon, macdonald, memo
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


def _plant_laumon_ledger(monkeypatch, where):
    """``laumon.C_ledger`` times (1 - qt) at every theta where ``where``
    holds."""
    real = laumon.C_ledger

    def planted(theta, n):
        led = real(theta, n)
        return _times_one_minus_qt(led) if where(theta) else led

    monkeypatch.setattr(laumon, "C_ledger", planted)


def _plant_laumon_ledger_where_theta_12(monkeypatch):
    _plant_laumon_ledger(monkeypatch, lambda theta: theta[(1, 2)] >= 1)


def _plant_laumon_ledger_at_one_theta(monkeypatch):
    _plant_laumon_ledger(monkeypatch, lambda theta: theta.entry_list() == (0, 1, 1))


def _plant_doubled_c_N_closed(monkeypatch):
    """``baker.c_N_closed`` doubled at theta_12 = 1, every other entry 0."""
    real = baker.c_N_closed

    def planted(theta, n):
        v, entries = real(theta, n), theta.entry_list()
        return v.scale(2) if entries == (1,) + (0,) * (len(entries) - 1) else v

    monkeypatch.setattr(baker, "c_N_closed", planted)


def _plant_doubled_lattice_product(monkeypatch):
    real = laumon._lattice_product
    monkeypatch.setattr(laumon, "_lattice_product",
                        lambda vars, rank, order: real(vars, rank, order).scale(2))


def _plant_doubled_weyl_factor(monkeypatch):
    """``euler._weyl_factor`` doubled at the transposition of 1 and 2."""
    real = euler._weyl_factor

    def planted(n, w):
        v = real(n, w)
        return v.scale(2) if tuple(w) == (2, 1) + tuple(range(3, n + 1)) else v

    monkeypatch.setattr(euler, "_weyl_factor", planted)


def _plant_doubled_shift_coefficient(monkeypatch):
    """``euler.frakD_K`` doubled at r = 1 for the weight (1, 0) only."""
    real = euler.frakD_K

    def planted(weight, r, vars=("q", "t")):
        v = real(weight, r, vars)
        return v.scale(2) if r == 1 and weight.lvec == (1, 0) else v

    monkeypatch.setattr(euler, "frakD_K", planted)


def _plant_doubled_pieri_coefficient(monkeypatch):
    """``checks.pieri_L`` doubled at r = 1 for the weight (1, 0) only."""
    real = checks.pieri_L

    def planted(lvec, r, n, vars=("q", "t")):
        v = real(lvec, r, n, vars)
        return v.scale(2) if r == 1 and tuple(lvec) == (1, 0) else v

    monkeypatch.setattr(checks, "pieri_L", planted)


@pytest.mark.parametrize("name, params", [
    ("junichi", {"n": 2, "order": 2}), ("junichi", {"n": 3, "order": 2}),
    ("shir", {"n": 2, "degree": 3}), ("shir", {"n": 3, "degree": 2})])
def test_a_laumon_ledger_times_one_minus_qt_fails(monkeypatch, name, params):
    _plant_laumon_ledger_where_theta_12(monkeypatch)
    _assert_fails(name, **params)


@pytest.mark.parametrize("params", [{"n": 2, "truncation": 2}, {"n": 3, "truncation": 2}])
def test_a_doubled_c_N_at_one_theta_fails_dai_ichi(monkeypatch, params):
    _plant_doubled_c_N_closed(monkeypatch)
    _assert_fails("dai-ichi", **params)


def test_a_doubled_lattice_product_fails_ansum(monkeypatch):
    _plant_doubled_lattice_product(monkeypatch)
    _assert_fails("ansum", rank=1, order=2)


def test_a_doubled_weyl_factor_at_one_transposition_fails_weyl(monkeypatch):
    _plant_doubled_weyl_factor(monkeypatch)
    _assert_fails("weyl", n=2)


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


def test_a_laumon_ledger_times_one_minus_qt_at_one_theta_fails_substitution(monkeypatch):
    _plant_laumon_ledger_at_one_theta(monkeypatch)
    report = run_check("substitution", n=3, degree=3)
    assert report.status == Status.FAILED
    assert report.witnesses == [{"theta": [0, 1, 1]}]


def _plant_at(monkeypatch, name, where, fault):
    """``checks.<name>`` with ``fault`` applied to a copy of its ledger
    at the one argument tuple ``where``."""
    real = getattr(checks, name)

    def planted(*args):
        led = real(*args)
        key = tuple(a.entry_list() if hasattr(a, "entry_list") else a for a in args)
        return fault(led) if key == where else led

    monkeypatch.setattr(checks, name, planted)


@pytest.mark.parametrize("name, where, witness", [
    ("_recursive_ledger", ((1, 0, 1), 3), {"n": 3, "theta": [1, 0, 1], "forms": "closed vs recursive"}),
    ("_closed_alt_ledger", ((0, 1, 1), 3), {"n": 3, "theta": [0, 1, 1], "forms": "closed vs rewritten"}),
    ("_printed_c2", (checks.ba_vars(2),), {"n": 2, "forms": "printed c2"}),
    ("_printed_c3", (checks.ba_vars(3), 1, 1, 0), {"n": 3, "theta": [1, 1, 0], "forms": "printed c3"}),
])
@pytest.mark.parametrize("fault", [_doubled, _times_one_minus_qt], ids=lambda f: f.__name__)
def test_an_altered_c_N_form_at_one_theta_fails_cn(monkeypatch, name, where, witness, fault):
    _plant_at(monkeypatch, name, where, fault)
    report = run_check("cn", max_entry=1, max_n=3)
    assert report.status == Status.FAILED
    assert report.witnesses == [witness]


def _plant_doubled_psi_T(monkeypatch):
    real = macdonald.psi_T
    monkeypatch.setattr(macdonald, "psi_T", lambda theta, lam: real(theta, lam).scale(2))


def test_a_doubled_psi_T_fails_the_tableau_oracle(monkeypatch):
    _plant_doubled_psi_T(monkeypatch)
    _assert_fails("tableau-oracle", max_size=3, max_n=3)


def test_a_doubled_H0_closed_fails_h0(monkeypatch):
    real = checks.H0_closed
    monkeypatch.setattr(checks, "H0_closed", lambda n: real(n).scale(2))
    _assert_fails("h0", max_n=3, t_order=4, order=1, limit_n=2)


def test_a_doubled_shift_coefficient_at_one_weight_fails_cordiff(monkeypatch):
    _plant_doubled_shift_coefficient(monkeypatch)
    report = run_check("cordiff", max_n=3, max_weight_sum=1)
    assert report.status == Status.FAILED
    assert report.witnesses == [{"n": 3, "weight": [1, 0]}]


def test_a_doubled_pieri_coefficient_at_one_weight_fails_pieri(monkeypatch):
    _plant_doubled_pieri_coefficient(monkeypatch)
    report = run_check("pieri", max_n=3, max_weight_sum=2)
    assert report.status == Status.FAILED
    assert report.witnesses == [{"n": 3, "weight": [1, 0]}]


# (check, parameters, plant) for every planted-fault report whose bytes are pinned
PINNED_PLANTS = [
    ("shir", {"n": 2, "degree": 3}, _plant_laumon_ledger_where_theta_12),
    ("shir", {"n": 3, "degree": 2}, _plant_laumon_ledger_where_theta_12),
    ("junichi", {"n": 2, "order": 2}, _plant_laumon_ledger_where_theta_12),
    ("junichi", {"n": 3, "order": 2}, _plant_laumon_ledger_where_theta_12),
    ("substitution", {"n": 3, "degree": 3}, _plant_laumon_ledger_at_one_theta),
    ("dai-ichi", {"n": 2, "truncation": 2}, _plant_doubled_c_N_closed),
    ("dai-ichi", {"n": 3, "truncation": 2}, _plant_doubled_c_N_closed),
    ("ansum", {"rank": 1, "order": 2}, _plant_doubled_lattice_product),
    ("ansum", {"rank": 2, "order": 2}, _plant_doubled_lattice_product),
    ("cordiff", {"max_n": 3, "max_weight_sum": 1}, _plant_doubled_shift_coefficient),
    ("pieri", {"max_n": 3, "max_weight_sum": 2}, _plant_doubled_pieri_coefficient),
    ("tableau-oracle", {"max_size": 3, "max_n": 3}, _plant_doubled_psi_T),
    ("weyl", {"n": 2}, _plant_doubled_weyl_factor),
    ("weyl", {"n": 3}, _plant_doubled_weyl_factor),
]

# the sha256 of the canonical JSON of those reports, one line each
PINNED_SHA256 = "fc978eda879e5361137012187cf14b61a911dc36c229fa07512ec4d66bcf3ad7"


def test_planted_fault_reports_are_pinned():
    lines = []
    for name, params, plant in PINNED_PLANTS:
        memo.clear_all()
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            lines.append(run_check(name, **params).canonical_json())
        memo.clear_all()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_SHA256, digest
