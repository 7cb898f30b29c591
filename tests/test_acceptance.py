"""Acceptance criteria, one test per criterion.

Every criterion runs through the same registry as ``maclab verify`` with
its pinned parameter range and exact (zero-tolerance) equality.  Each
test prints one pass/fail line; run with ``pytest -v -s`` to see them.
The final criterion empties every memo table (``memo.clear_all()``),
reruns everything cold and compares the canonical report bytes against
the first runs.  A last test pins the canonical bytes of every criterion
to one sha256.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from maclab import memo
from maclab.checks import check_parameters, run_check
from maclab.reports import Status

# criterion id -> list of (check name, parameters)
CRITERIA = {
    1: [("tableau-oracle", {"max_size": 5, "max_n": 4})],
    2: [("eigen", {"max_size": 5, "max_n": 4})],
    3: [("cn", {"max_entry": 2, "max_n": 4})],
    4: [("termination", {"max_size": 4, "max_n": 3})],
    5: [("shir", {"n": 2, "degree": 3}), ("shir", {"n": 3, "degree": 2})],
    6: [("junichi", {"n": 2, "order": 2}), ("junichi", {"n": 3, "order": 2})],
    7: [("h0", {"max_n": 4, "t_order": 8, "order": 2, "limit_n": 3})],
    8: [("hp", {"max_n": 3, "order": 2, "max_weight_sum": 2})],
    9: [("cordiff", {"max_n": 3, "max_weight_sum": 2})],
    10: [("vanishing", {"max_n": 3, "order": 2})],
    11: [("chibq", {"max_n": 3, "order": 2})],
}

TITLES = {
    1: "tableau sum equals eigen-solve oracle (|lam|<=5, N<=4)",
    2: "difference-operator eigen identity, exact (|lam|<=5, N<=4)",
    3: "coefficient recursion = closed forms = spelled-out examples",
    4: "specialized series terminates onto P (|lam|<=4, N<=3)",
    5: "difference equation for the localization series (N=2 deg 3, N=3 deg 2)",
    6: "fixed-degree characters stabilize to the infinite product (order 2)",
    7: "untwisted stable character: product formula and counting series",
    8: "stable character = prefactor * Macdonald polynomial (order 2)",
    9: "shift-operator eigen identity, exact (Sum l_i <= 2, N<=3)",
    10: "stable character vanishes for nondominant twists (order 2)",
    11: "arc-space closed formula vs truncated localization (order 2)",
    12: "byte-identical reports from warm and cold memo tables",
}

_memo: dict = {}


def reports_for(crit: int):
    out = []
    for name, params in CRITERIA[crit]:
        key = (name, tuple(sorted(params.items())))
        if key not in _memo:
            _memo[key] = run_check(name, **params)
        out.append(_memo[key])
    return out


def _run(crit: int):
    reports = reports_for(crit)
    ok = all(r.status == Status.PASSED for r in reports)
    verdict = "PASSED" if ok else "FAILED"
    print(f"criterion {crit:2d} [{TITLES[crit]}]: {verdict}")
    for r in reports:
        assert r.status == Status.PASSED, (crit, r.canonical_json())


@pytest.mark.parametrize("crit", sorted(CRITERIA))
def test_criterion(crit):
    _run(crit)


def _benchmark_cases() -> list:
    """Every check case of every workload in ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(case["check"], case["params"]) for name in workloads.WORKLOADS
            for case in workloads.build_cases(name, 0) if case["kind"] == "check"]


def test_criteria_and_benchmark_cases_name_only_parameters_their_checks_take():
    # run_check raises on any other, which the benchmark would count as a failure
    cases = [case for crit in sorted(CRITERIA) for case in CRITERIA[crit]] + _benchmark_cases()
    assert len(cases) > len(CRITERIA)
    for name, params in cases:
        assert set(params) <= set(check_parameters(name)), (name, params)


def test_criterion_12_determinism():
    first = {crit: reports_for(crit) for crit in sorted(CRITERIA)}
    memo.clear_all()
    mismatches = []
    for crit in sorted(CRITERIA):
        for (name, params), a in zip(CRITERIA[crit], first[crit]):
            if a.canonical_json() != run_check(name, **params).canonical_json():
                mismatches.append((crit, name))
    verdict = "PASSED" if not mismatches else "FAILED"
    print(f"criterion 12 [{TITLES[12]}]: {verdict}")
    assert not mismatches, mismatches


# sha256 over the canonical report lines of criteria 1-11, in order
CANONICAL_SHA256 = "41958a080ac97911c9a1b697b8dbebd2667e3ca652fe10170d23f8829a06a0d2"


def test_canonical_bytes_are_pinned():
    h = hashlib.sha256()
    for crit in sorted(CRITERIA):
        for r in reports_for(crit):
            h.update(r.canonical_json().encode() + b"\n")
    assert h.hexdigest() == CANONICAL_SHA256
