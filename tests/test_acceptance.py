"""Acceptance criteria, one test per criterion.

Every criterion runs through the same registry as ``maclab verify`` with
its pinned parameter range and exact (zero-tolerance) equality.  Each
test prints one pass/fail line; run with ``pytest -v -s`` to see them.
The final criterion reruns everything with ``workers=8`` (which
``run_check`` ignores: checks run serially) and compares the canonical
report bytes against the first runs.  A last test pins the canonical
bytes of every criterion to one sha256.
"""

import hashlib

import pytest

from maclab.checks import run_check
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
    12: "byte-identical reports at parallelism 1 and 8",
}

_memo: dict = {}


def reports_for(crit: int, workers: int):
    out = []
    for name, params in CRITERIA[crit]:
        key = (name, tuple(sorted(params.items())), workers)
        if key not in _memo:
            _memo[key] = run_check(name, workers=workers, **params)
        out.append(_memo[key])
    return out


def _run(crit: int):
    reports = reports_for(crit, workers=1)
    ok = all(r.status == Status.PASSED for r in reports)
    verdict = "PASSED" if ok else "FAILED"
    print(f"criterion {crit:2d} [{TITLES[crit]}]: {verdict}")
    for r in reports:
        assert r.status == Status.PASSED, (crit, r.canonical_json())


@pytest.mark.parametrize("crit", sorted(CRITERIA))
def test_criterion(crit):
    _run(crit)


def test_criterion_12_determinism():
    mismatches = []
    for crit in sorted(CRITERIA):
        serial = reports_for(crit, workers=1)
        parallel = reports_for(crit, workers=8)
        for a, b in zip(serial, parallel):
            if a.canonical_json() != b.canonical_json():
                mismatches.append((crit, a.check))
    verdict = "PASSED" if not mismatches else "FAILED"
    print(f"criterion 12 [{TITLES[12]}]: {verdict}")
    assert not mismatches, mismatches


# sha256 over the canonical report lines of criteria 1-11, in order
CANONICAL_SHA256 = "41958a080ac97911c9a1b697b8dbebd2667e3ca652fe10170d23f8829a06a0d2"


def test_canonical_bytes_are_pinned():
    h = hashlib.sha256()
    for crit in sorted(CRITERIA):
        for r in reports_for(crit, 1):
            h.update(r.canonical_json().encode() + b"\n")
    assert h.hexdigest() == CANONICAL_SHA256
