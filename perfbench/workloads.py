"""The benchmark's workloads and the seeded case lists built from them.

A case is one call into a public entry point of maclab, written as a
JSON-ready dict:

* ``{"kind": "check", "check": name, "params": {...}, "workers": W}`` runs
  ``maclab.checks.run_check(name, workers=W, **params)``;
* ``{"kind": "cli", "n": 4, "lambda": [2, 1]}`` runs
  ``maclab.cli.main(["macdonald", ...])`` twice against a fresh cache
  directory: the first call misses and writes, the second reads.

The seed permutes the case order (the package's memo tables are shared
between checks, so order decides which check fills them) and, in
``macdonald-tableaux``, draws the partitions of the CLI cache pass.
"""

from __future__ import annotations

import random

COEFF_FORMS = [
    ("cn", {"max_entry": 1, "max_n": 4}),
    ("cn", {"max_entry": 2, "max_n": 3}),
    ("termination", {"max_size": 3, "max_n": 3}),
]

STABLE_CHARACTERS = [
    ("hp", {"max_n": 3, "order": 2, "max_weight_sum": 1}),
    ("shir", {"n": 3, "degree": 2}),
    ("junichi", {"n": 3, "order": 2}),
    ("chibq", {"max_n": 3, "order": 2}),
]

MACDONALD_TABLEAUX = [
    ("tableau-oracle", {"max_size": 5, "max_n": 4}),
    ("eigen", {"max_size": 5, "max_n": 4}),
    ("pieri", {"max_n": 3, "max_weight_sum": 2}),
    ("cordiff", {"max_n": 3, "max_weight_sum": 2}),
]

# CLI cache pass: partitions of 1..5 with at most 4 parts, at n = 4.
# tableau-oracle and eigen compute P for every one of them, so the pass
# moves memo work between cases but adds none, whichever are drawn.
CLI_N = 4
CLI_SAMPLE = 3


def _partitions(size: int, max_len: int, max_part: int | None = None) -> list:
    if size == 0:
        return [()]
    if max_len == 0:
        return []
    top = size if max_part is None else min(size, max_part)
    out = []
    for first in range(top, 0, -1):
        for rest in _partitions(size - first, max_len - 1, first):
            out.append((first,) + rest)
    return out


CLI_PARTITIONS = [lam for size in range(1, 6) for lam in _partitions(size, CLI_N)]


CLI_LABEL = "macdonald-cli"

# labels of checks.<label>.wall_s, in report order (see case_label)
CASE_LABELS = list(dict.fromkeys(
    name for name, _ in COEFF_FORMS + STABLE_CHARACTERS + MACDONALD_TABLEAUX)) + [CLI_LABEL]


def _checks(entries, workers: int) -> list:
    return [{"kind": "check", "check": name, "params": dict(params), "workers": workers}
            for name, params in entries]


# workload -> why it was chosen (one line, copied into BENCHMARK.json)
WORKLOADS = {
    "coeff-forms": "cn and termination: FactoredRational construction dominates; "
                   "series, pool and cache are idle (bypass for series reuse and fan-out)",
    "stable-characters": "hp, shir, junichi, chibq localization sums: expand_split, "
                         "QTSeries multiply and the H_limit schedule in the laumon/euler layers",
    "macdonald-tableaux": "tableau-oracle, eigen, pieri, cordiff and a CLI cache pass: "
                          "divide_exact and polynomial multiply, shared _P_memo, ResultCache reads and writes",
    "parallel-mix": "every coeff-forms and stable-characters case at workers 2: "
                    "the only workload where parallel.pmap forks a pool",
}


def build_cases(workload: str, seed: int) -> list:
    """The case list of ``workload`` for ``seed``: same seed, same list."""
    rng = random.Random(seed)
    if workload == "coeff-forms":
        cases = _checks(COEFF_FORMS, 1)
    elif workload == "stable-characters":
        cases = _checks(STABLE_CHARACTERS, 1)
    elif workload == "macdonald-tableaux":
        cases = _checks(MACDONALD_TABLEAUX, 1)
        cases += [{"kind": "cli", "n": CLI_N, "lambda": list(lam)}
                  for lam in rng.sample(CLI_PARTITIONS, CLI_SAMPLE)]
    elif workload == "parallel-mix":
        cases = _checks(COEFF_FORMS + STABLE_CHARACTERS, 2)
    else:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(cases)
    return cases


def case_label(case: dict) -> str:
    """The name a case is reported under in ``checks.<label>.wall_s``."""
    return case["check"] if case["kind"] == "check" else CLI_LABEL


def case_key(case: dict) -> str:
    """A stable identity of a case, independent of workers and order."""
    if case["kind"] == "cli":
        return f"cli n={case['n']} lambda={case['lambda']}"
    params = " ".join(f"{k}={v}" for k, v in sorted(case["params"].items()))
    return f"{case['check']} {params}"
