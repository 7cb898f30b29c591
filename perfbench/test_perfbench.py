"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run the real workloads (about three minutes on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_cases  # noqa: E402

SMALL_CASES = [
    ("cn", {"max_entry": 1, "max_n": 3}, 1),
    ("termination", {"max_size": 2, "max_n": 2}, 1),
    ("hp", {"max_n": 2, "order": 2, "max_weight_sum": 1}, 1),
    ("shir", {"n": 2, "degree": 2}, 1),
    ("junichi", {"n": 2, "order": 2}, 1),
    ("chibq", {"max_n": 2, "order": 2}, 2),
    ("tableau-oracle", {"max_size": 3, "max_n": 3}, 2),
    ("eigen", {"max_size": 3, "max_n": 3}, 1),
    ("pieri", {"max_n": 2, "max_weight_sum": 1}, 1),
    ("cordiff", {"max_n": 2, "max_weight_sum": 1}, 1),
]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()


def test_case_lists_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert build_cases(workload, 7) == build_cases(workload, 7)
        orders = {json.dumps(build_cases(workload, seed)) for seed in range(8)}
        assert len(orders) > 1
    assert sum(c["kind"] == "cli" for c in build_cases("macdonald-tableaux", 3)) == 3


def _reports(tmp: Path) -> list:
    from maclab import checks, cli

    out = [checks.run_check(name, workers=w, **params).canonical_json()
           for name, params, w in SMALL_CASES]
    for i in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["macdonald", "--n", "3", "--lambda", "2,1", "--output", "json",
                             "--cache-dir", str(tmp / f"cache{i}")])
        out.append((code, buf.getvalue()))
    return out


def _namespaces() -> dict:
    import maclab.cli  # noqa: F401
    from maclab.algebra import FactoredRational, LaurentPolynomial
    from maclab.cache import ResultCache
    from maclab.series import QTSeries
    import multiprocessing.pool

    spaces = {name: m for name, m in sys.modules.items() if name.startswith("maclab")}
    for cls in (FactoredRational, LaurentPolynomial, QTSeries, ResultCache,
                multiprocessing.pool.Pool):
        spaces[cls.__qualname__] = cls
    return {name: dict(vars(obj)) for name, obj in spaces.items()}


def test_wrappers_leave_reports_byte_identical():
    tmp = run.TMP_DIR / "selftest-wrappers"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        plain = _reports(tmp / "plain")
        before = _namespaces()  # after a plain run, which caches pickling state
        tracer = Tracer()
        tracer.install()
        try:
            assert not tracer.missing
            traced = _reports(tmp / "traced")
        finally:
            tracer.remove()
        after = _namespaces()
        again = _reports(tmp / "again")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert traced == plain
    assert again == plain
    assert tracer.calls[tracer.names.index("algebra.FactoredRational.__init__")] > 0
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert after[name].keys() == space.keys(), name
        changed = [k for k, v in space.items() if after[name][k] is not v]
        assert not changed, (name, changed)


def test_a_removed_callable_or_memo_is_reported_missing(monkeypatch):
    import tracer

    monkeypatch.setitem(tracer.LAYERS, "algebra", tracer.LAYERS["algebra"] + ["gone"])
    monkeypatch.setitem(tracer.LAYERS, "vanished_module", ["f"])
    monkeypatch.setattr(tracer, "MEMOS", tracer.MEMOS + [("euler", "_gone_memo")])
    t = Tracer()
    t.install()
    t.remove()
    assert t.missing == ["algebra.gone", "vanished_module.f"]
    metrics = t.metrics()
    assert "algebra.gone.calls" not in metrics and "euler._gone_memo.size" not in metrics
    assert "algebra.rational_eq.calls" in metrics


def test_times_are_scaled_by_the_host_speed_samples():
    fast, slow = run.REF_PROBE_S, 2 * run.REF_PROBE_S
    rep = {"verdict_s": 3.0, "cpu_s": 2.5, "cases": [
        {"wall_s": 1.0, "cpu_s": 1.0, "probe_s": [fast, fast, 5 * fast]},
        {"wall_s": 2.0, "cpu_s": 1.5, "probe_s": [slow, slow, fast, fast]},
    ]}
    run.at_reference_speed(rep)
    # one outlying sample does not move the first case; the second ran at
    # half the reference speed half of the time
    assert rep["verdict_s"] == pytest.approx(1.0 + 2.0 * 0.75)
    assert rep["cpu_s"] == pytest.approx(1.0 + 1.5 * 0.75)
    assert (rep["raw_verdict_s"], rep["raw_cpu_s"]) == (3.0, 2.5)


@pytest.fixture(scope="module")
def runner():
    scratch = run.TMP_DIR / "selftest-runner"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    yield run.Runner(scratch)
    shutil.rmtree(scratch, ignore_errors=True)


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith(("self_s", "wait_s"))}


def _workers1_reference(runner, cases, monkeypatch) -> dict:
    """The runner's workers-1 reference, built into an empty output
    directory and then read back from the file it wrote."""
    out = run.TMP_DIR / "selftest-out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    monkeypatch.setattr(run, "OUT_DIR", out)
    try:
        built = run.workers1_reference(runner, cases)
        assert len(list(out.glob("reference-*.json"))) == 1
        assert run.workers1_reference(runner, cases) == built
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return built


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_repeats_the_verdicts_and_counts(runner, workload, monkeypatch):
    cases = build_cases(workload, 1)
    plain = runner.rep(cases)
    traced = runner.rep(cases, trace=True)
    assert traced["missing"] == []
    timing = {"wall_s", "cpu_s", "probe_s"}
    strip = [{k: v for k, v in rec.items() if k not in timing} for rec in plain["cases"]]
    assert [{k: v for k, v in rec.items() if k not in timing} for rec in traced["cases"]] == strip
    # host-speed samples: some before and after each case, more inside it
    assert "probe_s" not in traced["cases"][0]
    assert all(len(rec["probe_s"]) >= 2 * child.BOUNDARY_SAMPLES for rec in plain["cases"])
    assert max(len(rec["probe_s"]) for rec in plain["cases"]) > 2 * child.BOUNDARY_SAMPLES
    reference = {}
    if workload == "parallel-mix":
        reference = _workers1_reference(runner, cases, monkeypatch)
        # the gate compares workers-2 bytes with the reference, and notices a change
        case, rec = cases[0], plain["cases"][0]
        tampered = dict(reference, **{run.case_key(case): rec["canonical"] + " "})
        assert run.wrong_verdict(case, rec, tampered) is not None
    assert not any(run.wrong_verdict(c, r, reference) for c, r in zip(cases, plain["cases"]))
    layers = traced["layers"]
    if workload == "parallel-mix":
        assert layers["parallel.pmap.pooled_calls"] > 0
        return
    assert layers["parallel.pmap.pooled_calls"] == 0
    assert _counts(runner.rep(cases, trace=True)["layers"]) == _counts(layers)
    if workload == "coeff-forms":
        assert layers["series.expand_sum.calls"] == layers["series.expand_split.calls"] == 0


def test_fails_without_the_program():
    bare = run.TMP_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coeff-forms",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
