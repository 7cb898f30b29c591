"""maclab benchmark: time verdicts of the verifier on a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a maclab checkout; the package is imported from
``src/``.  Each repetition runs the whole case list in a fresh interpreter
(cold memo tables, empty cache directory), one case at a time.

``--trace 0`` repeats the case list until S seconds have passed and
reports the medians of the end-to-end metrics; the times are scaled to a
reference host speed (see ``at_reference_speed``).  ``--trace 1`` alternates
untraced repetitions with ones that carry span wrappers on every layer,
and reports the per-layer metrics.  Every verdict is checked in both modes.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (per-repetition figures, machine
facts, spans) go to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_cases, case_key, case_label  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"
TMP_DIR = ROOT / ".perfbench-tmp"
SETUP_PROBES = 8
REP_TIMEOUT_S = 170
# seconds child._probe takes at the reference host speed; a 2-core VM
# with Python 3.11 runs it in about 0.004-0.006 s
REF_PROBE_S = 0.006

END_TO_END = [("verdict_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# the same times unscaled, printed and kept in the details only
RAW = [("raw_verdict_s", "s"), ("raw_cpu_s", "s"), ("raw_setup_s", "s")]


def machine_facts() -> dict:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
    }


class Runner:
    """Starts repetitions of a case list, each in a fresh interpreter."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "MACLAB_CACHE_DIR"}

    def rep(self, cases: list, trace: bool = False, spans: Path | None = None) -> dict:
        self.count += 1
        work = self.scratch / f"rep{self.count}"
        work.mkdir()
        spec, result = work / "spec.json", work / "result.json"
        spec.write_text(json.dumps({"cases": cases, "trace": trace, "scratch": str(work),
                                    "spans": str(spans) if spans else None}))
        argv = [sys.executable, str(HERE / "child.py"), str(spec), str(result)]
        proc = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(result.read_text())
        shutil.rmtree(work)
        return out


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "maclab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def workers1_reference(runner: Runner, cases: list) -> dict:
    """Canonical bytes of every case at workers 1, computed once per
    source tree and kept in the output directory."""
    path = OUT_DIR / f"reference-{source_hash()}.json"
    if path.exists():
        return json.loads(path.read_text())
    serial = [dict(c, workers=1) for c in cases]
    rep = runner.rep(serial)
    ref = {case_key(c): r.get("canonical") for c, r in zip(serial, rep["cases"])}
    if None in ref.values():  # a case raised: compare against nothing, keep nothing
        return ref
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ref, sort_keys=True, indent=1))
    tmp.replace(path)
    return ref


def wrong_verdict(case: dict, rec: dict, reference: dict) -> str | None:
    """Why the verdict of one case is wrong, or None if it is right."""
    if "error" in rec:
        return "raised " + rec["error"].strip().splitlines()[-1]
    if case["kind"] == "cli":
        if rec["exit_codes"] != [0, 0]:
            return f"exit codes {rec['exit_codes']}"
        if not rec["warm_equals_cold"]:
            return "warm stdout differs from cold stdout"
        return None
    report = json.loads(rec["canonical"])
    if report["status"] != "PASSED" or report["witnesses"]:
        return f"status {report['status']} with {len(report['witnesses'])} witnesses"
    if case["workers"] != 1 and rec["canonical"] != reference.get(case_key(case)):
        return "canonical report differs from the workers-1 bytes"
    return None


def at_reference_speed(rep: dict) -> None:
    """Scale a repetition's times to the reference host speed, in place.

    Each case's wall and CPU time is multiplied by ``REF_PROBE_S`` times
    the median of 1 / probe over the host-speed samples taken for it, that
    is by how much faster the reference host is than this one was then.
    The median, not the mean: a sample taken while a pool is torn down can
    read several times slower than the host runs the case.  The unscaled
    sums stay in ``raw_verdict_s`` and ``raw_cpu_s``.
    """
    rep["raw_verdict_s"], rep["raw_cpu_s"] = rep["verdict_s"], rep["cpu_s"]
    for rec in rep["cases"]:
        factor = REF_PROBE_S * statistics.median(1 / p for p in rec["probe_s"])
        rec["ref_wall_s"], rec["ref_cpu_s"] = rec["wall_s"] * factor, rec["cpu_s"] * factor
    rep["verdict_s"] = sum(rec["ref_wall_s"] for rec in rep["cases"])
    rep["cpu_s"] = sum(rec["ref_cpu_s"] for rec in rep["cases"])


def quartiles(values: list) -> list:
    """[first quartile, median, third quartile]."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def check_walls(cases: list, reps: list) -> dict:
    """Median over the repetitions of the time spent per case label, at
    the reference host speed."""
    walls = {}
    for rep in reps:
        per_rep = {}
        for case, rec in zip(cases, rep["cases"]):
            label = case_label(case)
            per_rep[label] = per_rep.get(label, 0.0) + rec["ref_wall_s"]
        for label, wall in per_rep.items():
            walls.setdefault(label, []).append(wall)
    return {label: statistics.median(w) for label, w in walls.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so the running repetition is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "maclab" / "__init__.py").is_file():
        print(f"error: maclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = dict(machine_facts(), seed=args.seed, workload=args.workload,
                 seconds=args.seconds, trace=args.trace, load_start=os.getloadavg())
    cases = build_cases(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = TMP_DIR / f"{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        runner = Runner(scratch)
        reference = {}
        if any(c["kind"] == "check" and c["workers"] != 1 for c in cases):
            reference = workers1_reference(runner, cases)
        setup = [runner.rep([]) for _ in range(SETUP_PROBES)]
        # repeat while another step ends nearer to the deadline; in trace
        # mode a step is an untraced and a traced repetition.  End-to-end
        # figures take at least two steps, so no median rests on one sample.
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        min_steps = 1 if args.trace else 2
        plain, traced = [], []
        t0 = time.monotonic()
        elapsed = step_s = 0.0
        while len(plain) < min_steps or elapsed + step_s / 2 < args.seconds:
            t = time.monotonic()
            plain.append(runner.rep(cases))
            if args.trace:
                traced.append(runner.rep(cases, trace=True, spans=None if traced else spans))
            step_s = time.monotonic() - t
            elapsed = time.monotonic() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if TMP_DIR.exists() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
    facts["load_end"] = os.getloadavg()

    for rep in plain:
        at_reference_speed(rep)
    facts["host_probe_s"] = quartiles([p for rep in plain for rec in rep["cases"]
                                       for p in rec["probe_s"]])
    reps = plain + traced
    failures = []
    for k, rep in enumerate(reps):
        for case, rec in zip(cases, rep["cases"]):
            why = wrong_verdict(case, rec, reference)
            if why:
                failures.append(f"rep {k}: {case_key(case)} (workers {case.get('workers', 1)}): {why}")
    attempted = len(cases) * len(reps)
    setup = [(r["setup_s"], r["setup_probe_s"]) for r in setup + reps]

    summary = {name: quartiles([r[name] for r in plain]) for name, _ in END_TO_END + RAW[:2]}
    summary["raw_setup_s"] = quartiles([s for s, _ in setup])
    # set-up is scaled by the median of three host-speed samples taken right after it
    summary["setup_s"] = quartiles([s * REF_PROBE_S / p for s, p in setup])
    case_wall = check_walls(cases, plain)

    if args.trace:
        units = dict(per_layer_metrics())
        # median_low keeps counts integral; they are equal in every traced repetition
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        for name in units:
            if name.startswith("checks."):
                layers[name] = case_wall.get(name[len("checks."):-len(".wall_s")], 0.0)
        layers["trace_overhead"] = (statistics.median(r["verdict_s"] for r in traced)
                                    / summary["raw_verdict_s"][1])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items() if name in layers}
        missing = [name for name in units if name not in layers]
    else:
        metrics = {name: {"value": summary[name][1], "unit": unit} for name, unit in END_TO_END}
        missing = []

    detail = {"facts": facts, "cases": cases, "summary_quartiles": summary,
              "reps": [{k: v for k, v in r.items() if k != "cases"}
                       | {"case_wall_s": [c["wall_s"] for c in r["cases"]],
                          "case_probe_s": [c.get("probe_s") for c in r["cases"]]} for r in reps],
              "setup_samples": setup, "failures": failures, "metrics": metrics,
              "missing": missing}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(f"# maclab benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)} cases/rep={len(cases)}")
    print("# facts " + json.dumps(facts))
    for line in failures:
        print("# WRONG " + line)
    if missing:
        print("# missing (callable or memo table gone): " + ", ".join(missing))
    for name, unit in END_TO_END + RAW:
        q1, med, q3 = summary[name]
        print(f"{name:13s} {med:10.4f} {unit:5s} (quartiles {q1:.4f} .. {q3:.4f})")
    print(f"{'fail_ratio':13s} {len(failures) / attempted:10.4f} ratio ({len(failures)} of {attempted})")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} {m['value']} {m['unit']}")
    else:
        for label, wall in case_wall.items():
            print(f"  checks.{label}.wall_s {wall:.4f} s")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
